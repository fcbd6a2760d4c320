"""The three benchmark workloads: inputs, one timed pass each, and output checks.

``setup_inputs`` runs in the benchmark's parent process and writes the
generated files a pass reads. Each ``*_pass`` function runs one pass in a
fresh child process, drives factorlab only through its public surface (the
CLI, the Python API, or the JSON-RPC tool server), calls ``clock.tick()``
between operations so that the reference kernel runs between slices of the
work (see hostref.py), and returns the pass's time stamps, its operations
with their outcomes, and the spreads to check against the straight-loop
oracles.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

# (n_assets, n_months) per workload; agent_attempts uses the oracle shape.
# cli_wide has 500 assets, not 1,000, so that a 30 s run holds two to four
# passes to take the median of, not one
SIZES = {
    "cli_wide": (500, 72),
    "api_deep": (100, 1200),
    "agent_attempts": (50, 120),
}
WORKLOADS = tuple(SIZES)

# planted drifts and missing returns, as in the tier-1 oracle dataset
GENERATOR = {"mom_spread": 0.002, "val_spread": 0.003, "missing_ret_rate": 0.02}

# absolute tolerance of the spread-vs-oracle check; the engine agrees to ~1e-16
TOLERANCE = 1e-12

RECIPES = ("hml", "jkp_momentum", "market_vw", "ewma_vol")
SOURCES_DIR = "sources"  # agent_attempts: saved source panels under the inputs

# agent_attempts: attempts per session, alternating hml and jkp_momentum; 60
# attempts make about 1,200 tool calls, so at least ten lie beyond the p99
ATTEMPTS = 60
SIM_KS = (1, 5, 10)

# one varied argument per attempt: (step output, argument, value)
VARIATIONS = {
    "hml": [
        ("VALUE_BIN", "percentiles", [20, 80]),
        ("VALUE_BIN", "percentiles", [25, 75]),
        ("VALUE_BIN", "percentiles", [35, 65]),
        ("VALUE_BIN", "percentiles", [40, 60]),
        ("SIZE_BIN", "percentiles", [40]),
        ("SIZE_BIN", "percentiles", [60]),
    ],
    "jkp_momentum": [
        ("MOM", "min_obs", 8),
        ("MOM", "min_obs", 9),
        ("MOM", "min_obs", 10),
        ("NYSE_P20", "pct", 10),
        ("NYSE_P20", "pct", 30),
        ("CAP_CAPPED", "hi_pct", 70),
        ("CAP_CAPPED", "hi_pct", 90),
    ],
}
SPREAD_OUTPUT = {"hml": "HML_spread", "jkp_momentum": "MOM_spread"}


@dataclass
class Op:
    """One attempted operation: a CLI command, an API call or a tool call.

    ``t0`` and ``t1`` are ``time.perf_counter()`` stamps.
    """

    kind: str
    ok: bool
    t0: float
    t1: float
    detail: str = ""


@dataclass
class PassResult:
    started: float
    ended: float
    ops: list[Op] = field(default_factory=list)
    spreads: dict[str, dict[int, float | None]] = field(default_factory=dict)

    def to_dict(self, clock) -> dict:
        """Times at the reference speed, and as measured (``*_measured``)."""
        return {
            "chain_s": clock.scaled(self.started, self.ended),
            "chain_measured_s": clock.measured(self.started, self.ended),
            "ops": [{"kind": op.kind, "ok": op.ok, "detail": op.detail,
                     "ms": clock.scaled(op.t0, op.t1) * 1e3,
                     "measured_ms": clock.measured(op.t0, op.t1) * 1e3}
                    for op in self.ops],
            "spreads": self.spreads,
        }


def make_config(seed: int, n_assets: int, n_months: int):
    from factorlab.synthetic import GeneratorConfig

    return GeneratorConfig(seed=seed, n_assets=n_assets, n_months=n_months, **GENERATOR)


def setup_inputs(workload: str, config, inputs: Path) -> tuple[float, float]:
    """Generate the workload's files into ``inputs``; returns the generator's stamps.

    agent_attempts also ingests them and saves the source panels its
    ``load_source`` calls read.
    """
    from factorlab import ingest, panel, synthetic

    started = time.perf_counter()
    synthetic.generate_synthetic(config, inputs)
    generated = started, time.perf_counter()
    if workload == "agent_attempts":
        result = ingest.ingest_dataset(inputs / "monthly.csv", inputs / "annual.csv")
        for source in result.panels.values():
            panel.save(source, inputs / SOURCES_DIR)
    return generated


def series_map(p) -> dict[int, float | None]:
    """One-column panel as {month ordinal: value or None}."""
    return {
        int(o): (None if v != v else float(v))
        for o, v in zip(p.dates.ordinals, p.values[:, 0])
    }


def _timed(ops: list[Op], clock, kind: str, fn, *args) -> object:
    """Run one API operation; an exception marks it failed and returns None."""
    started = time.perf_counter()
    try:
        result, ok, detail = fn(*args), True, ""
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        result, ok, detail = None, False, f"{type(exc).__name__}: {exc}"
    ops.append(Op(kind, ok, started, time.perf_counter(), detail))
    clock.tick()
    return result


# -- cli_wide -------------------------------------------------------------------


def cli_commands(inputs: Path, out: Path) -> list[list[str]]:
    data = ["--data-dir", str(inputs), "--out-dir", str(out)]
    saved = ["--data-dir", str(out), "--out-dir", str(out / "report")]
    return [
        data + ["ingest"],
        data + ["run", "hml"],
        data + ["run", "jkp_momentum"],
        data + ["run", "market_vw"],
        saved + ["report", "--spread", "HML_spread", "--characteristic", "BM",
                 "--model", "CAPM=MKT", "--stratify-recipe", "hml"],
    ]


def _cli(cli, argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


def cli_wide_pass(inputs: Path, out: Path, seed: int, clock) -> PassResult:
    from factorlab import cli, panel

    ops: list[Op] = []
    started = time.perf_counter()
    for argv in cli_commands(inputs, out):
        t0 = time.perf_counter()
        code = _cli(cli, argv)
        name = argv[4] if argv[4] != "run" else f"run {argv[5]}"
        ops.append(Op(f"cli {name}", code == 0, t0, time.perf_counter(), f"exit {code}"))
        clock.tick()
    result = PassResult(started, time.perf_counter(), ops)
    for name in SPREAD_OUTPUT.values():
        if (out / f"{name}.csv").exists():
            result.spreads[name] = series_map(panel.load(out, name))
    return result


# -- api_deep -------------------------------------------------------------------


def _run_recipe(name: str, sources: dict):
    from factorlab import pipeline

    spec = pipeline.load_recipe(name)
    registry, result = pipeline.run_recipe(spec, {s: sources[s] for s in spec.sources})
    return {out: registry.get(pid) for out, pid in result.outputs.items()}


def _deep_report(sources: dict, runs: dict):
    from factorlab import pipeline, report, transforms

    hml, mkt = runs["hml"], runs["market_vw"]["MKT"].to_series("MKT")
    mom = runs["jkp_momentum"]["MOM_spread"].to_series("MOM")
    size_bins = transforms.quantile_bins(sources["CAP"], [100.0 / 3.0, 200.0 / 3.0],
                                         universe=sources["NYSE"])
    spec = pipeline.load_recipe("hml")
    builder = pipeline.make_spread_builder(
        spec, {s: sources[s] for s in spec.sources}, "HML_spread")
    return report.build_report(
        hml["HML_spread"].to_series("HML_spread"), hml["BM"], sources["CAP"], size_bins,
        {"CAPM": [mkt], "CAPM+MOM": [mkt, mom]},
        spread_builder=builder, recipe_reference="hml",
        se_method="newey_west", nw_lags=12,
    )


def api_deep_pass(inputs: Path, out: Path, seed: int, clock) -> PassResult:
    from factorlab import ingest, report

    ops: list[Op] = []
    started = time.perf_counter()
    ingested = _timed(ops, clock, "api ingest_dataset", ingest.ingest_dataset,
                      inputs / "monthly.csv", inputs / "annual.csv")
    sources = ingested.panels if ingested is not None else {}
    runs = {name: _timed(ops, clock, f"api run_recipe {name}", _run_recipe, name, sources)
            for name in RECIPES}
    rep = _timed(ops, clock, "api build_report", _deep_report, sources, runs)
    _timed(ops, clock, "api render_markdown", report.render_markdown, rep)
    result = PassResult(started, time.perf_counter(), ops)
    for recipe, name in SPREAD_OUTPUT.items():
        if runs.get(recipe) is not None:
            result.spreads[name] = series_map(runs[recipe][name])
    return result


# -- agent_attempts -------------------------------------------------------------


@dataclass
class Request:
    line: str
    kind: str  # operator | load_source | save_panel | build_report | error | other
    expect: frozenset  # empty: a result; else the accepted error codes


def _substitute(value, params: dict):
    if isinstance(value, str) and value.startswith("$"):
        return params[value[1:]]
    if isinstance(value, list):
        return [_substitute(v, params) for v in value]
    return value


def _recipe_steps(name: str) -> list[dict]:
    """A shipped recipe's steps with its ``$params`` filled in, read as a client would."""
    from factorlab import pipeline

    doc = json.loads(pipeline.shipped_recipes()[name].read_text())
    params = doc.get("params", {})
    return [{**step, "args": {k: _substitute(v, params) for k, v in step["args"].items()}}
            for step in doc["steps"]]


_SOURCE_IDS = ("RET", "CAP", "CAPCO", "NYSE", "SEQ", "PSTKRV", "PSTKL", "PSTK")


class _Client:
    """Builds the request lines of one session with increasing ids."""

    def __init__(self):
        self.requests: list[Request] = []
        self._id = 0

    def _next_id(self) -> int:
        self._id += 1
        return self._id

    def raw(self, line: str, kind: str, expect=()):
        self.requests.append(Request(line, kind, frozenset(expect)))

    def call(self, tool: str, arguments: dict, kind: str, expect=()):
        msg = {"jsonrpc": "2.0", "id": self._next_id(), "method": "tools/call",
               "params": {"name": tool, "arguments": arguments}}
        self.raw(json.dumps(msg), kind, expect)

    def replay(self, steps: list[dict], prefix: str):
        for step in steps:
            self.call(step["op"], {
                "inputs": [i if i in _SOURCE_IDS else f"{prefix}{i}" for i in step["inputs"]],
                "args": step["args"],
                "name": f"{prefix}{step['output']}",
            }, "operator")


def _hostile(client: _Client, index: int, sources: str) -> None:
    """One malformed or hostile call, cycling through seven kinds."""
    from factorlab.toolserver import (
        INVALID_PARAMS, METHOD_NOT_FOUND, PARSE_ERROR, RUNTIME_ERROR,
    )

    rejected = (INVALID_PARAMS, RUNTIME_ERROR)
    kind = index % 7
    if kind == 0:
        client.raw('{"jsonrpc": "2.0", "id": 0, "method": "tools/call", "params": {',
                   "error", (PARSE_ERROR,))
    elif kind == 1:
        client.call("no_such_tool", {}, "error", (METHOD_NOT_FOUND,))
    elif kind == 2:
        client.call("quantile_bins", {"inputs": ["CAP"], "args": {"percentiles": [150]}},
                    "error", (INVALID_PARAMS,))
    elif kind == 3:
        client.call("compare", {"inputs": ["NO_SUCH_PANEL"],
                                "args": {"op": "ge", "threshold": 0}},
                    "error", (INVALID_PARAMS,))
    elif kind == 4:  # json.dumps writes the NaN literal
        client.call("winsorize", {"inputs": ["CAP"], "args": {"hi_pct": float("nan")}},
                    "error", rejected)
    elif kind == 5:
        client.call("load_source", {"directory": sources, "panel_id": "RET"},
                    "error", rejected)
    else:
        client.call("trend", {"inputs": ["RET"],
                              "args": {"name": "ewma", "params": {"bogus": 1}}},
                    "error", rejected)


def attempt_prefix(k: int) -> str:
    return f"a{k}_"


def attempt_recipe(k: int) -> str:
    return "hml" if k % 2 == 0 else "jkp_momentum"


def agent_plan(seed: int, sources: Path, out: Path) -> list[Request]:
    """The session's request lines. Attempts 0 (hml) and 1 (jkp) are unvaried."""
    rng = random.Random(seed)
    client = _Client()
    client.raw(json.dumps({"jsonrpc": "2.0", "id": 0, "method": "tools/list"}), "other")
    for source in _SOURCE_IDS:
        client.call("load_source", {"directory": str(sources), "panel_id": source},
                    "load_source")
    steps = {name: _recipe_steps(name) for name in ("hml", "jkp_momentum", "market_vw")}
    for k in range(ATTEMPTS):
        recipe = attempt_recipe(k)
        plan = [dict(step) for step in steps[recipe]]
        if k >= 2:
            output, arg, value = rng.choice(VARIATIONS[recipe])
            for step in plan:
                if step["output"] == output:
                    step["args"] = {**step["args"], arg: value}
        client.replay(plan, attempt_prefix(k))
        client.call("save_panel", {"panel_id": f"{attempt_prefix(k)}{SPREAD_OUTPUT[recipe]}",
                                   "directory": str(out)}, "save_panel")
        _hostile(client, k, str(sources))

    client.call("quantile_bins", {"inputs": ["CAP", "NYSE"],
                                  "args": {"percentiles": [100.0 / 3.0, 200.0 / 3.0]},
                                  "name": "SIZE_TERCILES"}, "operator")
    client.replay(steps["market_vw"], "mkt_")
    client.call("export_graph", {"panel_id": "a0_HML_spread"}, "other")
    client.call("catalog_lookup", {"query": "book equity preferred stock"}, "other")
    client.call("build_report", {
        "spread": "a0_HML_spread", "characteristic": "a0_BM", "cap": "CAP",
        "size_bins": "SIZE_TERCILES", "models": {"CAPM": ["mkt_MKT"]},
        "stratify_recipe": "hml",
    }, "build_report")
    return client.requests


def outcome_ok(request: Request, response: str | None) -> bool:
    """Whether a response is the outcome the client expected."""
    if response is None:
        return False
    try:
        doc = json.loads(response)
    except json.JSONDecodeError:
        return False
    if not request.expect:
        return isinstance(doc, dict) and "result" in doc and "error" not in doc
    error = doc.get("error") if isinstance(doc, dict) else None
    return isinstance(error, dict) and error.get("code") in request.expect


def _simk(server, out: Path, recipe: str):
    """Sim@k of one recipe's saved attempts against the pipeline's own spread."""
    from factorlab import evalharness, panel, pipeline

    spec = pipeline.load_recipe(recipe)
    registry, result = pipeline.run_recipe(
        spec, {s: server.registry.get(s) for s in spec.sources})
    name = SPREAD_OUTPUT[recipe]
    reference = registry.get(result.outputs[name])
    tries = tuple(panel.load(out, f"{attempt_prefix(k)}{name}")
                  for k in range(ATTEMPTS) if attempt_recipe(k) == recipe)
    sim = evalharness.evaluate_task(
        evalharness.AttemptSet(recipe, tries, reference),
        [k for k in SIM_KS if k <= len(tries)])
    if abs(sim.per_attempt_sims[0] - 1.0) > 1e-9:
        raise ValueError(f"unvaried {recipe} attempt has similarity "
                         f"{sim.per_attempt_sims[0]!r}, expected 1")
    return tries[0]


def agent_attempts_pass(inputs: Path, out: Path, seed: int, clock) -> PassResult:
    from factorlab.toolserver import ToolServer

    requests = agent_plan(seed, inputs / SOURCES_DIR, out)
    ops: list[Op] = []
    started = time.perf_counter()
    server = ToolServer()
    for request in requests:
        t0 = time.perf_counter()
        try:
            response, detail = server.handle_line(request.line), ""
        except Exception as exc:  # noqa: BLE001 - an escape is a failed call
            response, detail = None, f"escaped handle_line: {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        ok = outcome_ok(request, response)
        if not ok and not detail:
            detail = (response or "no response")[:200]
        ops.append(Op(f"tool {request.kind}", ok, t0, t1, detail))
        clock.tick()
    unvaried = {recipe: _timed(ops, clock, f"simk {recipe}", _simk, server, out, recipe)
                for recipe in SPREAD_OUTPUT}
    result = PassResult(started, time.perf_counter(), ops)
    for recipe, name in SPREAD_OUTPUT.items():
        if unvaried[recipe] is not None:
            result.spreads[name] = series_map(unvaried[recipe])
    return result


PASSES = {
    "cli_wide": cli_wide_pass,
    "api_deep": api_deep_pass,
    "agent_attempts": agent_attempts_pass,
}


# -- output checks (parent process) -------------------------------------------------


def check_spread(produced: dict | None, oracle: dict[int, float]) -> str:
    """Empty string when the produced spread matches the oracle, else the reason."""
    if produced is None:
        return "spread missing"
    live = {int(m): v for m, v in produced.items() if v is not None}
    if set(live) != set(oracle):
        return (f"months differ: {len(set(live) - set(oracle))} extra, "
                f"{len(set(oracle) - set(live))} missing")
    worst = max((abs(live[m] - oracle[m]) for m in oracle), default=0.0)
    if not worst <= TOLERANCE:
        return f"max abs difference {worst!r} exceeds {TOLERANCE}"
    return ""
