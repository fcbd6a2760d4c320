"""Command-line entry point: gen, ingest, run, export, report, graph, simk, plot, serve.

``ingest`` saves the store (``<id>.npy`` and ``<id>.meta.json``) of each source
panel. ``run`` saves the store of each source its recipe reads, so that its
``--out-dir`` serves alone, and of each panel its steps made. ``report``,
``graph``, ``plot`` and ``export`` read the store of ``--data-dir``. The
long-form ``<id>.csv`` is written only on request: by ``export ID ...`` for
saved panels, and by a ``run`` that succeeds for its result, the last step's
output.

After its store, ``ingest`` writes ``<out-dir>/ingest.json``: the version, each CSV's
name and sha256, each source's digest and the row counts. ``run`` loads its sources
from that store while the record matches its version, CSVs and each loaded source;
else, a missing or malformed record too, it parses the CSVs and records its sources.

Exit codes: 0 success, 1 usage, 2 validation, 3 runtime. Usage errors (bad
options, ``--param``/``--model`` syntax, an invalid generator config, a Sim@k
``k`` outside the attempts) exit 1 where they are found. Every other failure
is an exception that ``main`` alone maps to a code: ``StepExecutionError``
(an aborted recipe step) and ``OSError`` (I/O) exit 3, any other
``EngineError`` (bad recipes, unknown panels, malformed inputs, unalignable
series) exits 2. Only the generator consumes randomness, and it honors
--seed; everything else is deterministic by construction.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from . import panel as panelio
from . import evalharness, pipeline, plotting, report, synthetic, transforms
from .errors import DataError, EngineError, StepExecutionError
from .panel import PanelRegistry
from .toolserver import ToolServer


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

SIZE_TERCILES = [100.0 / 3.0, 200.0 / 3.0]
RECORD = "ingest.json"  # what made the store in an out-dir; see the module docstring
log = logging.getLogger("factorlab.cli")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage is 1 here
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _fail(code: int, message: str):
    sys.stderr.write(f"error: {message}\n")
    sys.exit(code)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="factorlab",
                     description="Deterministic panel-data factor research engine")
    parser.add_argument("--data-dir", default=".", help="input directory")
    parser.add_argument("--out-dir", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="generator seed")
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write synthetic monthly.csv and annual.csv")
    gen.add_argument("--n-assets", type=int, default=50)
    gen.add_argument("--n-months", type=int, default=120)
    gen.add_argument("--start", default="1990-01")
    gen.add_argument("--fraction-nyse", type=float, default=0.4)
    gen.add_argument("--mom-spread", type=float, default=0.0)
    gen.add_argument("--val-spread", type=float, default=0.0)
    gen.add_argument("--idio-vol", type=float, default=0.05)
    gen.add_argument("--beta-sd", type=float, default=0.2)
    gen.add_argument("--missing-ret-rate", type=float, default=0.0)
    gen.add_argument("--small-only", action="store_true",
                     help="restrict the momentum drift to below-median caps")

    ing = sub.add_parser("ingest", help="ingest CSVs into saved source panels")
    ing.add_argument("--monthly", default="monthly.csv")
    ing.add_argument("--annual", default="annual.csv")

    run = sub.add_parser("run", help="validate and execute a recipe", description=(
        "Validate and execute a recipe. --out-dir's ingest.json records the sha256 of the CSVs "
        "and of each source saved from them. When the CSVs and every source the recipe reads "
        "still match it, the sources are loaded from that store instead of parsed."))
    run.add_argument("recipe", help="recipe path or shipped name (hml, jkp_momentum, ...)")
    run.add_argument("--monthly", default="monthly.csv")
    run.add_argument("--annual", default="annual.csv")
    run.add_argument("--param", action="append", default=[],
                     metavar="KEY=VALUE", help="override a recipe parameter")
    run.add_argument("--dry-run", action="store_true",
                     help="validate and print the step plan without executing")

    exp = sub.add_parser(
        "export", help="write saved panels as long-form CSV",
        description="Write each saved panel of --data-dir to --out-dir as <ID>.csv: long form "
                    "'date,asset,value' in date-major order, missing cells omitted. ingest and "
                    "run save only the binary store, apart from run's result, so this is how "
                    "any other panel becomes a CSV. Every ID is read before a file is written. "
                    "An existing <ID>.csv that is not such an export, such as an input, is an "
                    "error and is left as it is.")
    exp.add_argument("panel_ids", nargs="+", metavar="ID", help="saved panel id")

    rep = sub.add_parser("report", help="build the standardized diagnostics report")
    rep.add_argument("--spread", required=True, help="saved spread panel id")
    rep.add_argument("--characteristic", required=True)
    rep.add_argument("--cap", default="CAP")
    rep.add_argument("--size-bins", default=None,
                     help="saved size-bin panel id; default: cap terciles")
    rep.add_argument("--model", action="append", default=[],
                     metavar="NAME=ID[,ID...]", help="benchmark model factor ids")
    rep.add_argument("--stratify-recipe", default=None)
    rep.add_argument("--stratify-output", default=None)
    rep.add_argument("--weights", default=None,
                     help="weight panel id for the turnover statistic")

    gra = sub.add_parser("graph", help="export a panel's provenance graph")
    gra.add_argument("panel_id")
    gra.add_argument("--format", choices=["dot", "json"], default="dot")

    sim = sub.add_parser("simk", help="Sim@k table from an evaluation manifest")
    sim.add_argument("manifest")
    sim.add_argument("--k", type=int, nargs="+", default=[1, 2, 5])
    sim.add_argument("--failure-score", type=float,
                     default=evalharness.FAILED_ATTEMPT_SCORE)

    plo = sub.add_parser("plot", help="SVG scatter of a series against a benchmark")
    plo.add_argument("panel_id")
    plo.add_argument("benchmark_id")

    sub.add_parser("serve", help="JSON-RPC 2.0 tool server on stdio")
    return parser


# -- command bodies -------------------------------------------------------------


def _write(args, name: str, text: str) -> None:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text)
    print(out / name)


def cmd_gen(args) -> int:
    try:
        config = synthetic.GeneratorConfig(
            seed=args.seed if args.seed is not None else 42,
            n_assets=args.n_assets,
            n_months=args.n_months,
            start_month=args.start,
            fraction_nyse=args.fraction_nyse,
            mom_spread=args.mom_spread,
            val_spread=args.val_spread,
            idio_vol=args.idio_vol,
            beta_sd=args.beta_sd,
            missing_ret_rate=args.missing_ret_rate,
            mom_spread_small_only=args.small_only,
        )
        config.validate()
    except EngineError as exc:
        _fail(EXIT_USAGE, str(exc))
    for path in synthetic.generate_synthetic(config, args.out_dir):
        print(path)
    return EXIT_OK


def _ingest_sources(args):
    from .ingest import ingest_dataset

    data = Path(args.data_dir)
    return ingest_dataset(data / args.monthly, data / args.annual)


def _input_record(args) -> dict | None:
    """The version and each CSV's name and sha256, or None when a CSV cannot be
    read: parsing it then raises the reader's error."""
    record = {"version": __version__}
    for role in ("monthly", "annual"):
        path, digest = Path(args.data_dir) / getattr(args, role), hashlib.sha256()
        try:  # blocks under malloc's mmap threshold: 1 MB ones raised ingest's peak RSS
            with path.open("rb") as fh:
                for block in iter(lambda: fh.read(1 << 16), b""):
                    digest.update(block)
        except OSError:
            return None
        record[role] = {"file": path.name, "sha256": digest.hexdigest()}
    return record


def _panel_digest(panel) -> str:
    """sha256 of a source panel's frame, provenance params and grid bytes."""
    head = json.dumps([list(panel.dates), panel.assets, panel.provenance.params], sort_keys=True)
    return hashlib.sha256(head.encode() + panel.values.tobytes()).hexdigest()


def _write_record(out_dir, inputs, ingested, panels) -> None:
    """Record ``panels`` as saved from the ``inputs`` CSVs, whole, by ``os.replace``."""
    if inputs is None:
        return
    record = {**inputs, "sources": {panel.panel_id: _panel_digest(panel) for panel in panels},
              "n_rows": ingested.n_rows, "removed": ingested.removed,
              "skipped_rows": ingested.skipped_rows}
    temporary = Path(out_dir) / f".{RECORD}.{os.getpid()}"
    temporary.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    os.replace(temporary, Path(out_dir) / RECORD)


def _stored_sources(args, names, inputs):
    """The panels ``names`` and the screening counts from --out-dir's store, when
    its record shows that they were saved from the ``inputs`` CSVs; else None."""
    try:
        record = json.loads((Path(args.out_dir) / RECORD).read_text(encoding="utf-8"))
        if inputs and all(record[key] == value for key, value in inputs.items()):
            digests = [record["sources"][name] for name in names]
            panels = {name: panelio.load(args.out_dir, name) for name in names}
            if list(map(_panel_digest, panels.values())) == digests:
                return panels, record["removed"]
    except (OSError, ValueError, KeyError, TypeError, DataError):
        pass
    return None


def cmd_ingest(args) -> int:
    inputs = _input_record(args)  # before parsing: a file changed since has a stale digest
    result = _ingest_sources(args)
    for name in sorted(result.panels):
        for path in panelio.save(result.panels[name], args.out_dir):
            print(path)
    _write_record(args.out_dir, inputs, result, result.panels.values())
    print(f"rows={result.n_rows} removed={json.dumps(result.removed, sort_keys=True)} "
          f"skipped={result.skipped_rows}")
    return EXIT_OK


def _parse_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            _fail(EXIT_USAGE, f"--param expects KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def cmd_run(args) -> int:
    spec = pipeline.load_recipe(args.recipe, overrides=_parse_overrides(args.param))
    if args.dry_run:
        print(f"recipe {spec.name}: {len(spec.steps)} steps, sources {list(spec.sources)}")
        for i, step in enumerate(spec.steps):
            print(f"  {i:3d}  {step.op}({', '.join(step.inputs)}) -> {step.output}")
        return EXIT_OK

    inputs = _input_record(args)
    stored = _stored_sources(args, spec.sources, inputs)
    log.info("sources %s", f"loaded from the store {Path(args.out_dir) / RECORD} records"
             if stored else f"parsed from {args.monthly} and {args.annual}")
    ingested = None if stored else _ingest_sources(args)
    sources, removed = stored or (ingested.panels, ingested.removed)
    registry = PanelRegistry()
    try:
        registry, result = pipeline.run_recipe(spec, sources, registry=registry)
    except StepExecutionError as exc:
        _save_run_outputs(registry, spec.sources, exc.outputs, args.out_dir)
        raise
    _save_run_outputs(registry, spec.sources, result.outputs, args.out_dir)
    if not stored:
        _write_record(args.out_dir, inputs, ingested, map(registry.get, spec.sources))
    if spec.steps:
        panelio.export_csv(registry.get(result.outputs[spec.steps[-1].output]), args.out_dir)

    run_log = {
        "recipe": spec.name,
        "params": spec.params,
        "sources": list(spec.sources),
        "outputs": result.outputs,
        "steps": result.log,
        "flags": result.flags,
        "ingest_removed": removed,
    }
    _write(args, "run_log.json", json.dumps(run_log, sort_keys=True, indent=2) + "\n")
    for name, panel_id in result.outputs.items():
        print(f"{name} -> {panel_id}")
    return EXIT_OK


def _save_run_outputs(registry, sources, outputs, out_dir):
    for panel_id in (*sources, *outputs.values()):
        panelio.save(registry.get(panel_id), out_dir)


def _load_data_registry(args):
    registry = panelio.load_registry(args.data_dir)
    if not len(registry):
        _fail(EXIT_VALIDATION, f"no saved panels found in {args.data_dir}")
    return registry


def cmd_export(args) -> int:
    registry = _load_data_registry(args)
    # every panel is read, and its grid checked, before the first file is written
    for panel in [registry.get(panel_id) for panel_id in args.panel_ids]:
        print(panelio.export_csv(panel, args.out_dir))
    return EXIT_OK


def cmd_report(args) -> int:
    registry = _load_data_registry(args)
    if not args.model:
        _fail(EXIT_USAGE, "at least one --model NAME=ID[,ID...] is required")
    models = {}
    for entry in args.model:
        if "=" not in entry:
            _fail(EXIT_USAGE, f"--model expects NAME=ID[,ID...], got {entry!r}")
        name, ids = entry.split("=", 1)
        models[name] = [i for i in ids.split(",") if i]

    size_bins = args.size_bins
    if not size_bins and args.cap in registry:
        universe = registry.get("NYSE") if "NYSE" in registry else None
        bins = transforms.quantile_bins(registry.get(args.cap), SIZE_TERCILES,
                                        universe=universe)
        size_bins = registry.register(bins, name="SIZE_TERCILES_AUTO")
    doc = report.build_report(**report.resolve_arguments(
        registry, args.spread, args.characteristic, args.cap, size_bins, models,
        stratify_recipe=args.stratify_recipe, stratify_output=args.stratify_output,
        weights=args.weights,
    ))
    _write(args, f"report_{args.spread}.md", report.render_markdown(doc))
    _write(args, f"report_{args.spread}.json", report.render_json(doc))
    return EXIT_OK


def cmd_graph(args) -> int:
    doc, dot = panelio.export_graph(_load_data_registry(args), args.panel_id)
    if args.format == "dot":
        _write(args, f"{args.panel_id}.dot", dot)
    else:
        _write(args, f"{args.panel_id}.graph.json",
               json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def cmd_simk(args) -> int:
    ks = sorted(set(args.k))
    if any(k < 1 for k in ks):
        _fail(EXIT_USAGE, "k values must be >= 1")
    tasks = evalharness.load_manifest(args.manifest)
    for task in tasks:
        if ks[-1] > len(task.attempts):
            _fail(EXIT_USAGE, f"task {task.task_id!r}: k={ks[-1]} outside 1..{len(task.attempts)}")
    table = evalharness.evaluate_tasks(tasks, ks, failure_score=args.failure_score)
    sys.stdout.write(evalharness.format_simk_table(table))
    _write(args, "simk.json", json.dumps(table, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def cmd_plot(args) -> int:
    registry = _load_data_registry(args)
    y, x = evalharness.align(registry.get(args.panel_id), registry.get(args.benchmark_id))
    svg = plotting.scatter_svg(
        x, y,
        x_label=f"benchmark: {args.benchmark_id}",
        y_label=f"factor: {args.panel_id}",
        title=f"{args.panel_id} vs {args.benchmark_id}",
    )
    _write(args, f"{args.panel_id}_vs_{args.benchmark_id}.svg", svg)
    return EXIT_OK


def cmd_serve(args) -> int:
    ToolServer().serve()
    return EXIT_OK


COMMANDS = {
    "gen": cmd_gen,
    "ingest": cmd_ingest,
    "run": cmd_run,
    "export": cmd_export,
    "report": cmd_report,
    "graph": cmd_graph,
    "simk": cmd_simk,
    "plot": cmd_plot,
    "serve": cmd_serve,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level.upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return COMMANDS[args.command](args)
    except (StepExecutionError, OSError) as exc:  # before EngineError: it is one
        _fail(EXIT_RUNTIME, str(exc))
    except EngineError as exc:
        _fail(EXIT_VALIDATION, str(exc))


if __name__ == "__main__":
    sys.exit(main())
