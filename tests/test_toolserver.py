"""The JSON-RPC tool server driven line by line, as an agent client drives it."""

from __future__ import annotations

import hashlib
import io
import json
import math
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from factorlab import ops, pipeline, transforms
from factorlab import panel as panelio
from factorlab.errors import DataError
from factorlab.panel import DateIndex, Panel
from factorlab.pipeline import CatalogEntry
from factorlab.toolserver import (
    INVALID_PARAMS,
    METHOD_NOT_FOUND,
    PARSE_ERROR,
    RUNTIME_ERROR,
    TOOLS,
    ToolServer,
)

from . import oracles
from .conftest import ORACLE_CONFIG, STORE_CORRUPTIONS, nonmissing_cells
from .test_pipeline import TOLERANCE

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_SESSION = GOLDEN / "session.jsonl"


def call(server: ToolServer, tool: str, arguments: dict) -> dict:
    request = {"jsonrpc": "2.0", "id": 1, "method": "tools/call",
               "params": {"name": tool, "arguments": arguments}}
    return json.loads(server.handle_line(json.dumps(request)))


def replay(server: ToolServer, recipe: str) -> dict[str, str]:
    """Send each recipe step as one tool call; map step outputs to panel ids."""
    ids: dict[str, str] = {}
    for step in pipeline.load_recipe(recipe).steps:
        response = call(server, step.op, {
            "inputs": [ids.get(ref, ref) for ref in step.inputs],
            "args": step.args,
            "name": step.output,
        })
        assert "result" in response, response
        ids[step.output] = response["result"]["panel_id"]
    return ids


@pytest.fixture(scope="module")
def oracle_server(source_panels, tmp_path_factory):
    """A session with every ORACLE_CONFIG source loaded through load_source."""
    directory = tmp_path_factory.mktemp("sources")
    server = ToolServer()
    for name, panel in source_panels.items():
        panelio.save(panel, directory)
        response = call(server, "load_source", {"directory": str(directory),
                                                "panel_id": name})
        assert response["result"]["panel_id"] == name
    return server


@pytest.mark.parametrize("recipe, output", [
    ("hml", "HML_spread"),
    ("jkp_momentum", "MOM_spread"),
    ("ewma_vol", "EWMA_VOL"),
    ("market_vw", "MKT"),
])
def test_chained_calls_match_oracle_and_pipeline(recipe, output, oracle_server,
                                                 source_panels, synthetic_dir):
    oracle = oracles.recipe_oracle(recipe, synthetic_dir / "monthly.csv",
                                   synthetic_dir / "annual.csv")
    served = oracle_server.registry.get(replay(oracle_server, recipe)[output])
    produced = nonmissing_cells(served)
    assert set(produced) == set(oracle)
    assert max(abs(produced[m] - oracle[m]) for m in oracle) <= TOLERANCE

    spec = pipeline.load_recipe(recipe)
    registry, result = pipeline.run_recipe(spec, {s: source_panels[s] for s in spec.sources})
    np.testing.assert_array_equal(served.values,
                                  registry.get(result.outputs[output]).values)


# -- error codes ------------------------------------------------------------------


@pytest.fixture
def server():
    """A 60-month x 30-asset session: cap, characteristic, size bins, two series."""
    rng = np.random.default_rng(3)
    dates = DateIndex.range("1995-01", 60)
    assets = tuple(f"a{j:02d}" for j in range(30))
    s = ToolServer()
    cap = Panel.source("CAP", dates, assets, rng.lognormal(5.0, 1.0, size=(60, 30)))
    s.registry.register(cap)
    s.registry.register(Panel.source("CHAR", dates, assets, rng.normal(size=(60, 30))))
    s.registry.register(transforms.quantile_bins(cap, [50.0]), name="SB")
    for name in ("S", "M"):
        s.registry.register(Panel.source(name, dates, ("value",),
                                         rng.normal(0.0, 0.05, size=(60, 1))))
    return s


PARSE_LINE = '{"jsonrpc": "2.0", "id": 0, "method": "tools/call", "params": {'


def test_tools_list_matches_the_golden_file():
    line = ToolServer().handle_line('{"jsonrpc": "2.0", "id": 1, "method": "tools/list"}')
    assert line.encode() == (GOLDEN / "tools_list.json").read_bytes()


def test_parse_error(server):
    response = json.loads(server.handle_line(PARSE_LINE))
    assert response["error"]["code"] == PARSE_ERROR
    assert response["id"] is None


REPORT = {"spread": "S", "characteristic": "CHAR", "cap": "CAP", "size_bins": "SB",
          "models": {"CAPM": ["M"]}}

# valid arguments of each non-operator tool, for the cases that break one of them
TOOL_ARGUMENTS = {
    "load_source": {"directory": "sources", "panel_id": "CAP"},
    "save_panel": {"panel_id": "CAP", "directory": "out"},
    "export_graph": {"panel_id": "CAP"},
    "build_report": {**REPORT, "stratify_recipe": "hml", "stratify_output": "HML_spread",
                     "weights": "CAP"},
    "catalog_lookup": {"query": "book equity"},
}


def tool_argument_cases():
    """Per non-operator tool: an unknown key, then per parameter a missing
    required value, a wrong type and (for strings) an empty string."""
    assert set(TOOL_ARGUMENTS) == set(TOOLS)
    for tool, valid in TOOL_ARGUMENTS.items():
        yield pytest.param(tool, {**valid, "bogus": 1}, INVALID_PARAMS, "bogus",
                           id=f"{tool}-unknown")
        for p in TOOLS[tool].params:
            if p.required:
                missing = {k: v for k, v in valid.items() if k != p.name}
                yield pytest.param(tool, missing, INVALID_PARAMS, p.name,
                                   id=f"{tool}-{p.name}-missing")
            yield pytest.param(tool, {**valid, p.name: 5}, INVALID_PARAMS, p.name,
                               id=f"{tool}-{p.name}-type")
            if p.type == "string":
                yield pytest.param(tool, {**valid, p.name: ""}, INVALID_PARAMS, p.name,
                                   id=f"{tool}-{p.name}-empty")


@pytest.mark.parametrize("tool, arguments, code, param", [
    ("no_such_tool", {}, METHOD_NOT_FOUND, None),
    ("quantile_bins", {"inputs": ["CAP"], "args": {"percentiles": [150]}},
     INVALID_PARAMS, "percentiles"),
    ("compare", {"inputs": ["NO_SUCH_PANEL"], "args": {"op": "ge", "threshold": 0}},
     INVALID_PARAMS, "inputs"),
    ("winsorize", {"inputs": ["CAP"], "args": {"hi_pct": math.nan}},
     INVALID_PARAMS, "hi_pct"),
    ("lag", {"inputs": ["CAP"], "args": {"k": 1}, "name": "not an id"},
     INVALID_PARAMS, "name"),
    ("binary_op", {"inputs": ["CAP", "CAP"], "args": {"op": ""}}, INVALID_PARAMS, "op"),
    ("trend", {"inputs": ["CAP"], "args": {"name": ""}}, INVALID_PARAMS, "name"),
    ("lag", {"inputs": ["CAP"], "args": None}, INVALID_PARAMS, "args"),
    ("lag", {"inputs": ["CAP"], "args": [1]}, INVALID_PARAMS, "args"),
    ("mask", {"inputs": ["CAP", "CAP"], "arg": {"keep_if": "zero"}}, INVALID_PARAMS, "arg"),
    ("lag", {"inputs": ["CAP"], "args": {"k": 1}, "output": "L"}, INVALID_PARAMS, "output"),
    *tool_argument_cases(),
])
def test_error_codes(server, tool, arguments, code, param):
    before = server.registry.ids()
    error = call(server, tool, arguments)["error"]
    assert error["code"] == code
    assert error.get("data", {}).get("param") == param
    assert server.registry.ids() == before


def test_an_empty_string_is_refused_by_the_argument_check(server):
    error = call(server, "catalog_lookup", {"query": ""})["error"]
    assert error == {"code": INVALID_PARAMS, "data": {"param": "query"},
                     "message": "query: expected a non-empty string, got ''"}


def test_the_non_operator_tools_are_not_recipe_operators():
    assert set(TOOLS).isdisjoint(ops.OPERATORS)
    for name in TOOLS:
        with pytest.raises(ops.ArgError, match="unknown op"):
            ops.get_operator(name)


def test_all_missing_output_is_a_runtime_error_and_not_registered(server):
    before = server.registry.ids()
    error = call(server, "lag", {"inputs": ["CAP"], "args": {"k": 600}})["error"]
    assert error == {"code": RUNTIME_ERROR,
                     "message": "op 'lag' produced no non-missing values"}
    assert server.registry.ids() == before


def test_an_operator_reply_is_the_payload_from_the_step_record(server, monkeypatch):
    counted = []
    n_nonmissing = Panel.n_nonmissing
    monkeypatch.setattr(Panel, "n_nonmissing",
                        lambda panel: counted.append(panel.panel_id) or n_nonmissing(panel))
    arguments = {"inputs": ["CAP"], "args": {"k": 1}}
    computed, reused = (call(server, "lag", arguments)["result"] for _ in range(2))
    assert counted == []
    assert computed["panel_id"] != reused["panel_id"]
    assert computed == {"panel_id": computed["panel_id"], "n_dates": 60, "n_assets": 30,
                        "n_nonmissing": 59 * 30, "date_span": ["1995-01", "1999-12"]}
    for reply in (computed, reused):
        assert reply == server.registry.get(reply["panel_id"]).payload()


def test_load_source_refuses_a_path_outside_the_directory(server, tmp_path):
    panelio.save(server.registry.get("CAP"), tmp_path)
    inner = tmp_path / "inner"
    inner.mkdir()
    error = call(server, "load_source", {"directory": str(inner),
                                         "panel_id": "../CAP"})["error"]
    assert error["code"] == RUNTIME_ERROR
    assert "invalid panel id" in error["message"]


@pytest.mark.parametrize("case", ["not_an_object", "dates", "assets", "panel_id",
                                  "provenance", "npy_truncated", "panel_id_differs"])
def test_load_source_of_a_malformed_saved_panel_is_a_runtime_error(server, tmp_path, case):
    panelio.save(server.registry.get("S"), tmp_path)
    meta_path = tmp_path / "S.meta.json"
    meta = json.loads(meta_path.read_text())
    if case == "npy_truncated":
        npy_path = tmp_path / "S.npy"
        npy_path.write_bytes(npy_path.read_bytes()[:-4])
    elif case == "not_an_object":
        meta_path.write_text(json.dumps([meta]))
    elif case == "panel_id_differs":
        meta_path.write_text(json.dumps({**meta, "panel_id": "OTHER"}))
    else:
        del meta[case]
        meta_path.write_text(json.dumps(meta))
    fresh = ToolServer()
    error = call(fresh, "load_source", {"directory": str(tmp_path), "panel_id": "S"})["error"]
    assert error["code"] == RUNTIME_ERROR
    expected = "S.npy: cannot read" if case == "npy_truncated" else "S.meta.json: bad metadata"
    assert expected in error["message"]
    assert fresh.registry.ids() == []


@pytest.mark.parametrize("case", STORE_CORRUPTIONS)
def test_load_source_of_a_corrupt_store_is_a_runtime_error_and_serve_lives(server, tmp_path,
                                                                          case):
    panelio.save(server.registry.get("S"), tmp_path)
    panelio.save(server.registry.get("CAP"), tmp_path)
    corrupt, message = STORE_CORRUPTIONS[case]
    corrupt(tmp_path / "S.npy")
    lines = [json.dumps({"jsonrpc": "2.0", "id": i, "method": "tools/call", "params": {
        "name": "load_source", "arguments": {"directory": str(tmp_path), "panel_id": name}}})
        for i, name in enumerate(["S", "CAP"])]
    fresh, stdout = ToolServer(), io.StringIO()
    fresh.serve(io.StringIO("\n".join(lines) + "\n"), stdout)
    failed, loaded = map(json.loads, stdout.getvalue().splitlines())
    assert failed["error"]["code"] == RUNTIME_ERROR
    assert str(tmp_path / "S.npy") in failed["error"]["message"]
    assert message in failed["error"]["message"]
    assert loaded["result"]["panel_id"] == "CAP"
    assert fresh.registry.ids() == ["CAP"]


def test_save_panel_writes_the_store_that_load_source_reads(server, tmp_path):
    response = call(server, "save_panel", {"panel_id": "CAP", "directory": str(tmp_path)})
    assert response["result"] == {"files": [str(tmp_path / "CAP.npy"),
                                            str(tmp_path / "CAP.meta.json")]}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["CAP.meta.json", "CAP.npy"]
    fresh = ToolServer()
    call(fresh, "load_source", {"directory": str(tmp_path), "panel_id": "CAP"})
    saved, loaded = server.registry.get("CAP").values, fresh.registry.get("CAP").values
    assert np.array_equal(saved.view(np.int64), loaded.view(np.int64))


def test_a_given_empty_registry_is_the_session_registry(source_panels):
    registry = panelio.PanelRegistry()
    server = ToolServer(registry=registry)
    source = source_panels["CAP"]
    server.registry.register(Panel.source("CAP", source.dates, source.assets, source.values))
    assert "CAP" in registry


# -- catalog_lookup -----------------------------------------------------------------


def test_catalog_lookup_ranks_by_matches_breaks_ties_by_id_and_drops_misses():
    catalog = [CatalogEntry("zeta", "Book equity, total", "annual"),
               CatalogEntry("alpha", "book value per share", "annual"),
               CatalogEntry("beta", "book equity of the firm", "annual"),
               CatalogEntry("gamma", "monthly return", "monthly")]
    got = pipeline.catalog_lookup("BOOK equity!", catalog)
    assert [(m["item_id"], m["score"]) for m in got] == [("beta", 2), ("zeta", 2), ("alpha", 1)]
    assert got[0] == {"item_id": "beta", "description": "book equity of the firm",
                      "source_table": "annual", "score": 2}
    assert pipeline.catalog_lookup("dividend", catalog) == []
    with pytest.raises(DataError, match="catalog is empty"):
        pipeline.catalog_lookup("book", [])


def test_catalog_lookup_tool_searches_the_shipped_catalog(server):
    query = "book equity preferred stock"
    matches = call(server, "catalog_lookup", {"query": query})["result"]["matches"]
    assert matches == pipeline.catalog_lookup(query, pipeline.load_catalog())
    assert matches and all(m["score"] > 0 for m in matches)
    keys = [(-m["score"], m["item_id"]) for m in matches]
    assert keys == sorted(keys)


# -- build_report ------------------------------------------------------------------


def test_build_report(server):
    result = call(server, "build_report", REPORT)["result"]
    assert result["document"]["metadata"]["factor"] == "S"
    assert result["markdown"].startswith("# Factor Diagnostics: S")


@pytest.mark.parametrize("param, change", [
    ("spread", {"spread": "NOPE"}),
    ("spread", {"spread": "CAP"}),  # not a one-column series
    ("characteristic", {"characteristic": "NOPE"}),
    ("cap", {"cap": "NOPE"}),
    ("size_bins", {"size_bins": 5}),
    ("models", {"models": {"CAPM": ["NOPE"]}}),
    ("models", {"models": {"CAPM": "M"}}),
    ("stratify_recipe", {"stratify_recipe": 5}),
    ("stratify_recipe", {"stratify_recipe": "no_such_recipe"}),
    ("stratify_recipe", {"stratify_recipe": "."}),  # a directory
    ("stratify_output", {"stratify_recipe": "hml", "stratify_output": ["HML_spread"]}),
    ("weights", {"weights": "NOPE"}),
])
def test_build_report_names_the_failing_argument(server, param, change):
    error = call(server, "build_report", {**REPORT, **change})["error"]
    assert error["code"] == INVALID_PARAMS
    assert error["data"] == {"param": param}


def test_build_report_unknown_stratify_output(server, tmp_path):
    recipe = tmp_path / "lagged.json"
    recipe.write_text(json.dumps({
        "name": "lagged", "sources": ["CAP"],
        "steps": [{"op": "lag", "inputs": ["CAP"], "args": {"k": 1}, "output": "L"}],
    }))
    arguments = {**REPORT, "stratify_recipe": str(recipe), "stratify_output": "NOPE"}
    error = call(server, "build_report", arguments)["error"]
    assert error["code"] == INVALID_PARAMS
    assert error["data"] == {"param": "stratify_output"}


# -- the session golden ------------------------------------------------------------

SESSION_SOURCES = ("RET", "CAP", "CAPCO", "NYSE", "SEQ", "PSTKRV", "PSTKL", "PSTK")
SESSION_DIR = "<DIR>"  # the session directory, as the golden writes it


def session_lines(directory: Path) -> list[str]:
    """The request lines of a fixed agent session on the sources saved in
    ``directory/sources``, which saves to ``directory/out``.

    The session lists the tools and loads the sources, runs one hml attempt, a
    repeat with one argument changed and an unvaried repeat (both answered from
    the step-reuse map where they can be), then the benchmark agent's hostile
    calls of kinds 0-4 and the two calls that still escape ``handle_line``, and
    ends with save_panel, export_graph and build_report calls."""
    sources, out = str(directory / "sources"), str(directory / "out")
    lines = [json.dumps({"jsonrpc": "2.0", "id": 0, "method": "tools/list"})]

    def call_line(tool: str, arguments: dict) -> None:
        lines.append(json.dumps({"jsonrpc": "2.0", "id": len(lines), "method": "tools/call",
                                 "params": {"name": tool, "arguments": arguments}}))

    def attempt(recipe: str, prefix: str, change: dict) -> None:
        for step in pipeline.load_recipe(recipe).steps:
            call_line(step.op, {
                "inputs": [i if i in SESSION_SOURCES else prefix + i for i in step.inputs],
                "args": {**step.args, **change.get(step.output, {})},
                "name": prefix + step.output})

    for source in SESSION_SOURCES:
        call_line("load_source", {"directory": sources, "panel_id": source})
    for prefix, change in (("a0_", {}), ("a1_", {"VALUE_BIN": {"percentiles": [20, 80]}}),
                           ("a2_", {})):
        attempt("hml", prefix, change)
        call_line("save_panel", {"panel_id": f"{prefix}HML_spread", "directory": out})
    call_line("save_panel", {"panel_id": "a1_BM", "directory": out})  # a reused step
    lines.append(PARSE_LINE)
    call_line("no_such_tool", {})
    call_line("quantile_bins", {"inputs": ["CAP"], "args": {"percentiles": [150]}})
    call_line("compare", {"inputs": ["NO_SUCH_PANEL"], "args": {"op": "ge", "threshold": 0}})
    call_line("winsorize", {"inputs": ["CAP"], "args": {"hi_pct": math.nan}})
    call_line("load_source", {"directory": sources, "panel_id": "RET"})  # escapes
    call_line("trend", {"inputs": ["RET"], "args": {"name": "ewma", "params": {"bogus": 1}}})
    call_line("quantile_bins", {"inputs": ["CAP", "NYSE"],
                                "args": {"percentiles": [100.0 / 3.0, 200.0 / 3.0]},
                                "name": "SIZE_TERCILES"})
    attempt("market_vw", "mkt_", {})
    call_line("export_graph", {"panel_id": "a1_HML_spread"})
    call_line("build_report", {"spread": "a1_HML_spread", "characteristic": "a1_BM",
                               "cap": "CAP", "size_bins": "SIZE_TERCILES",
                               "models": {"CAPM": ["mkt_MKT"]}, "stratify_recipe": "hml"})
    return lines


def session_transcript(source_panels: dict, directory: Path) -> list[str]:
    """Each request line of ``session_lines`` followed by its response line, then
    one ``{"file", "sha256"}`` line per file the session saved, with ``directory``
    written as ``SESSION_DIR``. A request that escapes ``handle_line`` (and so
    would end ``serve``) is answered ``{"escaped": "<exception type>"}``."""
    for panel in source_panels.values():
        panelio.save(panel, directory / "sources")
    server, transcript = ToolServer(), []
    for line in session_lines(directory):
        try:
            response = server.handle_line(line)
        except Exception as exc:  # noqa: BLE001 - the escape is what the golden records
            response = json.dumps({"escaped": type(exc).__name__})
        transcript += [line, response]
    transcript += [json.dumps({"file": path.name,
                               "sha256": hashlib.sha256(path.read_bytes()).hexdigest()})
                   for path in sorted((directory / "out").iterdir())]
    return [line.replace(str(directory), SESSION_DIR) for line in transcript]


def test_a_session_replies_with_the_golden_lines(source_panels, tmp_path):
    want = GOLDEN_SESSION.read_text(encoding="utf-8").splitlines()
    got = session_transcript(source_panels, tmp_path)
    for number, (expected, line) in enumerate(zip_longest(want, got, fillvalue=""), 1):
        assert line == expected, (f"{GOLDEN_SESSION.name} line {number} differs:\n"
                                  f"  golden  {expected[:300]}\n  session {line[:300]}")


if __name__ == "__main__":  # rewrite the golden: PYTHONPATH=src python -m tests.test_toolserver
    import tempfile

    from factorlab.ingest import ingest_dataset
    from factorlab.synthetic import generate_synthetic

    with tempfile.TemporaryDirectory() as scratch:
        data, session = Path(scratch) / "data", Path(scratch) / "session"
        generate_synthetic(ORACLE_CONFIG, data)
        panels = ingest_dataset(data / "monthly.csv", data / "annual.csv").panels
        text = "".join(f"{line}\n" for line in session_transcript(panels, session))
        GOLDEN_SESSION.write_text(text, encoding="utf-8")
