"""Smoke tests of the command line: the whole chain in a scratch directory."""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr
from functools import partial
from pathlib import Path

import pytest

from factorlab import cli, ingest
from factorlab import panel as panelio
from factorlab.panel import Panel

from .conftest import STORE_CORRUPTIONS, count_reads

RUN_LOG_KEYS = {"recipe", "params", "sources", "outputs", "steps", "flags", "ingest_removed"}
GOLDEN = Path(__file__).parent / "golden"
STEP_KEYS = {"step", "op", "output", "panel_id", "n_dates", "n_assets", "n_nonmissing",
             "n_months_nonnull", "seconds"}
GOLDEN_REPORT = ["report", "--spread", "HML_spread", "--characteristic", "BM",
                 "--model", "CAPM=MKT", "--stratify-recipe", "hml", "--weights", "W_SV"]
# the report the benchmark runs, without --weights, and the panels it reads
BENCH_REPORT = GOLDEN_REPORT[:-2]
BENCH_REPORT_READS = [f"{panel_id}.npy" for panel_id in (
    "BM", "CAP", "CAPCO", "HML_spread", "MKT", "NYSE", "PSTK", "PSTKL", "PSTKRV", "RET", "SEQ")]
# a fixed chain through every shipped recipe, and the digest of each file it leaves
CHAIN_INPUTS = ["--seed", "11", "gen", "--n-assets", "30", "--n-months", "72",
                "--val-spread", "0.003", "--mom-spread", "0.004", "--missing-ret-rate", "0.02"]
CHAIN_RECIPES = ("hml", "jkp_momentum", "market_vw", "ewma_vol")
GOLDEN_CHAIN = GOLDEN / "chain.sha256"
# the digest of each CSV that the chain wrote when ingest and run exported every panel
GOLDEN_EXPORT = GOLDEN / "chain_export.sha256"
SMALL_GEN = ["gen", "--n-assets", "30", "--n-months", "36"]


def factorlab(directory, *argv) -> int:
    return cli.main(["--data-dir", str(directory), "--out-dir", str(directory), *argv])


def exit_code(directory, *argv) -> int:
    with pytest.raises(SystemExit) as exc:
        factorlab(directory, *argv)
    return exc.value.code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """gen -> ingest -> run hml (its run log kept aside) -> run market_vw."""
    directory = tmp_path_factory.mktemp("cli")
    assert factorlab(directory, "gen", "--n-assets", "30", "--n-months", "72",
                     "--val-spread", "0.003") == 0
    assert factorlab(directory, "ingest") == 0
    assert factorlab(directory, "run", "hml") == 0
    hml_log = json.loads((directory / "run_log.json").read_text())
    assert factorlab(directory, "run", "market_vw") == 0
    return directory, hml_log


def test_run_log_keys(workdir):
    _, log = workdir
    assert set(log) == RUN_LOG_KEYS
    assert log["recipe"] == "hml"
    assert log["steps"]
    for i, step in enumerate(log["steps"]):
        assert set(step) == STEP_KEYS
        assert step["step"] == i
        assert log["outputs"][step["output"]] == step["panel_id"]


def test_report_graph_and_plot(workdir):
    directory, _ = workdir
    assert factorlab(directory, "report", "--spread", "HML_spread", "--characteristic", "BM",
                     "--model", "CAPM=MKT", "--stratify-recipe", "hml",
                     "--weights", "W_SV") == 0
    document = json.loads((directory / "report_HML_spread.json").read_text())
    assert document["metadata"]["panel_ids"]["size_bins"] == "SIZE_TERCILES_AUTO"
    assert isinstance(document["alphas_by_size"], list)
    assert (directory / "report_HML_spread.md").exists()
    assert factorlab(directory, "graph", "HML_spread") == 0
    assert (directory / "HML_spread.dot").exists()
    assert factorlab(directory, "plot", "HML_spread", "MKT") == 0
    assert (directory / "HML_spread_vs_MKT.svg").exists()


def test_report_matches_the_golden_files(workdir, tmp_path):
    directory, _ = workdir
    assert cli.main(["--data-dir", str(directory), "--out-dir", str(tmp_path),
                     *GOLDEN_REPORT]) == 0
    for suffix in (".md", ".json"):
        name = f"report_HML_spread{suffix}"
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_dry_run_prints_the_plan(workdir, capsys):
    directory, _ = workdir
    assert factorlab(directory, "run", "jkp_momentum", "--dry-run") == 0
    out = capsys.readouterr().out
    assert out.startswith("recipe jkp_momentum:")
    assert "-> MOM_spread" in out


@pytest.mark.parametrize("param, message", [
    ("mom_windw=6", "error: params: unknown param 'mom_windw'; the recipe declares "
                    "['mom_min_obs', 'mom_skip', 'mom_window']"),
    ("mom_window=0", "error: step 0: window: value 0 outside [1, inf)"),
])
def test_a_bad_param_override_is_a_validation_error(workdir, capsys, param, message):
    directory, _ = workdir
    assert exit_code(directory, "run", "jkp_momentum", "--dry-run",
                     "--param", param) == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and only_error_line(err) == message


@pytest.mark.parametrize("argv", [
    ["report", "--spread", "HML_spread", "--characteristic", "BM"],
    ["gen", "--n-assets", "0"],
    ["simk", "manifest.json", "--k", "0"],
    ["no_such_command"],
], ids=["report_without_model", "gen_no_assets", "simk_k0", "unknown_command"])
def test_usage_errors_exit_1_and_write_nothing(workdir, tmp_path, argv):
    directory, _ = workdir
    with pytest.raises(SystemExit) as exc:
        cli.main(["--data-dir", str(directory), "--out-dir", str(tmp_path), *argv])
    assert exc.value.code == cli.EXIT_USAGE
    assert list(tmp_path.iterdir()) == []


def test_all_missing_step_exits_3_after_saving_the_steps_before_it(workdir, tmp_path):
    directory, _ = workdir
    recipe = tmp_path / "empty_mask.json"
    recipe.write_text(json.dumps({"name": "empty_mask", "params": {}, "sources": ["CAP"],
                                  "steps": [
        {"op": "compare", "args": {"op": "ge", "threshold": 1e300}, "inputs": ["CAP"],
         "output": "HUGE_CAP"},
        {"op": "mask", "args": {}, "inputs": ["CAP", "HUGE_CAP"], "output": "NO_CAP"},
    ]}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--data-dir", str(directory), "--out-dir", str(out), "run", str(recipe)])
    assert exc.value.code == cli.EXIT_RUNTIME
    assert sorted(p.name for p in out.iterdir()) == [
        "CAP.meta.json", "CAP.npy", "HUGE_CAP.meta.json", "HUGE_CAP.npy"]


def test_unknown_recipe_is_a_validation_error(workdir):
    directory, _ = workdir
    assert exit_code(directory, "run", "no_such_recipe") == cli.EXIT_VALIDATION


def test_unknown_spread_is_a_validation_error(workdir):
    directory, _ = workdir
    assert exit_code(directory, "report", "--spread", "NOPE", "--characteristic", "BM",
                     "--model", "CAPM=MKT") == cli.EXIT_VALIDATION


@pytest.mark.parametrize("command", ["ingest", "run"])
@pytest.mark.parametrize("row", [b"1990-01,A0001,xyz,5,5,1", b"1990-01,\xff,0.01,5,5,1"])
def test_malformed_monthly_csv_is_a_validation_error(workdir, tmp_path, capsys, command, row):
    directory, _ = workdir
    (tmp_path / "annual.csv").write_bytes((directory / "annual.csv").read_bytes())
    (tmp_path / "monthly.csv").write_bytes(b"date,asset_id,ret,cap,capco,exchange_nyse\n" + row)
    argv = ["run", "hml"] if command == "run" else ["ingest"]
    assert exit_code(tmp_path, *argv) == cli.EXIT_VALIDATION
    assert "monthly.csv" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["ingest"], ["run", "hml"]])
def test_a_monthly_csv_without_data_rows_is_a_validation_error(workdir, tmp_path, capsys,
                                                                 argv):
    directory, _ = workdir
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    (data / "annual.csv").write_bytes((directory / "annual.csv").read_bytes())
    (data / "monthly.csv").write_text("date,asset_id,ret,cap,capco,exchange_nyse\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--data-dir", str(data), "--out-dir", str(out), *argv])
    assert exc.value.code == cli.EXIT_VALIDATION
    assert only_error_line(capsys.readouterr().err) == \
        f"error: {data / 'monthly.csv'}: no data rows"
    assert not out.exists()


def test_an_annual_csv_without_data_rows_serves_market_vw(workdir, tmp_path):
    directory, _ = workdir
    (tmp_path / "monthly.csv").write_bytes((directory / "monthly.csv").read_bytes())
    (tmp_path / "annual.csv").write_text("fiscal_end,asset_id,seq,pstkrv,pstkl,pstk\n")
    assert factorlab(tmp_path, "ingest") == 0
    assert factorlab(tmp_path, "run", "market_vw") == 0
    assert panelio.load(tmp_path, "SEQ").n_nonmissing() == 0
    assert panelio.load(tmp_path, "MKT").n_nonmissing() > 0


def test_malformed_saved_panel_is_a_validation_error(workdir, tmp_path):
    directory, _ = workdir
    for name in ("MKT.npy", "MKT.meta.json"):
        (tmp_path / name).write_bytes((directory / name).read_bytes())
    (tmp_path / "MKT.meta.json").write_text("[]")
    assert exit_code(tmp_path, "graph", "MKT") == cli.EXIT_VALIDATION


def test_simk_on_saved_panels(workdir, tmp_path):
    directory, _ = workdir
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tasks": [{
        "task_id": "hml",
        "reference": str(directory / "HML_spread.csv"),
        "attempts": [str(directory / "HML_spread.csv"), str(directory / "MKT.csv"), None],
    }]}))
    assert factorlab(tmp_path, "simk", str(manifest), "--k", "1", "3") == 0
    table = json.loads((tmp_path / "simk.json").read_text())
    sims = table["tasks"][0]["per_attempt_sims"]
    assert sims[0] == 1.0 and sims[2] == -1.0
    assert table["aggregate_sim_at_k"]["3"] == 1.0


def test_simk_with_k_above_a_tasks_attempts_is_a_usage_error(workdir, tmp_path, capsys):
    directory, _ = workdir
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tasks": [{
        "task_id": "hml",
        "reference": str(directory / "HML_spread.csv"),
        "attempts": [str(directory / "HML_spread.csv"), None],
    }]}))
    assert exit_code(tmp_path, "simk", str(manifest), "--k", "1", "2", "3") == cli.EXIT_USAGE
    assert only_error_line(capsys.readouterr().err) == "error: task 'hml': k=3 outside 1..2"
    assert not (tmp_path / "simk.json").exists()


@pytest.mark.parametrize("manifest", ["missing", b"[]"])
def test_simk_bad_manifest_is_a_validation_error_whatever_its_path(tmp_path, manifest):
    path = tmp_path / "outside 1..x" / "manifest.json"  # the text of the k error
    path.parent.mkdir()
    if manifest != "missing":
        path.write_bytes(manifest)
    assert exit_code(tmp_path, "simk", str(path)) == cli.EXIT_VALIDATION


@pytest.mark.parametrize("manifest", [
    "directory", "missing", b"\xff{}", b"[]",
    {"tasks": [{"reference": "HML_spread.csv"}]},
    {"tasks": [{"task_id": "hml", "attempts": []}]},
])
def test_simk_bad_manifest_is_a_validation_error(tmp_path, manifest):
    path = tmp_path / "manifest.json"
    if manifest == "directory":
        path.mkdir()
    elif isinstance(manifest, bytes):
        path.write_bytes(manifest)
    elif isinstance(manifest, dict):
        path.write_text(json.dumps(manifest))
    assert exit_code(tmp_path, "simk", str(path)) == cli.EXIT_VALIDATION


def saved_copy(directory: Path, target: Path) -> Path:
    """A copy of the saved panels (and inputs) of ``directory`` in ``target``."""
    target.mkdir()
    for path in directory.iterdir():
        if path.is_file():
            shutil.copyfile(path, target / path.name)
    return target


@pytest.mark.parametrize("fmt, name", [("dot", "HML_spread.dot"),
                                       ("json", "HML_spread.graph.json")])
def test_graph_reads_no_value_file(workdir, tmp_path, monkeypatch, fmt, name):
    directory, _ = workdir
    saved = saved_copy(directory, tmp_path / "saved")
    reads = count_reads(monkeypatch)
    for trial in ("all", "only_the_root"):
        out = tmp_path / trial
        assert cli.main(["--data-dir", str(saved), "--out-dir", str(out),
                         "graph", "HML_spread", "--format", fmt]) == 0
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), trial
        for path in saved.glob("*.npy"):
            if path.name != "HML_spread.npy":
                path.unlink()
    assert reads == []


def test_graph_of_a_panel_whose_input_is_not_saved_is_a_validation_error(workdir, tmp_path,
                                                                          capsys):
    directory, _ = workdir
    saved = saved_copy(directory, tmp_path / "saved")
    (saved / "R_SV.meta.json").unlink()
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--data-dir", str(saved), "--out-dir", str(out), "graph", "HML_spread"])
    assert exc.value.code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == "error: unknown panel id 'R_SV'\n"
    assert not out.exists()


def test_report_reads_only_the_panels_it_touches(workdir, tmp_path, monkeypatch):
    directory, _ = workdir
    reads = count_reads(monkeypatch)
    assert cli.main(["--data-dir", str(directory), "--out-dir", str(tmp_path),
                     *BENCH_REPORT]) == 0
    assert sorted(reads) == BENCH_REPORT_READS


def test_a_corrupt_panel_the_report_does_not_read_is_not_parsed(workdir, tmp_path):
    directory, _ = workdir
    saved = saved_copy(directory, tmp_path / "saved")
    (saved / "W_BV.npy").write_bytes(b"")
    out = tmp_path / "out"
    assert cli.main(["--data-dir", str(saved), "--out-dir", str(out), *GOLDEN_REPORT]) == 0
    for suffix in (".md", ".json"):
        name = f"report_HML_spread{suffix}"
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("argv", [GOLDEN_REPORT, ["plot", "HML_spread", "MKT"],
                                  ["plot", "MKT", "HML_spread"]],
                         ids=["report", "plot", "plot_benchmark"])
def test_a_corrupt_panel_the_command_reads_is_a_validation_error(workdir, tmp_path, capsys,
                                                                  argv):
    directory, _ = workdir
    saved = saved_copy(directory, tmp_path / "saved")
    (saved / "HML_spread.npy").write_bytes(b"")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--data-dir", str(saved), "--out-dir", str(out), *argv])
    assert exc.value.code == cli.EXIT_VALIDATION
    assert only_error_line(capsys.readouterr().err).endswith(
        f"{saved / 'HML_spread.npy'}: cannot read: No data left in file")
    assert not out.exists()


@pytest.mark.parametrize("case", STORE_CORRUPTIONS)
@pytest.mark.parametrize("argv", [GOLDEN_REPORT, ["plot", "MKT", "HML_spread"]],
                         ids=["report", "plot"])
def test_every_store_corruption_is_a_validation_error(workdir, tmp_path, capsys, argv, case):
    directory, _ = workdir
    saved = saved_copy(directory, tmp_path / "saved")
    corrupt, message = STORE_CORRUPTIONS[case]
    corrupt(saved / "HML_spread.npy")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--data-dir", str(saved), "--out-dir", str(out), *argv])
    assert exc.value.code == cli.EXIT_VALIDATION
    line = only_error_line(capsys.readouterr().err)
    assert str(saved / "HML_spread.npy") in line and message in line
    assert not out.exists()


@pytest.mark.parametrize("column", ["../../x", "cap", "seq"])
def test_an_annual_column_that_cannot_be_its_own_panel_writes_nothing(workdir, tmp_path,
                                                                      capsys, column):
    directory, _ = workdir
    data = tmp_path / "a" / "b" / "data"
    data.mkdir(parents=True)
    (data / "monthly.csv").write_bytes((directory / "monthly.csv").read_bytes())
    annual = (directory / "annual.csv").read_text().split("\n", 1)
    assert annual[0].endswith(",pstk")
    (data / "annual.csv").write_text(annual[0][:-len("pstk")] + column + "\n" + annual[1])
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--data-dir", str(data), "--out-dir", str(data / "out"), "ingest"])
    assert exc.value.code == cli.EXIT_VALIDATION
    assert f"column '{column}'" in only_error_line(capsys.readouterr().err)
    assert sorted(tmp_path.rglob("*")) == before


def test_an_export_never_replaces_an_input_csv(workdir, tmp_path, monkeypatch, capsys):
    """Under the default ``--data-dir . --out-dir .``, a recipe whose result is
    named ``monthly`` would replace the input ``monthly.csv``, and the next
    ``run`` could not read it."""
    directory, _ = workdir
    for name in ("monthly.csv", "annual.csv"):
        shutil.copyfile(directory / name, tmp_path / name)
    inputs = (tmp_path / "monthly.csv").read_bytes()
    (tmp_path / "lag.json").write_text(json.dumps({
        "name": "lag", "params": {}, "sources": ["RET"],
        "steps": [{"op": "lag", "args": {"k": 1}, "inputs": ["RET"], "output": "monthly"}]}))
    monkeypatch.chdir(tmp_path)
    for argv in (["run", "lag.json"], ["export", "monthly"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_VALIDATION, argv
        assert only_error_line(capsys.readouterr().err) == (
            "error: monthly.csv: not a panel export, so it is not replaced: "
            "its first line is not date,asset,value")
        assert (tmp_path / "monthly.csv").read_bytes() == inputs, argv
    assert cli.main(["run", "market_vw"]) == cli.EXIT_OK


def fail(*panels):
    raise ValueError("no spread today")


@pytest.mark.parametrize("last_step_fails", [False, True], ids=["success", "step_error"])
def test_run_exports_only_the_panels_its_steps_made(workdir, tmp_path, monkeypatch,
                                                    last_step_fails):
    """``run`` saves the store of its sources and of each step it finished, and
    exports only its result, the last step's output, once every step ran."""
    directory, hml_log = workdir
    made = dict(hml_log["outputs"])
    if last_step_fails:
        monkeypatch.setattr("factorlab.portfolio.spread_2x3", fail)
        del made["HML_spread"]
    exported = []
    export_csv = panelio.export_csv
    monkeypatch.setattr(panelio, "export_csv", lambda panel, directory: (
        exported.append(panel.panel_id) or export_csv(panel, directory)))
    out = tmp_path / "out"
    try:
        code = cli.main(["--data-dir", str(directory), "--out-dir", str(out), "run", "hml"])
    except SystemExit as exc:
        code = exc.code
    if last_step_fails:
        assert code == cli.EXIT_RUNTIME
    else:
        assert code == cli.EXIT_OK
        assert json.loads((out / "run_log.json").read_text())["outputs"] == made
    assert exported == ([] if last_step_fails else ["HML_spread"])
    assert sorted(p.name for p in out.glob("*.csv")) == [f"{i}.csv" for i in exported]
    for panel_id in (*hml_log["sources"], *made.values()):
        assert (out / f"{panel_id}.npy").exists() and (out / f"{panel_id}.meta.json").exists()


def test_a_chain_without_ingest_serves_from_runs_out_dir_and_exports_no_source(tmp_path):
    assert factorlab(tmp_path, "gen", "--n-assets", "30", "--n-months", "72") == 0
    assert factorlab(tmp_path, "run", "hml") == 0
    assert factorlab(tmp_path, "run", "market_vw") == 0
    assert factorlab(tmp_path, *BENCH_REPORT) == 0
    assert factorlab(tmp_path, "graph", "HML_spread") == 0
    assert (tmp_path / "CAP.npy").exists() and not (tmp_path / "CAP.csv").exists()
    assert (tmp_path / "report_HML_spread.md").exists() and (tmp_path / "HML_spread.dot").exists()


# -- the ingest record: run loads the store only when it is what the CSVs make ----


def zeroed_run_log(directory: Path) -> str:
    """``run_log.json`` with each step's ``seconds`` zeroed, as the chain golden pins it."""
    log = json.loads((directory / "run_log.json").read_text())
    for step in log["steps"]:
        step["seconds"] = 0.0
    return json.dumps(log, sort_keys=True, indent=2) + "\n"


def regenerate_csvs(directory):
    assert factorlab(directory, "--seed", "8", *SMALL_GEN) == 0
    return []


def resave_ret(directory, reverse_assets):
    """Save RET again with its grid doubled, or with the same grid bytes over its
    assets in reverse order."""
    ret = panelio.load(directory, "RET")
    assets, values = ret.assets, ret.values * 2.0
    if reverse_assets:
        assets, values = ret.assets[::-1], ret.values
    panelio.save(Panel.source("RET", ret.dates, assets, values, ret.provenance.params), directory)
    return []


def copy_monthly(directory):
    shutil.copy(directory / "monthly.csv", directory / "copy.csv")
    return ["--monthly", "copy.csv"]


def truncate_record(directory):
    record = directory / "ingest.json"
    record.write_text(record.read_text()[:100])
    return []


@pytest.mark.parametrize("make_stale", [
    regenerate_csvs,
    lambda directory: resave_ret(directory, reverse_assets=False),
    lambda directory: resave_ret(directory, reverse_assets=True),
    copy_monthly,
    truncate_record,
], ids=["other_csvs", "other_grid", "same_grid_other_frame", "renamed_copy", "truncated"])
def test_run_never_loads_a_store_its_record_does_not_vouch_for(tmp_path, make_stale):
    work, fresh = tmp_path / "work", tmp_path / "fresh"
    work.mkdir()
    assert factorlab(work, *SMALL_GEN) == 0
    assert factorlab(work, "ingest") == 0
    argv = ["run", "market_vw", *make_stale(work)]
    assert factorlab(work, *argv) == 0
    assert cli.main(["--data-dir", str(work), "--out-dir", str(fresh), *argv]) == 0
    for name in ("MKT.npy", "RET.meta.json", "CAP.meta.json"):
        assert (work / name).read_bytes() == (fresh / name).read_bytes(), name
    assert zeroed_run_log(work) == zeroed_run_log(fresh)


def test_runs_served_by_the_record_parse_nothing(tmp_path, monkeypatch):
    parsed, read_table = [], ingest.read_table
    monkeypatch.setattr(ingest, "read_table", lambda path, *args: (
        parsed.append(Path(path).name) or read_table(path, *args)))
    assert factorlab(tmp_path, *SMALL_GEN) == 0
    assert factorlab(tmp_path, "ingest") == 0
    assert parsed == ["monthly.csv", "annual.csv"]
    assert factorlab(tmp_path, "run", "hml") == 0
    hml_log = zeroed_run_log(tmp_path)
    assert factorlab(tmp_path, "run", "market_vw") == 0
    assert parsed == ["monthly.csv", "annual.csv"]

    parsing = tmp_path / "parsing"  # the same chain, the record deleted before run hml
    assert factorlab(parsing, *SMALL_GEN) == 0
    assert factorlab(parsing, "ingest") == 0
    (parsing / "ingest.json").unlink()
    assert factorlab(parsing, "run", "hml") == 0
    assert zeroed_run_log(parsing) == hml_log
    assert len(parsed) == 6


@pytest.mark.parametrize("argv", [["ingest"], ["run", "hml"]])
def test_a_missing_monthly_csv_is_a_validation_error_naming_it(workdir, tmp_path, capsys, argv):
    directory, _ = workdir
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    (data / "annual.csv").write_bytes((directory / "annual.csv").read_bytes())
    with pytest.raises(SystemExit) as exc:
        cli.main(["--data-dir", str(data), "--out-dir", str(out), *argv])
    assert exc.value.code == cli.EXIT_VALIDATION
    assert only_error_line(capsys.readouterr().err).startswith(
        f"error: {data / 'monthly.csv'}: cannot read: ")
    assert not out.exists()


@pytest.mark.parametrize("log_level, out, line", [
    ("warning", ".", None),
    ("info", ".", "sources loaded from the store {out}/ingest.json records"),
    ("info", "fresh", "sources parsed from monthly.csv and annual.csv"),
], ids=["default", "info_loaded", "info_parsed"])
def test_run_logs_where_its_sources_came_from_at_info(workdir, tmp_path, log_level, out, line):
    """In a new interpreter, as a user runs the command."""
    directory, _ = workdir
    for name in ("monthly.csv", "annual.csv"):
        shutil.copy(directory / name, tmp_path / name)
    assert factorlab(tmp_path, "ingest") == 0
    out = tmp_path / out
    argv = ["--data-dir", str(tmp_path), "--out-dir", str(out), "run", "market_vw"]
    if log_level != "warning":  # the default
        argv = ["--log-level", log_level, *argv]
    proc = subprocess.run([sys.executable, "-m", "factorlab.cli", *argv], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("" if line is None else
                           f"INFO factorlab.cli: {line.format(out=out)}\n")


@pytest.mark.parametrize("host_logging", [False, True], ids=["bare", "host_configured"])
def test_log_level_holds_for_each_in_process_call(workdir, tmp_path, monkeypatch, request,
                                                  host_logging):
    """Each call writes its own INFO line to the ``sys.stderr`` of that call, also
    after a host set up logging at WARNING; at the default level nothing is written,
    and nothing reaches the host's handlers."""
    directory, _ = workdir
    for name in ("monthly.csv", "annual.csv"):
        shutil.copy(directory / name, tmp_path / name)
    assert factorlab(tmp_path, "ingest") == 0
    host = io.StringIO()
    if host_logging:  # on a root logger of its own, so the test runner's handlers stay put
        monkeypatch.setattr(logging.root, "handlers", [])
        request.addfinalizer(partial(logging.root.setLevel, logging.root.level))
        logging.basicConfig(level="WARNING", stream=host)
    line = f"INFO factorlab.cli: sources loaded from the store {tmp_path}/ingest.json records\n"
    for argv, want in ((["--log-level", "info"], line), (["--log-level", "info"], line), ([], "")):
        with redirect_stderr(io.StringIO()) as err:
            assert factorlab(tmp_path, *argv, "run", "market_vw") == 0
        assert err.getvalue() == want
    assert host.getvalue() == ""
    assert logging.getLogger("factorlab").handlers == []


def test_a_chain_never_imports_numpy_ma(tmp_path):
    """On numpy 2.4 a plain ``np.unique`` or ``np.isin`` imports ``numpy.ma``,
    10-21 ms a process; ``gen``, ``ingest``, ``run hml``, ``run market_vw`` and a
    stratified report call neither. In a new interpreter, which nothing else has
    imported it into."""
    chain = [["gen", "--n-assets", "30", "--n-months", "72", "--val-spread", "0.003"],
             ["ingest"], ["run", "hml"], ["run", "market_vw"], BENCH_REPORT]
    script = ("import json, sys, numpy\n"
              "if 'numpy.ma' in sys.modules: sys.exit(print('numpy loads numpy.ma'))\n"
              "from factorlab import cli\n"
              "for argv in json.loads(sys.argv[2]):\n"
              "    dirs = ['--data-dir', sys.argv[1], '--out-dir', sys.argv[1]]\n"
              "    assert cli.main([*dirs, *argv]) == 0\n"
              "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path), json.dumps(chain)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    if last == "numpy loads numpy.ma":
        pytest.skip(last)
    assert last == "False"


def only_error_line(err: str) -> str:
    """The one ``error:`` line a failing command writes to stderr."""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


@pytest.mark.parametrize("argv", [
    BENCH_REPORT,
    ["graph", "HML_spread"],
    ["plot", "HML_spread", "MKT"],
    ["simk", "MANIFEST", "--k", "1"],
    ["run", "hml"],
    ["export", "HML_spread", "MKT"],
], ids=["report", "graph", "plot", "simk", "run", "export"])
def test_an_out_dir_that_is_a_file_is_a_runtime_error(workdir, tmp_path, capsys, argv):
    directory, _ = workdir
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tasks": [{
        "task_id": "hml", "reference": str(directory / "HML_spread.csv"),
        "attempts": [str(directory / "MKT.csv")],
    }]}))
    out = tmp_path / "out"
    out.write_text("a file, not a directory\n")
    argv = [str(manifest) if arg == "MANIFEST" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(["--data-dir", str(directory), "--out-dir", str(out), *argv])
    assert exc.value.code == cli.EXIT_RUNTIME
    assert str(out) in only_error_line(capsys.readouterr().err)
    assert out.read_text() == "a file, not a directory\n"


def test_plot_of_series_with_no_common_month_is_a_validation_error(tmp_path, capsys):
    panelio.save(Panel.source("EARLY", ["1990-01", "1990-02"], ["value"], [[0.1], [0.2]]),
                 tmp_path)
    panelio.save(Panel.source("LATE", ["2000-01"], ["value"], [[0.3]]), tmp_path)
    assert exit_code(tmp_path, "plot", "EARLY", "LATE") == cli.EXIT_VALIDATION
    assert only_error_line(capsys.readouterr().err) == (
        "error: no overlapping dates/assets to compare")
    assert not list(tmp_path.glob("*.svg"))


def test_a_recipe_source_that_was_not_ingested_is_a_validation_error(workdir, tmp_path,
                                                                    capsys):
    directory, _ = workdir
    recipe = tmp_path / "unknown_source.json"
    recipe.write_text(json.dumps({"name": "unknown_source", "params": {}, "sources": ["NOPE"],
                                  "steps": [{"op": "lag", "args": {"k": 1}, "inputs": ["NOPE"],
                                             "output": "NOPE_LAG"}]}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--data-dir", str(directory), "--out-dir", str(out), "run", str(recipe)])
    assert exc.value.code == cli.EXIT_VALIDATION
    assert only_error_line(capsys.readouterr().err) == (
        "error: recipe source 'NOPE' not provided")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["graph", "NOPE"], ["plot", "NOPE", "MKT"],
                                  ["plot", "HML_spread", "NOPE"], ["export", "NOPE"],
                                  ["export", "MKT", "NOPE"]],
                         ids=["graph", "plot", "plot_benchmark", "export", "export_after_mkt"])
def test_an_unknown_panel_id_is_a_validation_error(workdir, tmp_path, capsys, argv):
    directory, _ = workdir
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--data-dir", str(directory), "--out-dir", str(out), *argv])
    assert exc.value.code == cli.EXIT_VALIDATION
    assert only_error_line(capsys.readouterr().err) == "error: unknown panel id 'NOPE'"
    assert not out.exists()


def test_serve_turns_an_escaping_tool_error_into_one_error_line(workdir, monkeypatch, capsys):
    directory, _ = workdir
    call = {"jsonrpc": "2.0", "method": "tools/call", "params": {
        "name": "load_source", "arguments": {"directory": str(directory), "panel_id": "MKT"}}}
    lines = [json.dumps({**call, "id": i}) + "\n" for i in (1, 2)]
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(lines)))
    assert exit_code(directory, "serve") == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert json.loads(out)["id"] == 1
    assert only_error_line(err) == "error: duplicate panel id 'MKT'"


def digest_lines(directory: Path) -> str:
    """One ``name sha256`` line per file under ``directory``, by relative name."""
    return "".join(f"{path.relative_to(directory).as_posix()} "
                   f"{hashlib.sha256(path.read_bytes()).hexdigest()}\n"
                   for path in sorted(directory.rglob("*")) if path.is_file())


def chain_digests(directory: Path) -> str:
    """Runs the fixed chain in ``directory`` and returns one ``name sha256`` line
    per file it leaves, with the step ``seconds`` of ``run_log.json`` zeroed first.

    ``gen`` and ``ingest`` write ``directory``. Each ``run`` reads the CSVs there
    and writes ``directory/runs``, where ``report`` then runs, so a file that
    ``run`` should not write shows up as a file of its own. ``run hml`` parses the
    CSVs and records its sources in ``runs/ingest.json``; the other three load
    them from that store, so the golden pins both paths to the same bytes."""
    runs = directory / "runs"
    assert factorlab(directory, *CHAIN_INPUTS) == 0
    assert factorlab(directory, "ingest") == 0
    for recipe in CHAIN_RECIPES:
        assert factorlab(directory, "--out-dir", str(runs), "run", recipe) == 0, recipe
    assert factorlab(runs, *GOLDEN_REPORT) == 0
    (runs / "run_log.json").write_text(zeroed_run_log(runs))
    return digest_lines(directory)


def export_digests(directory: Path, target: Path) -> str:
    """Runs ``export`` on the panel of each ``[<folder>/]<id>.csv`` named in
    ``chain_export.sha256``, from the chain's store in ``directory/<folder>`` to
    ``target/<folder>``, and returns the digest lines of ``target``."""
    folders: dict[str, list[str]] = {}
    for line in GOLDEN_EXPORT.read_text().splitlines():
        folder, _, name = line.split()[0].rpartition("/")
        folders.setdefault(folder, []).append(name[:-len(".csv")])
    for folder, ids in folders.items():
        assert cli.main(["--data-dir", str(directory / folder), "--out-dir", str(target / folder),
                         "export", *ids]) == 0, folder
    return digest_lines(target)


def differing(golden: Path, digests: str) -> list[str]:
    """The files whose line in ``digests`` is not the one in ``golden``."""
    want, got = (dict(line.split() for line in text.splitlines())
                 for text in (golden.read_text(), digests))
    return sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The directory where the fixed chain ran, and the digest lines of its files."""
    directory = tmp_path_factory.mktemp("chain")
    return directory, chain_digests(directory)


def test_the_chain_writes_the_golden_bytes(chain):
    assert differing(GOLDEN_CHAIN, chain[1]) == []


def test_export_writes_the_csvs_that_ingest_and_run_no_longer_write(chain, tmp_path):
    directory, _ = chain
    assert differing(GOLDEN_EXPORT, export_digests(directory, tmp_path)) == []
    assert [line for line in GOLDEN_EXPORT.read_text().splitlines()
            if directory.joinpath(line.split()[0]).exists()] == []


if __name__ == "__main__":  # rewrite the goldens: PYTHONPATH=src python -m tests.test_cli
    import contextlib
    import tempfile

    with tempfile.TemporaryDirectory() as chain_dir, tempfile.TemporaryDirectory() as target, \
            contextlib.redirect_stdout(io.StringIO()):
        GOLDEN_CHAIN.write_text(chain_digests(Path(chain_dir)))
        GOLDEN_EXPORT.write_text(export_digests(Path(chain_dir), Path(target)))
