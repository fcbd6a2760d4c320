"""Tests of the benchmark itself: tiny runs of every workload, the tracer, the checks."""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import hostref, run, workloads  # noqa: E402
from perfbench.tracer import Span, Tracer, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "3", "--seconds", "1"]
TINY_SIZES = {name: (24, 48) for name in workloads.WORKLOADS}


@functools.cache
def tiny(workload: str, trace: str) -> tuple[int, str]:
    """Exit code and standard output of an in-process run at 24 assets x 48 months.

    Only the parent generates inputs, so patching the sizes there is enough:
    the child passes read the generated files.
    """
    out = io.StringIO()
    with mock.patch.dict(workloads.SIZES, TINY_SIZES), mock.patch.dict(os.environ), \
            contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--trace", trace, *TINY])
    return code, out.getvalue()


def result_line(proc) -> dict:
    code, stdout = proc
    assert code == 0, stdout
    return json.loads(stdout.splitlines()[-1])


# -- end to end -----------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    doc = result_line(tiny(workload, "0"))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_known_tool_server_escapes_count_as_failures():
    proc = tiny("agent_attempts", "0")
    doc = result_line(proc)
    stdout = proc[1]
    assert doc["failed"] > 0
    assert "escaped handle_line: RegistryError" in stdout
    assert "escaped handle_line: TypeError" in stdout
    samples = next(line for line in stdout.splitlines()
                   if line.startswith("call samples per pass"))
    assert int(samples.split(",")[0].split(":")[1]) >= run.POOL_MIN_CALLS


def test_traced_run_prints_every_per_layer_metric():
    doc = result_line(tiny("agent_attempts", "1"))
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    assert metrics["ingest.ingest_monthly.s"] == 0
    assert metrics["toolserver.operator.p50_ms"] > 0
    assert metrics["ops.validate_args.calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "api_deep",
                           "--trace", "0", *TINY], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_json_names_match_the_code():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for m in BENCHMARK["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


def test_call_percentile_pools_only_passes_with_a_thousand_calls():
    small = [[1.0, 2.0, 3.0], [1.0, 2.0, 30.0], [1.0, 2.0, 4.0]]
    assert run.call_percentile(small, 100) == 4.0    # median of the passes' maxima
    large = [[1.0] * 999 + [10.0], [2.0] * 1000]
    assert run.call_percentile(large, 50) == 2.0     # pooled; the passes' medians are 1 and 2


# -- reference clock ----------------------------------------------------------------


def test_clock_scales_each_slice_by_the_references_around_it():
    clock = hostref.Clock.__new__(hostref.Clock)
    ref = hostref.REFERENCE_S
    clock.references = [ref, ref, 2 * ref]     # speeds 1 and 2/3
    clock.slices = [(0.0, 1.0), (2.0, 4.0)]    # the kernel ran from 1.0 to 2.0
    assert clock.speeds() == pytest.approx([1.0, 2.0 / 3.0])
    assert clock.measured(0.0, 4.0) == pytest.approx(3.0)
    assert clock.scaled(0.0, 4.0) == pytest.approx(1.0 + 2.0 * 2.0 / 3.0)
    assert clock.scaled(0.5, 3.0) == pytest.approx(0.5 + 1.0 * 2.0 / 3.0)


# -- tracer -----------------------------------------------------------------------


def test_self_time_subtracts_covered_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),    # overlaps a: the union counts once
        Span("a.x", 2.0, 3.0, parent=1),
        Span("c", 9.0, 12.0, parent=0),   # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_tracer_wraps_aliases_and_restores_them():
    from factorlab import cli, ingest, portfolio, transforms

    original = transforms.align_panels
    command = cli.COMMANDS["run"]
    tracer = Tracer().install()
    try:
        assert transforms.align_panels is not original
        assert portfolio.align_panels is transforms.align_panels
        assert ingest.align_panels is transforms.align_panels
        assert cli.COMMANDS["run"] is not command
    finally:
        tracer.uninstall()
    assert transforms.align_panels is original
    assert portfolio.align_panels is original
    assert cli.COMMANDS["run"] is command
    assert tracer.missing == []


def test_tracer_reports_missing_targets_without_crashing():
    from factorlab import transforms

    tracer = Tracer(targets={"transforms:no_such_function": None,
                             "no_such_module:f": None,
                             "transforms:align_panels": None})
    with tracer:
        transforms.align_panels(_panel(), _panel())
    assert tracer.missing == ["transforms:no_such_function", "no_such_module:f"]
    metrics = tracer.layer_metrics()
    assert metrics["transforms.no_such_function.s"] == 0.0
    assert metrics["transforms.align_panels.calls"] == 1


def _panel():
    from factorlab.panel import DateIndex, Panel

    return Panel.source("X", DateIndex.range("2000-01", 3), ("A", "B"), [[1, 2]] * 3)


# -- workloads ----------------------------------------------------------------------


def test_agent_plan_sizes_and_unvaried_attempts(tmp_path):
    plan = workloads.agent_plan(7, tmp_path / "sources", tmp_path / "out")
    assert len(plan) >= 1000
    hostile = [r for r in plan if r.kind == "error"]
    assert len(hostile) == workloads.ATTEMPTS
    calls = [json.loads(r.line) for r in plan if r.kind == "operator"]
    shipped = {s["output"]: s["args"] for s in workloads._recipe_steps("hml")}
    for call in calls:
        name = call["params"]["arguments"]["name"]
        if name.startswith("a0_"):
            assert call["params"]["arguments"]["args"] == shipped[name[3:]]


def test_check_spread_catches_mismatches():
    oracle = {24000: 0.01, 24001: -0.02}
    assert workloads.check_spread({"24000": 0.01, "24001": -0.02, "24002": None}, oracle) == ""
    assert "exceeds" in workloads.check_spread({"24000": 0.01 + 1e-9, "24001": -0.02}, oracle)
    assert "months differ" in workloads.check_spread({"24000": 0.01}, oracle)
    assert workloads.check_spread(None, oracle) == "spread missing"
