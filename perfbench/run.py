"""factorlab benchmark: one workload, one seed, timed passes and an oracle check.

    python3 perfbench/run.py --workload cli_wide --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed (several times, to time set-up),
computes the straight-loop oracle spreads once, then runs untraced passes,
each in a fresh child process, until ``--seconds`` are used. Every time is
scaled to a fixed host speed by a reference kernel that runs between slices
of the timed work (hostref.py). With
``--trace 1`` one more pass runs with the span tracer installed and the
per-layer metrics are printed instead of the end-to-end ones. The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# set-up repeats until it has taken this long, at least SETUP_MIN_REPEATS and
# at most SETUP_MAX_REPEATS times; setup_s is the median
SETUP_SECONDS = 3.0
SETUP_MIN_REPEATS = 7
SETUP_MAX_REPEATS = 15
RUN_TIMEOUT_S = 170  # a run that overruns this is killed and fails
MAX_FAILURES_SHOWN = 10

# children and the parent run single-threaded, with a fixed hash seed
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END = {
    "setup_s": "s",
    "chain_s": "s",
    "call_p50_ms": "ms",
    "call_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

TOOL_KINDS = ("operator", "load_source", "save_panel", "build_report", "error")

# per-layer metrics of the traced pass: span self time (.s), call counts
# (.calls) and counters, then tool-call medians, set-up and tracing overhead
PER_LAYER = (
    "ingest.ingest_monthly.s", "ingest.ingest_annual.s", "ingest.rows",
    "ingest.book_equity.s", "ingest.book_to_market.s",
    "panel.save.s", "panel.save.calls", "panel.save.bytes", "panel.load.s",
    "panel.load.calls", "panel.load_registry.s", "panel.PanelRegistry.register.calls",
    "panel.Panel.payload.s",
    "transforms.align_panels.s", "transforms.align_panels.calls",
    "transforms.ewma.s", "transforms.quantile_bins.s",
    "transforms.rolling_compound_return.s", "transforms.winsorize.s",
    "transforms.compare.s", "transforms.xs_percentile_row.s",
    "transforms.annual_to_monthly.s", "transforms.binary_op.s", "transforms.mask.s",
    "portfolio.independent_sort_2x3.s", "portfolio.independent_sort_2x3.calls",
    "portfolio.weights_from_membership.s", "portfolio.portfolio_return.s",
    "portfolio.spread_2x3.s", "portfolio.spread_topbottom.s",
    "ops.validate_args.s", "ops.validate_args.calls", "ops.execute_operator.calls",
    "pipeline.parse_and_validate.s", "pipeline.execute.s", "pipeline.run_recipe.calls",
    "pipeline.flags",
    "riskstats.ts_regress.s", "riskstats.ts_regress.calls",
    "riskstats.size_stratified_alphas.s", "riskstats.coverage_by_period.s",
    "riskstats.summarize.s", "report.build_report.s", "report.render_markdown.s",
    "report.render_json.s",
    "evalharness.evaluate_task.s", "evalharness.align.s",
    *(f"toolserver.{kind}.p50_ms" for kind in TOOL_KINDS),
    "cli.cmd_ingest.s", "cli.cmd_run.s", "cli.cmd_report.s",
    "synthetic.generate_synthetic.s",
    "trace.overhead_s",
)


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])


# agent_attempts' hostile calls are checked for their error response and counted
# in success_rate, and their latency is toolserver.error.p50_ms; call_p50_ms and
# call_p99_ms leave them out. With them, the p99 falls on the fastest of the 13
# slowest calls of a pass (build_report, four source loads and the eight
# duplicate load_source calls) and swings by 20% from one run to the next.
HOSTILE = "tool error"
POOL_MIN_CALLS = 1000


def well_formed(ops: list[dict]) -> list[dict]:
    return [op for op in ops if op["kind"] != HOSTILE]


def call_percentile(per_pass: list[list[float]], pct: float) -> float:
    """A percentile of call latency over the passes of a run.

    When every pass has the 1,000 calls that put ten beyond its p99
    (agent_attempts), the calls of all passes are pooled: over 60 passes
    taken in groups of five or seven, the pooled p99 spread about half as
    much as the median of the passes' own p99s. With 5 or 7 calls per pass
    (cli_wide, api_deep) a pooled p99 is the slowest call of the slowest
    pass, so there it is the median over passes of each pass's percentile.
    """
    if min(len(calls) for calls in per_pass) >= POOL_MIN_CALLS:
        return percentile([ms for calls in per_pass for ms in calls], pct)
    return statistics.median(percentile(calls, pct) for calls in per_pass)


def call_latencies(ops: list[dict], prefix: str = "", key: str = "ms") -> list[float]:
    """Latencies of the calls a client waits on: CLI commands, API calls, tool calls."""
    return [op[key] for op in ops
            if op["kind"].split(" ")[0] in ("cli", "api", "tool")
            and op["kind"].startswith(prefix)]


def run_metadata(args, sizes: tuple[int, int], attempts: int | None) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    lines = {p.name: len(p.read_text().splitlines())
             for p in sorted((ROOT / "src" / "factorlab").glob("*.py"))}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "workload": args.workload,
        "n_assets": sizes[0],
        "n_months": sizes[1],
        "attempts": attempts,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def run_pass(args, inputs: Path, work: Path, index: int, trace: bool, deadline: float) -> dict:
    out = work / f"pass{index}"
    result_path = work / f"pass{index}.json"
    cmd = [sys.executable, str(ROOT / "perfbench" / "onepass.py"),
           "--workload", args.workload, "--inputs", str(inputs), "--out", str(out),
           "--seed", str(args.seed), "--trace", "1" if trace else "0",
           "--result", str(result_path)]
    proc = subprocess.run(cmd, env={**os.environ, **CHILD_ENV}, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    doc = json.loads(result_path.read_text())
    shutil.rmtree(out, ignore_errors=True)
    result_path.unlink()
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    for needed in (ROOT / "src" / "factorlab" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a full checkout",
                  file=sys.stderr)
            return 2
    os.environ.update(CHILD_ENV)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import hostref, workloads
    from tests import oracles

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    sizes = workloads.SIZES[args.workload]
    attempts = workloads.ATTEMPTS if args.workload == "agent_attempts" else None

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(args, hostref, workloads, oracles, sizes, attempts, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def measure(args, hostref, workloads, oracles, sizes, attempts, work: Path,
            deadline: float) -> int:
    inputs = work / "inputs"
    config = workloads.make_config(args.seed, *sizes)
    clock = hostref.Clock()
    setups, generated = [], []
    while len(setups) < SETUP_MIN_REPEATS or (sum(t1 - t0 for t0, t1 in setups) < SETUP_SECONDS
                                              and len(setups) < SETUP_MAX_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        started = time.perf_counter()
        generated.append(workloads.setup_inputs(args.workload, config, inputs))
        setups.append((started, time.perf_counter()))
        clock.tick()
    clock.stop()

    expected = {
        "HML_spread": oracles.hml_bruteforce(inputs / "monthly.csv", inputs / "annual.csv"),
        "MOM_spread": oracles.jkp_bruteforce(inputs / "monthly.csv"),
    }

    passes = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(args, inputs, work, len(passes), False, deadline))
        now = time.perf_counter()
        if now + (now - t0) > started + args.seconds:
            break
    traced = run_pass(args, inputs, work, len(passes), True, deadline) if args.trace else None

    # every operation and every output check counts toward attempted/failed
    failures = []
    attempted = 0
    for doc in passes + ([traced] if traced else []):
        attempted += len(doc["ops"]) + len(expected)
        failures += [f"{op['kind']}: {op['detail']}" for op in doc["ops"] if not op["ok"]]
        for name, oracle in expected.items():
            reason = workloads.check_spread(doc["spreads"].get(name), oracle)
            if reason:
                failures.append(f"check {name}: {reason}")
    correct = not any(f.startswith("check ") for f in failures)
    error_rate = len(failures) / attempted

    # times at the reference speed of the host (hostref.py), or as measured
    def timings(clocked, suffix: str) -> dict:
        calls = [call_latencies(well_formed(doc["ops"]), key=f"{suffix}ms") for doc in passes]
        return {
            "setup_s": statistics.median(clocked(t0, t1) for t0, t1 in setups),
            "chain_s": statistics.median(doc[f"chain_{suffix}s"] for doc in passes),
            "call_p50_ms": call_percentile(calls, 50),
            "call_p99_ms": call_percentile(calls, 99),
        }

    calls = [call_latencies(well_formed(doc["ops"])) for doc in passes]
    beyond = min(sum(1 for ms in c if ms > p99) for c in calls for p99 in [percentile(c, 99)])
    if traced is None:
        values = timings(clock.scaled, "")
        values["peak_rss_mb"] = statistics.median(doc["peak_rss_mb"] for doc in passes)
        values["success_rate"] = 1.0 - error_rate
        units = END_TO_END
        measured = timings(clock.measured, "measured_")
    else:
        # the tracer's spans are measured times; scale them by the traced pass's speed
        speed = traced["chain_s"] / traced["chain_measured_s"]
        values = {name: value * speed if layer_unit(name) == "s" else value
                  for name, value in traced["layers"].items()}
        for kind in TOOL_KINDS:
            lat = [call_latencies(d["ops"], f"tool {kind}") for d in passes]
            values[f"toolserver.{kind}.p50_ms"] = statistics.median(
                percentile(s, 50) if s else 0.0 for s in lat)
        values["synthetic.generate_synthetic.s"] = statistics.median(
            clock.scaled(t0, t1) for t0, t1 in generated)
        values["trace.overhead_s"] = (traced["chain_s"]
                                      - statistics.median(d["chain_s"] for d in passes))
        values = {name: values[name] for name in PER_LAYER}
        units = {name: layer_unit(name) for name in values}
        measured = {}

    print(f"workload {args.workload}, seed {args.seed}, {sizes[0]} assets x "
          f"{sizes[1]} months: {len(passes)} untraced pass(es)"
          + (", 1 traced pass" if traced else ""))
    print("pass chain_s: " + " ".join(f"{doc['chain_s']:.3f}" for doc in passes))
    print("pass chain_s as measured: "
          + " ".join(f"{doc['chain_measured_s']:.3f}" for doc in passes))
    references = [t for doc in passes for t in doc["references"]]
    print(f"reference kernel: set-up median {statistics.median(clock.references):.4f} s "
          f"({len(clock.references)} runs), passes median "
          f"{statistics.median(references):.4f} s ({len(references)} runs), "
          f"REFERENCE_S {hostref.REFERENCE_S} s")
    if measured:
        print("as measured: " + ", ".join(f"{name} {value:.6g}"
                                          for name, value in measured.items()))
    print(f"call samples per pass: {min(len(c) for c in calls)}, beyond p99: {beyond}")
    print(f"error_rate: {error_rate:.6f} ({len(failures)} of {attempted} operations failed)")
    for failure in failures[:MAX_FAILURES_SHOWN]:
        print(f"  failed: {failure}")
    if traced and traced["missing"]:
        print(f"trace targets missing: {', '.join(traced['missing'])}")
    for name, value in values.items():
        print(f"  {name:44s} {value:>16.6f} {units[name]}")
    print("meta " + json.dumps(run_metadata(args, sizes, attempts), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
