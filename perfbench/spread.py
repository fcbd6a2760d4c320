"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --runs 10 --out perfbench/baseline.json

For every workload and seed it runs ``perfbench/run.py`` with BENCHMARK.json's
``run_seconds``, one run at a time, seeds in the outer loop. For each
end-to-end metric it prints the median, the quartiles (``statistics.quantiles``
with n=4), the inter-quartile distance as a share of the median, and whether
that share stays below a third of the metric's bound. ``--out`` writes the
same table as JSON; that file is the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    lines = proc.stdout.splitlines()
    meta = next((json.loads(line[5:]) for line in lines if line.startswith("meta ")), {})
    return {"result": json.loads(lines[-1]), "meta": meta}


def summarize(values: list[float], bound: float | None) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    share = (q3 - q1) / median if median else None
    row = {"median": median, "q1": q1, "q3": q3, "iqr_share": share, "values": values}
    if bound is not None:
        row["bound"] = bound
        row["steady"] = share is not None and share < bound / 3
    return row


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in config["workloads"]]
    seeds = range(1, args.runs + 1)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]} if not args.trace else {}
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            doc = run_once(workload, seed, config["run_seconds"], args.trace)
            runs[workload].append(doc)
            res = doc["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                             if k in bounds), flush=True)

    table = {}
    for workload, docs in runs.items():
        names = docs[0]["result"]["metrics"]
        table[workload] = {
            "all_correct": all(d["result"]["correct"] for d in docs),
            "metrics": {
                name: {"unit": docs[0]["result"]["metrics"][name]["unit"],
                       **summarize([d["result"]["metrics"][name]["value"] for d in docs],
                                   bounds.get(name))}
                for name in names
            },
        }
        print(f"\n{workload} (all correct: {table[workload]['all_correct']})")
        for name, row in table[workload]["metrics"].items():
            flag = "" if "steady" not in row else ("  ok" if row["steady"] else "  WIDE")
            share = "n/a" if row["iqr_share"] is None else f"{row['iqr_share']:.4f}"
            print(f"  {name:38s} median {row['median']:14.6g} {row['unit']:6s} "
                  f"iqr/median {share}{flag}")
    if args.out:
        doc = {
            "run_seconds": config["run_seconds"],
            "seeds": list(seeds),
            "trace": args.trace,
            "meta": {w: {k: v for k, v in runs[w][0]["meta"].items() if k != "seed"}
                     for w in workloads},
            "workloads": table,
        }
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
