"""One pass of one workload, in a fresh process; the benchmark's run.py starts it.

Writes a JSON result file: the pass's chain time, its operations, the spreads
it produced, its peak RSS, the reference kernel's times and, with
``--trace 1``, per-layer span metrics. Times are given at the reference speed
of the host (hostref.py) and as measured. Untraced passes never install the
tracer.

    python3 perfbench/onepass.py --workload api_deep --inputs DIR --out DIR \
        --seed 1 --trace 0 --result FILE
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import hostref, workloads
    from perfbench.tracer import Tracer

    args.out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    clock = hostref.Clock()
    with tracer or contextlib.nullcontext():
        result = workloads.PASSES[args.workload](args.inputs, args.out, args.seed, clock)
    clock.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    doc = result.to_dict(clock)
    doc["peak_rss_mb"] = peak_kb / 1024.0
    doc["references"] = clock.references
    if tracer is not None:
        doc["layers"] = tracer.layer_metrics()
        doc["missing"] = tracer.missing
    args.result.write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
