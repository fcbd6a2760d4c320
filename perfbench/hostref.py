"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's machine is a small share of a shared host whose speed swings
with other tenants' load: a fixed loop takes up to twice as long from one
second to the next, and the median over a minute drifts by ±20%. A drift
that lasts a run moves every time it measures, and two sets of runs made
half an hour apart can differ by more than a 25% bound with no change to the
code. So the benchmark runs this kernel between slices of the work it times,
in the same process, and reports each timed interval at the reference speed:

    reported = measured * REFERENCE_S / mean(reference before, reference after)

Measured back to back on one vCPU, an operation's time and the mean of the
two references around it correlate at about 0.83 (0.95 over ten operations),
so the scaled times keep the program's work and drop most of the host's
swing. The kernel never touches factorlab, so a change to the program cannot
move it. It mixes the kinds of work the program does: interpreter loops and
dicts, numpy reductions and sorts over arrays with NaNs, CSV and JSON text.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time

import numpy as np

# the unit of every reported time: seconds on a host where one reference()
# call takes this long; near its median on the 2-vCPU Intel Xeon machine that
# recorded the committed baseline (0.065 to 0.075 s)
REFERENCE_S = 0.07
# measured seconds between two runs of the kernel, at most; an operation
# longer than this is bracketed by the runs before and after it
SLICE_S = 0.25


def _interpreter() -> int:
    total = 0
    for i in range(80_000):
        total += i * i
    for _ in range(4):  # small tables: the kernel should add little to peak RSS
        table = {str(i): i for i in range(5_000)}
        total += len(table)
    return total


def _numeric() -> float:
    # no numpy.random: its lazy import would add megabytes to the pass's peak RSS
    values = np.sin(np.arange(300 * 300, dtype=float) * 0.618).reshape(300, 300)
    values[values > 0.9] = np.nan
    acc = 0.0
    for _ in range(3):
        acc += float(np.nansum(np.sort(values, axis=1)[:, 150]))
        acc += float(np.argsort(values, axis=0)[0, 0])
        acc += float(np.nansum(np.nancumsum(values, axis=0)[-1]))
        acc += float(np.nanmean(values, axis=0)[0])
    return acc


def _text() -> int:
    rng = random.Random(0)
    rows = [[rng.random() for _ in range(20)] for _ in range(350)]
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    parsed = [[float(x) for x in row] for row in csv.reader(io.StringIO(buf.getvalue()))]
    return len(json.loads(json.dumps(parsed)))


def reference() -> float:
    """Wall seconds of one run of the fixed kernel."""
    started = time.perf_counter()
    _interpreter()
    _numeric()
    _text()
    return time.perf_counter() - started


class Clock:
    """Times work between runs of the reference kernel, at the reference speed.

    The timed code calls ``tick()`` between its operations; once ``SLICE_S``
    has been measured since the last run, ``tick()`` runs the kernel again.
    Intervals are taken as ``time.perf_counter()`` stamps and converted after
    ``stop()``: time spent in the kernel is left out, and each slice counts at
    the speed given by the runs before and after it.
    """

    def __init__(self):
        self.references: list[float] = []
        self.slices: list[tuple[float, float]] = []
        self._run_reference()

    def _run_reference(self) -> None:
        self.references.append(reference())
        self._start = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._start >= SLICE_S:
            self.stop()

    def stop(self) -> None:
        """Close the current slice with a run of the kernel."""
        self.slices.append((self._start, time.perf_counter()))
        self._run_reference()

    def speeds(self) -> list[float]:
        """Host speed over each slice, as a share of the reference speed."""
        refs = self.references
        return [2.0 * REFERENCE_S / (refs[i] + refs[i + 1]) for i in range(len(self.slices))]

    def measured(self, t0: float, t1: float) -> float:
        """Seconds between two stamps, without the kernel's runs."""
        return sum(max(0.0, min(t1, end) - max(t0, start)) for start, end in self.slices)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds between two stamps, without the kernel's runs, at the reference speed."""
        return sum(max(0.0, min(t1, end) - max(t0, start)) * speed
                   for (start, end), speed in zip(self.slices, self.speeds()))
