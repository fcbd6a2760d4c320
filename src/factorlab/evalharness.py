"""Cosine similarity, per-task sim@k, and aggregate Sim@k over repeated attempts.

sim@k for one task is the exact expectation, over all size-k subsets of the
n attempts, of the best cosine similarity in the subset. The closed form
weights the j-th ascending order statistic by C(j-1, k-1) / C(n, k); the
tests check it against direct subset enumeration. Aggregate Sim@k averages
per-task values across tasks.

Alignment before comparison intersects dates (and assets, for panels) and
drops pairs with a missing side; zero-filling would inflate the similarity
of sparse outputs. Failed attempts enter with a configurable score, -1 by
convention. A manifest names a saved panel by the path of any of its files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from pathlib import Path

import numpy as np

from .errors import AlignmentError, DataError
from . import panel as panelio
from .panel import Panel, reframe

FAILED_ATTEMPT_SCORE = -1.0


def align(a: Panel, b: Panel) -> tuple[np.ndarray, np.ndarray]:
    """Paired value vectors over the common non-missing support.

    Panels (series are one-column panels) flatten in (date, asset) order
    after intersecting both axes. Empty overlap is an error.
    """
    dates = a.dates.intersection(b.dates)
    b_assets = set(b.assets)
    assets = tuple(x for x in a.assets if x in b_assets)
    if not len(dates) or not assets:
        raise AlignmentError("no overlapping dates/assets to compare")
    ga = reframe(a.values, a.dates, dates, a.assets, assets)
    gb = reframe(b.values, b.dates, dates, b.assets, assets)
    keep = ~np.isnan(ga) & ~np.isnan(gb)
    if not np.any(keep):
        raise AlignmentError("no jointly non-missing cells to compare")
    return ga[keep], gb[keep]


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """u.v / (|u||v|), in [-1, 1]; zero-norm vectors are an error.

    Each vector is first divided by its largest magnitude. Cosine is
    scale-invariant, and the scaling keeps squares of tiny entries from
    underflowing into subnormals, where the dot products lose their digits.
    """
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if u.shape != v.shape or u.size < 1:
        raise DataError("cosine needs equal-length non-empty vectors")
    su, sv = float(np.max(np.abs(u))), float(np.max(np.abs(v)))
    if su == 0.0 or sv == 0.0:
        raise DataError("cosine undefined for a zero-norm vector")
    u, v = u / su, v / sv
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def sim_at_k(attempt_sims, k: int) -> float:
    """Exact expected best-of-k similarity via the order-statistic closed form."""
    sims = sorted(float(s) for s in attempt_sims)
    n = len(sims)
    if not 1 <= k <= n:
        raise DataError(f"k={k} outside 1..{n}")
    total = 0.0
    for j, s in enumerate(sims, start=1):
        weight = comb(j - 1, k - 1)
        if weight:
            total += weight * s
    return total / comb(n, k)


def aggregate_simk(per_task_values) -> float:
    """Arithmetic mean of per-task sim@k values."""
    values = [float(v) for v in per_task_values]
    if not values:
        raise DataError("no tasks to aggregate")
    return sum(values) / len(values)


@dataclass(frozen=True)
class AttemptSet:
    task_id: str
    attempts: tuple
    reference: Panel

    def __post_init__(self):
        if len(self.attempts) < 1:
            raise DataError(f"task {self.task_id!r}: needs at least one attempt")


@dataclass(frozen=True)
class SimKResult:
    task_id: str
    n: int
    per_k: dict[int, float]
    per_attempt_sims: tuple[float, ...]


def evaluate_task(attempt_set: AttemptSet, ks,
                  failure_score: float = FAILED_ATTEMPT_SCORE) -> SimKResult:
    """Cosine each attempt against the reference and compute sim@k per requested k.

    ``None`` attempts are recorded failures and contribute ``failure_score``.
    """
    sims = []
    for attempt in attempt_set.attempts:
        if attempt is None:
            sims.append(float(failure_score))
        else:
            u, v = align(attempt, attempt_set.reference)
            sims.append(cosine(u, v))
    n = len(sims)
    per_k = {}
    for k in ks:
        if not 1 <= k <= n:
            raise DataError(f"task {attempt_set.task_id!r}: k={k} outside 1..{n}")
        per_k[int(k)] = sim_at_k(sims, int(k))
    return SimKResult(
        task_id=attempt_set.task_id,
        n=n,
        per_k=per_k,
        per_attempt_sims=tuple(sims),
    )


# -- manifest-driven evaluation ------------------------------------------------


def _load_entry(path_str: str, base: Path):
    """The saved panel that a path, relative to ``base`` unless absolute, is a file of."""
    if not isinstance(path_str, str):
        raise DataError(f"manifest entries must be paths, got {path_str!r}")
    return panelio.load(*panelio.saved_panel_at(base / path_str))


def load_manifest(manifest_path) -> list[AttemptSet]:
    """Evaluation manifest: {"tasks": [{task_id, reference, attempts: [path|null]}]}."""
    manifest_path = Path(manifest_path)
    try:
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DataError(f"{manifest_path}: cannot read: {exc}") from exc
    tasks = doc.get("tasks") if isinstance(doc, dict) else None
    if not isinstance(tasks, list) or not tasks:
        raise DataError(f"{manifest_path}: expected an object with a non-empty 'tasks' list")
    base = manifest_path.parent
    out = []
    for i, entry in enumerate(tasks):
        if not (isinstance(entry, dict) and {"task_id", "reference"} <= entry.keys()
                and isinstance(entry.get("attempts", []), list)):
            raise DataError(f"{manifest_path}: task {i} needs task_id, reference, attempts[]")
        attempts = tuple(
            None if item is None else _load_entry(item, base)
            for item in entry.get("attempts", [])
        )
        out.append(AttemptSet(
            task_id=str(entry["task_id"]),
            attempts=attempts,
            reference=_load_entry(entry["reference"], base),
        ))
    return out


def evaluate_tasks(tasks, ks, failure_score: float = FAILED_ATTEMPT_SCORE) -> dict:
    """Per-task and aggregate Sim@k table of a manifest's tasks for the requested k."""
    results = [evaluate_task(t, ks, failure_score=failure_score) for t in tasks]
    table = {
        "tasks": [
            {
                "task_id": r.task_id,
                "n": r.n,
                "per_attempt_sims": [round(s, 4) for s in r.per_attempt_sims],
                "sim_at_k": {str(k): round(v, 4) for k, v in sorted(r.per_k.items())},
            }
            for r in results
        ],
        "aggregate_sim_at_k": {
            str(k): round(aggregate_simk([r.per_k[int(k)] for r in results]), 4)
            for k in sorted({int(k) for k in ks})
        },
    }
    return table


def format_simk_table(table: dict) -> str:
    """Aligned text rendering of an evaluate_tasks result, 4 decimals."""
    ks = sorted(table["aggregate_sim_at_k"], key=int)
    header = ["task", "n"] + [f"Sim@{k}" for k in ks]
    rows = [header]
    for task in table["tasks"]:
        rows.append([task["task_id"], str(task["n"])]
                    + [f"{task['sim_at_k'][k]:.4f}" for k in ks])
    rows.append(["(aggregate)", ""]
                + [f"{table['aggregate_sim_at_k'][k]:.4f}" for k in ks])
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"
