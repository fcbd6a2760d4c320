"""Primitive, cross-sectional, and time-series operators on panels.

All operators are pure functions: they take immutable panels and return a new
unregistered panel whose provenance records the operation, its parameters,
and its input panel ids. Missing propagates at the cell level; no operator
imputes silently. Cross-sectional operators share one percentile definition,
``row_percentiles`` (linear interpolation between closest ranks, rank =
1 + (m-1) * p / 100), so breakpoints are reproducible across winsorize,
quantile_bins, and xs_percentile_row.

Rolling windows are calendar-month based, not positional: a month absent from
the date index still consumes window capacity.

The operator table in ``ops`` checks arguments once, before a recipe step or a
tool call reaches a function here; the functions trust their arguments and
check only the data: asset sets, and that a series input has one column.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import AlignmentError
from .panel import SERIES_ASSET, DateIndex, Panel, distinct, reframe

BINARY_OPS = ("add", "sub", "mul", "div")
UNARY_OPS = ("neg", "abs", "log", "rank_sign_flip")
COMPARE_OPS = ("lt", "ge")
ROLLING_STATS = ("mean", "std", "sum", "min", "max")


# -- alignment ---------------------------------------------------------------
#
# Operators decide which frame they want; panel.reframe is the one routine
# that moves cells onto it.


def align_panels(*panels: Panel) -> tuple[DateIndex, tuple[str, ...], list[np.ndarray]]:
    """Bring panels onto one frame: identical asset sets, union of dates.

    Differing asset sets are an error, never an implicit join. Columns are
    reordered to the first panel's asset order; rows missing from a panel's
    own index come out as NaN. Grids already on the frame come back as the
    panel's own read-only values.
    """
    first = panels[0]
    assets = first.assets
    asset_set = set(assets)
    dates = first.dates
    for p in panels[1:]:
        if set(p.assets) != asset_set:
            raise AlignmentError(
                f"asset sets differ: {sorted(asset_set ^ set(p.assets))[:6]} ..."
            )
        dates = dates.union(p.dates)
    return dates, assets, [reframe(p.values, p.dates, dates, p.assets, assets)
                           for p in panels]


def _align_series(dates: DateIndex, series: Panel) -> np.ndarray:
    """The column of a series (one-column panel) as a vector on ``dates``."""
    if not isinstance(series, Panel):
        raise AlignmentError("expected a one-column panel")
    series = series.to_series()
    return reframe(series.values, series.dates, dates)[:, 0]


def _sample_mask(a: Panel, universe: Panel | None) -> np.ndarray:
    """Cells of ``a`` in its per-date sample: non-missing, and nonzero in the universe."""
    present = ~np.isnan(a.values)
    if universe is None:
        return present
    if set(universe.assets) != set(a.assets):
        raise AlignmentError("universe mask asset set differs from panel")
    ugrid = reframe(universe.values, universe.dates, a.dates, universe.assets, a.assets)
    return present & ~np.isnan(ugrid) & (ugrid != 0)


# -- shared per-date machinery ----------------------------------------------


def row_percentiles(grid: np.ndarray, in_universe: np.ndarray,
                    pcts: Sequence[float]) -> np.ndarray:
    """Percentiles of each row's non-missing universe values, shape (T, len(pcts)).

    rank = 1 + (m - 1) * pct / 100 over the m sorted values of a row; fractional
    ranks interpolate linearly between the bracketing order statistics. A row
    with no values gives NaN.
    """
    vals = np.sort(np.where(in_universe, grid, np.nan), axis=1)  # NaN sorts last
    if not vals.shape[1]:
        return np.full((len(vals), len(pcts)), np.nan)
    m = np.count_nonzero(~np.isnan(vals), axis=1)[:, None]
    rank = 1.0 + (m - 1) * np.asarray(pcts, dtype=np.float64) / 100.0
    lo = np.floor(rank).astype(np.int64)
    frac = rank - lo

    def order_stat(k):  # the k-th smallest value of each row, 1-based
        return np.take_along_axis(vals, np.clip(k - 1, 0, vals.shape[1] - 1), axis=1)

    below = order_stat(lo)
    between = np.where(frac == 0.0, below, below + frac * (order_stat(lo + 1) - below))
    return np.where(lo >= m, order_stat(m), between)


def flag_rows(flags: list[str] | None, op: str, dates, rows, message: str) -> None:
    """Append ``"<op>: <period>: <message>"`` to ``flags`` for each marked row, in date order."""
    if flags is not None:
        flags.extend(f"{op}: {dates[i]}: {message}" for i in np.flatnonzero(rows))


# -- primitive operators -----------------------------------------------------


def binary_op(a: Panel, b: Panel, op: str) -> Panel:
    """Element-wise add/sub/mul/div; missing operand or division by zero -> missing."""
    dates, assets, (ga, gb) = align_panels(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        if op == "add":
            out = ga + gb
        elif op == "sub":
            out = ga - gb
        elif op == "mul":
            out = ga * gb
        else:
            out = ga / gb
            out[gb == 0] = np.nan
    out[~np.isfinite(out)] = np.nan
    return Panel.derive("binary_op", {"op": op}, [a, b], dates, assets, out)


def unary_op(a: Panel, op: str) -> Panel:
    """Element-wise neg/abs/log/rank_sign_flip; log of non-positive -> missing."""
    vals = a.values.copy()
    if op == "neg" or op == "rank_sign_flip":
        # rank_sign_flip inverts "lower is better" characteristics so they
        # sort ascending like everything else
        out = -vals
    elif op == "abs":
        out = np.abs(vals)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(vals > 0, np.log(np.where(vals > 0, vals, 1.0)), np.nan)
    return Panel.derive("unary_op", {"op": op}, [a], a.dates, a.assets, out)


def coalesce(*panels: Panel) -> Panel:
    """Per cell, the first non-missing value in argument order."""
    dates, assets, grids = align_panels(*panels)
    out = grids[0].copy()
    for grid in grids[1:]:
        hole = np.isnan(out)
        out[hole] = grid[hole]
    return Panel.derive("coalesce", {"n": len(panels)}, list(panels), dates, assets, out)


# -- cross-sectional transforms ----------------------------------------------


def winsorize(a: Panel, lo_pct: float | None = None, hi_pct: float | None = None,
              universe: Panel | None = None, flags: list[str] | None = None) -> Panel:
    """Clip each date's values to percentile bounds computed over the universe.

    Either bound may be absent (one-sided winsorization). Bounds come from
    universe-masked non-missing values; clipping applies to every asset.
    Dates with no universe values pass through unchanged and are flagged.
    """
    dates, assets, grid = a.dates, a.assets, a.values
    in_sample = _sample_mask(a, universe)
    empty = ~np.any(in_sample, axis=1)
    flag_rows(flags, "winsorize", dates, empty, "empty universe, passed through")
    bounds = row_percentiles(grid, in_sample, [p for p in (lo_pct, hi_pct) if p is not None])
    lo = bounds[:, :1] if lo_pct is not None else -np.inf
    hi = bounds[:, -1:] if hi_pct is not None else np.inf
    out = np.where(empty[:, None], grid, np.clip(grid, lo, hi))
    params = {"lo_pct": lo_pct, "hi_pct": hi_pct}
    inputs = [a] + ([universe] if universe is not None else [])
    return Panel.derive("winsorize", params, inputs, dates, assets, out)


def standardize(a: Panel, universe: Panel | None = None,
                flags: list[str] | None = None) -> Panel:
    """Per date, subtract the universe mean and divide by its sample (n-1) sd.

    Applied to all assets. Dates with fewer than two universe values or zero
    standard deviation come out entirely missing and are flagged (the first
    kind, then the second, each in date order). Each date's sums are numpy's
    sums of its sample alone, as ``np.mean`` and ``np.std`` compute them.
    """
    dates, assets, grid = a.dates, a.assets, a.values
    in_sample = _sample_mask(a, universe)
    n = in_sample.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = grid - (run_sums(grid[in_sample], n) / n)[:, None]
        sd = np.sqrt(run_sums(dev[in_sample] ** 2, n) / (n - 1))
        out = np.where(((n >= 2) & (sd != 0.0))[:, None], dev / sd[:, None], np.nan)
    flag_rows(flags, "standardize", dates, n < 2, "fewer than 2 universe values")
    flag_rows(flags, "standardize", dates, (n >= 2) & (sd == 0.0), "zero standard deviation")
    inputs = [a] + ([universe] if universe is not None else [])
    return Panel.derive("standardize", {}, inputs, dates, assets, out)


def quantile_bins(a: Panel, percentiles: Sequence[float],
                  universe: Panel | None = None,
                  flags: list[str] | None = None) -> Panel:
    """Assign integer bins 1..len(percentiles)+1 from universe breakpoints.

    Bin b covers (q_{b-1}, q_b]; a value exactly equal to a breakpoint goes
    to the lower bin. Every non-missing asset is binned, not just universe
    members. Dates with an empty universe are all-missing and flagged.
    """
    dates, assets, grid = a.dates, a.assets, a.values
    in_sample = _sample_mask(a, universe)
    empty = ~np.any(in_sample, axis=1)
    flag_rows(flags, "quantile_bins", dates, empty, "empty universe")
    bins = np.ones(grid.shape)
    for q in row_percentiles(grid, in_sample, percentiles).T:
        bins += grid > q[:, None]  # tie at the breakpoint stays in the lower bin
    out = np.where(np.isnan(grid) | empty[:, None], np.nan, bins)
    params = {"percentiles": percentiles}
    inputs = [a] + ([universe] if universe is not None else [])
    return Panel.derive("quantile_bins", params, inputs, dates, assets, out)


def mask(a: Panel, condition: Panel, keep_if: str = "nonzero") -> Panel:
    """Blank out cells failing the condition; missing condition -> missing."""
    dates, assets, (ga, gc) = align_panels(a, condition)
    keep = (gc != 0) if keep_if == "nonzero" else (gc == 0)
    keep &= ~np.isnan(gc)
    out = np.where(keep, ga, np.nan)
    return Panel.derive("mask", {"keep_if": keep_if}, [a, condition], dates, assets, out)


def compare(a: Panel, threshold, op: str = "lt") -> Panel:
    """Boolean panel (1.0/0.0) comparing cells to a per-date threshold.

    ``threshold`` is a series (a one-column panel) or a scalar constant.
    'lt' is strict; missing value or missing threshold -> missing.
    """
    dates, assets = a.dates, a.assets
    inputs = [a]
    if isinstance(threshold, (int, float)) and not isinstance(threshold, bool):
        thresh = np.full(len(dates), threshold)
        params = {"op": op, "threshold": threshold}
    else:
        thresh = _align_series(dates, threshold)
        inputs.append(threshold)
        params = {"op": op}
    vals = a.values
    with np.errstate(invalid="ignore"):
        hit = vals < thresh[:, None] if op == "lt" else vals >= thresh[:, None]
    out = np.where(np.isnan(vals) | np.isnan(thresh)[:, None], np.nan,
                   hit.astype(np.float64))
    return Panel.derive("compare", params, inputs, dates, assets, out)


def xs_percentile_row(a: Panel, pct: float, universe: Panel | None = None,
                      flags: list[str] | None = None) -> Panel:
    """A series of one scalar per date: the pct-th percentile over universe values.

    Dates with an empty universe are missing and flagged.
    """
    dates, grid = a.dates, a.values
    in_sample = _sample_mask(a, universe)
    flag_rows(flags, "xs_percentile_row", dates, ~np.any(in_sample, axis=1), "empty universe")
    inputs = [a] if universe is None else [a, universe]
    return Panel.derive("xs_percentile_row", {"pct": pct}, inputs, dates, (SERIES_ASSET,),
                        row_percentiles(grid, in_sample, [pct]))


# -- time-series transforms ----------------------------------------------------


def lag(a: Panel, k: int) -> Panel:
    """Value at date t becomes the value k calendar months earlier, else missing."""
    lo, hi = a.dates.window_rows(-k, 1 - k)  # the row of month t-k, where there is one
    out = _padded(a.values)[np.where(hi > lo, lo, len(a.values))]
    return Panel.derive("lag", {"k": k}, [a], a.dates, a.assets, out)


def rolling_compound_return(r: Panel, window: int, skip: int = 0,
                            min_obs: int | None = None) -> Panel:
    """Compound growth over calendar months t-window .. t-skip-1, per asset.

    The 12-1 momentum convention is window=12, skip=1: months t-12 through
    t-2, eleven returns. Cells with fewer than min_obs non-missing returns in
    the window are missing; min_obs defaults to the strict window-skip.
    """
    if min_obs is None:
        min_obs = window - skip
    lo, hi = r.dates.window_rows(-window, -skip)
    growth = np.ones_like(r.values)
    factors = np.where(np.isnan(r.values), 1.0, 1.0 + r.values)  # missing: times 1.0
    for rows in window_steps(factors, lo, hi, pad=1.0):
        growth *= rows
    out = np.where(window_counts(r.values, lo, hi) >= min_obs, growth - 1.0, np.nan)
    params = {"window": window, "skip": skip, "min_obs": min_obs}
    return Panel.derive("rolling_compound_return", params, [r], r.dates, r.assets, out)


def rolling_stat(a: Panel, window: int, stat: str, min_obs: int = 1) -> Panel:
    """Trailing-window statistic over months t-window+1 .. t (current included)."""
    lo, hi = a.dates.window_rows(1 - window, 1)
    count = window_counts(a.values, lo, hi)
    with np.errstate(invalid="ignore", divide="ignore"):
        if stat in ("min", "max"):
            fold = np.fmin if stat == "min" else np.fmax
            vals = np.full_like(a.values, np.nan)
            for rows in window_steps(a.values, lo, hi):
                vals = fold(vals, rows)
            vals = vals + 0.0  # a zero is +0.0, whichever sign numpy's lane order kept
        else:
            vals = window_sums(a.values, lo, hi)
            if stat != "sum":
                vals = vals / count
            if stat == "std":  # nanstd's second pass, over the squared deviations
                vals = np.sqrt(window_sums(a.values, lo, hi, center=vals) / (count - 1))
    out = np.where(count >= max(min_obs, 2 if stat == "std" else 1), vals, np.nan)
    params = {"window": window, "stat": stat, "min_obs": min_obs}
    return Panel.derive("rolling_stat", params, [a], a.dates, a.assets, out)


# -- month-window kernels ------------------------------------------------------
#
# Each takes the row windows lo[i]:hi[i] of DateIndex.window_rows and works on
# all dates and assets at once: it loops over the position inside the window,
# at most max(hi - lo) <= len(grid) times, never over dates.


def _padded(grid: np.ndarray, pad: float = np.nan) -> np.ndarray:
    """The grid with one ``pad`` row appended, gathered wherever a window has ended."""
    return np.vstack([grid, np.full((1, grid.shape[1]), pad)])


def window_counts(grid: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Non-missing cells per column in grid rows lo[i]:hi[i], for each i."""
    seen = np.zeros((len(grid) + 1, grid.shape[1]), dtype=np.int64)
    np.cumsum(~np.isnan(grid), axis=0, out=seen[1:])
    return seen[hi] - seen[lo]


def window_steps(grid: np.ndarray, lo: np.ndarray, hi: np.ndarray, pad: float = np.nan):
    """Yield grid row ``lo[i] + k`` for every i, k = 0, 1, ..., in window order,
    and a ``pad`` row once window i is used up: an ordered fold, one numpy
    operation per position, as numpy reduces a C-ordered block down axis 0."""
    padded = _padded(grid, pad)
    for k in range(int(np.max(hi - lo, initial=0))):
        yield padded[np.where(lo + k < hi, lo + k, len(grid))]


def window_sums(grid: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                center: np.ndarray | None = None) -> np.ndarray:
    """Per column, the sum over grid rows lo[i]:hi[i] of each cell, or of its
    squared deviation from ``center[i]``; a missing cell adds +0.0.

    The terms are added in the order of numpy's pairwise summation along a
    contiguous axis, which is how ``np.nansum``, ``np.nanmean`` and
    ``np.nanstd`` reduce an F-ordered window: eight interleaved partial sums
    over the first multiple of 8 terms, combined as a tree, then the rest in
    order; a window of more than 128 terms is split at a multiple of 8 near
    its middle and the halves summed alike. So the sums are bit-identical to
    theirs. (A zero sum is +0.0 in both.)
    """
    padded = _padded(grid)

    def term(i, src):
        x = padded[src]
        d = np.where(np.isnan(x), 0.0, x if center is None else x - center[i])
        return d if center is None else d * d

    def pairwise(i, lo, n):
        def at(pos, stop):  # the term at window position pos, or +0.0 from stop on
            return term(i, np.where(pos < stop, lo + pos, len(grid)))

        big = n > 128  # numpy's PW_BLOCKSIZE
        leaf = np.where(big, 0, n)
        blocked = np.where(leaf >= 8, leaf - leaf % 8, 0)
        part = [at(p, blocked) for p in range(8)]
        for p in range(8, int(np.max(blocked, initial=0))):
            part[p % 8] += at(p, blocked)
        total = (((part[0] + part[1]) + (part[2] + part[3]))
                 + ((part[4] + part[5]) + (part[6] + part[7])))
        for t in range(int(np.max(leaf - blocked, initial=0))):
            total += at(blocked + t, leaf)
        if np.any(big):
            half = n[big] // 2 - n[big] // 2 % 8
            total[big] = (pairwise(i[big], lo[big], half)
                          + pairwise(i[big], lo[big] + half, n[big] - half))
        return total

    return pairwise(np.arange(len(lo)), lo, hi - lo)


def run_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each run of ``counts[i]`` consecutive values summed as numpy sums it alone:
    the runs of one length are the rows of one block, summed at once."""
    out, starts = np.zeros(len(counts)), np.cumsum(counts) - counts
    for m in distinct(counts[counts > 0]).tolist():
        runs = np.flatnonzero(counts == m)
        out[runs] = values[starts[runs, None] + np.arange(m)].sum(axis=1)
    return out


def ewma(a: Panel, alpha: float, min_periods: int = 1) -> Panel:
    """Recursive exponentially weighted mean over each asset's observations.

    s_1 = x_1 and s_t = (1 - alpha) * s_{t-1} + alpha * x_t over the
    non-missing observation sequence (the non-adjusted recursive form).
    Output stays missing until min_periods non-missing observations have
    been seen, and at dates where the input itself is missing.
    """
    out = _ewma_grid(a.values, alpha, min_periods)
    params = {"alpha": alpha, "min_periods": min_periods}
    return Panel.derive("ewma", params, [a], a.dates, a.assets, out)


def _ewma_grid(grid: np.ndarray, alpha: float, min_periods: int = 1) -> np.ndarray:
    """The ``ewma`` recursion down every column of a grid, one date at a time."""
    out = np.full(grid.shape, np.nan)
    state = np.full(grid.shape[1], np.nan)
    seen = np.zeros(grid.shape[1], dtype=np.int64)
    with np.errstate(invalid="ignore", over="ignore"):
        for i, x in enumerate(grid):
            obs = ~np.isnan(x)
            state[obs] = np.where(seen == 0, x, (1.0 - alpha) * state + alpha * x)[obs]
            seen += obs
            out[i] = np.where(obs & (seen >= min_periods), state, np.nan)
    return out


# -- per-asset trend menu ------------------------------------------------------

# name -> grid function for ``trend``; each maps a T x N grid to one of the same
# shape, every column from its own column alone, and takes the params as keywords.
# The menu is read-only: the step-reuse map keys a trend step by its name, not its function.
SERIES_TRANSFORMS: Mapping[str, Callable] = MappingProxyType({
    "identity": lambda grid: grid,
    "cumsum": lambda grid: np.where(np.isnan(grid), np.nan, np.nancumsum(grid, axis=0)),
    "ewma": _ewma_grid,
})


def trend(a: Panel, name: str, params: dict | None = None) -> Panel:
    """Apply one of the fixed series transforms independently to each asset.

    A ``params`` key the transform does not take raises ``TypeError``.
    """
    out = SERIES_TRANSFORMS[name](a.values, **(params or {}))
    record = {"name": name}
    if params:
        record["params"] = params
    return Panel.derive("trend", record, [a], a.dates, a.assets, out)


# -- annual placement ----------------------------------------------------------


def annual_to_monthly(a: Panel, placement_month: int, offset: int,
                      valid_months: int) -> Panel:
    """Carry annual observations forward onto the monthly frame.

    Each value observed in the placement month fills ``valid_months`` months
    starting ``offset`` months after the placement date. Later observations
    override earlier ones on overlap. The Fama-French timing (December value
    usable June through May) is placement_month=12, offset=6, valid_months=12.
    """
    out = np.full_like(a.values, np.nan)
    lo, hi = a.dates.window_rows(offset, offset + valid_months)
    for i in np.flatnonzero(a.dates.ordinals % 12 == placement_month - 1):
        row = a.values[i]
        present = ~np.isnan(row)
        out[lo[i]:hi[i], present] = row[present]
    params = {
        "placement_month": placement_month,
        "offset": offset,
        "valid_months": valid_months,
    }
    return Panel.derive("annual_to_monthly", params, [a], a.dates, a.assets, out)
