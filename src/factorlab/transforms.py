"""Primitive, cross-sectional, and time-series operators on panels.

All operators are pure functions: they take immutable panels and return a new
unregistered panel whose provenance records the operation, its parameters,
and its input panel ids. Missing propagates at the cell level; no operator
imputes silently. Cross-sectional operators share one percentile definition
(linear interpolation between closest ranks, rank = 1 + (m-1) * p / 100) so
breakpoints are reproducible across winsorize, quantile_bins, and
xs_percentile_row.

Rolling windows are calendar-month based, not positional: a month absent from
the date index still consumes window capacity.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import AlignmentError, DataError
from .panel import SERIES_ASSET, DateIndex, Panel, reframe

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


def _universe_mask(dates: DateIndex, assets, universe: Panel | None) -> np.ndarray:
    """Boolean in-universe grid: non-missing and nonzero cells of the mask panel."""
    if universe is None:
        return np.ones((len(dates), len(assets)), dtype=bool)
    if set(universe.assets) != set(assets):
        raise AlignmentError("universe mask asset set differs from panel")
    ugrid = reframe(universe.values, universe.dates, dates, universe.assets, assets)
    return ~np.isnan(ugrid) & (ugrid != 0)


# -- shared percentile machinery --------------------------------------------


def percentile_linear(values: np.ndarray, pct: float) -> float:
    """Percentile by linear interpolation between closest ranks.

    rank = 1 + (m - 1) * pct / 100 over the m sorted values; fractional ranks
    interpolate linearly between the bracketing order statistics.
    """
    vals = np.sort(values[~np.isnan(values)])
    m = vals.size
    if m == 0:
        return float("nan")
    rank = 1.0 + (m - 1) * pct / 100.0
    lo = int(np.floor(rank))
    if lo >= m:
        return float(vals[m - 1])
    frac = rank - lo
    if frac == 0.0:
        return float(vals[lo - 1])
    return float(vals[lo - 1] + frac * (vals[lo] - vals[lo - 1]))


# -- primitive operators -----------------------------------------------------


def binary_op(a: Panel, b: Panel, op: str) -> Panel:
    """Element-wise add/sub/mul/div; missing operand or division by zero -> missing."""
    if op not in BINARY_OPS:
        raise DataError(f"unknown binary op {op!r}")
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
    if op not in UNARY_OPS:
        raise DataError(f"unknown unary op {op!r}")
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
    if not panels:
        raise DataError("coalesce needs at least one panel")
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
    if lo_pct is None and hi_pct is None:
        raise DataError("winsorize needs lo_pct or hi_pct")
    for p in (lo_pct, hi_pct):
        if p is not None and not 0 <= p <= 100:
            raise DataError(f"percentile {p} outside [0, 100]")
    if lo_pct is not None and hi_pct is not None and not lo_pct < hi_pct:
        raise DataError("lo_pct must be below hi_pct")

    dates, assets = a.dates, a.assets
    in_uni = _universe_mask(dates, assets, universe)
    out = a.values.copy()
    for i in range(len(dates)):
        row = out[i]
        sample = row[in_uni[i] & ~np.isnan(row)]
        if sample.size < 1:
            if flags is not None:
                flags.append(f"winsorize: {dates[i]}: empty universe, passed through")
            continue
        lo = percentile_linear(sample, lo_pct) if lo_pct is not None else -np.inf
        hi = percentile_linear(sample, hi_pct) if hi_pct is not None else np.inf
        keep = ~np.isnan(row)
        row[keep] = np.clip(row[keep], lo, hi)
    params = {"lo_pct": lo_pct, "hi_pct": hi_pct}
    inputs = [a] + ([universe] if universe is not None else [])
    return Panel.derive("winsorize", params, inputs, dates, assets, out)


def standardize(a: Panel, universe: Panel | None = None,
                flags: list[str] | None = None) -> Panel:
    """Per date, subtract the universe mean and divide by its sample (n-1) sd.

    Applied to all assets. Dates with fewer than two universe values or zero
    standard deviation come out entirely missing and are flagged.
    """
    dates, assets = a.dates, a.assets
    in_uni = _universe_mask(dates, assets, universe)
    out = np.full_like(a.values, np.nan)
    for i in range(len(dates)):
        row = a.values[i]
        sample = row[in_uni[i] & ~np.isnan(row)]
        if sample.size < 2:
            if flags is not None:
                flags.append(f"standardize: {dates[i]}: fewer than 2 universe values")
            continue
        sd = float(np.std(sample, ddof=1))
        if sd == 0.0:
            if flags is not None:
                flags.append(f"standardize: {dates[i]}: zero standard deviation")
            continue
        out[i] = (row - float(np.mean(sample))) / sd
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
    pcts = [float(p) for p in percentiles]
    if not pcts:
        raise DataError("quantile_bins needs at least one percentile")
    if any(not 0 < p < 100 for p in pcts):
        raise DataError("percentiles must lie strictly inside (0, 100)")
    if any(q <= p for p, q in zip(pcts, pcts[1:])):
        raise DataError("percentiles must be strictly increasing")

    dates, assets = a.dates, a.assets
    in_uni = _universe_mask(dates, assets, universe)
    out = np.full_like(a.values, np.nan)
    for i in range(len(dates)):
        row = a.values[i]
        sample = row[in_uni[i] & ~np.isnan(row)]
        if sample.size < 1:
            if flags is not None:
                flags.append(f"quantile_bins: {dates[i]}: empty universe")
            continue
        breaks = [percentile_linear(sample, p) for p in pcts]
        present = ~np.isnan(row)
        bins = np.ones(row.shape)
        for q in breaks:
            bins += row > q  # tie at the breakpoint stays in the lower bin
        out[i, present] = bins[present]
    params = {"percentiles": pcts}
    inputs = [a] + ([universe] if universe is not None else [])
    return Panel.derive("quantile_bins", params, inputs, dates, assets, out)


def mask(a: Panel, condition: Panel, keep_if: str = "nonzero") -> Panel:
    """Blank out cells failing the condition; missing condition -> missing."""
    if keep_if not in ("nonzero", "zero"):
        raise DataError(f"keep_if must be 'nonzero' or 'zero', got {keep_if!r}")
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
    if op not in COMPARE_OPS:
        raise DataError(f"unknown compare op {op!r}")
    dates, assets = a.dates, a.assets
    inputs = [a]
    if isinstance(threshold, (int, float)) and not isinstance(threshold, bool):
        thresh = np.full(len(dates), float(threshold))
        params = {"op": op, "threshold": float(threshold)}
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


def xs_percentile_row(a: Panel, pct: float, universe: Panel | None = None) -> Panel:
    """A series of one scalar per date: the pct-th percentile over universe values."""
    if not 0 < pct < 100:
        raise DataError("pct must lie strictly inside (0, 100)")
    dates, assets = a.dates, a.assets
    in_uni = _universe_mask(dates, assets, universe)
    out = np.full(len(dates), np.nan)
    for i in range(len(dates)):
        row = a.values[i]
        sample = row[in_uni[i] & ~np.isnan(row)]
        if sample.size:
            out[i] = percentile_linear(sample, pct)
    inputs = [a] if universe is None else [a, universe]
    return Panel.derive("xs_percentile_row", {"pct": pct}, inputs, dates, (SERIES_ASSET,),
                        out.reshape(-1, 1))


# -- time-series transforms ----------------------------------------------------


def lag(a: Panel, k: int) -> Panel:
    """Value at date t becomes the value k calendar months earlier, else missing."""
    if k < 1:
        raise DataError("lag requires k >= 1")
    ordinals = a.dates.ordinals
    # past the index span every cell is missing whatever k is; the cap keeps
    # the shifted periods on the calendar
    shift = min(int(k), int(ordinals[-1] - ordinals[0]) + 1) if len(ordinals) else 0
    out = reframe(a.values, DateIndex.from_ordinals(ordinals + shift), a.dates)
    return Panel.derive("lag", {"k": int(k)}, [a], a.dates, a.assets, out)


def rolling_compound_return(r: Panel, window: int, skip: int = 0,
                            min_obs: int | None = None) -> Panel:
    """Compound growth over calendar months t-window .. t-skip-1, per asset.

    The 12-1 momentum convention is window=12, skip=1: months t-12 through
    t-2, eleven returns. Cells with fewer than min_obs non-missing returns in
    the window are missing; min_obs defaults to the strict window-skip.
    """
    window, skip = int(window), int(skip)
    if not window > skip >= 0:
        raise DataError("need window > skip >= 0")
    span = window - skip
    if min_obs is None:
        min_obs = span
    min_obs = int(min_obs)
    if not 1 <= min_obs <= span:
        raise DataError("need 1 <= min_obs <= window - skip")

    out = np.full_like(r.values, np.nan)
    for i, o in enumerate(r.dates.ordinals.tolist()):
        block = r.values[r.dates.rows_between(o - window, o - skip)]
        if not len(block):
            continue
        count = np.count_nonzero(~np.isnan(block), axis=0)
        growth = np.prod(np.where(np.isnan(block), 1.0, 1.0 + block), axis=0) - 1.0
        ok = count >= min_obs
        out[i, ok] = growth[ok]
    params = {"window": window, "skip": skip, "min_obs": min_obs}
    return Panel.derive("rolling_compound_return", params, [r], r.dates, r.assets, out)


def rolling_stat(a: Panel, window: int, stat: str, min_obs: int = 1) -> Panel:
    """Trailing-window statistic over months t-window+1 .. t (current included)."""
    if stat not in ROLLING_STATS:
        raise DataError(f"unknown rolling stat {stat!r}")
    window, min_obs = int(window), int(min_obs)
    if not 1 <= min_obs <= window:
        raise DataError("need 1 <= min_obs <= window")

    out = np.full_like(a.values, np.nan)
    for i, o in enumerate(a.dates.ordinals.tolist()):
        block = a.values[a.dates.rows_between(o - window + 1, o + 1)]
        if not len(block):
            continue
        count = np.count_nonzero(~np.isnan(block), axis=0)
        with np.errstate(invalid="ignore"):
            if stat == "mean":
                vals = _nan_reduce(block, np.nanmean, count)
            elif stat == "sum":
                vals = _nan_reduce(block, np.nansum, count)
            elif stat == "min":
                vals = _nan_reduce(block, np.nanmin, count)
            elif stat == "max":
                vals = _nan_reduce(block, np.nanmax, count)
            else:
                vals = _nan_std(block, count)
        ok = count >= min_obs
        out[i, ok] = vals[ok]
    params = {"window": window, "stat": stat, "min_obs": min_obs}
    return Panel.derive("rolling_stat", params, [a], a.dates, a.assets, out)


def _nan_reduce(block, fn, count):
    vals = np.full(block.shape[1], np.nan)
    has = count > 0
    if np.any(has):
        vals[has] = fn(block[:, has], axis=0)
    return vals


def _nan_std(block, count):
    """Sample (n-1) standard deviation per column; <2 observations -> NaN."""
    vals = np.full(block.shape[1], np.nan)
    has = count >= 2
    if np.any(has):
        vals[has] = np.nanstd(block[:, has], axis=0, ddof=1)
    return vals


def ewma(a: Panel, alpha: float, min_periods: int = 1) -> Panel:
    """Recursive exponentially weighted mean over each asset's observations.

    s_1 = x_1 and s_t = (1 - alpha) * s_{t-1} + alpha * x_t over the
    non-missing observation sequence (the non-adjusted recursive form).
    Output stays missing until min_periods non-missing observations have
    been seen, and at dates where the input itself is missing.
    """
    alpha = float(alpha)
    if not 0 < alpha <= 1:
        raise DataError("alpha must lie in (0, 1]")
    min_periods = int(min_periods)
    if min_periods < 1:
        raise DataError("min_periods must be >= 1")

    out = np.full_like(a.values, np.nan)
    for j in range(a.n_assets):
        out[:, j] = _ewma_column(a.values[:, j], alpha, min_periods)
    params = {"alpha": alpha, "min_periods": min_periods}
    return Panel.derive("ewma", params, [a], a.dates, a.assets, out)


def _ewma_column(col: np.ndarray, alpha: float, min_periods: int) -> np.ndarray:
    """The ``ewma`` recursion on one asset's series."""
    out = np.full(col.shape, np.nan)
    state = np.nan
    seen = 0
    for i, x in enumerate(col.tolist()):
        if math.isnan(x):
            continue
        state = x if seen == 0 else (1.0 - alpha) * state + alpha * x
        seen += 1
        if seen >= min_periods:
            out[i] = state
    return out


# -- per-asset trend extension point -----------------------------------------

_SERIES_TRANSFORMS: dict[str, Callable] = {}


def register_series_transform(name: str, factory: Callable) -> None:
    """Register a named per-asset series transform usable through ``trend``.

    ``factory(**params)`` must return a function mapping a 1-D float array
    (NaN = missing) to an equal-length array. Named registration is the
    bounded substitute for arbitrary generated code.
    """
    _SERIES_TRANSFORMS[name] = factory


def series_transform_names() -> list[str]:
    return sorted(_SERIES_TRANSFORMS)


def trend(a: Panel, name: str, params: dict | None = None) -> Panel:
    """Apply a registered series transform independently to each asset."""
    if name not in _SERIES_TRANSFORMS:
        raise DataError(
            f"unknown series transform {name!r}; registered: {series_transform_names()}"
        )
    fn = _SERIES_TRANSFORMS[name](**(params or {}))
    out = np.full_like(a.values, np.nan)
    for j in range(a.values.shape[1]):
        col = fn(a.values[:, j].copy())
        col = np.asarray(col, dtype=np.float64).reshape(-1)
        if col.shape[0] != a.values.shape[0]:
            raise DataError(f"series transform {name!r} changed the series length")
        out[:, j] = col
    record = {"name": name}
    if params:
        record["params"] = params
    return Panel.derive("trend", record, [a], a.dates, a.assets, out)


def _identity_factory():
    return lambda col: col


def _cumsum_factory():
    def run(col):
        out = np.full_like(col, np.nan)
        total = 0.0
        for i, x in enumerate(col):
            if np.isnan(x):
                continue
            total += x
            out[i] = total
        return out
    return run


def _ewma_factory(alpha: float, min_periods: int = 1):
    def run(col):
        return _ewma_column(col, alpha, min_periods)
    return run


register_series_transform("identity", _identity_factory)
register_series_transform("cumsum", _cumsum_factory)
register_series_transform("ewma", _ewma_factory)


# -- annual placement ----------------------------------------------------------


def annual_to_monthly(a: Panel, placement_month: int, offset: int,
                      valid_months: int) -> Panel:
    """Carry annual observations forward onto the monthly frame.

    Each value observed in the placement month fills ``valid_months`` months
    starting ``offset`` months after the placement date. Later observations
    override earlier ones on overlap. The Fama-French timing (December value
    usable June through May) is placement_month=12, offset=6, valid_months=12.
    """
    placement_month = int(placement_month)
    if not 1 <= placement_month <= 12:
        raise DataError("placement_month must be 1..12")
    offset, valid_months = int(offset), int(valid_months)
    if valid_months < 1:
        raise DataError("valid_months must be >= 1")
    if offset < 0:
        raise DataError("offset must be >= 0")

    out = np.full_like(a.values, np.nan)
    for i, o in enumerate(a.dates.ordinals.tolist()):
        if o % 12 != placement_month - 1:
            continue
        row = a.values[i]
        present = ~np.isnan(row)
        if not np.any(present):
            continue
        out[a.dates.rows_between(o + offset, o + offset + valid_months), present] = row[present]
    params = {
        "placement_month": placement_month,
        "offset": offset,
        "valid_months": valid_months,
    }
    return Panel.derive("annual_to_monthly", params, [a], a.dates, a.assets, out)
