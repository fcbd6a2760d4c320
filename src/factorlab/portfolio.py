"""Characteristics to weights, weights to realized returns, spread factors.

Timing convention, fixed globally: weights formed with information at month t
earn month t+1 returns, and the result is stamped at t+1 (no lookahead).
Assets whose next-month return is missing are dropped and the surviving
weights renormalized, approximating investing only in tradable names. Both
operators renormalise through one masked helper, ``_renormalized``, so their
sums may differ from a per-row loop by ulps. Month t+1 is row ``lo`` of
``DateIndex.window_rows(1, 2)``; the spreads align legs with ``align_panels``.
As in ``transforms``, the operator table in ``ops`` checks the arguments; these
functions check only the data (bin codes, weight signs, the number of dates).
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .panel import SERIES_ASSET, DateIndex, Panel
from .transforms import align_panels, flag_rows

SORT_CELLS_2X3 = ("SG", "SN", "SV", "BG", "BN", "BV")


def _renormalized(grid: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Masked cells over their row's masked sum; NaN off the mask and where that sum is <= 0."""
    total = np.where(mask, grid, 0.0).sum(axis=1, keepdims=True)
    return np.divide(grid, total, out=np.full(grid.shape, np.nan), where=mask & (total > 0))


def weights_from_membership(member: Panel, weight_by: Panel | None = None,
                            flags: list[str] | None = None) -> Panel:
    """Long-only weights proportional to ``weight_by`` over member cells.

    Equal weight when ``weight_by`` is absent. Members with a missing weight
    basis are excluded; negative weight bases are an error for long-only
    legs. Rows sum to one; dates with no members are missing and flagged.
    """
    if weight_by is None:
        dates, assets, (gm,) = align_panels(member)
        gw = np.where(~np.isnan(gm), 1.0, np.nan)
        inputs = [member]
    else:
        dates, assets, (gm, gw) = align_panels(member, weight_by)
        inputs = [member, weight_by]

    is_member = ~np.isnan(gm) & (gm != 0)
    usable = is_member & ~np.isnan(gw)
    if np.any(usable & (gw < 0)):
        raise DataError("negative weight basis in a long-only leg")

    out = _renormalized(gw, usable)
    no_members = np.all(np.isnan(out), axis=1)
    flag_rows(flags, "weights_from_membership", dates, no_members, "no members")
    params = {"weighting": "equal" if weight_by is None else "proportional"}
    return Panel.derive("weights_from_membership", params, inputs, dates, assets, out)


def portfolio_return(w: Panel, r: Panel, flags: list[str] | None = None) -> Panel:
    """Realized next-month portfolio returns from a weight panel, as a series.

    For each formation date t with weights, the return stamped at calendar
    month t+1 is the weight-renormalized average of r at t+1 over assets with
    a non-missing return. Formation dates whose month t+1 is not in the index
    produce no output.
    """
    dates, assets, (gw, gr) = align_panels(w, r)
    lo, hi = dates.window_rows(1, 2)  # the row of month t+1, where there is one
    rows = np.flatnonzero(np.any(~np.isnan(gw), axis=1) & (hi > lo))
    held, ret = gw[rows], gr[lo[rows]]
    shares = _renormalized(held, ~np.isnan(held) & ~np.isnan(ret))
    untradable = np.all(np.isnan(shares), axis=1)
    values = np.where(untradable, np.nan, np.nansum(shares * ret, axis=1))
    stamped = DateIndex.from_ordinals(dates.ordinals[rows] + 1)
    flag_rows(flags, "portfolio_return", stamped, untradable, "no tradable members")
    return Panel.derive("portfolio_return", {}, [w, r], stamped,
                        (SERIES_ASSET,), values.reshape(-1, 1))


def independent_sort_2x3(size_bins: Panel, value_bins: Panel, cell: str) -> Panel:
    """Membership of one 2x3 intersection cell: SG, SN, SV, BG, BN or BV.

    Size codes 1 (small) and 2 (big) cross value codes 1 (growth), 2
    (neutral), 3 (value). Assets missing either bin belong to no cell, so the
    six cells partition the doubly-binned universe.
    """
    dates, assets, (gs, gv) = align_panels(size_bins, value_bins)
    valid_s = ~np.isnan(gs)
    valid_v = ~np.isnan(gv)
    if np.any(valid_s & ((gs < 1) | (gs > 2))):
        raise DataError("size bins must be coded 1 (small) or 2 (big)")
    if np.any(valid_v & ((gv < 1) | (gv > 3))):
        raise DataError("value bins must be coded 1..3 (growth/neutral/value)")

    hit = (gs == "SB".index(cell[0]) + 1) & (gv == "GNV".index(cell[1]) + 1)
    grid = np.where(valid_s & valid_v, hit.astype(np.float64), np.nan)
    return Panel.derive("independent_sort_2x3", {"cell": cell},
                        [size_bins, value_bins], dates, assets, grid)


def spread_2x3(*legs: Panel) -> Panel:
    """0.5*(SV+BV) - 0.5*(SG+BG) per date; missing if any required leg is missing.

    The six legs are series (one-column panels) ordered SG, SN, SV, BG, BN, BV.
    """
    legs = [leg.to_series() for leg in legs]
    dates, _, (sg, _, sv, bg, _, bv) = align_panels(*legs)
    values = 0.5 * (sv + bv) - 0.5 * (sg + bg)
    return Panel.derive("spread_2x3", {}, legs, dates, (SERIES_ASSET,), values)


def spread_topbottom(top: Panel, bottom: Panel) -> Panel:
    """Top leg minus bottom leg per date, both series (one-column panels)."""
    top, bottom = top.to_series(), bottom.to_series()
    dates, _, (t, b) = align_panels(top, bottom)
    return Panel.derive("spread_topbottom", {}, [top, bottom], dates, (SERIES_ASSET,), t - b)


def turnover(w: Panel) -> Panel:
    """Half the sum of absolute weight changes between consecutive weight rows.

    Missing weights count as zero, so a full portfolio rotation scores 1.0.
    """
    if w.n_dates < 2:
        raise DataError("turnover needs at least two weight dates")
    grid = np.where(np.isnan(w.values), 0.0, w.values)
    diffs = 0.5 * np.sum(np.abs(grid[1:] - grid[:-1]), axis=1)
    return Panel.derive("turnover", {}, [w], DateIndex.from_ordinals(w.dates.ordinals[1:]),
                        (SERIES_ASSET,), diffs.reshape(-1, 1))
