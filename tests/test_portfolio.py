from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import portfolio as pf
from factorlab import transforms as tr
from factorlab.errors import DataError
from factorlab.panel import SERIES_ASSET, DateIndex, Panel

from .conftest import make_panel, month_rows


def series(pairs, name="s"):
    periods = [p for p, _ in pairs]
    vals = [np.nan if v is None else v for _, v in pairs]
    return Panel.source(name, DateIndex(periods), (SERIES_ASSET,), np.array(vals).reshape(-1, 1))


class TestWeights:
    def test_proportional(self):
        member = make_panel("M", ["2000-01"], ["a", "b"], [[1.0, 1.0]])
        caps = make_panel("C", ["2000-01"], ["a", "b"], [[1.0, 3.0]])
        w = pf.weights_from_membership(member, caps)
        assert w.values.tolist() == [[0.25, 0.75]]

    def test_equal_weight(self):
        member = make_panel("M", ["2000-01"], list("abcd"), [[1.0] * 4])
        w = pf.weights_from_membership(member)
        assert w.values.tolist() == [[0.25] * 4]

    def test_missing_cap_excluded(self):
        member = make_panel("M", ["2000-01"], ["a", "b"], [[1.0, 1.0]])
        caps = make_panel("C", ["2000-01"], ["a", "b"], [[None, 2.0]])
        w = pf.weights_from_membership(member, caps)
        assert np.isnan(w.values[0, 0])
        assert w.values[0, 1] == 1.0

    def test_no_members_flags(self):
        member = make_panel("M", ["2000-01"], ["a"], [[0.0]])
        flags = []
        w = pf.weights_from_membership(member, flags=flags)
        assert np.isnan(w.values).all()
        assert flags

    def test_negative_basis_rejected(self):
        member = make_panel("M", ["2000-01"], ["a"], [[1.0]])
        caps = make_panel("C", ["2000-01"], ["a"], [[-1.0]])
        with pytest.raises(DataError, match="negative"):
            pf.weights_from_membership(member, caps)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        periods = [f"2000-{m:02d}" for m in range(1, 13)]
        member = make_panel("M", periods, list("abcde"),
                            (rng.uniform(size=(12, 5)) > 0.3).astype(float).tolist())
        caps = make_panel("C", periods, list("abcde"),
                          rng.uniform(0.1, 9.0, size=(12, 5)).tolist())
        w = pf.weights_from_membership(member, caps)
        sums = np.nansum(w.values, axis=1)
        for i, s in enumerate(sums):
            if not np.all(np.isnan(w.values[i])):
                assert abs(s - 1.0) <= 1e-10

    def test_scale_invariance(self):
        member = make_panel("M", ["2000-01"], list("abc"), [[1.0, 1.0, 1.0]])
        caps = make_panel("C", ["2000-01"], list("abc"), [[1.0, 2.0, 3.0]])
        scaled = make_panel("C2", ["2000-01"], list("abc"), [[7.0, 14.0, 21.0]])
        w1 = pf.weights_from_membership(member, caps)
        w2 = pf.weights_from_membership(member, scaled)
        np.testing.assert_allclose(w1.values, w2.values, atol=1e-12)

    def test_cap_above_row_max_equals_plain_value_weighting(self):
        member = make_panel("M", ["2000-01"], list("abc"), [[1.0, 1.0, 1.0]])
        caps = make_panel("C", ["2000-01"], list("abc"), [[1.0, 2.0, 3.0]])
        capped = tr.winsorize(caps, hi_pct=100)  # bound at the row max is a no-op
        w_plain = pf.weights_from_membership(member, caps)
        w_capped = pf.weights_from_membership(member, capped)
        np.testing.assert_allclose(w_plain.values, w_capped.values, atol=1e-12)


class TestPortfolioReturn:
    def test_dot_product(self):
        w = make_panel("W", ["2000-01"], ["a", "b"], [[0.25, 0.75]])
        r = make_panel("R", ["2000-01", "2000-02"], ["a", "b"],
                       [[0.0, 0.0], [0.04, 0.08]])
        out = pf.portfolio_return(w, r)
        assert list(out.dates) == ["2000-02"]
        np.testing.assert_allclose(out.values[:, 0], [0.07], atol=1e-15)

    def test_single_asset(self):
        w = make_panel("W", ["2000-01"], ["a"], [[1.0]])
        r = make_panel("R", ["2000-01", "2000-02"], ["a"], [[0.0], [0.05]])
        out = pf.portfolio_return(w, r)
        assert out.values[0, 0] == 0.05

    def test_renormalization_on_missing_return(self):
        w = make_panel("W", ["2000-01"], ["a", "b"], [[0.5, 0.5]])
        r = make_panel("R", ["2000-01", "2000-02"], ["a", "b"],
                       [[0.0, 0.0], [None, 0.1]])
        out = pf.portfolio_return(w, r)
        np.testing.assert_allclose(out.values[:, 0], [0.1], atol=1e-15)

    def test_formation_at_index_end_produces_nothing(self):
        w = make_panel("W", ["2000-02"], ["a"], [[1.0]])
        r = make_panel("R", ["2000-01", "2000-02"], ["a"], [[0.01], [0.02]])
        out = pf.portfolio_return(w, r)
        assert len(out.dates) == 0

    def test_equal_weight_equals_cross_sectional_mean(self):
        rng = np.random.default_rng(5)
        periods = [f"2000-{m:02d}" for m in range(1, 13)]
        rets = rng.uniform(-0.1, 0.1, size=(12, 4))
        r = make_panel("R", periods, list("abcd"), rets.tolist())
        member = make_panel("M", periods, list("abcd"), np.ones((12, 4)).tolist())
        w = pf.weights_from_membership(member)
        out = pf.portfolio_return(w, r)
        np.testing.assert_allclose(out.values[:, 0], rets[1:].mean(axis=1), atol=1e-12)


# -- masked renormalisation vs the per-date loops it replaced ------------------


def reference_weights_from_membership(member, weight_by, flags):
    gm = member.values
    gw = np.where(~np.isnan(gm), 1.0, np.nan) if weight_by is None else weight_by.values
    usable = ~np.isnan(gm) & (gm != 0) & ~np.isnan(gw)
    out = np.full(gm.shape, np.nan)
    for i in range(len(member.dates)):
        row_use = usable[i]
        total = float(np.sum(gw[i, row_use]))
        if total <= 0:
            flags.append(f"weights_from_membership: {member.dates[i]}: no members")
            continue
        out[i, row_use] = gw[i, row_use] / total
    return out


def reference_portfolio_return(w, r, flags):
    rows = month_rows(w.dates)
    stamped, values = [], []
    for i, o in enumerate(w.dates.ordinals):
        wrow = w.values[i]
        held = ~np.isnan(wrow)
        nxt = rows.get(int(o) + 1)
        if not np.any(held) or nxt is None:
            continue
        rrow = r.values[nxt]
        live = held & ~np.isnan(rrow)
        total = float(np.sum(wrow[live]))
        stamped.append(w.dates[nxt])
        if not np.any(live) or total <= 0:
            flags.append(f"portfolio_return: {w.dates[nxt]}: no tradable members")
            values.append(np.nan)
            continue
        values.append(float(np.sum((wrow[live] / total) * rrow[live])))
    return stamped, np.array(values).reshape(-1, 1)


def assert_close_with_same_missing(got, expected):
    np.testing.assert_array_equal(np.isnan(got), np.isnan(expected))
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-15)


def portfolio_case(seed, n_dates, n_assets):
    """Membership, caps, returns and signed weights on gapped dates.

    Planted: a date with no members, one date whose returns are all missing,
    missing caps and returns, and dates whose next month is a gap. A tenth of
    the signed weight rows are all negative, so their totals are below zero.
    """
    rng = np.random.default_rng(seed)
    months = np.flatnonzero(rng.random(n_dates * 5 // 4) > 0.2)[:n_dates]
    periods = [f"{1900 + m // 12}-{m % 12 + 1:02d}" for m in months]
    assets = [f"a{j}" for j in range(n_assets)]
    member = (rng.random((n_dates, n_assets)) < 0.4).astype(np.float64)
    member[rng.random(member.shape) < 0.05] = np.nan
    member[n_dates // 3] = 0.0
    caps = rng.lognormal(3.0, 1.0, size=(n_dates, n_assets))
    caps[rng.random(caps.shape) < 0.1] = np.nan
    rets = rng.normal(0.01, 0.08, size=(n_dates, n_assets))
    rets[rng.random(rets.shape) < 0.1] = np.nan
    rets[int(np.flatnonzero(np.diff(months) == 1)[-1]) + 1] = np.nan
    signed = rng.uniform(0.1, 1.0, size=(n_dates, n_assets))
    signed[rng.random(n_dates) < 0.1] *= -1.0
    signed[rng.random(signed.shape) < 0.3] = np.nan
    return tuple(Panel.source(name, periods, assets, grid) for name, grid in
                 (("M", member), ("C", caps), ("R", rets), ("W", signed)))


@pytest.fixture(scope="module", params=[(120, 50), (1200, 100), (72, 500)],
                ids=lambda shape: "x".join(map(str, shape)))
def seeded(request):
    return portfolio_case(13, *request.param)


class TestMaskedRenormalisationMatchesTheLoops:
    @pytest.mark.parametrize("by_cap", [True, False], ids=["cap", "equal"])
    def test_weights_from_membership(self, seeded, by_cap):
        member, caps = seeded[:2]
        weight_by = caps if by_cap else None
        flags, expected_flags = [], []
        out = pf.weights_from_membership(member, weight_by, flags)
        expected = reference_weights_from_membership(member, weight_by, expected_flags)
        assert_close_with_same_missing(out.values, expected)
        assert flags == expected_flags and flags

    @pytest.mark.parametrize("weights", ["cap", "equal", "signed"])
    def test_portfolio_return(self, seeded, weights):
        member, caps, rets, signed = seeded
        w = signed if weights == "signed" else pf.weights_from_membership(
            member, caps if weights == "cap" else None)
        flags, expected_flags = [], []
        out = pf.portfolio_return(w, rets, flags)
        stamped, expected = reference_portfolio_return(w, rets, expected_flags)
        assert list(out.dates) == stamped
        assert_close_with_same_missing(out.values, expected)
        assert flags == expected_flags and flags


def sort_cells(size_bins, value_bins) -> dict[str, Panel]:
    """Every 2x3 cell, one sort call each."""
    return {cell: pf.independent_sort_2x3(size_bins, value_bins, cell)
            for cell in pf.SORT_CELLS_2X3}


class TestSort2x3:
    def test_intersection(self):
        size_bins = make_panel("S", ["2000-01"], ["a"], [[1.0]])
        value_bins = make_panel("V", ["2000-01"], ["a"], [[3.0]])
        cells = sort_cells(size_bins, value_bins)
        assert cells["SV"].values[0, 0] == 1.0
        for cell in ("SG", "SN", "BG", "BN", "BV"):
            assert cells[cell].values[0, 0] == 0.0

    def test_missing_bin_no_membership(self):
        size_bins = make_panel("S", ["2000-01"], ["a"], [[1.0]])
        value_bins = make_panel("V", ["2000-01"], ["a"], [[None]])
        cells = sort_cells(size_bins, value_bins)
        for cell in pf.SORT_CELLS_2X3:
            assert np.isnan(cells[cell].values[0, 0])

    def test_partition_property(self):
        rng = np.random.default_rng(6)
        periods = [f"2000-{m:02d}" for m in range(1, 7)]
        size_bins = make_panel("S", periods, list("abcdef"),
                               rng.integers(1, 3, size=(6, 6)).astype(float).tolist())
        value_bins = make_panel("V", periods, list("abcdef"),
                                rng.integers(1, 4, size=(6, 6)).astype(float).tolist())
        cells = sort_cells(size_bins, value_bins)
        total = sum(np.nan_to_num(c.values) for c in cells.values())
        assert np.all(total == 1.0)

    def test_bad_codes(self):
        size_bins = make_panel("S", ["2000-01"], ["a"], [[5.0]])
        value_bins = make_panel("V", ["2000-01"], ["a"], [[1.0]])
        with pytest.raises(DataError):
            pf.independent_sort_2x3(size_bins, value_bins, "SG")

    def test_bad_value_code(self):
        size_bins = make_panel("S", ["2000-01"], ["a"], [[1.0]])
        value_bins = make_panel("V", ["2000-01"], ["a"], [[4.0]])
        with pytest.raises(DataError, match="value bins"):
            pf.independent_sort_2x3(size_bins, value_bins, "SV")

    def test_cell_provenance(self):
        bins = make_panel("S", ["2000-01"], ["a"], [[1.0]])
        out = pf.independent_sort_2x3(bins, bins, "SG")
        assert out.provenance.params == {"cell": "SG"}


class TestSpreads:
    def test_spread_2x3_arithmetic(self):
        # SG, SN, SV, BG, BN, BV
        legs = [series([("2000-01", v)]) for v in (0.01, 0.0, 0.02, 0.01, 0.0, 0.02)]
        out = pf.spread_2x3(*legs)
        np.testing.assert_allclose(out.values[:, 0], [0.01], atol=1e-15)

    def test_spread_2x3_symmetry(self):
        legs = [series([("2000-01", 0.03)]) for _ in pf.SORT_CELLS_2X3]
        assert pf.spread_2x3(*legs).values[0, 0] == 0.0

    def test_spread_2x3_missing_leg(self):
        legs = [series([("2000-01", 0.02)]) for _ in pf.SORT_CELLS_2X3]
        legs[pf.SORT_CELLS_2X3.index("SV")] = series([("2000-01", None)])
        assert np.isnan(pf.spread_2x3(*legs).values[0, 0])

    def test_spread_2x3_antisymmetric_under_value_growth_swap(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(-0.05, 0.05, size=6)
        sg, sn, sv, bg, bn, bv = [series([("2000-01", v)]) for v in vals]
        legs = [sg, sn, sv, bg, bn, bv]
        swapped = [sv, sn, sg, bv, bn, bg]
        assert pf.spread_2x3(*swapped).values[0, 0] == pytest.approx(
            -pf.spread_2x3(*legs).values[0, 0], abs=1e-15
        )

    def test_topbottom(self):
        top = series([("2000-01", 0.03)])
        bottom = series([("2000-01", 0.01)])
        np.testing.assert_allclose(pf.spread_topbottom(top, bottom).values[:, 0],
                                   [0.02], atol=1e-15)
        assert pf.spread_topbottom(top, top).values[0, 0] == 0.0

    def test_topbottom_missing(self):
        top = series([("2000-01", 0.03)])
        bottom = series([("2000-01", None)])
        assert np.isnan(pf.spread_topbottom(top, bottom).values[0, 0])


class TestTurnover:
    def test_unchanged_weights(self):
        w = make_panel("W", ["2000-01", "2000-02"], ["a", "b"],
                       [[0.5, 0.5], [0.5, 0.5]])
        assert pf.turnover(w).values[0, 0] == 0.0

    def test_full_rotation(self):
        w = make_panel("W", ["2000-01", "2000-02"], ["a", "b"],
                       [[1.0, 0.0], [0.0, 1.0]])
        assert pf.turnover(w).values[0, 0] == 1.0

    def test_partial_shift(self):
        w = make_panel("W", ["2000-01", "2000-02"], ["a", "b"],
                       [[0.5, 0.5], [0.75, 0.25]])
        assert pf.turnover(w).values[0, 0] == 0.25

    def test_needs_two_dates(self):
        w = make_panel("W", ["2000-01"], ["a"], [[1.0]])
        with pytest.raises(DataError):
            pf.turnover(w)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_hml_chain_matches_straight_loops(seed):
    """Bins -> memberships -> weights -> returns -> spread vs nested loops."""
    rng = np.random.default_rng(seed)
    n_months, n_assets = 36, 5
    periods = [f"{1990 + m // 12:04d}-{m % 12 + 1:02d}" for m in range(n_months)]
    assets = list("abcde")
    rets = rng.uniform(-0.1, 0.1, size=(n_months, n_assets))
    caps = rng.uniform(1.0, 100.0, size=(n_months, n_assets))
    size_codes = rng.integers(1, 3, size=(n_months, n_assets)).astype(float)
    value_codes = rng.integers(1, 4, size=(n_months, n_assets)).astype(float)

    r = make_panel("R", periods, assets, rets.tolist())
    cap = make_panel("C", periods, assets, caps.tolist())
    size_bins = make_panel("S", periods, assets, size_codes.tolist())
    value_bins = make_panel("V", periods, assets, value_codes.tolist())

    legs = []
    for cell in pf.SORT_CELLS_2X3:
        member = pf.independent_sort_2x3(size_bins, value_bins, cell)
        w = pf.weights_from_membership(member, cap)
        legs.append(pf.portfolio_return(w, r))
    engine = pf.spread_2x3(*legs)
    engine_map = {
        period: engine.values[i, 0]
        for i, period in enumerate(engine.dates)
        if not np.isnan(engine.values[i, 0])
    }

    # straight-loop reimplementation
    def leg_return(m, s_code, v_code):
        members = [j for j in range(n_assets)
                   if size_codes[m, j] == s_code and value_codes[m, j] == v_code]
        if not members or m + 1 >= n_months:
            return None
        total = sum(caps[m, j] for j in members)
        acc = 0.0
        for j in members:
            acc += caps[m, j] / total * rets[m + 1, j]
        return acc

    expected = {}
    for m in range(n_months - 1):
        sv, bv = leg_return(m, 1, 3), leg_return(m, 2, 3)
        sg, bg = leg_return(m, 1, 1), leg_return(m, 2, 1)
        sn, bn = leg_return(m, 1, 2), leg_return(m, 2, 2)
        if None in (sv, bv, sg, bg, sn, bn):
            continue
        expected[periods[m + 1]] = 0.5 * (sv + bv) - 0.5 * (sg + bg)

    assert set(expected) <= set(engine_map)
    for period, value in expected.items():
        assert engine_map[period] == pytest.approx(value, abs=1e-12)
