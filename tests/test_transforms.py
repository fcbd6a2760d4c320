from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import transforms as tr
from factorlab.errors import AlignmentError, DataError
from factorlab.panel import DateIndex, Panel

from .conftest import make_panel, month_rows, value_equal
from .oracles import pct_interpolate


def row_panel(values, panel_id="P"):
    assets = [f"a{j}" for j in range(len(values))]
    return make_panel(panel_id, ["2000-01"], assets, [values])


def assert_same_bits(got, expected):
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


class TestBinaryOp:
    def test_sub(self):
        out = tr.binary_op(row_panel([2.0]), row_panel([2.0], "Q"), "sub")
        assert out.values[0, 0] == 0.0

    def test_div_by_zero_is_missing(self):
        out = tr.binary_op(row_panel([100.0]), row_panel([0.0], "Q"), "div")
        assert np.isnan(out.values[0, 0])

    def test_missing_propagates(self):
        out = tr.binary_op(row_panel([100.0, None]), row_panel([10.0, 5.0], "Q"), "sub")
        assert out.values[0, 0] == 90.0
        assert np.isnan(out.values[0, 1])

    def test_differing_assets_error(self):
        a = make_panel("A", ["2000-01"], ["x"], [[1.0]])
        b = make_panel("B", ["2000-01"], ["y"], [[1.0]])
        with pytest.raises(AlignmentError):
            tr.binary_op(a, b, "add")

    def test_union_of_dates(self):
        a = make_panel("A", ["2000-01"], ["x"], [[1.0]])
        b = make_panel("B", ["2000-02"], ["x"], [[2.0]])
        out = tr.binary_op(a, b, "add")
        assert list(out.dates) == ["2000-01", "2000-02"]
        assert np.isnan(out.values).all()


class TestUnaryOp:
    def test_neg(self):
        out = tr.unary_op(row_panel([1.0, -2.0]), "neg")
        assert out.values.tolist() == [[-1.0, 2.0]]

    def test_log_domain(self):
        out = tr.unary_op(row_panel([1.0, -1.0, 0.0]), "log")
        assert out.values[0, 0] == 0.0
        assert np.isnan(out.values[0, 1])
        assert np.isnan(out.values[0, 2])

    def test_rank_sign_flip_negates(self):
        out = tr.unary_op(row_panel([3.0, -4.0]), "rank_sign_flip")
        assert out.values.tolist() == [[-3.0, 4.0]]


class TestCoalesce:
    def test_preference_order(self):
        p1 = row_panel([None], "P1")
        p2 = row_panel([5.0], "P2")
        p3 = row_panel([7.0], "P3")
        assert tr.coalesce(p1, p2, p3).values[0, 0] == 5.0

    def test_first_wins(self):
        out = tr.coalesce(row_panel([10.0], "P1"), row_panel([5.0], "P2"))
        assert out.values[0, 0] == 10.0

    def test_all_missing(self):
        out = tr.coalesce(row_panel([None], "P1"), row_panel([None], "P2"))
        assert np.isnan(out.values[0, 0])


class TestWinsorize:
    def test_two_sided(self):
        out = tr.winsorize(row_panel([1, 2, 3, 4, 100]), lo_pct=20, hi_pct=80)
        np.testing.assert_allclose(out.values, [[1.8, 2.0, 3.0, 4.0, 23.2]], atol=1e-12)

    def test_constant_row_fixed_point(self):
        out = tr.winsorize(row_panel([5, 5, 5]), lo_pct=10, hi_pct=90)
        assert out.values.tolist() == [[5.0, 5.0, 5.0]]

    def test_one_sided_with_universe(self):
        p = row_panel([1, 2, 3, 4, 100])
        universe = row_panel([1, 1, 1, 1, 0], "U")
        out = tr.winsorize(p, hi_pct=80, universe=universe)
        assert out.values.tolist() == [[1.0, 2.0, 3.0, 3.4, 3.4]]

    def test_empty_universe_passes_through_and_flags(self):
        p = row_panel([1, 2, 3])
        universe = row_panel([0, 0, 0], "U")
        flags = []
        out = tr.winsorize(p, hi_pct=50, universe=universe, flags=flags)
        assert out.values.tolist() == [[1.0, 2.0, 3.0]]
        assert flags and "2000-01" in flags[0]


class TestStandardize:
    def test_two_values(self):
        out = tr.standardize(row_panel([1.0, 3.0]))
        np.testing.assert_allclose(
            out.values, [[-1 / np.sqrt(2), 1 / np.sqrt(2)]], atol=1e-12
        )

    def test_degenerate_sd_flags(self):
        flags = []
        out = tr.standardize(row_panel([4.0, 4.0]), flags=flags)
        assert np.isnan(out.values).all()
        assert flags

    def test_idempotent(self):
        p = make_panel("P", ["2000-01", "2000-02"], ["a", "b", "c"],
                       [[1.0, 2.0, 4.0], [5.0, -1.0, 0.0]])
        once = tr.standardize(p)
        twice = tr.standardize(once)
        np.testing.assert_allclose(once.values, twice.values, atol=1e-12)


class TestQuantileBins:
    def test_terciles(self):
        out = tr.quantile_bins(row_panel([1, 2, 3, 4, 5, 6]), [33.333, 66.667])
        assert out.values.tolist() == [[1, 1, 2, 2, 3, 3]]

    def test_single_value_tie_goes_lower(self):
        out = tr.quantile_bins(row_panel([7.0]), [50])
        assert out.values.tolist() == [[1.0]]

    def test_masked_median(self):
        p = row_panel([1, 2, 3, 4, 100])
        universe = row_panel([1, 1, 1, 1, 0], "U")
        out = tr.quantile_bins(p, [50], universe=universe)
        assert out.values.tolist() == [[1, 1, 2, 2, 2]]

    def test_empty_universe_flags(self):
        flags = []
        out = tr.quantile_bins(row_panel([1.0, 2.0]),
                               [50], universe=row_panel([0, 0], "U"), flags=flags)
        assert np.isnan(out.values).all()
        assert flags

    def test_bins_weakly_increase_with_value(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=15)
        out = tr.quantile_bins(row_panel(list(vals)), [25, 50, 75])
        order = np.argsort(vals)
        bins = out.values[0][order]
        assert np.all(np.diff(bins) >= 0)


class TestMaskCompare:
    def test_mask_nonzero(self):
        out = tr.mask(row_panel([1.0, 2.0]), row_panel([1.0, 0.0], "C"))
        assert out.values[0, 0] == 1.0
        assert np.isnan(out.values[0, 1])

    def test_mask_all_ones_identity(self):
        p = row_panel([1.0, 2.0])
        out = tr.mask(p, row_panel([1.0, 1.0], "C"))
        assert out.values.tolist() == p.values.tolist()

    def test_mask_missing_condition(self):
        out = tr.mask(row_panel([1.0, 2.0]), row_panel([None, None], "C"))
        assert np.isnan(out.values).all()

    def test_compare_scalar(self):
        out = tr.compare(row_panel([5.0, 10.0, None]), 10.0, "lt")
        assert out.values[0, 0] == 1.0
        assert out.values[0, 1] == 0.0  # strict comparison at the boundary
        assert np.isnan(out.values[0, 2])

    def test_compare_series_threshold(self):
        p = make_panel("P", ["2000-01", "2000-02"], ["a"], [[5.0], [5.0]])
        thresh = make_panel("T", ["2000-01", "2000-02"], ["value"], [[4.0], [6.0]])
        out = tr.compare(p, thresh, "ge")
        assert out.values[:, 0].tolist() == [1.0, 0.0]


class TestXsPercentileRow:
    def test_median(self):
        series = tr.xs_percentile_row(row_panel([1, 2, 3, 4]), 50)
        assert series.values[0] == 2.5

    def test_single_value(self):
        assert tr.xs_percentile_row(row_panel([7.0]), 30).values[0] == 7.0

    def test_all_missing(self):
        series = tr.xs_percentile_row(row_panel([None, None]), 50)
        assert np.isnan(series.values[0])


class TestLag:
    def test_basic(self):
        p = make_panel("P", ["2000-01", "2000-02"], ["a"], [[1.0], [2.0]])
        out = tr.lag(p, 1)
        assert np.isnan(out.values[0, 0])
        assert out.values[1, 0] == 1.0

    def test_lag_longer_than_span(self):
        p = make_panel("P", ["2000-01", "2000-02"], ["a"], [[1.0], [2.0]])
        for k in (5, 10 ** 6, 2 ** 70):
            assert np.isnan(tr.lag(p, k).values).all()

    def test_calendar_not_positional(self):
        p = make_panel("P", ["2000-01", "2000-03"], ["a"], [[1.0], [2.0]])
        out = tr.lag(p, 1)
        assert np.isnan(out.values).all()  # March looks for February, absent

    def test_lag_composition_on_gap_free_index(self):
        periods = [f"2000-{m:02d}" for m in range(1, 13)]
        rng = np.random.default_rng(1)
        p = make_panel("P", periods, ["a", "b"], rng.normal(size=(12, 2)).tolist())
        double = tr.lag(tr.lag(p, 2), 3)
        single = tr.lag(p, 5)
        np.testing.assert_array_equal(
            np.isnan(double.values), np.isnan(single.values)
        )
        keep = ~np.isnan(single.values)
        np.testing.assert_array_equal(double.values[keep], single.values[keep])


class TestRollingCompoundReturn:
    def test_two_month_window(self):
        p = make_panel("P", ["2000-01", "2000-02", "2000-03"], ["a"],
                       [[0.1], [0.2], [0.0]])
        out = tr.rolling_compound_return(p, 2, 0, min_obs=2)
        np.testing.assert_allclose(out.values[2, 0], 0.32, atol=1e-15)

    def test_all_zeros(self):
        periods = [f"2000-{m:02d}" for m in range(1, 13)]
        p = make_panel("P", periods, ["a"], [[0.0]] * 12)
        out = tr.rolling_compound_return(p, 3, 0, min_obs=3)
        assert out.values[11, 0] == 0.0

    def test_min_obs_gate(self):
        periods = [f"200{y}-{m:02d}" for y in (0, 1) for m in range(1, 13)]
        vals = [[0.01]] * 24
        vals[5] = [None]  # one hole inside the window
        p = make_panel("P", periods, ["a"], vals)
        out = tr.rolling_compound_return(p, 12, 1, min_obs=11)
        # at month index 16 the window 4..14 includes the hole
        assert np.isnan(out.values[16, 0])

    def test_window_one_equals_prior_return(self):
        periods = [f"2000-{m:02d}" for m in range(1, 7)]
        rng = np.random.default_rng(2)
        vals = rng.uniform(-0.1, 0.1, size=(6, 1))
        p = make_panel("P", periods, ["a"], vals.tolist())
        rolled = tr.rolling_compound_return(p, 1, 0, min_obs=1)
        lagged = tr.lag(p, 1)
        keep = ~np.isnan(lagged.values)
        np.testing.assert_allclose(rolled.values[keep], lagged.values[keep], atol=1e-15)


class TestRollingStat:
    def test_mean(self):
        p = make_panel("P", ["2000-01", "2000-02", "2000-03"], ["a"],
                       [[1.0], [2.0], [3.0]])
        out = tr.rolling_stat(p, 3, "mean", min_obs=3)
        assert out.values[2, 0] == 2.0

    def test_std_constant(self):
        p = make_panel("P", ["2000-01", "2000-02", "2000-03"], ["a"],
                       [[4.0], [4.0], [4.0]])
        out = tr.rolling_stat(p, 3, "std", min_obs=3)
        assert out.values[2, 0] == 0.0

    def test_std_sample_formula(self):
        p = make_panel("P", ["2000-01", "2000-02"], ["a"], [[1.0], [3.0]])
        out = tr.rolling_stat(p, 2, "std", min_obs=2)
        np.testing.assert_allclose(out.values[1, 0], np.sqrt(2.0), atol=1e-12)


class TestEwma:
    def test_constant_fixed_point(self):
        p = make_panel("P", ["2000-01", "2000-02", "2000-03"], ["a"],
                       [[3.0], [3.0], [3.0]])
        out = tr.ewma(p, 0.06, min_periods=1)
        np.testing.assert_allclose(out.values[:, 0], [3.0, 3.0, 3.0], atol=1e-15)

    def test_hand_recursion(self):
        p = make_panel("P", ["2000-01", "2000-02"], ["a"], [[0.0], [1.0]])
        out = tr.ewma(p, 0.5, min_periods=1)
        assert out.values[:, 0].tolist() == [0.0, 0.5]

    def test_min_periods_gate(self):
        periods = [f"2000-{m:02d}" for m in range(1, 12)]
        p = make_panel("P", periods, ["a"], [[1.0]] * 11)
        out = tr.ewma(p, 0.06, min_periods=12)
        assert np.isnan(out.values).all()

    def test_skips_missing_observations(self):
        p = make_panel("P", ["2000-01", "2000-02", "2000-03"], ["a"],
                       [[0.0], [None], [1.0]])
        out = tr.ewma(p, 0.5, min_periods=1)
        assert out.values[0, 0] == 0.0
        assert np.isnan(out.values[1, 0])
        assert out.values[2, 0] == 0.5  # recursion over the observation sequence

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=24))
    def test_convex_combination_property(self, xs):
        periods = [f"{1990 + m // 12:04d}-{m % 12 + 1:02d}" for m in range(len(xs))]
        p = make_panel("P", periods, ["a"], [[x] for x in xs])
        out = tr.ewma(p, 0.3, min_periods=1).values[:, 0]
        running_min, running_max = np.inf, -np.inf
        for i, x in enumerate(xs):
            running_min = min(running_min, x)
            running_max = max(running_max, x)
            assert running_min - 1e-9 <= out[i] <= running_max + 1e-9


class TestTrend:
    def test_identity(self):
        p = row_panel([1.0, 2.0])
        out = tr.trend(p, "identity")
        assert value_equal(out, Panel.source("x", list(p.dates), p.assets, p.values))

    def test_ewma_consistency(self):
        periods = [f"2000-{m:02d}" for m in range(1, 13)]
        rng = np.random.default_rng(3)
        p = make_panel("P", periods, ["a", "b"], rng.normal(size=(12, 2)).tolist())
        via_trend = tr.trend(p, "ewma", {"alpha": 0.06, "min_periods": 3})
        direct = tr.ewma(p, 0.06, min_periods=3)
        assert_same_bits(via_trend.values, direct.values)

    def test_cumsum(self):
        p = make_panel("P", ["2000-01", "2000-02", "2000-03"], ["a"],
                       [[1.0], [1.0], [1.0]])
        out = tr.trend(p, "cumsum")
        assert out.values[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_cumsum_skips_gaps_and_leading_missing(self):
        p = make_panel("P", [f"2000-{m:02d}" for m in range(1, 6)], ["a", "b"],
                       [[None, 1.0], [1.0, None], [None, None], [2.5, -3.0], [None, 1.0]])
        out = tr.trend(p, "cumsum").values
        np.testing.assert_array_equal(out[:, 0], [np.nan, 1.0, np.nan, 3.5, np.nan])
        np.testing.assert_array_equal(out[:, 1], [1.0, np.nan, np.nan, -2.0, -1.0])

    def test_unknown_parameter_names_the_factory(self):
        with pytest.raises(TypeError, match=r"^_ewma_grid\(\) got an unexpected "
                                            r"keyword argument 'bogus'$"):
            tr.trend(row_panel([1.0]), "ewma", {"bogus": 1})


class TestAnnualToMonthly:
    def test_december_to_june(self):
        periods = [f"{y}-{m:02d}" for y in (1990, 1991, 1992) for m in range(1, 13)]
        vals = [[None]] * len(periods)
        vals[11] = [3.0]  # Dec-1990
        p = make_panel("P", periods, ["a"], vals)
        out = tr.annual_to_monthly(p, placement_month=12, offset=6, valid_months=12)
        live = [periods[i] for i in range(len(periods)) if not np.isnan(out.values[i, 0])]
        assert live[0] == "1991-06"
        assert live[-1] == "1992-05"
        assert len(live) == 12

    def test_no_placement_observation(self):
        periods = ["1990-01", "1990-02"]
        p = make_panel("P", periods, ["a"], [[1.0], [2.0]])
        out = tr.annual_to_monthly(p, placement_month=12, offset=6, valid_months=12)
        assert np.isnan(out.values).all()

    def test_later_observation_overrides(self):
        periods = [f"{y}-{m:02d}" for y in (1990, 1991, 1992) for m in range(1, 13)]
        vals = [[None]] * len(periods)
        vals[11] = [1.0]   # Dec-1990, live 1991-06..1992-05
        vals[23] = [2.0]   # Dec-1991, live 1992-06..1993-05
        p = make_panel("P", periods, ["a"], vals)
        out = tr.annual_to_monthly(p, placement_month=12, offset=6, valid_months=18)
        # Dec-1990 with 18-month validity would run into 1992-11; the
        # Dec-1991 vintage takes over at 1992-06
        i_jun92 = periods.index("1992-06")
        assert out.values[i_jun92, 0] == 2.0
        assert out.values[periods.index("1992-05"), 0] == 1.0


# -- calendar-month windows vs a per-month lookup --------------------------------


def _rows_by_month(rows, lo, hi):
    """Rows of months lo..hi-1, looked up one calendar month at a time in
    ``rows``, the ``month_rows`` of the index."""
    return [rows[m] for m in range(lo, hi) if m in rows]


def _ref_rolling_stat(a, window, stat, min_obs):
    reduce = {"mean": np.nanmean, "sum": np.nansum, "min": np.nanmin, "max": np.nanmax}
    out = np.full_like(a.values, np.nan)
    by_month = month_rows(a.dates)
    for i, o in enumerate(a.dates.ordinals):
        rows = _rows_by_month(by_month, int(o) - window + 1, int(o) + 1)
        if not rows:
            continue
        block = a.values[rows, :]
        count = np.count_nonzero(~np.isnan(block), axis=0)
        with np.errstate(invalid="ignore"):
            vals = (_ref_nan_std(block, count) if stat == "std"
                    else _ref_nan_reduce(block, reduce[stat], count))
        if stat in ("min", "max"):
            vals = vals + 0.0  # a zero is +0.0, whatever the sign numpy kept
        ok = count >= min_obs
        out[i, ok] = vals[ok]
    return out


def _ref_nan_reduce(block, fn, count):
    vals = np.full(block.shape[1], np.nan)
    has = count > 0
    if np.any(has):
        vals[has] = fn(block[:, has], axis=0)
    return vals


def _ref_nan_std(block, count):
    """Sample (n-1) standard deviation per column; <2 observations -> NaN."""
    vals = np.full(block.shape[1], np.nan)
    has = count >= 2
    if np.any(has):
        vals[has] = np.nanstd(block[:, has], axis=0, ddof=1)
    return vals


def _ref_rolling_compound(r, window, skip, min_obs):
    out = np.full_like(r.values, np.nan)
    by_month = month_rows(r.dates)
    for i, o in enumerate(r.dates.ordinals):
        rows = _rows_by_month(by_month, int(o) - window, int(o) - skip)
        if not rows:
            continue
        block = r.values[rows, :]
        count = np.count_nonzero(~np.isnan(block), axis=0)
        growth = np.prod(np.where(np.isnan(block), 1.0, 1.0 + block), axis=0) - 1.0
        ok = count >= min_obs
        out[i, ok] = growth[ok]
    return out


def _ref_lag(a, k):
    """Each row takes the row of month o - k, looked up in a dict, else missing."""
    out = np.full_like(a.values, np.nan)
    by_month = month_rows(a.dates)
    for i, o in enumerate(a.dates.ordinals.tolist()):
        if o - k in by_month:
            out[i] = a.values[by_month[o - k]]
    return out


def _ref_annual_to_monthly(a, placement_month, offset, valid_months):
    out = np.full_like(a.values, np.nan)
    by_month = month_rows(a.dates)
    for i, o in enumerate(a.dates.ordinals):
        present = ~np.isnan(a.values[i])
        if int(o) % 12 != placement_month - 1 or not np.any(present):
            continue
        for pos in _rows_by_month(by_month, int(o) + offset, int(o) + offset + valid_months):
            out[pos, present] = a.values[i][present]
    return out


@pytest.fixture(scope="module")
def gapped():
    """Five years of months with a quarter of them absent, four assets, some missing."""
    rng = np.random.default_rng(7)
    periods = [f"{y}-{m:02d}" for y in range(1990, 1995) for m in range(1, 13)]
    periods = [p for p in periods if rng.random() > 0.25]
    vals = rng.normal(0.01, 0.05, size=(len(periods), 4))
    vals[rng.random(vals.shape) < 0.15] = np.nan
    return make_panel("G", periods, ["a", "b", "c", "d"], vals.tolist())


def _span(panel) -> int:
    """Months from the first to the last date; a longer range adds no rows."""
    return int(panel.dates.ordinals[-1] - panel.dates.ordinals[0]) + 1


HUGE = (10 ** 9, 2 ** 70)


class TestMonthWindowsMatchPerMonthLookup:
    @pytest.mark.parametrize("k", (1, 2, 13, "span - 1", "span", "span + 1", HUGE[1]))
    def test_lag(self, gapped, k):
        span = _span(gapped)
        k = {"span - 1": span - 1, "span": span, "span + 1": span + 1}.get(k, k)
        expected = _ref_lag(gapped, k)
        assert_same_bits(tr.lag(gapped, k).values, expected)
        assert np.isnan(expected).all() == (k >= span)

    @pytest.mark.parametrize("stat", tr.ROLLING_STATS)
    @pytest.mark.parametrize("window", (1, 2, 5, 12, *HUGE))
    def test_rolling_stat(self, gapped, window, stat):
        out = tr.rolling_stat(gapped, window, stat, min_obs=1)
        expected = _ref_rolling_stat(gapped, min(window, _span(gapped)), stat, 1)
        assert_same_bits(out.values, expected)

    @pytest.mark.parametrize("window, skip", [
        (12, 1), (3, 0), (6, 2), (HUGE[0], 1), (HUGE[1], 0), (HUGE[1], HUGE[0]),
    ])
    def test_rolling_compound_return(self, gapped, window, skip):
        out = tr.rolling_compound_return(gapped, window, skip, min_obs=1)
        skip_ref = min(skip, _span(gapped))
        window_ref = min(window, skip_ref + _span(gapped))
        expected = _ref_rolling_compound(gapped, window_ref, skip_ref, 1)
        assert_same_bits(out.values, expected)

    @pytest.mark.parametrize("placement_month", (6, 12))
    @pytest.mark.parametrize("offset, valid_months", [
        (6, 12), (0, 1), (3, 18), (HUGE[0], 12), (0, HUGE[0]), (HUGE[1], HUGE[1]),
        (1, HUGE[1]),
    ])
    def test_annual_to_monthly(self, gapped, placement_month, offset, valid_months):
        out = tr.annual_to_monthly(gapped, placement_month, offset, valid_months)
        expected = _ref_annual_to_monthly(gapped, placement_month,
                                          min(offset, _span(gapped)),
                                          min(valid_months, _span(gapped)))
        assert_same_bits(out.values, expected)


# -- shared percentile conformance vs the sort-and-interpolate oracle ---------


@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(
        st.one_of(
            st.none(),
            st.integers(-5, 5).map(float),  # plenty of ties
            st.floats(-100, 100, allow_nan=False),
        ),
        min_size=1, max_size=20,
    ),
    pct=st.floats(0.5, 99.5),
)
def test_percentile_matches_oracle(data, pct):
    present = sorted(v for v in data if v is not None)
    p = row_panel(data)
    series = tr.xs_percentile_row(p, pct)
    bins = tr.quantile_bins(p, [pct]).values[0]
    if not present:
        assert np.isnan(series.values[0])
        assert np.isnan(bins).all()
        return
    expected = pct_interpolate(present, pct)
    assert abs(series.values[0] - expected) <= 1e-12
    # a value tied with the breakpoint stays in the lower bin
    np.testing.assert_array_equal(
        bins, [np.nan if v is None else 1.0 + (v > expected) for v in data])

    wins = tr.winsorize(p, hi_pct=pct)
    assert np.nanmax(wins.values) <= expected + 1e-12


# -- row kernels vs the per-date and per-asset loops they replaced --------------


def reference_percentile_linear(values, pct):
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


def reference_winsorize(a, lo_pct, hi_pct, in_uni, flags):
    out = a.values.copy()
    for i in range(len(a.dates)):
        row = out[i]
        sample = row[in_uni[i] & ~np.isnan(row)]
        if sample.size < 1:
            flags.append(f"winsorize: {a.dates[i]}: empty universe, passed through")
            continue
        lo = reference_percentile_linear(sample, lo_pct) if lo_pct is not None else -np.inf
        hi = reference_percentile_linear(sample, hi_pct) if hi_pct is not None else np.inf
        keep = ~np.isnan(row)
        row[keep] = np.clip(row[keep], lo, hi)
    return out


def reference_quantile_bins(a, pcts, in_uni, flags):
    out = np.full_like(a.values, np.nan)
    for i in range(len(a.dates)):
        row = a.values[i]
        sample = row[in_uni[i] & ~np.isnan(row)]
        if sample.size < 1:
            flags.append(f"quantile_bins: {a.dates[i]}: empty universe")
            continue
        breaks = [reference_percentile_linear(sample, p) for p in pcts]
        present = ~np.isnan(row)
        bins = np.ones(row.shape)
        for q in breaks:
            bins += row > q
        out[i, present] = bins[present]
    return out


def reference_xs_percentile_row(a, pct, in_uni):
    out = np.full(len(a.dates), np.nan)
    for i in range(len(a.dates)):
        row = a.values[i]
        sample = row[in_uni[i] & ~np.isnan(row)]
        if sample.size:
            out[i] = reference_percentile_linear(sample, pct)
    return out.reshape(-1, 1)


def reference_ewma_column(col, alpha, min_periods):
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


def reference_cumsum(col):
    out = np.full_like(col, np.nan)
    total = 0.0
    for i, x in enumerate(col):
        if np.isnan(x):
            continue
        total += x
        out[i] = total
    return out


def kernel_case(seed, n_dates, n_assets, values=None):
    """A seeded panel, its universe panel and the universe as a boolean grid.

    The values have ties, missing cells and two all-missing dates; the
    universe has missing and zero cells and one date where it is empty.
    """
    rng = np.random.default_rng(seed)
    if values is None:
        values = rng.normal(size=(n_dates, n_assets))
        ties = rng.random(values.shape) < 0.3
        values[ties] = rng.integers(-4, 5, size=int(ties.sum())) / 2.0
        values[rng.random(values.shape) < 0.1] = np.nan
        values[rng.integers(n_dates, size=2)] = np.nan
    universe = (rng.random((n_dates, n_assets)) < 0.7).astype(np.float64)
    universe[rng.random(universe.shape) < 0.05] = np.nan
    universe[rng.integers(n_dates)] = 0.0
    periods = [f"{1900 + m // 12}-{m % 12 + 1:02d}" for m in range(n_dates)]
    assets = [f"a{j}" for j in range(n_assets)]
    return (Panel.source("X", periods, assets, values),
            Panel.source("U", periods, assets, universe),
            ~np.isnan(universe) & (universe != 0))


PERCENTILES = ([50.0], [30.0, 70.0], [100.0 / 3.0, 200.0 / 3.0], [20.0])
BOUNDS = ((0.0, 100.0), (1.0, 99.0), (None, 80.0), (20.0, None))
EWMA_ARGS = ((0.06, 1), (0.5, 3), (1.0, 1))


@pytest.fixture(scope="module", params=[(120, 50), (1200, 100), (72, 500)],
                ids=lambda shape: "x".join(map(str, shape)))
def seeded(request):
    return kernel_case(11, *request.param)


class TestRowKernelsMatchTheLoops:
    @pytest.mark.parametrize("pcts", PERCENTILES)
    def test_quantile_bins(self, seeded, pcts):
        a, universe, in_uni = seeded
        flags, expected_flags = [], []
        out = tr.quantile_bins(a, pcts, universe=universe, flags=flags)
        assert_same_bits(out.values, reference_quantile_bins(a, pcts, in_uni, expected_flags))
        assert flags == expected_flags and flags

    @pytest.mark.parametrize("pct", sorted({p for pcts in PERCENTILES for p in pcts}))
    def test_xs_percentile_row(self, seeded, pct):
        a, universe, in_uni = seeded
        flags = []
        expected = reference_xs_percentile_row(a, pct, in_uni)
        assert_same_bits(tr.xs_percentile_row(a, pct, universe, flags).values, expected)
        assert flags == [f"xs_percentile_row: {a.dates[i]}: empty universe"
                         for i in np.flatnonzero(np.isnan(expected[:, 0]))]

    @pytest.mark.parametrize("lo_pct, hi_pct", BOUNDS)
    def test_winsorize(self, seeded, lo_pct, hi_pct):
        a, universe, in_uni = seeded
        flags, expected_flags = [], []
        out = tr.winsorize(a, lo_pct, hi_pct, universe=universe, flags=flags)
        assert_same_bits(out.values, reference_winsorize(a, lo_pct, hi_pct, in_uni,
                                                         expected_flags))
        assert flags == expected_flags and flags

    def test_without_a_universe(self, seeded):
        a, _, _ = seeded
        everyone = np.ones(a.values.shape, dtype=bool)
        assert_same_bits(tr.quantile_bins(a, [30.0, 70.0]).values,
                         reference_quantile_bins(a, [30.0, 70.0], everyone, []))
        assert_same_bits(tr.winsorize(a, 1.0, 99.0).values,
                         reference_winsorize(a, 1.0, 99.0, everyone, []))

    @pytest.mark.parametrize("alpha, min_periods", EWMA_ARGS)
    def test_ewma(self, seeded, alpha, min_periods):
        a = seeded[0]
        expected = np.column_stack([reference_ewma_column(col, alpha, min_periods)
                                    for col in a.values.T])
        assert_same_bits(tr.ewma(a, alpha, min_periods).values, expected)
        via_trend = tr.trend(a, "ewma", {"alpha": alpha, "min_periods": min_periods})
        assert_same_bits(via_trend.values, expected)

    def test_cumsum(self, seeded):
        a = seeded[0]
        expected = np.column_stack([reference_cumsum(col) for col in a.values.T])
        assert_same_bits(tr.trend(a, "cumsum").values, expected)


def test_signed_zeros_are_value_equal_to_the_loops():
    """Rows holding both -0.0 and 0.0: the sort order of equal keys picks the
    sign of a zero breakpoint, so only values are compared."""
    rng = np.random.default_rng(5)
    values = rng.choice([-0.0, 0.0, 1.0, -1.0, 0.5, np.nan], size=(60, 40))
    a, universe, in_uni = kernel_case(5, 60, 40, values)
    for pcts in PERCENTILES:
        np.testing.assert_array_equal(tr.quantile_bins(a, pcts, universe).values,
                                      reference_quantile_bins(a, pcts, in_uni, []))
        for pct in pcts:
            np.testing.assert_array_equal(tr.xs_percentile_row(a, pct, universe).values,
                                          reference_xs_percentile_row(a, pct, in_uni))
    for lo_pct, hi_pct in BOUNDS:
        np.testing.assert_array_equal(
            tr.winsorize(a, lo_pct, hi_pct, universe).values,
            reference_winsorize(a, lo_pct, hi_pct, in_uni, []))
    for alpha, min_periods in EWMA_ARGS:
        np.testing.assert_array_equal(
            tr.ewma(a, alpha, min_periods).values,
            np.column_stack([reference_ewma_column(c, alpha, min_periods) for c in a.values.T]))
    np.testing.assert_array_equal(tr.trend(a, "cumsum").values,
                                  np.column_stack([reference_cumsum(c) for c in a.values.T]))


def reference_standardize(a, in_sample, flags):
    """The per-date loop ``standardize`` replaced."""
    out = np.full_like(a.values, np.nan)
    for i in range(len(a.dates)):
        row = a.values[i]
        sample = row[in_sample[i]]
        if sample.size < 2:
            flags.append(f"standardize: {a.dates[i]}: fewer than 2 universe values")
            continue
        sd = float(np.std(sample, ddof=1))
        if sd == 0.0:
            flags.append(f"standardize: {a.dates[i]}: zero standard deviation")
            continue
        out[i] = (row - float(np.mean(sample))) / sd
    return out


@pytest.mark.parametrize("shape", [(120, 50), (1200, 100), (72, 500), (240, 1)],
                         ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("missing", [0.01, 0.3, 0.9, 0.99])
@pytest.mark.parametrize("with_universe", [True, False], ids=["universe", "all"])
def test_standardize_matches_the_loop(shape, missing, with_universe):
    """Bit for bit, on values far from zero, with constant and near-empty
    rows; the flags come out grouped by message, each group in date order."""
    n_dates, n_assets = shape
    rng = np.random.default_rng(n_dates * n_assets + int(missing * 100))
    values = rng.normal(rng.normal(scale=1e3), rng.uniform(1e-3, 1e2), size=shape)
    values[rng.integers(n_dates, size=4)] = rng.choice([2.5, -0.0, 1e-300])
    values[rng.random(shape) < missing] = np.nan
    a, universe, in_uni = kernel_case(3, n_dates, n_assets, values)
    in_sample = (in_uni if with_universe else True) & ~np.isnan(values)
    flags, expected_flags = [], []
    out = tr.standardize(a, universe if with_universe else None, flags)
    assert_same_bits(out.values, reference_standardize(a, in_sample, expected_flags))
    assert flags == ([f for f in expected_flags if f.endswith("values")]
                     + [f for f in expected_flags if f.endswith("deviation")])


def test_a_panel_without_assets_has_an_empty_universe_on_every_date():
    a = Panel.source("X", ["2000-01", "2000-02"], (), np.empty((2, 0)))
    flags = []
    assert tr.quantile_bins(a, [50.0], flags=flags).values.shape == (2, 0)
    assert tr.winsorize(a, 10.0, 90.0).values.shape == (2, 0)
    assert np.isnan(tr.xs_percentile_row(a, 50.0).values).all()
    assert flags == ["quantile_bins: 2000-01: empty universe",
                     "quantile_bins: 2000-02: empty universe"]


# -- month-window kernels vs the per-date loops they replaced --------------------


def month_window_case(seed, n_dates, n_assets):
    """kernel_case values on a gapped month index, with -0.0 cells beside the
    +0.0 ties, and 40 rows (at least 40 months) missing in the first column and
    about a fifth of the others, so that some windows hold only missing cells."""
    values = kernel_case(seed, n_dates, n_assets)[0].values.copy()
    rng = np.random.default_rng(seed + 1)  # a stream apart from kernel_case's
    values[rng.random(values.shape) < 0.05] = -0.0
    start, stretch = int(rng.integers(max(n_dates - 40, 1))), rng.random(n_assets) < 0.2
    stretch[0] = True
    values[start:start + 40, stretch] = np.nan
    ordinals = 1900 * 12 + np.cumsum(rng.choice([1, 1, 1, 2, 3], size=n_dates))
    return Panel.source("X", DateIndex.from_ordinals(ordinals),
                        [f"a{j}" for j in range(n_assets)], values)


@pytest.fixture(scope="module", params=[(120, 50), (1200, 100), (72, 500), (240, 1)],
                ids=lambda shape: "x".join(map(str, shape)))
def windowed(request):
    return month_window_case(13, *request.param)


@pytest.fixture(scope="module")
def zero_ties(windowed):
    """Cells whose 36-month window holds both a -0.0 and a +0.0 cell."""
    return _window_holds(windowed, 36, True) & _window_holds(windowed, 36, False)


def _window_holds(a, window, negative):
    marks = ((a.values == 0) & (np.signbit(a.values) == negative)).astype(np.float64)
    return _ref_rolling_stat(Panel.source("Z", a.dates, a.assets, marks),
                             window, "max", 1) == 1.0


def test_month_window_case_has_the_edge_cells(windowed, zero_ties):
    assert np.diff(windowed.dates.ordinals).max() > 1  # gaps
    assert np.isnan(_ref_rolling_stat(windowed, 36, "sum", 1)).any()  # only missing cells
    assert zero_ties.any()  # windows holding -0.0 and +0.0


class TestMonthWindowKernelMatchesTheLoops:
    def test_rolling_compound_return_jkp(self, windowed):
        out = tr.rolling_compound_return(windowed, 12, 1, 8)
        assert_same_bits(out.values, _ref_rolling_compound(windowed, 12, 1, 8))

    @pytest.mark.parametrize("min_obs", (1, 3))
    @pytest.mark.parametrize("stat, window", [
        *((stat, 36) for stat in tr.ROLLING_STATS),
        *((stat, 300) for stat in ("mean", "std", "sum")),  # > 128 rows: split sums
    ])
    def test_rolling_stat(self, windowed, stat, window, min_obs):
        expected = _ref_rolling_stat(windowed, min(window, _span(windowed)), stat, min_obs)
        assert_same_bits(tr.rolling_stat(windowed, window, stat, min_obs).values, expected)

    @pytest.mark.parametrize("stat", ("min", "max"))
    def test_zero_min_max_is_positive(self, stat):
        """A window of -0.0 and +0.0 cells gives +0.0, whatever numpy's lane order."""
        a = Panel.source("Z", DateIndex.range("2000-01", 10), ["a"],
                         np.array([0.0] + [-0.0] * 9).reshape(-1, 1))
        for window in (1, 2, 3, 8, 10):
            got = tr.rolling_stat(a, window, stat, 1).values
            assert_same_bits(got, _ref_rolling_stat(a, window, stat, 1))
            assert np.all(got == 0) and not np.signbit(got).any(), window

    @pytest.mark.parametrize("periods", [["1990-12"], []], ids=["one_row", "empty"])
    def test_tiny_indexes(self, periods):
        a = Panel.source("A", periods, ["a", "b", "c"],
                         np.array([[0.02, -0.0, np.nan]] * len(periods)).reshape(-1, 3))
        for stat in tr.ROLLING_STATS:
            assert_same_bits(tr.rolling_stat(a, 12, stat, 1).values,
                             _ref_rolling_stat(a, 12, stat, 1))
        for window, skip in ((12, 1), (1, 0)):
            assert_same_bits(tr.rolling_compound_return(a, window, skip, 1).values,
                             _ref_rolling_compound(a, window, skip, 1))


def test_window_sums_split_long_windows_as_numpy_does():
    """More than 128 rows in a window: numpy halves it at a multiple of 8."""
    rng = np.random.default_rng(5)
    grid = rng.normal(size=(700, 3)) * 10.0 ** rng.integers(-8, 8, size=(700, 3))
    grid[rng.random(grid.shape) < 0.1] = np.nan
    lo = np.array([0, 0, 3, 100, 5, 0])
    hi = np.array([700, 129, 140, 357, 5, 8])
    got = tr.window_sums(grid, lo, hi)
    expected = np.array([np.nansum(np.asfortranarray(grid[a:b]), axis=0)
                         for a, b in zip(lo, hi)])
    assert_same_bits(got, expected)
