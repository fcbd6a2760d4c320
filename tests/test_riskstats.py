from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from factorlab import riskstats as rs
from factorlab.errors import DataError
from factorlab.panel import SERIES_ASSET, DateIndex, Panel, month_ordinal
from factorlab.transforms import align_panels

from .conftest import make_panel
from .oracles import ols_normal_equations


def fs(values, name="y", start=0):
    periods = [f"{1990 + (start + i) // 12:04d}-{(start + i) % 12 + 1:02d}"
               for i in range(len(values))]
    vals = [np.nan if v is None else v for v in values]
    return Panel.source(name, DateIndex(periods), (SERIES_ASSET,), np.array(vals).reshape(-1, 1))


def random_problem(rng, n=50, k=2):
    X = rng.normal(size=(n, k))
    beta = rng.normal(size=k)
    alpha = rng.normal()
    noise = rng.normal(scale=0.1, size=n)
    y = alpha + X @ beta + noise
    factors = [fs(X[:, j], name=f"f{j}") for j in range(k)]
    return fs(y), factors, alpha, beta


class TestTsRegress:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=60)
        y = 0.01 + 2.0 * f
        res = rs.ts_regress(fs(y), [fs(f, "f")])
        assert res.alpha == pytest.approx(0.01, abs=1e-12)
        assert res.betas[0] == pytest.approx(2.0, abs=1e-12)
        assert res.r2 == pytest.approx(1.0, abs=1e-12)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=80)
        y = 0.004 - 1.3 * f
        for scale in (1.0, 7.5, 0.002):
            res = rs.ts_regress(fs(y), [fs(f * scale, "f")])
            assert res.alpha == pytest.approx(0.004, abs=1e-10)
            assert res.betas[0] == pytest.approx(-1.3 / scale, abs=1e-10)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(2)
        y, factors, _, _ = random_problem(rng)
        res = rs.ts_regress(y, factors)
        X = [[1.0] + [f.values[i, 0] for f in factors] for i in range(len(y.values[:, 0]))]
        expected = ols_normal_equations(list(y.values[:, 0]), X)
        assert res.alpha == pytest.approx(expected[0], abs=1e-10)
        for b, e in zip(res.betas, expected[1:]):
            assert b == pytest.approx(e, abs=1e-10)

    def test_duplicate_factor_rank_error(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=40)
        y = rng.normal(size=40)
        with pytest.raises(DataError, match="collinear.*mom.*mom2|collinear"):
            rs.ts_regress(fs(y), [fs(f, "mom"), fs(f, "mom2")])

    def test_insufficient_overlap(self):
        y = fs([0.01, 0.02])
        f = fs([0.1, 0.2], "f")
        with pytest.raises(DataError, match="insufficient overlap"):
            rs.ts_regress(y, [f])

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            y, factors, _, _ = random_problem(rng, n=60, k=3)
            res = rs.ts_regress(y, factors)
            X = np.column_stack(
                [np.ones(60)] + [f.values[:, 0] for f in factors]
            )
            coef = np.array([res.alpha, *res.betas])
            resid = np.array(y.values[:, 0]) - X @ coef
            assert np.max(np.abs(X.T @ resid)) <= 1e-8

    def test_newey_west_zero_equals_white(self):
        rng = np.random.default_rng(5)
        y, factors, _, _ = random_problem(rng, n=50, k=2)
        res = rs.ts_regress(y, factors, se_method="newey_west", nw_lags=0)

        # brute-force White sandwich
        X = np.column_stack([np.ones(50)] + [f.values[:, 0] for f in factors])
        coef = np.linalg.lstsq(X, y.values[:, 0], rcond=None)[0]
        e = y.values[:, 0] - X @ coef
        xtx_inv = np.linalg.inv(X.T @ X)
        meat = sum(
            e[i] ** 2 * np.outer(X[i], X[i]) for i in range(50)
        )
        cov = xtx_inv @ meat @ xtx_inv
        white = np.sqrt(np.diag(cov))
        assert res.se_alpha == pytest.approx(white[0], abs=1e-10)
        for s, w in zip(res.se_betas, white[1:]):
            assert s == pytest.approx(w, abs=1e-10)

    def test_newey_west_brute_force_lags(self):
        rng = np.random.default_rng(6)
        y, factors, _, _ = random_problem(rng, n=50, k=1)
        lags = 3
        res = rs.ts_regress(y, factors, se_method="newey_west", nw_lags=lags)

        X = np.column_stack([np.ones(50)] + [f.values[:, 0] for f in factors])
        coef = np.linalg.lstsq(X, y.values[:, 0], rcond=None)[0]
        e = y.values[:, 0] - X @ coef
        meat = np.zeros((2, 2))
        for i in range(50):
            meat += e[i] ** 2 * np.outer(X[i], X[i])
        for lag in range(1, lags + 1):
            w = 1.0 - lag / (lags + 1.0)
            for i in range(lag, 50):
                pair = e[i] * e[i - lag] * np.outer(X[i], X[i - lag])
                meat += w * (pair + pair.T)
        xtx_inv = np.linalg.inv(X.T @ X)
        cov = xtx_inv @ meat @ xtx_inv
        assert res.se_alpha == pytest.approx(np.sqrt(cov[0, 0]), abs=1e-10)
        assert res.se_method == "newey_west(3)"


@dataclass(frozen=True)
class FMBResult:
    mean_coeffs: tuple[float, ...]
    t_stats: tuple[float, ...]
    n_months: int
    n_skipped: int = 0
    flags: tuple[str, ...] = ()


def fama_macbeth(returns: Panel, characteristics) -> FMBResult:
    """Monthly cross-sections of month t+1 returns on month t characteristics.

    Reports the time-series mean of the monthly slopes and t = mean/(sd/sqrt(T))
    per regressor (intercept excluded). Months with too few complete assets or
    a collinear cross-section are skipped and counted. No tool or command
    reaches it; it lives beside its tests.
    """
    if not characteristics:
        raise DataError("fama_macbeth needs at least one characteristic")
    panels = [returns] + list(characteristics)
    dates, assets, grids = align_panels(*panels)
    rets, chars = grids[0], grids[1:]
    k = len(chars)

    slopes = []
    skipped = 0
    lo, hi = dates.window_rows(1, 2)  # the row of month t+1, where there is one
    for i in np.flatnonzero(hi > lo):
        y = rets[lo[i]]
        xcols = [c[i] for c in chars]
        keep = ~np.isnan(y)
        for c in xcols:
            keep &= ~np.isnan(c)
        if keep.sum() < k + 2:
            skipped += 1
            continue
        X = np.column_stack([np.ones(keep.sum())] + [c[keep] for c in xcols])
        if np.linalg.matrix_rank(X) < k + 1:
            skipped += 1
            continue
        coef, *_ = np.linalg.lstsq(X, y[keep], rcond=None)
        slopes.append(coef[1:])

    if len(slopes) < 2:
        raise DataError(f"fewer than 2 usable months ({len(slopes)})")
    S = np.array(slopes)
    T = S.shape[0]
    means = S.mean(axis=0)
    sds = S.std(axis=0, ddof=1)
    flags = []
    tstats = []
    for j in range(k):
        # exactly-linear panels leave only float fuzz in the slope dispersion
        if sds[j] <= abs(means[j]) * 1e-12:
            tstats.append(np.nan)
            flags.append(f"regressor {j}: zero slope dispersion, t undefined")
        else:
            tstats.append(means[j] / (sds[j] / np.sqrt(T)))
    return FMBResult(
        mean_coeffs=tuple(float(m) for m in means),
        t_stats=tuple(float(t) for t in tstats),
        n_months=T,
        n_skipped=skipped,
        flags=tuple(flags),
    )


class TestFamaMacbeth:
    def test_noiseless_single_characteristic(self):
        periods = [f"2000-{m:02d}" for m in range(1, 7)]
        assets = list("abcd")
        char_vals = np.arange(24, dtype=float).reshape(6, 4)
        # next-month return is exactly 0.5 * this month's characteristic
        ret_vals = np.full((6, 4), np.nan)
        ret_vals[1:] = 0.5 * char_vals[:-1]
        char = make_panel("CHAR", periods, assets, char_vals.tolist())
        ret = make_panel("RET", periods, assets, ret_vals.tolist())
        res = fama_macbeth(ret, [char])
        assert res.mean_coeffs[0] == pytest.approx(0.5, abs=1e-12)
        assert np.isnan(res.t_stats[0])  # zero dispersion guard
        assert res.flags

    def test_two_characteristics_exact(self):
        rng = np.random.default_rng(7)
        assets = [f"a{j}" for j in range(8)]
        c1 = rng.normal(size=(12, 8))
        c2 = rng.normal(size=(12, 8))
        ret = np.full((12, 8), np.nan)
        ret[1:] = 0.3 * c1[:-1] - 0.2 * c2[:-1]
        # on the gapped index a row's next row is month t+1 only 8 times in 11
        gapped = ["2000-01", "2000-02", "2000-04", "2000-05", "2000-06", "2000-08",
                  "2000-09", "2000-10", "2000-11", "2001-01", "2001-02", "2001-03"]
        for periods, n_months in (([f"2000-{m:02d}" for m in range(1, 13)], 11), (gapped, 8)):
            res = fama_macbeth(
                make_panel("RET", periods, assets, ret.tolist()),
                [make_panel("C1", periods, assets, c1.tolist()),
                 make_panel("C2", periods, assets, c2.tolist())],
            )
            assert res.mean_coeffs[0] == pytest.approx(0.3, abs=1e-10)
            assert res.mean_coeffs[1] == pytest.approx(-0.2, abs=1e-10)
            assert (res.n_months, res.n_skipped) == (n_months, 0)

    def test_constant_characteristic_months_skipped(self):
        periods = [f"2000-{m:02d}" for m in range(1, 7)]
        assets = list("abcd")
        rng = np.random.default_rng(8)
        char = np.ones((6, 4))
        char[0] = [1.0, 2.0, 3.0, 4.0]
        char[1] = [4.0, 3.0, 2.0, 1.0]
        ret = rng.normal(size=(6, 4))
        res = fama_macbeth(
            make_panel("RET", periods, assets, ret.tolist()),
            [make_panel("CHAR", periods, assets, char.tolist())],
        )
        # constant cross-sections (months 3..5) are collinear with the intercept
        assert res.n_months == 2
        assert res.n_skipped == 3

    def test_single_month_matches_cross_sectional_ols(self):
        periods = ["2000-01", "2000-02", "2000-03"]
        assets = list("abcdef")
        rng = np.random.default_rng(9)
        char = rng.normal(size=(3, 6))
        ret = np.full((3, 6), np.nan)
        ret[1] = 1.7 * char[0] + 0.4
        ret[2] = 1.7 * char[1] + 0.4
        res = fama_macbeth(
            make_panel("RET", periods, assets, ret.tolist()),
            [make_panel("CHAR", periods, assets, char.tolist())],
        )
        assert res.mean_coeffs[0] == pytest.approx(1.7, abs=1e-10)

    def test_too_few_months(self):
        periods = ["2000-01", "2000-02"]
        assets = list("abcd")
        char = np.random.default_rng(10).normal(size=(2, 4))
        ret = np.full((2, 4), np.nan)
        with pytest.raises(DataError, match="usable months"):
            fama_macbeth(
                make_panel("RET", periods, assets, ret.tolist()),
                [make_panel("CHAR", periods, assets, char.tolist())],
            )


class TestSummarize:
    def test_hand_example(self):
        stats = rs.summarize(fs([0.01, 0.03]))
        assert stats.mean == pytest.approx(0.02, abs=1e-15)
        assert stats.sd == pytest.approx(0.0141421356, abs=1e-9)
        assert stats.sharpe_annualized == pytest.approx(4.8990, abs=1e-4)

    def test_constant_series_flagged(self):
        stats = rs.summarize(fs([0.01, 0.01, 0.01]))
        assert np.isnan(stats.sharpe_annualized)
        assert stats.flags

    def test_symmetric_skewness_zero(self):
        stats = rs.summarize(fs([-0.02, -0.01, 0.0, 0.01, 0.02]))
        assert abs(stats.skewness) <= 1e-12

    def test_matches_two_pass_reference(self):
        rng = np.random.default_rng(11)
        vals = rng.normal(0.01, 0.05, size=200)
        stats = rs.summarize(fs(vals))
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        assert stats.mean == pytest.approx(mean, abs=1e-12)
        assert stats.sd == pytest.approx(np.sqrt(var), abs=1e-12)


class TestSizeStratified:
    def test_single_bin_equals_plain_regression(self):
        rng = np.random.default_rng(12)
        periods = [f"2000-{m:02d}" for m in range(1, 13)]
        f = rng.normal(size=12)
        y = 0.02 + 0.5 * f + rng.normal(scale=0.01, size=12)
        spread = fs(y, start=0)
        factors = {"market": [fs(f, "mkt", start=0)]}
        size_bins = make_panel("SB", periods, ["a", "b"], np.ones((12, 2)).tolist())

        cells = rs.size_stratified_alphas(lambda universe: spread, size_bins, factors)
        assert len(cells) == 1
        plain = rs.ts_regress(spread, factors["market"])
        assert cells[0].result.alpha == pytest.approx(plain.alpha, abs=1e-12)

    def test_failed_bin_degrades_to_note(self):
        def builder(universe):
            raise DataError("no members in this universe")

        periods = ["2000-01"]
        size_bins = make_panel("SB", periods, ["a", "b"], [[1.0, 2.0]])
        cells = rs.size_stratified_alphas(builder, size_bins, {"m": [fs([0.1, 0.2], "f")]})
        assert len(cells) == 2
        assert all(c.result is None and "failed" in c.note for c in cells)

    def test_table_shape(self):
        rng = np.random.default_rng(13)
        periods = [f"2000-{m:02d}" for m in range(1, 13)]
        size_vals = rng.integers(1, 4, size=(12, 6)).astype(float)
        size_bins = make_panel("SB", periods, [f"a{j}" for j in range(6)],
                               size_vals.tolist())
        f1 = fs(rng.normal(size=12), "f1")
        f2 = fs(rng.normal(size=12), "f2")
        y = fs(rng.normal(size=12))
        cells = rs.size_stratified_alphas(
            lambda universe: y, size_bins, {"m1": [f1], "m2": [f2]}
        )
        assert len(cells) == 6  # 3 bins x 2 models


def coverage_loop(char, cap):
    """The bucket x date loop ``coverage_by_period`` replaced, over calendar decades."""
    dates, _, (gchar, gcap) = align_panels(char, cap)
    if not len(dates):
        return []
    first_year, last_year = int(dates[0][:4]), int(dates[-1][:4])
    rows = []
    for decade in range(first_year - first_year % 10, last_year + 1, 10):
        start, end = f"{decade:04d}-01", f"{decade + 9:04d}-12"
        fracs, shares = [], []
        for i, o in enumerate(dates.ordinals):
            if not month_ordinal(start) <= int(o) <= month_ordinal(end):
                continue
            cap_row, char_row = gcap[i], gchar[i]
            has_cap = ~np.isnan(cap_row)
            if not np.any(has_cap):
                continue
            covered = has_cap & ~np.isnan(char_row)
            fracs.append(covered.sum() / has_cap.sum())
            total_cap = float(cap_row[has_cap].sum())
            shares.append(float(cap_row[covered].sum()) / total_cap if total_cap > 0 else 0.0)
        if fracs:
            rows.append(rs.CoverageRow(f"{decade}s", start, end, float(np.mean(fracs)),
                                       float(np.mean(shares)), len(fracs)))
        else:
            rows.append(rs.CoverageRow(f"{decade}s", start, end, 0.0, 0.0, 0))
    return rows


def coverage_bits(rows):
    return [(r.bucket, r.start, r.end, r.n_months,
             float.hex(r.security_fraction), float.hex(r.cap_share)) for r in rows]


class TestCoverage:
    def test_security_fraction(self):
        periods = [f"2000-{m:02d}" for m in range(1, 4)]
        assets = list("abcd")
        cap = make_panel("CAP", periods, assets, np.ones((3, 4)).tolist())
        char_vals = [[1.0, 1.0, 1.0, None]] * 3
        char = make_panel("CHAR", periods, assets, char_vals)
        rows = rs.coverage_by_period(char, cap)
        assert rows[0].security_fraction == pytest.approx(0.75, abs=1e-12)

    def test_cap_share_of_largest_only(self):
        periods = ["2000-01"]
        assets = list("abcd")
        cap = make_panel("CAP", periods, assets, [[6.0, 2.0, 1.0, 1.0]])
        char = make_panel("CHAR", periods, assets, [[1.0, None, None, None]])
        rows = rs.coverage_by_period(char, cap)
        assert rows[0].cap_share == pytest.approx(0.6, abs=1e-12)

    def test_empty_characteristic(self):
        periods = ["2000-01"]
        cap = make_panel("CAP", periods, ["a"], [[5.0]])
        char = make_panel("CHAR", periods, ["a"], [[None]])
        rows = rs.coverage_by_period(char, cap)
        assert rows[0].security_fraction == 0.0
        assert rows[0].cap_share == 0.0

    def test_matches_the_loop_on_a_gapped_index(self):
        """1,200 months over 1900-2019 with the 1960s absent, 150 assets (a month
        sums more than 128 cells), months without cap and one of zero total cap."""
        rng = np.random.default_rng(21)
        months = np.arange(1900 * 12, 2020 * 12)
        months = months[months // 120 != 196]
        ordinals = np.sort(rng.choice(months, size=1200, replace=False))
        shape = (1200, 150)
        cap = rng.lognormal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        cap[rng.random(shape) < 0.1] = np.nan
        cap[rng.random(1200) < 0.05] = np.nan  # months without cap
        cap[7] = 0.0
        char = rng.normal(size=shape)
        char[rng.random(shape) < 0.3] = np.nan
        dates, assets = DateIndex.from_ordinals(ordinals), [f"a{j}" for j in range(150)]
        char = Panel.source("CHAR", dates, assets, char)
        cap = Panel.source("CAP", dates, assets, cap)
        got, expected = rs.coverage_by_period(char, cap), coverage_loop(char, cap)
        assert coverage_bits(got) == coverage_bits(expected)
        assert [r.bucket for r in got] == [f"{10 * d}s" for d in range(190, 202)]
        assert got[6].n_months == 0 and all(r.n_months for r in got if r.bucket != "1960s")
        assert sum(r.n_months for r in got) < 1200  # months without cap were skipped

    def test_empty_index(self):
        empty = Panel.source("CAP", [], ["a"], np.zeros((0, 1)))
        assert rs.coverage_by_period(empty, empty) == coverage_loop(empty, empty) == []
