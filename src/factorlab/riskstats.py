"""Time-series regressions, Fama-MacBeth cross-sections, and summary statistics.

Inference defaults to homoskedastic OLS standard errors; Newey-West errors
with an explicit lag are available and collapse to White errors at lag zero.
Spreads are self-financing, so no risk-free adjustment is applied anywhere.
Return series are one-column panels, labelled by their panel ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .panel import DateIndex, Panel, month_ordinal, reframe
from .transforms import align_panels


@dataclass(frozen=True)
class RegressionResult:
    alpha: float
    betas: tuple[float, ...]
    se_alpha: float
    se_betas: tuple[float, ...]
    t_alpha: float
    t_betas: tuple[float, ...]
    r2: float
    n_obs: int
    se_method: str
    factor_names: tuple[str, ...] = ()


@dataclass(frozen=True)
class FMBResult:
    mean_coeffs: tuple[float, ...]
    t_stats: tuple[float, ...]
    n_months: int
    n_skipped: int = 0
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    sd: float
    sharpe_annualized: float
    skewness: float
    min: float
    max: float
    n_obs: int
    flags: tuple[str, ...] = ()


def _overlap_design(y: Panel, factors: Sequence[Panel]):
    """Common non-missing sample and the intercept-augmented design matrix."""
    dates = y.dates
    for f in factors:
        dates = dates.intersection(f.dates)

    cols = [reframe(f.values, f.dates, dates)[:, 0] for f in factors]
    yv = reframe(y.values, y.dates, dates)[:, 0]
    keep = ~np.isnan(yv)
    for c in cols:
        keep &= ~np.isnan(c)
    yv = yv[keep]
    X = np.column_stack([np.ones(keep.sum())] + [c[keep] for c in cols])
    return yv, X


def _collinear_columns(X: np.ndarray, names: Sequence[str]) -> list[str]:
    """Names of factor columns whose removal does not reduce the design rank."""
    full_rank = np.linalg.matrix_rank(X)
    offenders = []
    for j in range(1, X.shape[1]):
        reduced = np.delete(X, j, axis=1)
        if np.linalg.matrix_rank(reduced) == full_rank:
            offenders.append(names[j - 1])
    return offenders


def ts_regress(y: Panel, factors: Sequence[Panel],
               se_method: str = "ols", nw_lags: int = 0) -> RegressionResult:
    """OLS of a return series on factor series with an intercept.

    Each series is a one-column panel; the betas are labelled by factor panel id.

    se_method "ols" gives homoskedastic errors; "newey_west" uses the
    Bartlett-kernel HAC estimator with ``nw_lags`` lags (lag 0 = White).
    Collinear factors and insufficient overlap are errors.
    """
    if se_method not in ("ols", "newey_west"):
        raise DataError(f"unknown se_method {se_method!r}")
    y, factors = y.to_series(), [f.to_series() for f in factors]
    names = tuple(f.panel_id for f in factors)
    yv, X = _overlap_design(y, factors)
    n, k = X.shape
    if n < len(factors) + 2:
        raise DataError(
            f"insufficient overlap: {n} observations for {len(factors)} factors"
        )
    if np.linalg.matrix_rank(X) < k:
        offenders = _collinear_columns(X, names)
        raise DataError(f"rank-deficient design, collinear columns: {offenders}")

    coef, *_ = np.linalg.lstsq(X, yv, rcond=None)
    resid = yv - X @ coef
    xtx_inv = np.linalg.inv(X.T @ X)

    if se_method == "ols":
        dof = n - k
        sigma2 = float(resid @ resid) / dof
        cov = sigma2 * xtx_inv
        label = "ols"
    else:
        lags = int(nw_lags)
        if lags < 0:
            raise DataError("nw_lags must be >= 0")
        xe = X * resid[:, None]
        meat = xe.T @ xe
        for lag_ in range(1, lags + 1):
            w = 1.0 - lag_ / (lags + 1.0)
            gamma = xe[lag_:].T @ xe[:-lag_]
            meat += w * (gamma + gamma.T)
        cov = xtx_inv @ meat @ xtx_inv
        label = f"newey_west({lags})"

    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        tstats = np.where(se > 0, coef / se, np.nan)
    sst = float(np.sum((yv - yv.mean()) ** 2))
    ssr = float(resid @ resid)
    r2 = 1.0 - ssr / sst if sst > 0 else np.nan

    return RegressionResult(
        alpha=float(coef[0]),
        betas=tuple(float(b) for b in coef[1:]),
        se_alpha=float(se[0]),
        se_betas=tuple(float(s) for s in se[1:]),
        t_alpha=float(tstats[0]),
        t_betas=tuple(float(t) for t in tstats[1:]),
        r2=r2,
        n_obs=n,
        se_method=label,
        factor_names=names,
    )


def fama_macbeth(returns: Panel, characteristics: Sequence[Panel]) -> FMBResult:
    """Monthly cross-sections of month t+1 returns on month t characteristics.

    Reports the time-series mean of the monthly slopes and t = mean/(sd/sqrt(T))
    per regressor (intercept excluded). Months with too few complete assets or
    a collinear cross-section are skipped and counted.
    """
    if not characteristics:
        raise DataError("fama_macbeth needs at least one characteristic")
    panels = [returns] + list(characteristics)
    dates, assets, grids = align_panels(*panels)
    rets, chars = grids[0], grids[1:]
    k = len(chars)

    slopes = []
    skipped = 0
    nxt = dates.next_month_rows()
    for i in np.flatnonzero(nxt >= 0):
        y = rets[nxt[i]]
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


def summarize(s: Panel) -> SummaryStats:
    """Descriptive statistics of a monthly return series (a one-column panel).

    Sample (n-1) standard deviation, sqrt(12)-annualized Sharpe, and the
    bias-unadjusted third standardized moment for skewness.
    """
    vals = s.to_series().values[:, 0]
    vals = vals[~np.isnan(vals)]
    n = vals.size
    if n < 2:
        raise DataError("summarize needs at least 2 observations")
    mean = float(vals.mean())
    sd = float(vals.std(ddof=1))
    flags = []
    if sd == 0.0:
        sharpe = np.nan
        skew = np.nan
        flags.append("zero standard deviation: sharpe and skewness undefined")
    else:
        sharpe = mean / sd * np.sqrt(12.0)
        centered = vals - mean
        m2 = float(np.mean(centered ** 2))
        m3 = float(np.mean(centered ** 3))
        skew = m3 / m2 ** 1.5
    return SummaryStats(
        mean=mean,
        sd=sd,
        sharpe_annualized=float(sharpe),
        skewness=float(skew),
        min=float(vals.min()),
        max=float(vals.max()),
        n_obs=n,
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class StratifiedCell:
    size_bin: int
    model: str
    result: RegressionResult | None
    note: str = ""


def size_stratified_alphas(
    spread_builder: Callable[[Panel], Panel],
    size_bins: Panel,
    models: Mapping[str, Sequence[Panel]],
    se_method: str = "ols",
    nw_lags: int = 0,
) -> list[StratifiedCell]:
    """Rebuild the spread inside each size bin's universe and regress per model.

    ``spread_builder`` receives a boolean universe panel restricting which
    assets participate; bins where construction or regression fails degrade
    to a note instead of aborting the table.
    """
    vals = size_bins.values
    codes = sorted({int(v) for v in vals[~np.isnan(vals)]})
    if not codes:
        raise DataError("size_bins panel has no binned assets")

    cells = []
    for code in codes:
        member = np.where(~np.isnan(vals), (vals == code).astype(float), np.nan)
        universe = Panel.derive(
            "size_bin_universe", {"bin": code}, [size_bins],
            size_bins.dates, size_bins.assets, member,
        )
        try:
            spread = spread_builder(universe)
        except Exception as exc:  # noqa: BLE001 - degrade, do not abort the table
            for model in models:
                cells.append(StratifiedCell(code, model, None, f"construction failed: {exc}"))
            continue
        for model, factors in models.items():
            try:
                res = ts_regress(spread, list(factors), se_method=se_method, nw_lags=nw_lags)
                cells.append(StratifiedCell(code, model, res))
            except DataError as exc:
                cells.append(StratifiedCell(code, model, None, str(exc)))
    return cells


@dataclass(frozen=True)
class CoverageRow:
    bucket: str
    start: str
    end: str
    security_fraction: float
    cap_share: float
    n_months: int


def decade_buckets(dates: DateIndex) -> list[tuple[str, str, str]]:
    """Default calendar-decade subperiod buckets covering a date index."""
    if not len(dates):
        return []
    first_year = int(dates[0][:4])
    last_year = int(dates[-1][:4])
    buckets = []
    decade = first_year - first_year % 10
    while decade <= last_year:
        buckets.append((f"{decade}s", f"{decade:04d}-01", f"{decade + 9:04d}-12"))
        decade += 10
    return buckets


def coverage_by_period(char: Panel, cap: Panel,
                       buckets: Sequence[tuple[str, str, str]] | None = None) -> list[CoverageRow]:
    """Per bucket: average security coverage and market-cap share of a characteristic.

    Security fraction counts assets with the characteristic among assets with
    market equity; cap share sums market equity over covered assets against
    the total. Months with no cap-bearing assets are skipped.
    """
    dates, assets, (gchar, gcap) = align_panels(char, cap)
    if buckets is None:
        buckets = decade_buckets(dates)

    spans = [(label, month_ordinal(start), month_ordinal(end)) for label, start, end in buckets]
    for (_, s1, e1), (_, s2, _) in zip(spans, spans[1:]):
        if s2 <= e1:
            raise DataError("coverage buckets overlap")

    rows = []
    for (label, start, end), (_, sp_start, sp_end) in zip(buckets, spans):
        fracs, shares = [], []
        for i, o in enumerate(dates.ordinals):
            if not sp_start <= int(o) <= sp_end:
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
            rows.append(CoverageRow(label, start, end,
                                    float(np.mean(fracs)), float(np.mean(shares)), len(fracs)))
        else:
            rows.append(CoverageRow(label, start, end, 0.0, 0.0, 0))
    return rows
