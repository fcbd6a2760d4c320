"""Time-series regressions, size-stratified alphas, coverage and summary statistics.

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
from .panel import Panel, distinct, reframe
from .transforms import align_panels, run_sums


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
    codes = sorted({int(v) for v in distinct(vals[~np.isnan(vals)]).tolist()})
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


def coverage_by_period(char: Panel, cap: Panel) -> list[CoverageRow]:
    """Per calendar decade: average security coverage and market-cap share of a characteristic.

    Security fraction counts assets with the characteristic among assets with
    market equity; cap share sums market equity over covered assets against
    the total. Months with no cap-bearing assets are skipped; a decade of none
    reads 0.0 over 0 months. Each month, and each decade, is summed on its own.
    """
    dates, _, (gchar, gcap) = align_panels(char, cap)
    if not len(dates):
        return []
    has_cap = ~np.isnan(gcap)
    covered = has_cap & ~np.isnan(gchar)
    n_cap, n_covered = has_cap.sum(axis=1), covered.sum(axis=1)
    total, held = run_sums(gcap[has_cap], n_cap), run_sums(gcap[covered], n_covered)
    live = n_cap > 0
    frac = n_covered[live] / n_cap[live]
    share = np.divide(held, total, out=np.zeros_like(total), where=total > 0)[live]
    decade = dates.ordinals // 120  # ordinal 120 * d is January of year 10 * d
    n_months = np.bincount(decade[live] - decade[0], minlength=decade[-1] - decade[0] + 1)
    means = [(run_sums(x, n_months) / np.maximum(n_months, 1)).tolist() for x in (frac, share)]
    return [CoverageRow(f"{10 * d}s", f"{10 * d:04d}-01", f"{10 * d + 9:04d}-12", f, s, n)
            for d, n, f, s in zip(range(decade[0], decade[-1] + 1), n_months.tolist(), *means)]
