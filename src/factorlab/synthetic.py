"""Seeded synthetic security-monthly and fundamental-annual CSV generator.

Substitutes for licensed vendor data so the whole engine runs end to end.
Returns follow a one-factor model with two planted characteristic-linked
drifts whose magnitudes are configurable:

  r[i,m] = base + beta[i] * f[m]
         + mom_spread * momrank[i,m] * gate[i,m]
         + val_spread * valrank[i]
         + eps[i,m]

momrank is the cross-sectional rank score (in roughly -0.5..0.5, zero mean)
of the asset's trailing 12-months-skip-1 compound return formed one month
earlier, so a momentum sort has a known conditional expected spread. valrank
ranks a persistent value trait that also drives generated book equity, so a
value sort earns a spread with a known sign. ``gate`` optionally restricts
the momentum drift to below-median-cap names for small-cap concentration
experiments. Identical configs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .panel import month_ordinal, ordinal_to_period


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 42
    n_assets: int = 50
    n_months: int = 120
    start_month: str = "1990-01"
    fraction_nyse: float = 0.4

    base_return: float = 0.008
    market_vol: float = 0.04
    beta_mean: float = 1.0
    beta_sd: float = 0.2
    idio_vol: float = 0.05
    mom_spread: float = 0.0
    val_spread: float = 0.0
    mom_spread_small_only: bool = False

    missing_ret_rate: float = 0.0
    missing_fundamental_rate: float = 0.1
    bm_dispersion: float = 0.6
    fiscal_december_share: float = 0.85

    def validate(self) -> None:
        if self.n_assets < 1 or self.n_months < 1:
            raise DataError("n_assets and n_months must be positive")
        if not 0.0 <= self.fraction_nyse <= 1.0:
            raise DataError("fraction_nyse must lie in [0, 1]")
        for name in ("missing_ret_rate", "missing_fundamental_rate"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise DataError(f"{name} must lie in [0, 1)")


def momentum_rank_scores(returns: np.ndarray, month: int) -> np.ndarray:
    """Rank scores of 12-1 momentum formed at ``month - 1`` (drives month's drift).

    The window covers rows month-13 .. month-3 (eleven returns), matching a
    formation-month rolling 12-skip-1 compound. Scores are (rank - (n+1)/2)/n
    over assets with a complete window, zero for the rest.
    """
    n = returns.shape[1]
    lo, hi = month - 13, month - 3
    if lo < 0:
        return np.zeros(n)
    window = returns[lo:hi + 1]
    growth = np.prod(1.0 + window, axis=0) - 1.0
    complete = ~np.isnan(growth)
    scores = np.zeros(n)
    scores[complete] = rank_scores(growth[complete])
    return scores


def rank_scores(values: np.ndarray) -> np.ndarray:
    """(rank - (n+1)/2)/n rank scores, ascending, stable ties."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    ranks[order] = np.arange(1, len(values) + 1)
    return (ranks - (len(values) + 1) / 2.0) / len(values)


@dataclass
class GeneratedData:
    """In-memory view of one generated dataset (what the CSVs serialize)."""

    config: GeneratorConfig
    periods: list[str]
    assets: list[str]
    returns: np.ndarray          # true returns, no missingness
    observed_returns: np.ndarray  # returns with missing observations
    cap: np.ndarray
    capco: np.ndarray
    nyse: np.ndarray             # per-asset 0/1
    betas: np.ndarray
    value_rank: np.ndarray
    annual_rows: list[tuple]     # (period, asset, seq, pstkrv, pstkl, pstk)


def generate(config: GeneratorConfig) -> GeneratedData:
    config.validate()
    rng = np.random.default_rng(config.seed)
    n, T = config.n_assets, config.n_months
    start = month_ordinal(config.start_month)
    periods = [ordinal_to_period(start + m) for m in range(T)]
    assets = [f"A{k:04d}" for k in range(1, n + 1)]

    nyse = (rng.uniform(size=n) < config.fraction_nyse).astype(float)
    cap0 = np.exp(rng.normal(4.0, 1.5, size=n))
    capco_mult = 1.0 + rng.uniform(0.0, 0.25, size=n)
    betas = rng.normal(config.beta_mean, config.beta_sd, size=n)
    value_trait = rng.normal(0.0, 1.0, size=n)
    value_rank = rank_scores(value_trait)
    fiscal_month = np.where(
        rng.uniform(size=n) < config.fiscal_december_share,
        12,
        rng.choice([3, 6, 9], size=n),
    )

    returns = np.zeros((T, n))
    cap = np.zeros((T, n))
    prev_cap = cap0
    for m in range(T):
        f = rng.normal(0.0, config.market_vol)
        eps = rng.normal(0.0, config.idio_vol, size=n)
        momrank = momentum_rank_scores(returns, m)
        if config.mom_spread_small_only:
            gate = (prev_cap <= np.median(prev_cap)).astype(float)
        else:
            gate = np.ones(n)
        r = (config.base_return + betas * f
             + config.mom_spread * momrank * gate
             + config.val_spread * value_rank
             + eps)
        r = np.maximum(r, -0.95)  # keep market equity positive
        returns[m] = r
        cap[m] = prev_cap * (1.0 + r)
        prev_cap = cap[m]
    capco = cap * capco_mult[None, :]

    observed = returns.copy()
    if config.missing_ret_rate > 0:
        holes = rng.uniform(size=(T, n)) < config.missing_ret_rate
        observed[holes] = np.nan

    # fundamentals: book equity tied to the persistent value trait
    annual_rows = []
    for j, asset in enumerate(assets):
        for m in range(T):
            if (start + m) % 12 != fiscal_month[j] - 1:
                continue
            noise = rng.normal(0.0, 0.15)
            seq = 0.6 * capco[m, j] * np.exp(config.bm_dispersion * value_trait[j] + noise)
            if rng.uniform() < config.missing_fundamental_rate:
                seq = np.nan
            pstkrv = 0.08 * seq if (not np.isnan(seq) and rng.uniform() < 0.25) else np.nan
            pstkl = 0.06 * seq if (not np.isnan(seq) and rng.uniform() < 0.20) else np.nan
            pstk = 0.05 * seq if (not np.isnan(seq) and rng.uniform() < 0.30) else np.nan
            annual_rows.append((periods[m], asset, seq, pstkrv, pstkl, pstk))

    return GeneratedData(
        config=config,
        periods=periods,
        assets=assets,
        returns=returns,
        observed_returns=observed,
        cap=cap,
        capco=capco,
        nyse=nyse,
        betas=betas,
        value_rank=value_rank,
        annual_rows=annual_rows,
    )


def _fields(values: np.ndarray) -> list[str]:
    """Floats as CSV fields: the repr of each value, "" where it is NaN."""
    fields = np.array(list(map(repr, values.tolist())), dtype=object)
    fields[np.isnan(values)] = ""
    return fields.tolist()


def _write_rows(path: Path, header: str, *columns) -> None:
    """Write ``header`` and one comma-joined row per position of the columns."""
    row = ",".join(["{}"] * len(columns))
    path.write_text("\n".join([header, *map(row.format, *columns)]) + "\n")


def generate_synthetic(config: GeneratorConfig, out_dir) -> list[Path]:
    """Write ``monthly.csv`` and ``annual.csv`` for a config; returns the paths.

    Rows are date-major in ``monthly.csv`` and asset-major in ``annual.csv``.
    """
    data = generate(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    monthly_path = out / "monthly.csv"
    n_months, n_assets = len(data.periods), len(data.assets)
    _write_rows(monthly_path, "date,asset_id,ret,cap,capco,exchange_nyse",
                np.repeat(data.periods, n_assets).tolist(),
                np.tile(data.assets, n_months).tolist(),
                *(_fields(grid.ravel()) for grid in (data.observed_returns, data.cap,
                                                     data.capco)),
                np.tile(data.nyse.astype(np.int64), n_months).tolist())

    annual_path = out / "annual.csv"
    rows = data.annual_rows
    values = np.array([row[2:] for row in rows], dtype=np.float64).reshape(-1, 4)
    _write_rows(annual_path, "fiscal_end,asset_id,seq,pstkrv,pstkl,pstk",
                [row[0] for row in rows], [row[1] for row in rows],
                *(_fields(column) for column in values.T))
    return [monthly_path, annual_path]
