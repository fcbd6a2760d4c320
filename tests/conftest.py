from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from factorlab import panel as panelio
from factorlab.ingest import ingest_dataset
from factorlab.panel import SERIES_ASSET, DateIndex, Panel, reframe
from factorlab.synthetic import GeneratorConfig, generate_synthetic

# the oracle-equivalence dataset: seed 42, 50 assets, 120 months, 40% NYSE,
# with planted spreads and sparse missing returns to exercise renormalization
ORACLE_CONFIG = GeneratorConfig(
    seed=42,
    n_assets=50,
    n_months=120,
    start_month="1990-01",
    fraction_nyse=0.4,
    mom_spread=0.002,
    val_spread=0.003,
    missing_ret_rate=0.02,
)


def make_panel(panel_id, periods, assets, rows) -> Panel:
    grid = np.array(
        [[np.nan if v is None else float(v) for v in row] for row in rows]
    )
    return Panel.source(panel_id, DateIndex(periods), tuple(assets), grid)


def value_equal(a: Panel, b: Panel) -> bool:
    """Exact equality of frame, missing mask, and non-missing values."""
    if a.dates != b.dates or a.assets != b.assets:
        return False
    x, y = a.values, b.values
    return bool(
        np.array_equal(np.isnan(x), np.isnan(y))
        and np.array_equal(x[~np.isnan(x)], y[~np.isnan(y)])
    )


def cell(p: Panel, period: str, asset: str) -> float:
    """The value of one (period, asset) cell; NaN when the frame lacks it."""
    return float(reframe(p.values, p.dates, DateIndex([period]), p.assets, (asset,))[0, 0])


def nonmissing_cells(p: Panel) -> dict:
    """A panel's non-missing values keyed as the oracles key them: by month
    ordinal for a series, by (month ordinal, asset) otherwise."""
    rows, cols = np.nonzero(~np.isnan(p.values))
    months = p.dates.ordinals[rows].tolist()
    keys = months if p.assets == (SERIES_ASSET,) else zip(months, (p.assets[j] for j in cols))
    return dict(zip(keys, p.values[rows, cols].tolist()))


def month_rows(dates: DateIndex) -> dict[int, int]:
    """Row of each month ordinal in ``dates``: the per-month lookup the
    vectorized row maps are checked against."""
    return {int(o): i for i, o in enumerate(dates.ordinals)}


def count_reads(monkeypatch, delay: float = 0.0) -> list[str]:
    """Record the file name of every CSV that ``panel.read_table`` parses from
    now on, each read held ``delay`` seconds first so that threads overlap."""
    reads, real = [], panelio.read_table

    def counted(path, *args, **kwargs):
        reads.append(Path(path).name)
        time.sleep(delay)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(panelio, "read_table", counted)
    return reads


@pytest.fixture(scope="session")
def synthetic_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthetic")
    generate_synthetic(ORACLE_CONFIG, out)
    return out


@pytest.fixture(scope="session")
def source_panels(synthetic_dir):
    result = ingest_dataset(synthetic_dir / "monthly.csv", synthetic_dir / "annual.csv")
    return result.panels
