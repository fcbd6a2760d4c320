from __future__ import annotations

import io
import pickle
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
    """Record the file name of every saved grid that ``panel.read_grid`` reads
    from now on, each read held ``delay`` seconds first so that threads overlap."""
    reads, real = [], panelio.read_grid

    def counted(path, *args, **kwargs):
        reads.append(Path(path).name)
        time.sleep(delay)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(panelio, "read_grid", counted)
    return reads


def npy_bytes(array, **kwargs) -> bytes:
    """The bytes ``np.save`` writes for ``array``."""
    buffer = io.BytesIO()
    np.save(buffer, array, **kwargs)
    return buffer.getvalue()


def npz_bytes(array) -> bytes:
    """The bytes ``np.savez`` writes for ``array`` alone."""
    buffer = io.BytesIO()
    np.savez(buffer, grid=array)
    return buffer.getvalue()


def _rewrite(change):  # rewrite a saved grid as change(grid)
    return lambda path: path.write_bytes(change(np.load(path)))


# the ways a saved <id>.npy can be broken: name -> (break the file at a path,
# text that the DataError naming the file carries)
STORE_CORRUPTIONS = {
    "missing": (Path.unlink, "missing file"),
    "truncated": (lambda path: path.write_bytes(path.read_bytes()[:-4]),
                  "cannot read: Failed to read all data"),
    "empty": (lambda path: path.write_bytes(b""), "cannot read: No data left"),
    "pickled": (_rewrite(pickle.dumps), "cannot read: This file contains pickled"),
    "object": (_rewrite(lambda grid: npy_bytes(grid.astype(object), allow_pickle=True)),
               "cannot read: Object arrays cannot be loaded"),
    "npz": (_rewrite(npz_bytes), "cannot read: not a .npy array"),
    ">f8": (_rewrite(lambda grid: npy_bytes(grid.astype(">f8"))),
            "dtype >f8 is not native float64"),
    "float32": (_rewrite(lambda grid: npy_bytes(grid.astype(np.float32))),
                "dtype <f4 is not native float64"),
    "wrong_shape": (_rewrite(lambda grid: npy_bytes(np.vstack([grid, grid[:1]]))),
                    "does not match the"),
}


@pytest.fixture(scope="session")
def synthetic_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthetic")
    generate_synthetic(ORACLE_CONFIG, out)
    return out


@pytest.fixture(scope="session")
def source_panels(synthetic_dir):
    result = ingest_dataset(synthetic_dir / "monthly.csv", synthetic_dir / "annual.csv")
    return result.panels
