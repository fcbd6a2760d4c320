"""CSV ingestion of security-monthly and fundamental-annual tables.

The monthly file carries returns, security and company market equity, and an
NYSE listing flag; the annual file carries accounting fundamentals placed at
fiscal-year-end months. Ingestion screens anomalous values (negative market
equity, returns at or below -100%) into missing cells and counts the
removals. Delisting-return and share-class conventions are assumed to be
already reflected in the input files.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .panel import DateIndex, Panel, read_table, reframe
from .transforms import align_panels, annual_to_monthly, window_steps

MONTHLY_HEADER = ["date", "asset_id", "ret", "cap", "capco", "exchange_nyse"]
ANNUAL_KEY_COLUMNS = ["fiscal_end", "asset_id"]


@dataclass
class IngestResult:
    """Panels produced by one ingestion pass plus screening diagnostics."""

    panels: dict[str, Panel]
    n_rows: int = 0
    removed: dict[str, int] = field(default_factory=dict)
    skipped_rows: int = 0


def ingest_monthly(csv_path) -> IngestResult:
    """Read a security-monthly CSV into RET, CAP, CAPCO, and NYSE source panels.

    Screens: cap or capco below zero and ret <= -1 become missing, counted per
    column. Malformed rows, duplicate (date, asset) keys and an exchange_nyse
    other than 0 or 1 are errors.
    """
    table = read_table(csv_path, MONTHLY_HEADER[:2], MONTHLY_HEADER[2:])
    ret, cap, capco, nyse = (table.grids[c] for c in MONTHLY_HEADER[2:])
    odd = ~np.isnan(nyse) & (nyse != 0.0) & (nyse != 1.0)
    if odd.any():
        raise DataError(
            f"{table.path}: exchange_nyse must be 0 or 1, cell {table.first_cell(odd)}")
    removed = {}
    for column, screened in (("ret", ret <= -1.0), ("cap", cap < 0), ("capco", capco < 0)):
        removed[column] = int(np.count_nonzero(screened))
        table.grids[column][screened] = np.nan
    panels = {name: Panel.source(name, table.dates, table.assets, table.grids[column],
                                 params={"file": table.path.name})
              for name, column in zip(("RET", "CAP", "CAPCO", "NYSE"), MONTHLY_HEADER[2:])}
    return IngestResult(panels=panels, n_rows=int(np.count_nonzero(table.keyed)),
                        removed=removed)


def ingest_annual(csv_path, frame: tuple[DateIndex, tuple[str, ...]] | None = None) -> IngestResult:
    """Read a fundamental-annual CSV into one panel per column.

    Values sit at the fiscal_end month; downstream timing goes through
    annual_to_monthly. When a (dates, assets) frame from the monthly file is
    given, observations outside it are skipped and counted; otherwise the
    frame comes from the file itself.
    """
    table = read_table(csv_path, ANNUAL_KEY_COLUMNS)
    dates, assets = frame or (table.dates, table.assets)
    panels = {
        col.upper(): Panel.source(
            col.upper(), dates, assets,
            reframe(grid, table.dates, dates, table.assets, assets),
            params={"file": table.path.name, "column": col})
        for col, grid in table.grids.items()
    }
    return IngestResult(panels=panels, n_rows=int(np.count_nonzero(table.keyed)),
                        skipped_rows=int(np.count_nonzero(table.outside(dates, assets))))


def ingest_dataset(monthly_csv, annual_csv) -> IngestResult:
    """Ingest both files onto the common monthly frame."""
    monthly = ingest_monthly(monthly_csv)
    some_panel = next(iter(monthly.panels.values()))
    annual = ingest_annual(annual_csv, frame=(some_panel.dates, some_panel.assets))
    panels = dict(monthly.panels)
    panels.update(annual.panels)
    return IngestResult(
        panels=panels,
        n_rows=monthly.n_rows + annual.n_rows,
        removed=monthly.removed,
        skipped_rows=annual.skipped_rows,
    )


def book_equity(seq: Panel, pstkrv: Panel, pstkl: Panel, pstk: Panel) -> Panel:
    """Stockholder equity minus preferred stock (redemption, liquidation, or
    par value, in that preference order; zero when all three are absent).

    Missing seq means missing book equity; non-positive book equity is
    screened to missing.
    """
    dates, assets, (gseq, grv, glq, gpar) = align_panels(seq, pstkrv, pstkl, pstk)
    preferred = grv.copy()
    hole = np.isnan(preferred)
    preferred[hole] = glq[hole]
    hole = np.isnan(preferred)
    preferred[hole] = gpar[hole]
    preferred[np.isnan(preferred)] = 0.0
    be = gseq - preferred
    be[~np.isnan(be) & (be <= 0)] = np.nan
    return Panel.derive("book_equity", {}, [seq, pstkrv, pstkl, pstk],
                        dates, assets, be)


def book_to_market(be: Panel, capco: Panel) -> Panel:
    """June-usable book-to-market equity.

    At each December, the most recent book equity with a fiscal end in the
    twelve months ending that December is divided by company market equity at
    that December; the ratio becomes usable for the twelve months starting
    the following June. Non-positive company market equity is screened out.
    """
    dates, assets, (gbe, gcapco) = align_panels(be, capco)
    # the latest fiscal-year-end value in the 12 months ending each December
    decembers = np.flatnonzero(dates.ordinals % 12 == 11)
    lo, hi = dates.window_rows(-11, 1)
    latest = np.full((len(decembers), len(assets)), np.nan)
    for rows in window_steps(gbe, lo[decembers], hi[decembers]):
        np.copyto(latest, rows, where=~np.isnan(rows))
    capco_rows = gcapco[decembers]
    december = np.full_like(gbe, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        december[decembers] = np.where(capco_rows > 0, latest / capco_rows, np.nan)

    placed = Panel.derive("book_to_market_december", {}, [be, capco],
                          dates, assets, december)
    shifted = annual_to_monthly(placed, placement_month=12, offset=6, valid_months=12)
    return Panel.derive("book_to_market", {}, [be, capco],
                        dates, assets, shifted.values)
