"""CSV ingestion of security-monthly and fundamental-annual tables.

The monthly file carries returns, security and company market equity, and an
NYSE listing flag; the annual file carries accounting fundamentals placed at
fiscal-year-end months. Ingestion screens anomalous values (negative market
equity, returns at or below -100%) into missing cells and counts the
removals. Delisting-return and share-class conventions are assumed to be
already reflected in the input files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .panel import DateIndex, Panel, month_ordinal
from .transforms import align_panels, annual_to_monthly

MONTHLY_HEADER = ["date", "asset_id", "ret", "cap", "capco", "exchange_nyse"]
ANNUAL_KEY_COLUMNS = ["fiscal_end", "asset_id"]
ANNUAL_CORE_COLUMNS = ["seq", "pstkrv", "pstkl", "pstk"]


@dataclass
class IngestResult:
    """Panels produced by one ingestion pass plus screening diagnostics."""

    panels: dict[str, Panel]
    n_rows: int = 0
    removed: dict[str, int] = field(default_factory=dict)
    skipped_rows: int = 0


def _parse_cell(raw: str, lineno: int, column: str, path) -> float:
    raw = raw.strip()
    if raw == "":
        return np.nan
    try:
        return float(raw)
    except ValueError:
        raise DataError(f"{path} line {lineno}: bad {column} value {raw!r}") from None


def ingest_monthly(csv_path) -> IngestResult:
    """Read a security-monthly CSV into RET, CAP, CAPCO, and NYSE source panels.

    Screens: cap or capco below zero and ret <= -1 become missing, counted per
    column. Malformed rows and duplicate (date, asset) keys are errors.
    """
    path = Path(csv_path)
    rows = []
    seen = set()
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MONTHLY_HEADER:
            raise DataError(f"{path}: expected header {','.join(MONTHLY_HEADER)}")
        for lineno, parts in enumerate(reader, start=2):
            if not parts:
                continue
            if len(parts) != len(MONTHLY_HEADER):
                raise DataError(f"{path} line {lineno}: expected {len(MONTHLY_HEADER)} fields")
            date, asset = parts[0].strip(), parts[1].strip()
            ordinal = month_ordinal(date)
            if not asset:
                raise DataError(f"{path} line {lineno}: empty asset_id")
            key = (ordinal, asset)
            if key in seen:
                raise DataError(f"{path} line {lineno}: duplicate key ({date},{asset})")
            seen.add(key)
            ret = _parse_cell(parts[2], lineno, "ret", path)
            cap = _parse_cell(parts[3], lineno, "cap", path)
            capco = _parse_cell(parts[4], lineno, "capco", path)
            nyse = _parse_cell(parts[5], lineno, "exchange_nyse", path)
            if not np.isnan(nyse) and nyse not in (0.0, 1.0):
                raise DataError(f"{path} line {lineno}: exchange_nyse must be 0 or 1")
            rows.append((ordinal, asset, ret, cap, capco, nyse))

    ordinals = sorted({r[0] for r in rows})
    assets = sorted({r[1] for r in rows})
    dates = DateIndex.from_ordinals(ordinals)
    pos_d = {o: i for i, o in enumerate(ordinals)}
    pos_a = {a: j for j, a in enumerate(assets)}

    grids = {name: np.full((len(dates), len(assets)), np.nan)
             for name in ("RET", "CAP", "CAPCO", "NYSE")}
    removed = {"ret": 0, "cap": 0, "capco": 0}
    for ordinal, asset, ret, cap, capco, nyse in rows:
        i, j = pos_d[ordinal], pos_a[asset]
        if not np.isnan(ret) and ret <= -1.0:
            removed["ret"] += 1
            ret = np.nan
        if not np.isnan(cap) and cap < 0:
            removed["cap"] += 1
            cap = np.nan
        if not np.isnan(capco) and capco < 0:
            removed["capco"] += 1
            capco = np.nan
        grids["RET"][i, j] = ret
        grids["CAP"][i, j] = cap
        grids["CAPCO"][i, j] = capco
        grids["NYSE"][i, j] = nyse

    panels = {
        name: Panel.source(name, dates, assets, grid, params={"file": path.name})
        for name, grid in grids.items()
    }
    return IngestResult(panels=panels, n_rows=len(rows), removed=removed)


def ingest_annual(csv_path, frame: tuple[DateIndex, tuple[str, ...]] | None = None) -> IngestResult:
    """Read a fundamental-annual CSV into one panel per column.

    Values sit at the fiscal_end month; downstream timing goes through
    annual_to_monthly. When a (dates, assets) frame from the monthly file is
    given, observations outside it are skipped and counted; otherwise the
    frame comes from the file itself.
    """
    path = Path(csv_path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ANNUAL_KEY_COLUMNS:
            raise DataError(f"{path}: expected columns fiscal_end,asset_id,...")
        columns = [h.strip() for h in header[2:]]
        if not columns:
            raise DataError(f"{path}: no fundamental columns")
        rows = []
        seen = set()
        for lineno, parts in enumerate(reader, start=2):
            if not parts:
                continue
            if len(parts) != len(header):
                raise DataError(f"{path} line {lineno}: expected {len(header)} fields")
            date, asset = parts[0].strip(), parts[1].strip()
            ordinal = month_ordinal(date)
            key = (ordinal, asset)
            if key in seen:
                raise DataError(f"{path} line {lineno}: duplicate key ({date},{asset})")
            seen.add(key)
            cells = [_parse_cell(raw, lineno, col, path)
                     for raw, col in zip(parts[2:], columns)]
            rows.append((ordinal, asset, cells))

    skipped = 0
    if frame is not None:
        dates, assets = frame
        assets = tuple(assets)
    else:
        dates = DateIndex.from_ordinals(sorted({r[0] for r in rows}))
        assets = tuple(sorted({r[1] for r in rows}))
    pos_a = {a: j for j, a in enumerate(assets)}

    grids = {col: np.full((len(dates), len(assets)), np.nan) for col in columns}
    for ordinal, asset, cells in rows:
        i = dates.position(ordinal)
        j = pos_a.get(asset)
        if i is None or j is None:
            skipped += 1
            continue
        for col, value in zip(columns, cells):
            grids[col][i, j] = value

    panels = {
        col.upper(): Panel.source(col.upper(), dates, assets, grid,
                                  params={"file": path.name, "column": col})
        for col, grid in grids.items()
    }
    return IngestResult(panels=panels, n_rows=len(rows), skipped_rows=skipped)


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
    december = np.full_like(gbe, np.nan)
    for i, o in enumerate(dates.ordinals):
        if int(o) % 12 != 11:
            continue
        capco_row = gcapco[i]
        # latest fiscal-year-end value in the 12 months ending this December
        latest = np.full(len(assets), np.nan)
        for row in gbe[dates.rows_between(int(o) - 11, int(o) + 1)]:
            fresh = ~np.isnan(row)
            latest[fresh] = row[fresh]
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = latest / capco_row
            ratio[np.isnan(capco_row) | (capco_row <= 0)] = np.nan
        december[i] = ratio

    placed = Panel.derive("book_to_market_december", {}, [be, capco],
                          dates, assets, december)
    shifted = annual_to_monthly(placed, placement_month=12, offset=6, valid_months=12)
    return Panel.derive("book_to_market", {}, [be, capco],
                        dates, assets, shifted.values)
