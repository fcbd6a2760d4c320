"""CSV ingestion of security-monthly and fundamental-annual tables.

The monthly file carries returns, security and company market equity, and an
NYSE listing flag; the annual file carries accounting fundamentals placed at
fiscal-year-end months. Ingestion screens anomalous values (negative market
equity, returns at or below -100%) into missing cells and counts the
removals. Delisting-return and share-class conventions are assumed to be
already reflected in the input files. ``read_table`` is the one reader of
these CSVs; a name that would drop data or escape a file is a ``DataError``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError
from .panel import DateIndex, Panel, is_panel_id, month_ordinal, reframe
from .transforms import align_panels, annual_to_monthly, window_steps

MONTHLY_HEADER = ["date", "asset_id", "ret", "cap", "capco", "exchange_nyse"]
MONTHLY_PANELS = ("RET", "CAP", "CAPCO", "NYSE")  # one per value column of MONTHLY_HEADER
ANNUAL_KEY_COLUMNS = ["fiscal_end", "asset_id"]
# an asset id with these cannot be written: a CSV field holds the first four only
# when quoted, and the csv module of Python 3.10 refuses a NUL anywhere
_UNWRITABLE = frozenset(',"\r\n\0')
READ_BATCH = 500  # rows of text alive at once in read_table; below the gen-0 threshold of 700


class Table(NamedTuple):
    """Sorted periods x sorted asset ids of a keyed CSV, with one grid per value column
    (NaN where a cell has no row or a blank field) and ``keyed``, the cells with a row."""

    dates: DateIndex
    assets: tuple[str, ...]
    grids: dict[str, np.ndarray]
    keyed: np.ndarray


def read_table(path, keys: Sequence[str], columns: Sequence[str] | None = None) -> Table:
    """Parse a "period, asset, values..." CSV batch by batch.

    Header fields are compared stripped. With ``columns`` the header must be
    exactly ``keys + columns``; without, every field after the keys is a value
    column, and no field may repeat. A leading byte-order mark is dropped, blank
    lines are skipped, keys are stripped, values follow Python ``float`` and a
    blank value is missing. A bad row width, period or number, an asset id that
    is empty, needs CSV quoting or holds a NUL, or a duplicate key raises
    ``DataError`` naming the line. Of several defects the first kind in that
    order is raised, at its first line; a bad number is named in the first value
    column, in header order, that holds one.

    Rows are taken from the CSV reader ``READ_BATCH`` at a time. A batch's key
    fields become int codes through running dicts, in order of first sight, and
    its value fields one (rows x values) float64 block; then its strings die, so
    the text of one batch is alive at a time, not the file's. The codes and
    blocks are concatenated once, at the end. A row list is a garbage-collected
    container, and a batch below the collector's first-generation threshold dies
    young, so no collection rescans the rows of earlier batches.
    """
    path, keys = Path(path), list(keys)
    empty = np.empty(0, np.int64)
    labels, codes = ({}, {}), ([empty], [empty])  # each key field's strings -> code, its codes
    blocks, numbered, bad = [], [empty], {}  # float blocks, non-blank record numbers, bad numbers
    misfit = None  # the record number of the first row of the wrong width
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, skipinitialspace=True)
            header = [h.strip() for h in next(reader, [])]
            expected = keys + list(columns or ["..."])
            fits = (header == expected if columns is not None
                    else header[:len(keys)] == keys and len(header) > len(keys))
            repeated = [name for k, name in enumerate(header) if name in header[:k]]
            records = 0
            while batch := list(islice(reader, READ_BATCH)):
                start, records = records, records + len(batch)
                if fits and not repeated and misfit is None:  # else read on for a read error
                    width = np.fromiter(map(len, batch), np.int64, len(batch))
                    rows = np.flatnonzero(width) + start
                    wrong = np.flatnonzero(width[width > 0] != len(header))
                    if wrong.size:
                        misfit = rows[wrong[0]]
                        continue
                    numbered.append(rows)
                    fields = np.fromiter(chain.from_iterable(batch), object,
                                         rows.size * len(header)).reshape(-1, len(header))
                    for known, code, column in zip(labels, codes, fields.T):
                        for label in dict.fromkeys(column := column.tolist()):
                            known.setdefault(label, len(known))
                        code.append(np.fromiter(map(known.__getitem__, column), np.int64,
                                                len(column)))
                    blocks.append(_numbers(fields[:, len(keys):], rows, bad))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: cannot read: {exc}") from exc
    if not fits:
        raise DataError(f"{path}: expected header {','.join(expected)}")
    if repeated:
        raise DataError(f"{path}: column {repeated[0]!r} appears twice in the header")
    if misfit is not None:
        raise DataError(f"{_where(path, misfit)}: expected {len(header)} fields")
    numbered = np.concatenate(numbered)
    periods, asset_ids = (list(known) for known in labels)
    period_code, asset_code = map(np.concatenate, codes)
    ordinals = np.zeros(len(periods), dtype=np.int64)
    for k, label in enumerate(periods):  # in file order: the earliest bad line is named
        try:
            ordinals[k] = month_ordinal(label.strip())
        except DataError as exc:
            first = numbered[np.argmax(period_code == k)]
            raise DataError(f"{_where(path, first)}: {exc}") from None
    dates, row = np.unique(ordinals, return_inverse=True)
    row = row[period_code]
    stripped = [label.strip() for label in asset_ids]
    assets = sorted(set(stripped))
    position = {asset: j for j, asset in enumerate(assets)}
    col = np.array([position[asset] for asset in stripped], dtype=np.int64)[asset_code]
    if assets[:1] == [""]:
        raise DataError(f"{_where(path, numbered[np.argmax(col == 0)])}: empty {keys[1]}")
    unwritable = [j for j, a in enumerate(assets) if not _UNWRITABLE.isdisjoint(a)]
    if unwritable:  # the CSV export writes asset ids unquoted
        k = np.argmax(np.isin(col, unwritable))
        raise DataError(f"{_where(path, numbered[k])}: {keys[1]} {assets[col[k]]!r} "
                        f"holds a comma, quote or line break, or a NUL")

    keyed = np.zeros((len(dates), len(assets)), dtype=bool)
    keyed[row, col] = True
    if np.count_nonzero(keyed) < len(row):  # a key repeats: name its second record
        flat = row * len(assets) + col
        order = np.argsort(flat, kind="stable")
        k = order[1:][np.diff(flat[order]) == 0].min()
        raise DataError(f"{_where(path, numbered[k])}: duplicate key "
                        f"({periods[period_code[k]].strip()},{stripped[asset_code[k]]})")
    if bad:  # the first value column in header order that holds one, at its first line
        j = min(bad)
        raise DataError(f"{_where(path, bad[j][0])}: bad number {bad[j][1]!r} "
                        f"in column {header[len(keys) + j]}")
    values = np.concatenate([np.empty((0, len(header) - len(keys))), *blocks])
    grids = {}
    for name, value in zip(header[len(keys):], values.T):
        grids[name] = np.full(keyed.shape, np.nan)
        grids[name][row, col] = value
    return Table(DateIndex.from_ordinals(dates.tolist()), tuple(assets), grids, keyed)


def _where(path: Path, record: int) -> str:
    """``<path> line <n>`` for record number ``record`` (0 is the first after the
    header). A quoted field may span lines, so only a new read of the file finds
    the line; errors alone need it."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, skipinitialspace=True)
        for _ in range(int(record) + 1):  # the header and the records before
            next(reader)
        return f"{path} line {reader.line_num + 1}"


def _numbers(raw: np.ndarray, records: np.ndarray, bad: dict[int, tuple[int, str]]) -> np.ndarray:
    """A batch's (rows x value columns) object array of field strings as float64;
    a blank field is NaN. A bad number is NaN too, and the first one of each
    column goes into ``bad`` as column index -> (record number, stripped text)."""
    raw[raw == ""] = "nan"
    try:
        return raw.astype(np.float64)  # numpy applies Python's float() to each string
    except ValueError:
        pass
    for j, column in enumerate(raw.T):  # rare: a field of tabs, or a bad number
        for r, text in enumerate(column.tolist()):
            try:
                float(text)
            except ValueError:
                if not text.isspace():
                    bad.setdefault(j, (records[r], text.strip()))
                column[r] = "nan"
    return raw.astype(np.float64)


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
    column. A file without data rows, malformed rows, duplicate (date, asset)
    keys and an exchange_nyse other than 0 or 1 are errors.
    """
    table = read_table(csv_path, MONTHLY_HEADER[:2], MONTHLY_HEADER[2:])
    if not table.assets:  # every panel and the frame of the annual file come from these rows
        raise DataError(f"{csv_path}: no data rows")
    ret, cap, capco, nyse = (table.grids[c] for c in MONTHLY_HEADER[2:])
    odd = ~np.isnan(nyse) & (nyse != 0.0) & (nyse != 1.0)
    if odd.any():
        i, j = np.argwhere(odd)[0]  # the first cell in date-major order
        raise DataError(f"{csv_path}: exchange_nyse must be 0 or 1, "
                        f"cell ({table.dates[i]},{table.assets[j]})")
    removed = {}
    for column, screened in (("ret", ret <= -1.0), ("cap", cap < 0), ("capco", capco < 0)):
        removed[column] = int(np.count_nonzero(screened))
        table.grids[column][screened] = np.nan
    panels = {name: Panel.source(name, table.dates, table.assets, table.grids[column],
                                 params={"file": Path(csv_path).name})
              for name, column in zip(MONTHLY_PANELS, MONTHLY_HEADER[2:])}
    return IngestResult(panels=panels, n_rows=int(np.count_nonzero(table.keyed)),
                        removed=removed)


def ingest_annual(csv_path, frame: tuple[DateIndex, tuple[str, ...]] | None = None) -> IngestResult:
    """Read a fundamental-annual CSV into one panel per column.

    Values sit at the fiscal_end month; downstream timing goes through
    annual_to_monthly. When a (dates, assets) frame from the monthly file is
    given, observations outside it are skipped and counted; otherwise the
    frame comes from the file itself. A column's upper-cased name must be a free panel id.
    """
    table = read_table(csv_path, ANNUAL_KEY_COLUMNS)
    taken = set(MONTHLY_PANELS)
    for col in table.grids:
        if col.upper() in taken:
            raise DataError(f"{csv_path}: column {col!r} would replace the panel {col.upper()}")
        if not is_panel_id(col.upper()):
            raise DataError(f"{csv_path}: column {col!r} is not a panel id")
        taken.add(col.upper())
    dates, assets = frame or (table.dates, table.assets)
    panels = {
        col.upper(): Panel.source(
            col.upper(), dates, assets,
            reframe(grid, table.dates, dates, table.assets, assets),
            params={"file": Path(csv_path).name, "column": col})
        for col, grid in table.grids.items()
    }
    framed = set(assets)  # np.isin of strings would import numpy.ma through np.unique
    inside = np.outer(np.isin(table.dates.ordinals, dates.ordinals),
                      np.array([asset in framed for asset in table.assets], dtype=bool))
    return IngestResult(panels=panels, n_rows=int(np.count_nonzero(table.keyed)),
                        skipped_rows=int(np.count_nonzero(table.keyed & ~inside)))


def ingest_dataset(monthly_csv, annual_csv) -> IngestResult:
    """Ingest both files onto the common monthly frame."""
    monthly = ingest_monthly(monthly_csv)
    some_panel = next(iter(monthly.panels.values()))
    annual = ingest_annual(annual_csv, frame=(some_panel.dates, some_panel.assets))
    return IngestResult(panels={**monthly.panels, **annual.panels},
                        n_rows=monthly.n_rows + annual.n_rows,
                        removed=monthly.removed, skipped_rows=annual.skipped_rows)


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
