from __future__ import annotations

import csv
import re
from pathlib import Path

import numpy as np
import pytest

from factorlab import panel as panelio
from factorlab.errors import DataError
from factorlab.ingest import (
    MONTHLY_HEADER,
    READ_BATCH,
    IngestResult,
    book_equity,
    book_to_market,
    ingest_annual,
    ingest_monthly,
)
from factorlab.panel import DateIndex, Panel, month_ordinal
from factorlab.transforms import align_panels
from factorlab.synthetic import GeneratorConfig, generate_synthetic

from .conftest import cell, make_panel, month_rows, value_equal


def write_monthly(path, rows):
    lines = ["date,asset_id,ret,cap,capco,exchange_nyse"] + rows
    path.write_text("\n".join(lines) + "\n")


def write_annual(path, rows, header="fiscal_end,asset_id,seq,pstkrv,pstkl,pstk"):
    path.write_text("\n".join([header] + rows) + "\n")


class TestIngestMonthly:
    def test_clean_file(self, tmp_path):
        f = tmp_path / "m.csv"
        write_monthly(f, [
            "1990-01,a,0.01,10,11,1",
            "1990-01,b,0.02,20,22,0",
            "1990-02,a,0.03,10,11,1",
            "1990-02,b,0.01,20,22,0",
            "1990-03,a,0.00,10,11,1",
            "1990-03,b,-0.02,20,22,0",
        ])
        result = ingest_monthly(f)
        ret = result.panels["RET"]
        assert ret.n_dates == 3 and ret.n_assets == 2
        assert ret.n_nonmissing() == 6
        assert result.removed == {"ret": 0, "cap": 0, "capco": 0}

    def test_negative_cap_screened(self, tmp_path):
        f = tmp_path / "m.csv"
        write_monthly(f, ["1990-01,a,0.01,-5,11,1"])
        result = ingest_monthly(f)
        assert np.isnan(result.panels["CAP"].values[0, 0])
        assert result.removed["cap"] == 1

    def test_return_at_minus_one_screened(self, tmp_path):
        f = tmp_path / "m.csv"
        write_monthly(f, ["1990-01,a,-1.0,5,5,1"])
        result = ingest_monthly(f)
        assert np.isnan(result.panels["RET"].values[0, 0])
        assert result.removed["ret"] == 1

    def test_duplicate_key_names_the_key(self, tmp_path):
        f = tmp_path / "m.csv"
        write_monthly(f, ["1990-01,a,0.01,5,5,1", "1990-01,a,0.02,6,6,1"])
        with pytest.raises(DataError, match=r"1990-01,a"):
            ingest_monthly(f)

    def test_malformed_row_reports_line(self, tmp_path):
        f = tmp_path / "m.csv"
        write_monthly(f, ["1990-01,a,xyz,5,5,1"])
        with pytest.raises(DataError, match="line 2"):
            ingest_monthly(f)

    def test_round_trips_through_save_load(self, tmp_path):
        f = tmp_path / "m.csv"
        write_monthly(f, ["1990-01,a,0.01,10,11,1", "1990-02,a,,10,11,1"])
        result = ingest_monthly(f)
        for panel in result.panels.values():
            panelio.save(panel, tmp_path / "panels")
            assert value_equal(panelio.load(tmp_path / "panels", panel.panel_id), panel)


    def test_wrong_width_names_the_line(self, tmp_path):
        f = tmp_path / "m.csv"
        write_monthly(f, ["1990-01,a,0.01,5,5,1", "", "1990-02,a,0.01,5,5"])
        with pytest.raises(DataError, match="line 4: expected 6 fields"):
            ingest_monthly(f)

    def test_bad_period_names_the_line(self, tmp_path):
        f = tmp_path / "m.csv"
        write_monthly(f, ["1990-01,a,0.01,5,5,1", "1990-13,a,0.01,5,5,1", "90-1,a,0,5,5,1"])
        with pytest.raises(DataError, match=r"line 3: bad month in period '1990-13'"):
            ingest_monthly(f)

    def test_empty_asset_names_the_line(self, tmp_path):
        f = tmp_path / "m.csv"
        write_monthly(f, ["1990-01,a,0.01,5,5,1", "1990-01, ,0.01,5,5,1"])
        with pytest.raises(DataError, match="line 3: empty asset_id"):
            ingest_monthly(f)

    def test_exchange_flag_error_names_the_cell(self, tmp_path):
        f = tmp_path / "m.csv"
        write_monthly(f, ["1990-02,b,0.01,5,5,1", "1990-02,a,0.01,5,5,2"])
        with pytest.raises(DataError, match=r"exchange_nyse must be 0 or 1, cell \(1990-02,a\)"):
            ingest_monthly(f)

    @pytest.mark.parametrize("asset", ["A,B", 'A"B', "A\nB", "A\rB"])
    def test_an_asset_id_the_export_cannot_write_names_the_line(self, tmp_path, asset):
        f = tmp_path / "m.csv"
        field = '"' + asset.replace('"', '""') + '"'
        write_monthly(f, ["1990-01,a,0.01,5,5,1", "", f"1990-01,{field},0.01,5,5,1"])
        with pytest.raises(DataError, match=re.escape(
                f"line 4: asset_id {asset!r} holds a comma, quote or line break")):
            ingest_monthly(f)

    def test_an_asset_id_with_a_nul_is_refused(self, tmp_path):
        # Python 3.10's csv refuses the line; 3.11+ reads it and the id check names it
        f = tmp_path / "m.csv"
        write_monthly(f, ["1990-01,a,0.01,5,5,1", "1990-01,a\0b,0.01,5,5,1"])
        with pytest.raises(DataError, match="NUL"):
            ingest_monthly(f)

    def test_a_period_with_a_trailing_nul_is_refused(self, tmp_path):
        # Python 3.10's csv refuses the line; 3.11+ reads it and the period check names it
        f = tmp_path / "m.csv"
        write_monthly(f, ["1990-01,a,0.01,5,5,1", "1990-02\0,a,0.01,5,5,1"])
        with pytest.raises(DataError, match="NUL|bad period"):
            ingest_monthly(f)

    @pytest.mark.parametrize("row, message", [
        ("1990-03,a,xyz,5,5,1", "line 5: bad number 'xyz' in column ret"),
        ("1990-03,a,0.01,5,5", "line 5: expected 6 fields"),
        ("1990-02,a,0.03,5,5,1", r"line 5: duplicate key \(1990-02,a\)"),
    ])
    def test_a_field_spanning_lines_counts_in_the_lines_after_it(self, tmp_path, row, message):
        f = tmp_path / "m.csv"  # line 2 holds "0.01 and a line break, read as 0.01
        write_monthly(f, ['1990-01,a,"0.01', '",5,5,1', "1990-02,a,0.02,5,5,1", row])
        with pytest.raises(DataError, match=message):
            ingest_monthly(f)

    def test_non_utf8_file_is_a_data_error(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_bytes(b"date,asset_id,ret,cap,capco,exchange_nyse\n1990-01,\xff,0,5,5,1\n")
        with pytest.raises(DataError, match="cannot read"):
            ingest_monthly(f)


class TestIngestAnnual:
    def test_placed_at_fiscal_end(self, tmp_path):
        f = tmp_path / "a.csv"
        write_annual(f, ["1990-12,a,100,,,"])
        result = ingest_annual(f)
        seq = result.panels["SEQ"]
        assert cell(seq, "1990-12", "a") == 100.0
        assert seq.n_nonmissing() == 1

    def test_two_fiscal_years(self, tmp_path):
        f = tmp_path / "a.csv"
        write_annual(f, ["1990-12,a,100,,,", "1991-12,a,120,,,"])
        seq = ingest_annual(f).panels["SEQ"]
        assert seq.n_nonmissing() == 2

    def test_missing_cell_stays_missing(self, tmp_path):
        f = tmp_path / "a.csv"
        write_annual(f, ["1990-12,a,100,,5,"])
        result = ingest_annual(f)
        assert np.isnan(result.panels["PSTKRV"].values[0, 0])
        assert result.panels["PSTKL"].values[0, 0] == 5.0

    def test_frame_restriction_skips_outsiders(self, tmp_path):
        f = tmp_path / "a.csv"
        write_annual(f, ["1990-12,a,100,,,", "1990-12,zz,50,,,"])
        frame_panel = make_panel("X", ["1990-11", "1990-12"], ["a"], [[1.0], [1.0]])
        result = ingest_annual(f, frame=(frame_panel.dates, frame_panel.assets))
        assert result.skipped_rows == 1
        assert result.panels["SEQ"].assets == ("a",)


    def test_duplicate_key_names_the_line(self, tmp_path):
        f = tmp_path / "a.csv"
        write_annual(f, ["1990-12,a,100,,,", "1991-12,a,100,,,", "", "1990-12, a ,90,,,"])
        with pytest.raises(DataError, match=r"line 5: duplicate key \(1990-12,a\)"):
            ingest_annual(f)

    @pytest.mark.parametrize("column, message", [
        ("seq", "column 'seq' appears twice in the header"),
        ("asset_id", "column 'asset_id' appears twice in the header"),
        ("SEQ", "column 'SEQ' would replace the panel SEQ"),
        ("cap", "column 'cap' would replace the panel CAP"),
        ("Nyse", "column 'Nyse' would replace the panel NYSE"),
        ("../../escaped", "column '../../escaped' is not a panel id"),
        ("", "column '' is not a panel id"),
    ])
    def test_a_column_that_cannot_be_its_own_panel_is_refused(self, tmp_path, column,
                                                               message):
        f = tmp_path / "a.csv"
        write_annual(f, ["1990-12,a,100,,,"], header=f"fiscal_end,asset_id,seq,pstkrv,pstkl,"
                                                     f"{column}")
        with pytest.raises(DataError, match=re.escape(f"{f}: {message}")):
            ingest_annual(f)


class TestEmptyFiles:
    @pytest.mark.parametrize("rows", [[], ["", ""]], ids=["header_only", "blank_lines"])
    def test_a_monthly_file_without_data_rows_is_refused(self, tmp_path, rows):
        f = tmp_path / "m.csv"
        write_monthly(f, rows)
        with pytest.raises(DataError, match=re.escape(f"{f}: no data rows")):
            ingest_monthly(f)

    def test_an_annual_file_without_data_rows_is_allowed(self, tmp_path):
        f = tmp_path / "a.csv"
        write_annual(f, [])
        result = ingest_annual(f)
        assert (result.n_rows, list(result.panels)) == (0, ["SEQ", "PSTKRV", "PSTKL", "PSTK"])
        assert result.panels["SEQ"].values.shape == (0, 0)


BOM = "\ufeff"  # how a spreadsheet's "CSV UTF-8" starts a file


def assert_same_values(got: IngestResult, want: IngestResult):
    assert list(got.panels) == list(want.panels) and got.n_rows == want.n_rows
    assert all(value_equal(got.panels[name], panel) for name, panel in want.panels.items())


class TestByteOrderMark:
    def test_a_monthly_file_reads_as_without_it(self, tmp_path):
        rows = ["1990-01,a,0.01,10,11,1", "1990-02,a,0.02,10,11,1"]
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_monthly(plain, rows)
        marked.write_text(BOM + plain.read_text(), encoding="utf-8")
        assert_same_values(ingest_monthly(marked), ingest_monthly(plain))
        marked.write_text(BOM + plain.read_text() + "\n1990-03,a,xyz,10,11,1\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 5: bad number 'xyz' in column ret"):
            ingest_monthly(marked)

    def test_an_annual_file_reads_as_without_it(self, tmp_path):
        rows = ["1990-12,a,100,,5,", "1991-12,a,90,1,,"]
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_annual(plain, rows)
        marked.write_text(BOM + plain.read_text(), encoding="utf-8")
        assert_same_values(ingest_annual(marked), ingest_annual(plain))
        marked.write_text(BOM + plain.read_text() + "1990-12,a,80,,,\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"line 4: duplicate key \(1990-12,a\)"):
            ingest_annual(marked)


def clean_rows(n: int) -> list[str]:
    """``n`` monthly rows with distinct keys, ten assets a month."""
    return [f"{1990 + r // 120}-{r // 10 % 12 + 1:02d},a{r % 10},0.01,{r + 1},{r + 2},1"
            for r in range(n)]


class TestReadBatchBoundaries:
    """Each case puts its record ``k`` (0 is the first after the header, on line
    2) just before, at and just after the first batch boundary of the reader."""

    @pytest.mark.parametrize("k", [READ_BATCH - 1, READ_BATCH, READ_BATCH + 1])
    @pytest.mark.parametrize("defect, message", [
        (lambda row: row.rsplit(",", 1)[0], "expected 6 fields"),
        (lambda row: row.replace(",0.01,", ",xyz,"), "bad number 'xyz' in column ret"),
        (lambda row: "1990-01,a0,0.01,5,5,1", r"duplicate key \(1990-01,a0\)"),
    ], ids=["width", "number", "duplicate"])
    def test_an_error_names_its_line(self, tmp_path, k, defect, message):
        rows = clean_rows(READ_BATCH + 3)
        rows[k] = defect(rows[k])
        f = tmp_path / "m.csv"
        write_monthly(f, rows)
        with pytest.raises(DataError, match=f"line {k + 2}: {message}"):
            ingest_monthly(f)

    @pytest.mark.parametrize("k", [READ_BATCH - 1, READ_BATCH, READ_BATCH + 1])
    @pytest.mark.parametrize("spacer, after", [("blank_line", 3), ("spanning_field", 4)])
    def test_a_clean_file_keeps_its_table_and_its_line_count(self, tmp_path, k, spacer, after):
        rows = clean_rows(READ_BATCH + 3)
        if spacer == "blank_line":
            rows.insert(k, "")
        else:  # record k reads ret from "0.01 and a line break"
            rows[k] = rows[k].replace(",0.01,", ',"0.01\n",')
        f = tmp_path / "m.csv"
        write_monthly(f, rows)
        assert_same_result(ingest_monthly(f), reference_ingest_monthly(f))
        rows[k + 1] = rows[k + 1].replace(",0.01,", ",xyz,")  # on line k + after
        write_monthly(f, rows)
        with pytest.raises(DataError, match=f"line {k + after}: bad number 'xyz' in column ret"):
            ingest_monthly(f)


# -- the per-row readers that panel.read_table replaced, kept as references ----------


def _reference_cell(raw: str, lineno: int, column: str, path) -> float:
    raw = raw.strip()
    if raw == "":
        return np.nan
    try:
        return float(raw)
    except ValueError:
        raise DataError(f"{path} line {lineno}: bad {column} value {raw!r}") from None


def reference_ingest_monthly(csv_path) -> IngestResult:
    path = Path(csv_path)
    rows = []
    seen = set()
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader, None) == MONTHLY_HEADER
        for lineno, parts in enumerate(reader, start=2):
            if not parts:
                continue
            assert len(parts) == len(MONTHLY_HEADER)
            date, asset = parts[0].strip(), parts[1].strip()
            ordinal = month_ordinal(date)
            assert asset and (ordinal, asset) not in seen
            seen.add((ordinal, asset))
            cells = [_reference_cell(raw, lineno, col, path)
                     for raw, col in zip(parts[2:], MONTHLY_HEADER[2:])]
            assert np.isnan(cells[3]) or cells[3] in (0.0, 1.0)
            rows.append((ordinal, asset, *cells))

    ordinals = sorted({r[0] for r in rows})
    assets = sorted({r[1] for r in rows})
    dates = DateIndex.from_ordinals(ordinals)
    pos_d = month_rows(dates)
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
    panels = {name: Panel.source(name, dates, assets, grid, params={"file": path.name})
              for name, grid in grids.items()}
    return IngestResult(panels=panels, n_rows=len(rows), removed=removed)


def reference_ingest_annual(csv_path, frame=None) -> IngestResult:
    path = Path(csv_path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns = [h.strip() for h in header[2:]]
        rows = []
        seen = set()
        for lineno, parts in enumerate(reader, start=2):
            if not parts:
                continue
            assert len(parts) == len(header)
            date, asset = parts[0].strip(), parts[1].strip()
            ordinal = month_ordinal(date)
            assert (ordinal, asset) not in seen
            seen.add((ordinal, asset))
            rows.append((ordinal, asset, [_reference_cell(raw, lineno, col, path)
                                          for raw, col in zip(parts[2:], columns)]))
    skipped = 0
    if frame is not None:
        dates, assets = frame[0], tuple(frame[1])
    else:
        dates = DateIndex.from_ordinals(sorted({r[0] for r in rows}))
        assets = tuple(sorted({r[1] for r in rows}))
    pos_d, pos_a = month_rows(dates), {a: j for j, a in enumerate(assets)}
    grids = {col: np.full((len(dates), len(assets)), np.nan) for col in columns}
    for ordinal, asset, cells in rows:
        i = pos_d.get(ordinal)
        j = pos_a.get(asset)
        if i is None or j is None:
            skipped += 1
            continue
        for col, value in zip(columns, cells):
            grids[col][i, j] = value
    panels = {col.upper(): Panel.source(col.upper(), dates, assets, grid,
                                        params={"file": path.name, "column": col})
              for col, grid in grids.items()}
    return IngestResult(panels=panels, n_rows=len(rows), skipped_rows=skipped)


def assert_same_result(got: IngestResult, want: IngestResult):
    assert list(got.panels) == list(want.panels)
    for name, panel in want.panels.items():
        assert value_equal(got.panels[name], panel), name
        assert got.panels[name].provenance == panel.provenance
    assert (got.n_rows, got.removed, got.skipped_rows) == \
        (want.n_rows, want.removed, want.skipped_rows)


def test_column_reader_matches_row_reference_on_oracle_data(synthetic_dir):
    monthly, annual = synthetic_dir / "monthly.csv", synthetic_dir / "annual.csv"
    got = ingest_monthly(monthly)
    assert_same_result(got, reference_ingest_monthly(monthly))
    ret = got.panels["RET"]
    frame = (ret.dates, ret.assets)
    assert_same_result(ingest_annual(annual, frame=frame),
                       reference_ingest_annual(annual, frame=frame))
    assert_same_result(ingest_annual(annual), reference_ingest_annual(annual))


def test_column_reader_matches_row_reference_on_an_irregular_file(tmp_path):
    """Blank lines, padded fields, gapped and unsorted months, screened and
    blank values, and annual rows outside the monthly frame on both axes."""
    monthly = tmp_path / "m.csv"
    monthly.write_text("\n".join([
        " date , asset_id,ret ,cap,capco , exchange_nyse",
        "1990-04,b,0.02,20,22,0",
        "",
        " 1990-01 , a , 0.01 , 10 , 11 , 1 ",
        "1990-01,c,-1.0,-3,5,",
        "",
        "1990-04,a,,10,-11,1",
        "1990-07,c,1e-3,1_000,inf,0",
        "1990-01,b,-0.5,  ,nan,\t",
        "",
    ]) + "\n")
    annual = tmp_path / "a.csv"
    annual.write_text("\n".join([
        "fiscal_end , asset_id ,seq, pstkrv,pstkl,pstk ",
        "1990-04,a,100,,5,",
        "1989-12,a,90,1,,",
        "",
        "1990-07, c ,50,,, 2",
        "1990-04,zz,70,,,",
        "1990-05,b,60,3,,",
        "1990-01,b, ,,,",
    ]) + "\n")
    with pytest.raises(AssertionError):  # the old monthly reader took the header unstripped
        reference_ingest_monthly(monthly)
    lines = monthly.read_text().splitlines()
    monthly.write_text("\n".join([",".join(MONTHLY_HEADER)] + lines[1:]) + "\n")

    got = ingest_monthly(monthly)
    assert_same_result(got, reference_ingest_monthly(monthly))
    assert got.removed == {"ret": 1, "cap": 1, "capco": 1}
    assert got.panels["RET"].dates.periods == ("1990-01", "1990-04", "1990-07")
    ret = got.panels["RET"]
    frame = (ret.dates, ret.assets)
    framed = ingest_annual(annual, frame=frame)
    assert_same_result(framed, reference_ingest_annual(annual, frame=frame))
    assert framed.skipped_rows == 3
    assert_same_result(ingest_annual(annual), reference_ingest_annual(annual))


class TestBookEquity:
    def _panels(self, seq, rv, lq, par):
        mk = lambda pid, v: make_panel(pid, ["1990-12"], ["a"], [[v]])
        return (mk("SEQ", seq), mk("PSTKRV", rv), mk("PSTKL", lq), mk("PSTK", par))

    def test_redemption_preferred(self):
        be = book_equity(*self._panels(100.0, 10.0, 5.0, 2.0))
        assert be.values[0, 0] == 90.0

    def test_liquidation_fallback(self):
        be = book_equity(*self._panels(100.0, None, 5.0, 2.0))
        assert be.values[0, 0] == 95.0

    def test_all_preferred_missing_means_zero(self):
        be = book_equity(*self._panels(100.0, None, None, None))
        assert be.values[0, 0] == 100.0

    def test_missing_seq(self):
        be = book_equity(*self._panels(None, 10.0, None, None))
        assert np.isnan(be.values[0, 0])

    def test_non_positive_screened(self):
        be = book_equity(*self._panels(5.0, 10.0, None, None))
        assert np.isnan(be.values[0, 0])


class TestBookToMarket:
    def _frame(self):
        return [f"{y}-{m:02d}" for y in (1990, 1991, 1992) for m in range(1, 13)]

    def test_december_fiscal_year(self):
        periods = self._frame()
        be_vals = [[None]] * len(periods)
        be_vals[periods.index("1990-12")] = [90.0]
        be = make_panel("BE", periods, ["a"], be_vals)
        capco_vals = [[100.0]] * len(periods)
        capco_vals[periods.index("1990-12")] = [180.0]
        capco = make_panel("CAPCO", periods, ["a"], capco_vals)
        bm = book_to_market(be, capco)
        assert cell(bm, "1991-06", "a") == 0.5
        assert cell(bm, "1992-05", "a") == 0.5
        assert np.isnan(cell(bm, "1991-05", "a"))
        assert np.isnan(cell(bm, "1992-06", "a"))

    def test_earlier_fiscal_month(self):
        periods = self._frame()
        be_vals = [[None]] * len(periods)
        be_vals[periods.index("1990-03")] = [50.0]
        be = make_panel("BE", periods, ["a"], be_vals)
        capco = make_panel("CAPCO", periods, ["a"], [[100.0]] * len(periods))
        bm = book_to_market(be, capco)
        assert cell(bm, "1991-06", "a") == 0.5

    def test_missing_december_capco(self):
        periods = self._frame()
        be_vals = [[None]] * len(periods)
        be_vals[periods.index("1990-12")] = [90.0]
        be = make_panel("BE", periods, ["a"], be_vals)
        capco_vals = [[100.0]] * len(periods)
        capco_vals[periods.index("1990-12")] = [None]
        capco = make_panel("CAPCO", periods, ["a"], capco_vals)
        bm = book_to_market(be, capco)
        assert np.isnan(cell(bm, "1991-06", "a"))

    def test_positive_wherever_defined(self, source_panels):
        bm = book_to_market(
            book_equity(source_panels["SEQ"], source_panels["PSTKRV"],
                        source_panels["PSTKL"], source_panels["PSTK"]),
            source_panels["CAPCO"],
        )
        vals = bm.values[~np.isnan(bm.values)]
        assert vals.size > 0
        assert np.all(vals > 0)


def reference_book_to_market(be: Panel, capco: Panel) -> np.ndarray:
    """The per-December loop that ``book_to_market`` replaced, over a per-month lookup."""
    dates, assets, (gbe, gcapco) = align_panels(be, capco)
    rows = month_rows(dates)
    december = np.full_like(gbe, np.nan)
    for i, o in enumerate(dates.ordinals.tolist()):
        if o % 12 != 11:
            continue
        capco_row = gcapco[i]
        latest = np.full(len(assets), np.nan)
        for row in gbe[[rows[m] for m in range(o - 11, o + 1) if m in rows]]:
            fresh = ~np.isnan(row)
            latest[fresh] = row[fresh]
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = latest / capco_row
            ratio[np.isnan(capco_row) | (capco_row <= 0)] = np.nan
        december[i] = ratio
    out = np.full_like(december, np.nan)  # usable June through May
    for i, o in enumerate(dates.ordinals.tolist()):
        present = ~np.isnan(december[i])
        for m in range(o + 6, o + 18):
            if m in rows:
                out[rows[m], present] = december[i][present]
    return out


def book_to_market_case(seed, n_dates, n_assets, months=range(12)):
    """Seeded book equity and company market equity on a gapped index of the
    given calendar months: book equity sparse (fiscal ends), one or two per
    year and sometimes none in a year, so that some Decembers see a value
    older than the 12-month lookback; capco with zeros, negatives and
    missing cells."""
    rng = np.random.default_rng(seed)
    ordinals = [o for o in range(1960 * 12, 1960 * 12 + 4 * n_dates) if o % 12 in months]
    ordinals = np.sort(rng.choice(ordinals, size=n_dates, replace=False))
    shape = (n_dates, n_assets)
    be = np.where(rng.random(shape) < 0.12, rng.lognormal(3.0, 1.0, shape), np.nan)
    capco = rng.lognormal(5.0, 1.0, shape)
    capco[rng.random(shape) < 0.05] = 0.0
    capco[rng.random(shape) < 0.05] *= -1.0
    capco[rng.random(shape) < 0.1] = np.nan
    dates, assets = DateIndex.from_ordinals(ordinals), [f"a{j}" for j in range(n_assets)]
    return Panel.source("BE", dates, assets, be), Panel.source("CAPCO", dates, assets, capco)


@pytest.mark.parametrize("n_dates, n_assets", [(120, 50), (1200, 100), (72, 500)])
@pytest.mark.parametrize("seed", (0, 1))
def test_book_to_market_matches_the_loop(seed, n_dates, n_assets):
    be, capco = book_to_market_case(seed, n_dates, n_assets)
    expected = reference_book_to_market(be, capco)
    got = book_to_market(be, capco).values
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
    decembers = be.dates.ordinals % 12 == 11
    assert decembers.any() and not decembers.all()
    assert np.isfinite(got).any()


def test_book_to_market_without_a_december_is_all_missing():
    be, capco = book_to_market_case(2, 60, 20, months=range(11))
    got = book_to_market(be, capco).values
    assert np.isnan(got).all()
    np.testing.assert_array_equal(got.view(np.int64),
                                  reference_book_to_market(be, capco).view(np.int64))


class TestGenerator:
    def test_seed_determinism(self, tmp_path):
        config = GeneratorConfig(seed=42, n_assets=5, n_months=36)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        generate_synthetic(config, d1)
        generate_synthetic(config, d2)
        assert (d1 / "monthly.csv").read_bytes() == (d2 / "monthly.csv").read_bytes()
        assert (d1 / "annual.csv").read_bytes() == (d2 / "annual.csv").read_bytes()

    def test_shape_bound(self, tmp_path):
        config = GeneratorConfig(seed=1, n_assets=5, n_months=36)
        monthly, _ = generate_synthetic(config, tmp_path)
        rows = monthly.read_text().strip().splitlines()
        assert len(rows) - 1 <= 5 * 36

    def test_all_nyse(self, tmp_path):
        config = GeneratorConfig(seed=1, n_assets=5, n_months=12, fraction_nyse=1.0)
        monthly, _ = generate_synthetic(config, tmp_path)
        result = ingest_monthly(monthly)
        nyse = result.panels["NYSE"].values
        assert np.all(nyse[~np.isnan(nyse)] == 1.0)

    def test_ingested_panels_deterministic(self, tmp_path):
        config = GeneratorConfig(seed=9, n_assets=8, n_months=24, missing_ret_rate=0.1)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        generate_synthetic(config, d1)
        generate_synthetic(config, d2)
        p1 = ingest_monthly(d1 / "monthly.csv").panels
        p2 = ingest_monthly(d2 / "monthly.csv").panels
        for name in p1:
            assert value_equal(p1[name], p2[name])

    def test_invalid_config(self):
        with pytest.raises(DataError):
            GeneratorConfig(n_assets=0).validate()
