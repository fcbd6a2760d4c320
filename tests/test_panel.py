from __future__ import annotations

import json
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import ingest, ops
from factorlab import panel as panelio
from factorlab import transforms
from factorlab.errors import DataError, RegistryError
from factorlab.panel import (
    DateIndex,
    Panel,
    PanelRegistry,
    ProvenanceRecord,
    distinct,
    export_graph,
    month_ordinal,
    ordinal_to_period,
    reframe,
)

from .conftest import (
    STORE_CORRUPTIONS,
    count_reads,
    make_panel,
    month_rows,
    npy_bytes,
    value_equal,
)
from .oracles import topological_order


class TestDateIndex:
    def test_ordering_enforced(self):
        with pytest.raises(DataError):
            DateIndex(["1990-02", "1990-01"])
        with pytest.raises(DataError):
            DateIndex(["1990-01", "1990-01"])

    def test_gaps_allowed(self):
        idx = DateIndex(["1990-01", "1990-03"])
        assert len(idx) == 2
        lo, hi = idx.window_rows(1, 2)  # no row has its next month
        assert (hi - lo).tolist() == [0, 0]

    def test_month_arithmetic_round_trip(self):
        for period in ("1990-01", "1999-12", "2023-07"):
            assert ordinal_to_period(month_ordinal(period)) == period

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(0, 40)), st.sets(st.integers(0, 40)))
    def test_union_and_intersection_are_the_set_operations(self, one, other):
        a, b = (DateIndex.from_ordinals(sorted(s)) for s in (one, other))
        assert a.union(b).ordinals.tolist() == sorted(one | other)
        assert a.intersection(b).ordinals.tolist() == sorted(one & other)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(-5, 5)).map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.floats(-3, 3, allow_nan=False)).map(lambda v: np.array(v, dtype=float))))
    def test_distinct_is_np_unique(self, array):
        got, want = distinct(array), np.unique(array)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype

    def test_bad_period(self):
        with pytest.raises(DataError):
            DateIndex(["1990-13"])
        with pytest.raises(DataError):
            DateIndex(["199001"])

    def test_window_rows_matches_a_per_month_lookup(self):
        for periods in (["1990-01", "1990-02", "1990-05", "1990-06", "1991-01"], ["1990-01"]):
            idx = DateIndex(periods)
            rows = month_rows(idx)
            for start in range(-16, 17):
                for stop in range(start, 18):
                    lo, hi = idx.window_rows(start, stop)
                    assert lo.dtype == hi.dtype == np.int64
                    for i, o in enumerate(idx.ordinals.tolist()):
                        expected = [rows[m] for m in range(o + start, o + stop) if m in rows]
                        assert list(range(lo[i], hi[i])) == expected, (periods, start, stop, i)

    @pytest.mark.parametrize("periods", [
        ["1990-01", "1990-02", "1990-05", "1990-06", "1990-12", "1991-01", "9999-12"],
        ["1990-01"],
        [],
    ], ids=["gapped", "one_row", "empty"])
    def test_next_month_rows_matches_a_per_month_lookup(self, periods):
        idx = DateIndex(periods)
        rows = month_rows(idx)
        lo, hi = idx.window_rows(1, 2)
        assert lo.dtype == hi.dtype == np.int64
        nxt = np.where(hi > lo, lo, -1)
        assert np.all(hi - lo <= 1)
        assert nxt.tolist() == [rows.get(int(o) + 1, -1) for o in idx.ordinals]

    def test_window_rows_clamps_bounds_of_any_size(self):
        idx = DateIndex(["1990-01", "1990-03"])
        for start, stop, lo, hi in [(-2 ** 70, 2 ** 70, [0, 0], [2, 2]),
                                    (2 ** 70, 2 ** 71, [2, 2], [2, 2]),
                                    (-2 ** 71, -2 ** 70, [0, 0], [0, 0]),
                                    (-2 ** 70, 1, [0, 0], [1, 2])]:
            got = idx.window_rows(start, stop)
            assert [got[0].tolist(), got[1].tolist()] == [lo, hi], (start, stop)
        assert [part.tolist() for part in DateIndex([]).window_rows(0, 2 ** 70)] == [[], []]

    @pytest.mark.parametrize("seed", range(5))
    def test_from_ordinals_equals_the_parsed_periods(self, seed):
        rng = np.random.default_rng(seed)
        inner = rng.choice(np.arange(1, 12 * 10000 - 1), size=int(rng.integers(0, 300)),
                           replace=False)
        ordinals = np.sort(np.concatenate([[0], inner, [12 * 10000 - 1]])).astype(np.int64)
        built = DateIndex.from_ordinals(ordinals.tolist())
        parsed = DateIndex([ordinal_to_period(o) for o in ordinals])
        assert built == parsed
        assert built.periods[0] == "0000-01" and built.periods[-1] == "9999-12"
        assert built.ordinals.tolist() == parsed.ordinals.tolist()
        assert built.ordinals.dtype == np.int64 and not built.ordinals.flags.writeable
        assert DateIndex.from_ordinals(ordinals) == parsed  # an array works as well
        assert ordinals.flags.writeable  # and is not frozen

    @pytest.mark.parametrize("ordinals, message", [
        ([5, -1], "bad period '-001-12', expected YYYY-MM"),
        ([-13], "bad period '-002-12', expected YYYY-MM"),
        ([12 * 10000 - 1, 12 * 10000], "bad period '10000-01', expected YYYY-MM"),
    ])
    def test_from_ordinals_off_the_calendar(self, ordinals, message):
        with pytest.raises(DataError) as exc:
            DateIndex.from_ordinals(ordinals)
        assert str(exc.value) == message

    def test_from_ordinals_must_increase(self):
        for ordinals in ([3, 2], [4, 4]):
            with pytest.raises(DataError, match="strictly increasing"):
                DateIndex.from_ordinals(ordinals)

    def test_lag_past_the_calendar_keeps_its_message(self):
        """Lagging a panel that ends in 9999-12 stays on the calendar: no month
        past it is formed, so there is no 'bad period' error."""
        last = make_panel("P", ["9999-11", "9999-12"], ["a"], [[1.0], [2.0]])
        for k, expected in ((1, [[np.nan], [1.0]]), (2, [[np.nan], [np.nan]])):
            lagged = transforms.lag(last, k)
            assert lagged.dates == last.dates
            np.testing.assert_array_equal(lagged.values, expected)


class TestReframe:
    def test_matching_frame_returns_same_object(self):
        p = make_panel("P", ["1990-01", "1990-02"], ["a", "b"], [[1, 2], [3, 4]])
        out = reframe(p.values, p.dates, DateIndex(["1990-01", "1990-02"]),
                      p.assets, ("a", "b"))
        assert out is p.values

    def test_union_with_gapped_dates_is_nan_filled(self):
        p = make_panel("P", ["1990-01", "1990-04"], ["a"], [[1.0], [4.0]])
        dates = p.dates.union(DateIndex(["1990-02", "1990-04"]))
        out = reframe(p.values, p.dates, dates, p.assets, p.assets)
        assert list(dates) == ["1990-01", "1990-02", "1990-04"]
        np.testing.assert_array_equal(out, [[1.0], [np.nan], [4.0]])

    def test_shuffled_assets_land_in_their_columns(self):
        p = make_panel("P", ["1990-01"], ["a", "b", "c"], [[1, 2, 3]])
        out = reframe(p.values, p.dates, p.dates, p.assets, ("c", "a", "b"))
        np.testing.assert_array_equal(out, [[3.0, 1.0, 2.0]])

    def test_narrower_target_drops_rows_and_columns(self):
        p = make_panel("P", ["1990-01", "1990-02", "1990-03"], ["a", "b", "c"],
                       [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        out = reframe(p.values, p.dates, DateIndex(["1990-02", "1990-05"]),
                      p.assets, ("c", "z"))
        np.testing.assert_array_equal(out, [[6.0, np.nan], [np.nan, np.nan]])

    def test_empty_target_or_source_is_all_missing(self):
        p = make_panel("P", ["1990-01"], ["a"], [[1.0]])
        assert reframe(p.values, p.dates, DateIndex([]), p.assets, ("a",)).shape == (0, 1)
        assert reframe(p.values, p.dates, p.dates, p.assets, ()).shape == (1, 0)
        empty = np.empty((0, 0))
        out = reframe(empty, DateIndex([]), p.dates, (), ("a", "b"))
        assert out.shape == (1, 2) and np.all(np.isnan(out))

    def test_series_moves_rows_only(self):
        src = DateIndex(["1990-01", "1990-03"])
        out = reframe(np.array([1.0, 3.0]), src, DateIndex.range("1990-01", 4))
        np.testing.assert_array_equal(out, [1.0, np.nan, 3.0, np.nan])


class TestRegistry:
    def test_register_source(self):
        reg = PanelRegistry()
        p = make_panel("A", ["1990-01"], ["x"], [[1.0]])
        assert reg.register(p) == "A"
        assert len(reg) == 1

    def test_register_with_valid_edge(self):
        reg = PanelRegistry()
        a = make_panel("A", ["1990-01"], ["x"], [[1.0]])
        reg.register(a)
        derived = Panel.derive("unary_op", {"op": "neg"}, [reg.get("A")],
                               a.dates, a.assets, -a.values)
        pid = reg.register(derived, name="B")
        assert pid == "B"
        assert reg.get("B").provenance.input_ids == ("A",)

    def test_dangling_input_rejected(self):
        reg = PanelRegistry()
        orphan = Panel(
            panel_id="B",
            dates=DateIndex(["1990-01"]),
            assets=("x",),
            values=np.array([[1.0]]),
            provenance=ProvenanceRecord("unary_op", {}, ("Z",)),
        )
        with pytest.raises(RegistryError, match="Z"):
            reg.register(orphan)

    def test_duplicate_id_rejected(self):
        reg = PanelRegistry()
        reg.register(make_panel("A", ["1990-01"], ["x"], [[1.0]]))
        with pytest.raises(RegistryError, match="duplicate"):
            reg.register(make_panel("A", ["1990-01"], ["x"], [[2.0]]))

    def test_unnamed_panels_get_counter_ids(self):
        reg = PanelRegistry()
        reg.register(make_panel("A", ["1990-01"], ["x"], [[1.0]]))
        derived = Panel.derive("unary_op", {}, [reg.get("A")],
                               reg.get("A").dates, ("x",), np.array([[2.0]]))
        assert reg.register(derived) == "_2"

    def test_immutability(self):
        reg = PanelRegistry()
        reg.register(make_panel("A", ["1990-01"], ["x"], [[1.0]]))
        with pytest.raises(ValueError):
            reg.get("A").values[0, 0] = 5.0


class TestGridCopies:
    """A panel copies a grid that can still change, and shares one that cannot."""

    @staticmethod
    def wrap(grid) -> Panel:
        return Panel.source("A", ["1990-01"], ["x", "y"], grid)

    def test_a_writeable_grid_is_copied(self):
        grid = np.array([[1.0, 2.0]])
        p = self.wrap(grid)
        assert not np.shares_memory(p.values, grid)
        grid[0, 0] = 5.0
        assert p.values.tolist() == [[1.0, 2.0]]

    def test_a_read_only_view_of_a_writeable_base_is_copied(self):
        base = np.array([[1.0, 2.0], [3.0, 4.0]])
        view = base[:1]
        view.setflags(write=False)
        p = self.wrap(view)
        assert not np.shares_memory(p.values, base)
        base[0, 0] = 5.0
        assert p.values.tolist() == [[1.0, 2.0]]

    def test_a_read_only_view_of_a_writeable_buffer_is_copied(self):
        buffer = bytearray(np.array([1.0, 2.0]).tobytes())
        flat = np.frombuffer(buffer)
        flat.setflags(write=False)
        p = self.wrap(flat.reshape(1, 2))
        buffer[:8] = np.array([5.0]).tobytes()
        assert p.values.tolist() == [[1.0, 2.0]]

    def test_a_read_only_grid_that_owns_its_memory_is_shared(self):
        grid = np.array([[1.0, 2.0]])
        grid.setflags(write=False)
        assert self.wrap(grid).values is grid

    def test_register_stores_the_unregistered_panels_grid(self):
        reg = PanelRegistry()
        reg.register(make_panel("A", ["1990-01"], ["x"], [[1.0]]))
        derived = Panel.derive("unary_op", {"op": "neg"}, [reg.get("A")],
                               reg.get("A").dates, ("x",), np.array([[-1.0]]))
        pid = reg.register(derived)
        assert reg.get(pid).values is derived.values
        with pytest.raises(ValueError):
            reg.get(pid).values[0, 0] = 5.0

    def test_a_relabelled_series_shares_the_grid(self):
        p = make_panel("S", ["1990-01"], ["value"], [[1.0]])
        assert p.to_series("T").values is p.values

    def test_load_shares_the_grid_it_reads(self, tmp_path, monkeypatch):
        panelio.save(make_panel("A", ["1990-01"], ["x", "y"], [[1.0, None]]), tmp_path)
        reads = []
        real = panelio.read_grid
        monkeypatch.setattr(panelio, "read_grid",
                            lambda *args: reads.append(real(*args)) or reads[-1])
        assert panelio.load(tmp_path, "A").values is reads[0]


class TestRelabel:
    """A registered, reused or relabelled panel is built without checking its
    frame again, and shares the read-only grid of the panel it relabels."""

    @pytest.fixture
    def checks(self, monkeypatch) -> list[str]:
        """The id of each panel that ``Panel.__post_init__`` checks from now on."""
        seen, real = [], Panel.__post_init__

        def counted(panel):
            seen.append(panel.panel_id)
            real(panel)

        monkeypatch.setattr(Panel, "__post_init__", counted)
        return seen

    def test_relabel_shares_the_frame_and_the_read_only_grid(self, checks):
        p = make_panel("A", ["1990-01", "1990-02"], ["x", "y"], [[1.0, None], [3.0, 4.0]])
        record = ProvenanceRecord("unary_op", {"op": "neg"}, ("A",), 7)
        q = p.relabel("B", record)
        assert checks == ["A"]
        assert (q.panel_id, q.provenance) == ("B", record)
        assert q.dates is p.dates and q.assets is p.assets
        assert np.shares_memory(q.values, p.values) and not q.values.flags.writeable
        with pytest.raises(ValueError):
            q.values[0, 0] = 5.0
        assert (p.panel_id, p.provenance.op_name) == ("A", "source")

    def test_register_of_a_built_panel_runs_no_check(self, checks):
        reg = PanelRegistry()
        reg.register(make_panel("A", ["1990-01"], ["x"], [[1.0]]))
        derived = Panel.derive("unary_op", {"op": "neg"}, [reg.get("A")],
                               reg.get("A").dates, ("x",), np.array([[-1.0]]))
        assert checks == ["A", ""]
        pid = reg.register(derived, name="B")
        assert checks == ["A", ""]
        stored = reg.get(pid)
        assert np.shares_memory(stored.values, derived.values)
        assert not stored.values.flags.writeable
        assert stored.provenance == ProvenanceRecord("unary_op", {"op": "neg"}, ("A",), 2)
        assert derived.provenance.created_seq == -1 and derived.panel_id == ""

    def test_a_reuse_hit_runs_no_check(self, checks):
        reg = PanelRegistry()
        reg.register(make_panel("A", ["1990-01", "1990-02"], ["x"], [[1.0], [2.0]]))
        first, _ = ops.apply_step(reg, "lag", ["A"], {"k": 1}, name="L1")
        del checks[:]
        again, record = ops.apply_step(reg, "lag", ["A"], {"k": 1}, name="L2")
        assert checks == []
        assert record["n_nonmissing"] == 1
        reused = reg.get(again)
        assert np.shares_memory(reused.values, reg.get(first).values)
        assert not reused.values.flags.writeable
        assert reused.provenance == ProvenanceRecord("lag", {"k": 1}, ("A",), 3)

    def test_to_series_keeps_the_provenance(self, checks):
        reg = PanelRegistry()
        reg.register(make_panel("S", ["1990-01"], ["value"], [[1.0]]))
        series = reg.get("S")
        named = series.to_series("T")
        assert checks == ["S"]
        assert (named.panel_id, named.provenance) == ("T", series.provenance)
        assert named.provenance.created_seq == 1
        assert np.shares_memory(named.values, series.values)


META = {"panel_id": "P", "assets": ["a"], "dates": ["1990-01"], "date_span": [],
        "provenance": {"op_name": "source", "params": {}, "input_ids": [], "created_seq": 1}}


class TestReadTable:
    def test_value_columns_follow_the_keys(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("d,id,x,y\n1990-03,b,1,\n1990-01,a,2,3\n")
        table = ingest.read_table(f, ["d", "id"])
        assert table.dates.periods == ("1990-01", "1990-03")
        assert table.assets == ("a", "b")
        assert list(table.grids) == ["x", "y"]
        assert table.keyed.tolist() == [[True, False], [False, True]]
        np.testing.assert_array_equal(table.grids["y"], [[3.0, np.nan], [np.nan, np.nan]])

    @pytest.mark.parametrize("header, columns, message", [
        ("d,id,x,y", ["x"], "expected header d,id,x"),
        ("d,ID,x", None, r"expected header d,id,\.\.\."),
        ("d,id", None, r"expected header d,id,\.\.\."),
        ("", None, "expected header"),
    ])
    def test_header_rules(self, tmp_path, header, columns, message):
        f = tmp_path / "t.csv"
        f.write_text(header + "\n")
        with pytest.raises(DataError, match=message):
            ingest.read_table(f, ["d", "id"], columns)

    def test_bad_number_names_the_line_and_column(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("d,id,x,y\n1990-01,a,1,2\n\n1990-02,a,3,0x1\n")
        with pytest.raises(DataError, match=r"line 4: bad number '0x1' in column y"):
            ingest.read_table(f, ["d", "id"])

    def test_missing_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            ingest.read_table(tmp_path / "none.csv", ["d", "id"])


class TestSaveLoad:
    def test_missing_cells_omitted(self, tmp_path):
        p = make_panel("P", ["1990-01", "1990-02"], ["a", "b"],
                       [[1.0, None], [2.0, 3.0]])
        npy_path, meta_path = panelio.save(p, tmp_path)
        assert (npy_path, meta_path) == (tmp_path / "P.npy", tmp_path / "P.meta.json")
        rows = panelio.export_csv(p, tmp_path).read_text().strip().splitlines()
        assert rows[0] == "date,asset,value"
        assert len(rows) == 4  # three values, one missing cell omitted
        meta = json.loads(meta_path.read_text())
        assert meta["panel_id"] == "P"
        assert meta["dates"] == ["1990-01", "1990-02"]

    def test_round_trip_identity(self, tmp_path):
        p = make_panel("P", ["1990-01", "1990-03"], ["a", "b"],
                       [[1.25, None], [-3.5e-7, 0.1]])
        panelio.save(p, tmp_path)
        loaded = panelio.load(tmp_path, "P")
        assert value_equal(loaded, p)
        assert loaded.panel_id == "P"
        # and the re-saved bytes are identical
        again = tmp_path / "again"
        for directory, panel in ((tmp_path, p), (again, loaded)):
            panelio.save(panel, directory)
            panelio.export_csv(panel, directory)
        for name in ("P.npy", "P.meta.json", "P.csv"):
            assert (again / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_provenance_preserved(self, tmp_path):
        reg = PanelRegistry()
        a = make_panel("A", ["1990-01"], ["x"], [[1.0]])
        b = make_panel("B", ["1990-01"], ["x"], [[2.0]])
        reg.register(a)
        reg.register(b)
        derived = Panel.derive("binary_op", {"op": "add"},
                               [reg.get("A"), reg.get("B")],
                               a.dates, a.assets, np.array([[3.0]]))
        pid = reg.register(derived, name="SUM")
        panelio.save(reg.get(pid), tmp_path)
        meta = json.loads((tmp_path / "SUM.meta.json").read_text())
        assert meta["provenance"]["input_ids"] == ["A", "B"]

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing file"):
            panelio.load(tmp_path, "NOPE")

    @pytest.mark.parametrize("panel_id", ["../x", "a/b", "/etc/passwd", ".hidden", "", "x\n"])
    def test_load_rejects_ids_that_are_not_panel_ids(self, tmp_path, panel_id):
        inner = tmp_path / "inner"
        panelio.save(make_panel("x", ["1990-01"], ["a"], [[1.0]]), tmp_path)
        files = {path: path.read_bytes() for path in tmp_path.rglob("*")}
        bad = make_panel(panel_id, ["1990-01"], ["a"], [[2.0]])
        for store in (panelio.load, lambda d, i: panelio.save(bad, d),
                      lambda d, i: panelio.export_csv(bad, d)):
            with pytest.raises(DataError, match=re.escape(f"invalid panel id {panel_id!r}")):
                store(inner, panel_id)
        assert {path: path.read_bytes() for path in tmp_path.rglob("*")} == files

    @pytest.mark.parametrize("first", [b"", b"date,asset_id,ret\n", b"date,asset,values\n",
                                       b"\xff\n"])
    def test_export_replaces_an_export_and_nothing_else(self, tmp_path, first):
        p = make_panel("P", ["1990-01"], ["a"], [[1.0]])
        (tmp_path / "P.csv").write_text("date,asset,value\n1990-01,a,9.0\n")
        assert panelio.export_csv(p, tmp_path).read_text() == "date,asset,value\n1990-01,a,1.0\n"
        (tmp_path / "P.csv").write_bytes(first + b"1990-01,a,9.0\n")
        with pytest.raises(DataError, match=re.escape(f"{tmp_path / 'P.csv'}: not a panel export")):
            panelio.export_csv(p, tmp_path)
        assert (tmp_path / "P.csv").read_bytes() == first + b"1990-01,a,9.0\n"

    def test_load_rejects_cell_outside_frame(self, tmp_path):
        p = make_panel("P", ["1990-01"], ["a"], [[1.0]])
        panelio.save(p, tmp_path)
        (tmp_path / "P.npy").write_bytes(npy_bytes(np.array([[1.0], [9.0]])))
        with pytest.raises(DataError, match=r"P\.npy: grid \(2, 1\) does not match the "
                                            r"1x1 metadata frame"):
            panelio.load(tmp_path, "P")

    # A broken CSV export is named by line when read back as a keyed table,
    # and load, which reads the store, is untouched by it.
    def test_load_duplicate_cell_names_the_line(self, tmp_path):
        p = make_panel("P", ["1990-01"], ["a", "b"], [[1.0, 2.0]])
        panelio.save(p, tmp_path)
        csv_path = panelio.export_csv(p, tmp_path)
        csv_path.write_text(csv_path.read_text() + "\n1990-01,b,9.0\n")
        with pytest.raises(DataError, match=r"line 5: duplicate key \(1990-01,b\)"):
            ingest.read_table(csv_path, ["date", "asset"], ["value"])
        assert value_equal(panelio.load(tmp_path, "P"), p)

    def test_load_wrong_width_names_the_line(self, tmp_path):
        p = make_panel("P", ["1990-01"], ["a", "b"], [[1.0, 2.0]])
        panelio.save(p, tmp_path)
        csv_path = panelio.export_csv(p, tmp_path)
        csv_path.write_text(csv_path.read_text() + "1990-01,b\n")
        with pytest.raises(DataError, match="line 4: expected 3 fields"):
            ingest.read_table(csv_path, ["date", "asset"], ["value"])
        assert value_equal(panelio.load(tmp_path, "P"), p)

    @pytest.mark.parametrize("case", STORE_CORRUPTIONS)
    def test_load_rejects_a_corrupt_store(self, tmp_path, case):
        corrupt, message = STORE_CORRUPTIONS[case]
        panelio.save(make_panel("P", ["1990-01", "1990-02"], ["a", "b"],
                                [[1.0, None], [-0.0, 2.5]]), tmp_path)
        corrupt(tmp_path / "P.npy")
        with pytest.raises(DataError) as exc:
            panelio.load(tmp_path, "P")
        assert str(tmp_path / "P.npy") in str(exc.value) and message in str(exc.value)

    def test_a_directory_saved_as_csv_only_names_the_missing_grid(self, tmp_path):
        p = make_panel("P", ["1990-01"], ["a"], [[1.0]])
        panelio.save(p, tmp_path)
        panelio.export_csv(p, tmp_path)
        (tmp_path / "P.npy").unlink()
        with pytest.raises(DataError, match=re.escape(f"missing file {tmp_path / 'P.npy'}")):
            panelio.load(tmp_path, "P")

    def test_load_never_parses_text(self, tmp_path, monkeypatch):
        p = make_panel("P", ["1990-01"], ["a"], [[1.0]])
        panelio.save(p, tmp_path)
        panelio.export_csv(p, tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("load parsed a CSV")

        monkeypatch.setattr(ingest, "read_table", refuse)
        assert value_equal(panelio.load(tmp_path, "P"), p)

    @pytest.mark.parametrize("meta", [
        [], "P", 3, None,
        *({k: v for k, v in META.items() if k != key} for key in META if key != "date_span"),
        {**META, "dates": 5}, {**META, "dates": [199001]}, {**META, "assets": 7},
        {**META, "provenance": "source"}, {**META, "provenance": {"params": {}}},
        {**META, "panel_id": "Q"}, {**META, "panel_id": "../../x"},
    ])
    def test_load_rejects_malformed_metadata(self, tmp_path, meta):
        panelio.save(make_panel("P", ["1990-01"], ["a"], [[1.0]]), tmp_path)
        (tmp_path / "P.meta.json").write_text(json.dumps(meta))
        with pytest.raises(DataError, match="P.meta.json: bad metadata"):
            panelio.load(tmp_path, "P")

    @pytest.mark.parametrize("name", ["P.meta.json"])
    def test_load_rejects_a_file_that_is_not_utf8(self, tmp_path, name):
        panelio.save(make_panel("P", ["1990-01"], ["a"], [[1.0]]), tmp_path)
        path = tmp_path / name
        path.write_bytes(path.read_bytes().replace(b"a", b"\xe9"))
        with pytest.raises(DataError, match="cannot read"):
            panelio.load(tmp_path, "P")

    def test_load_registry_restores_sequence(self, tmp_path):
        reg = PanelRegistry()
        a = make_panel("A", ["1990-01"], ["x"], [[1.0]])
        reg.register(a)
        derived = Panel.derive("unary_op", {"op": "neg"}, [reg.get("A")],
                               a.dates, a.assets, -a.values)
        reg.register(derived, name="B")
        for pid in ("A", "B"):
            panelio.save(reg.get(pid), tmp_path)
        restored = panelio.load_registry(tmp_path)
        assert set(restored.ids()) == {"A", "B"}
        assert restored.get("B").provenance.created_seq == 2


@pytest.fixture
def saved_chain(tmp_path):
    """Z (source) -> A -> M, plus a second source C, saved in that order.

    File-name order (A, C, M, Z) differs from registration order (Z, A, M, C),
    and the grids hold gaps, missing cells, a signed zero and a subnormal.
    """
    reg = PanelRegistry()
    z = make_panel("Z", ["1990-01", "1990-02", "1990-05"], ["x", "y"],
                   [[1.5, None], [-0.0, 5e-324], [None, None]])
    reg.register(z)
    a = Panel.derive("unary_op", {"op": "neg"}, [z], z.dates, z.assets, -z.values)
    reg.register(a, name="A")
    m = Panel.derive("binary_op", {"op": "add"}, [reg.get("A"), z], z.dates, z.assets,
                     z.values + z.values)
    reg.register(m, name="M")
    reg.register(make_panel("C", ["1991-01"], ["q"], [[7.0]]))
    for panel_id in reg.ids():
        panelio.save(reg.get(panel_id), tmp_path)
    return tmp_path, reg


class TestLazyRegistry:
    def test_load_registry_reads_no_value_file(self, saved_chain, monkeypatch):
        directory, _ = saved_chain
        reads = count_reads(monkeypatch)
        restored = panelio.load_registry(directory)
        assert len(restored) == 4 and "M" in restored and "Q" not in restored
        assert restored.provenance("M").input_ids == ("A", "Z")
        assert reads == []

    def test_ids_len_and_order_are_those_of_registration(self, saved_chain, monkeypatch):
        directory, reg = saved_chain
        reads = count_reads(monkeypatch)
        restored = panelio.load_registry(directory)
        assert restored.ids() == reg.ids() == ["Z", "A", "M", "C"]
        assert len(restored) == len(reg)
        assert all(i in restored for i in reg.ids())
        assert [restored.provenance(i) for i in reg.ids()] == [
            reg.get(i).provenance for i in reg.ids()]
        assert reads == []

    def test_the_counter_continues_after_the_restored_sequence(self, saved_chain):
        directory, _ = saved_chain
        restored = panelio.load_registry(directory)
        fresh = make_panel("", ["1990-01"], ["x"], [[1.0]])
        assert restored.register(fresh) == "_5"
        assert restored.get("_5").provenance.created_seq == 5

    def test_get_is_the_eager_load_and_is_cached(self, saved_chain, monkeypatch):
        directory, reg = saved_chain
        eager = {panel_id: panelio.load(directory, panel_id) for panel_id in reg.ids()}
        restored = panelio.load_registry(directory)
        reads = count_reads(monkeypatch)
        for panel_id, loaded in eager.items():
            lazy = restored.get(panel_id)
            assert lazy.panel_id == panel_id
            assert lazy.dates == loaded.dates and lazy.assets == loaded.assets
            assert lazy.provenance == loaded.provenance == reg.get(panel_id).provenance
            assert np.array_equal(lazy.values.view(np.int64), loaded.values.view(np.int64))
            assert restored.get(panel_id) is lazy
        assert reads == [f"{panel_id}.npy" for panel_id in reg.ids()]

    def test_two_first_gets_parse_once(self, saved_chain, monkeypatch):
        directory, _ = saved_chain
        restored = panelio.load_registry(directory)
        reads = count_reads(monkeypatch, delay=0.2)
        with ThreadPoolExecutor(max_workers=2) as pool:
            first, second = pool.map(restored.get, ["M", "M"], timeout=30)
        assert first is second
        assert reads == ["M.npy"]

    def test_a_corrupt_value_file_fails_its_own_get_only(self, saved_chain):
        directory, _ = saved_chain
        (directory / "A.npy").write_bytes((directory / "A.npy").read_bytes()[:-4])
        restored = panelio.load_registry(directory)
        assert restored.get("Z").n_nonmissing() == 3
        for _ in range(2):  # a failed read leaves the panel unread, to fail again
            with pytest.raises(DataError, match=r"A\.npy: cannot read: Failed to read all"):
                restored.get("A")
        assert restored.provenance("A").op_name == "unary_op"
        (directory / "M.npy").unlink()
        with pytest.raises(DataError, match=r"missing file .*M\.npy"):
            restored.get("M")

    @pytest.mark.parametrize("case", STORE_CORRUPTIONS)
    def test_a_corrupt_store_fails_its_own_get_only(self, saved_chain, case):
        directory, reg = saved_chain
        corrupt, message = STORE_CORRUPTIONS[case]
        corrupt(directory / "A.npy")
        restored = panelio.load_registry(directory)
        with pytest.raises(DataError) as exc:
            restored.get("A")
        assert str(directory / "A.npy") in str(exc.value) and message in str(exc.value)
        for panel_id in ("Z", "M", "C"):
            assert value_equal(restored.get(panel_id), reg.get(panel_id))

    @pytest.mark.parametrize("meta", [[], {**META, "panel_id": "Q"}, {**META, "dates": 5}])
    def test_malformed_metadata_fails_at_once(self, saved_chain, meta):
        directory, _ = saved_chain
        (directory / "C.meta.json").write_text(json.dumps(meta))
        with pytest.raises(DataError, match=r"C\.meta\.json: bad metadata"):
            panelio.load_registry(directory)

    def test_a_meta_file_whose_name_is_not_a_panel_id_fails_at_once(self, saved_chain):
        directory, _ = saved_chain
        (directory / ".hidden.meta.json").write_text("{}")
        with pytest.raises(DataError, match="invalid panel id '.hidden'"):
            panelio.load_registry(directory)

    def test_unknown_id(self, saved_chain):
        restored = panelio.load_registry(saved_chain[0])
        for lookup in (restored.get, restored.provenance):
            with pytest.raises(RegistryError, match="unknown panel id 'Q'"):
                lookup("Q")


class TestExportGraph:
    def test_source_only(self):
        reg = PanelRegistry()
        reg.register(make_panel("A", ["1990-01"], ["x"], [[1.0]]))
        doc, dot = export_graph(reg, "A")
        assert len(doc["nodes"]) == 1
        assert doc["edges"] == []
        assert '"A"' in dot

    def test_chain(self):
        reg = PanelRegistry()
        a = make_panel("A", ["1990-01"], ["x"], [[1.0]])
        reg.register(a)
        b = Panel.derive("unary_op", {"op": "neg"}, [reg.get("A")],
                         a.dates, a.assets, -a.values)
        reg.register(b, name="B")
        c = Panel.derive("unary_op", {"op": "abs"}, [reg.get("B")],
                         a.dates, a.assets, np.abs(a.values))
        reg.register(c, name="C")
        doc, _ = export_graph(reg, "C")
        assert [n["id"] for n in doc["nodes"]] == ["A", "B", "C"]
        assert len(doc["edges"]) == 2
        assert topological_order(doc) == ["A", "B", "C"]

    def test_unknown_root(self):
        reg = PanelRegistry()
        with pytest.raises(RegistryError):
            export_graph(reg, "missing")

    def test_a_restored_registry_gives_the_same_graph_unread(self, saved_chain, monkeypatch):
        directory, reg = saved_chain
        reads = count_reads(monkeypatch)
        restored = panelio.load_registry(directory)
        for root in ("M", "A", "C"):
            assert export_graph(restored, root) == export_graph(reg, root)
        doc, _ = export_graph(restored, "M")
        assert [n["id"] for n in doc["nodes"]] == ["Z", "A", "M"]
        assert reads == []


def reference_save_text(panel: Panel) -> str:
    """The per-cell writer that export_csv's one-pass writer replaced."""
    lines = ["date,asset,value"]
    for i, period in enumerate(panel.dates):
        for j, asset in enumerate(panel.assets):
            v = panel.values[i, j]
            if not np.isnan(v):
                lines.append(f"{period},{asset},{float(v)!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("periods, assets, rows, written", [
    (["1990-01", "1990-02"], ["a", "b", "c", "d"],
     [[-0.0, 5e-324, None, 1e16], [1.7976931348623157e308, np.inf, -np.inf, 0.1]],
     ["-0.0", "5e-324", "1e+16", "1.7976931348623157e+308", "inf", "-inf", "0.1"]),
    (["1990-01"], ["a"], [[0.1]], ["0.1"]),
    (["1990-01", "1990-03"], ["a", "b"], [[None, None], [None, None]], []),
], ids=["edge_values", "one_cell", "all_missing"])
def test_export_writes_each_value_as_its_repr(tmp_path, periods, assets, rows, written):
    p = make_panel("P", periods, assets, rows)
    text = panelio.export_csv(p, tmp_path).read_text()
    assert text == reference_save_text(p)
    assert [line.rsplit(",", 1)[1] for line in text.splitlines()[1:]] == written


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.lists(
            st.one_of(st.none(), st.floats(allow_nan=False)),
            min_size=3, max_size=3,
        ),
        min_size=1, max_size=6,
    ),
    gaps=st.lists(st.integers(1, 30), min_size=6, max_size=6),
)
def test_save_load_round_trip_property(values, gaps, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("rt")
    ordinals = np.cumsum([month_ordinal("1990-01")] + gaps)[:len(values)]
    dates = DateIndex.from_ordinals(ordinals.tolist())
    p = make_panel("RT", dates.periods, ["a", "b", "c"], values)
    panelio.save(p, tmp)
    assert panelio.export_csv(p, tmp).read_text() == reference_save_text(p)
    loaded = panelio.load(tmp, "RT")
    assert value_equal(loaded, p)
    assert np.array_equal(loaded.values.view(np.int64), p.values.view(np.int64))
    again = tmp / "again"
    panelio.save(loaded, again)
    panelio.export_csv(loaded, again)
    for name in ("RT.npy", "RT.csv", "RT.meta.json"):
        assert (again / name).read_bytes() == (tmp / name).read_bytes()
