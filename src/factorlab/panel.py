"""Immutable monthly T x N panels, persistence, registry, and provenance graphs.

A Panel is the universal currency of the engine: a grid of float64 values
indexed by monthly dates (rows) and asset ids (columns), with NaN as the
explicit missing marker. Panels never mutate after registration; every
operation produces a new panel carrying a ProvenanceRecord, so the registry
forms a directed acyclic graph from raw inputs to final outputs. A grid is
read-only and copied only when something else could still write it, so
panels that hold the same values (a relabelled series, a reused step) share
one grid. The registry remembers each computed operator step of its session,
and a repeat of one is registered without computing (``PanelRegistry``).

A DateIndex is its month ordinals, with labels formatted on demand; every
calendar offset is a row range of ``DateIndex.window_rows``.

A per-date scalar series (factor returns, thresholds, turnover) is a
one-column panel whose single asset is named "value". Operators that produce
one derive it like any other panel, so a series carries provenance from the
start, and consumers read its column with ``values[:, 0]``.

``reframe`` is the one frame mapper for a grid or series on another frame.

A saved panel is its store: ``<id>.meta.json`` (frame and provenance) and
``<id>.npy`` (the float64 grid, written and read without pickles), so a
round trip is bit-exact by construction and no text is parsed. ``load``
checks the grid against the metadata frame, and ``read_grid`` is its one
reader. ``export_csv`` writes the long-form ``<id>.csv`` for people and other
tools; nothing here reads it back. ``load_registry`` reads only the metadata
of saved panels; a panel's grid is read on its first ``PanelRegistry.get``.
Only this module names these files: the store refuses an id that is not a
panel id, and ``saved_panel_at`` maps a file back to its panel.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError, RegistryError

_ID_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.\-]*")
_PERIOD_RE = re.compile(r"^(\d{4})-(\d{2})$")

SERIES_ASSET = "value"
_STORE_SUFFIXES = (".csv", ".npy", ".meta.json")  # the files of a saved panel, export included
_CSV_HEADER = "date,asset,value"  # the first line of an export_csv file


def is_panel_id(text: str) -> bool:
    """Whether ``text`` may name a panel, and so be the stem of its file names."""
    return _ID_RE.fullmatch(text) is not None


def month_ordinal(period: str) -> int:
    """Map 'YYYY-MM' to a month count since year 0 (calendar arithmetic)."""
    m = _PERIOD_RE.match(period)
    if not m:
        raise DataError(f"bad period {period!r}, expected YYYY-MM")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise DataError(f"bad month in period {period!r}")
    return year * 12 + (month - 1)


def ordinal_to_period(ordinal: int) -> str:
    year, month = divmod(int(ordinal), 12)
    return f"{year:04d}-{month + 1:02d}"


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a 1-D array, as ``np.unique`` gives them.
    On numpy 2.4 the plain ``np.unique`` imports ``numpy.ma``, 10-21 ms a process."""
    ordered = np.sort(values)
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


class DateIndex:
    """Strictly increasing months, gaps allowed, kept as read-only int64 ``ordinals``;
    ``periods`` and the two-label ``span`` are formatted on first access and cached,
    ``index[i]`` formats one."""

    def __init__(self, periods: Sequence[str]):
        self._fill([month_ordinal(p) for p in periods])

    def _fill(self, ordinals: Iterable[int]) -> None:
        self.ordinals = np.array(ordinals, dtype=np.int64)
        bad = np.flatnonzero((self.ordinals < 0) | (self.ordinals >= 12 * 10000))
        if bad.size:  # off 0000-01 .. 9999-12
            raise DataError(f"bad period {self[bad[0]]!r}, expected YYYY-MM")
        if len(self) > 1 and not np.all(np.diff(self.ordinals) > 0):
            raise DataError("date index must be strictly increasing with no duplicates")
        self.ordinals.setflags(write=False)

    @classmethod
    def from_ordinals(cls, ordinals: Iterable[int]) -> "DateIndex":
        """The index of these month ordinals; no period is parsed or formatted."""
        index = cls.__new__(cls)
        index._fill(ordinals)
        return index

    @classmethod
    def range(cls, start: str, n_months: int) -> "DateIndex":
        o = month_ordinal(start)
        return cls.from_ordinals(range(o, o + n_months))

    @cached_property
    def periods(self) -> tuple[str, ...]:
        return tuple(map(ordinal_to_period, self.ordinals.tolist()))

    @cached_property
    def span(self) -> tuple[str, ...]:
        """The first and last period, or ``()`` for an index without dates."""
        return (self[0], self[-1]) if len(self) else ()

    def __len__(self) -> int:
        return len(self.ordinals)

    def __iter__(self):
        return iter(self.periods)

    def __getitem__(self, i: int) -> str:
        return ordinal_to_period(self.ordinals[i])

    def __eq__(self, other) -> bool:
        return isinstance(other, DateIndex) and np.array_equal(self.ordinals, other.ordinals)

    def __repr__(self) -> str:
        return f"DateIndex({self[0]}..{self[-1]}, n={len(self)})" if len(self) else "DateIndex([])"

    def window_rows(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Row range ``lo[i]:hi[i]`` of the months in ``[o + start, o + stop)``
        for each row ``i`` of month ``o``, in date order.

        The offsets are clamped to the index span first, so any Python int is
        accepted; the cost does not depend on the width of the range.
        """
        span = int(self.ordinals[-1] - self.ordinals[0]) + 1 if len(self) else 0
        start, stop = (min(max(int(b), -span), span) for b in (start, stop))
        return (np.searchsorted(self.ordinals, self.ordinals + start),
                np.searchsorted(self.ordinals, self.ordinals + stop))

    def union(self, other: "DateIndex") -> "DateIndex":
        return self if self == other else DateIndex.from_ordinals(
            distinct(np.concatenate((self.ordinals, other.ordinals))))

    def intersection(self, other: "DateIndex") -> "DateIndex":
        return DateIndex.from_ordinals(
            np.intersect1d(self.ordinals, other.ordinals, assume_unique=True))


def reframe(values: np.ndarray, src_dates: DateIndex, dates: DateIndex,
            src_assets: Sequence[str] | None = None,
            assets: Sequence[str] | None = None) -> np.ndarray:
    """Move a grid on ``src_dates`` x ``src_assets`` onto ``dates`` x ``assets``.

    Rows match by month ordinal and columns by asset id. Without assets the
    columns (or a 1-D series) are kept as they are and only rows move. Target
    cells the source lacks are NaN; source rows and columns the target lacks
    are dropped. A frame that already matches returns ``values`` itself, so
    callers must not write into the result.
    """
    same_cols = assets is None or tuple(src_assets) == tuple(assets)
    if same_cols and src_dates == dates:
        return values
    src_ord, dst_ord = src_dates.ordinals, dates.ordinals
    pos = np.searchsorted(src_ord, dst_ord)
    hit = pos < len(src_ord)
    hit[hit] = src_ord[pos[hit]] == dst_ord[hit]
    dst_rows, src_rows = np.flatnonzero(hit), pos[hit]
    if assets is None:
        out = np.full((len(dates),) + values.shape[1:], np.nan)
        out[dst_rows] = values[src_rows]
        return out
    src_col = {a: j for j, a in enumerate(src_assets)}
    cols = np.array([src_col.get(a, -1) for a in assets], dtype=np.int64)
    dst_cols = np.flatnonzero(cols >= 0)
    out = np.full((len(dates), len(assets)), np.nan)
    out[np.ix_(dst_rows, dst_cols)] = values[np.ix_(src_rows, cols[dst_cols])]
    return out


@dataclass(frozen=True)
class ProvenanceRecord:
    """What produced a panel: operation name, parameters, input panel ids.

    Params hold scalars and strings only; list-valued arguments are stored as
    canonical JSON strings. Source panels use op_name "source" and no inputs.
    ``created_seq`` is assigned at registration time (-1 while unregistered).
    """

    op_name: str
    params: Mapping[str, object] = field(default_factory=dict)
    input_ids: tuple[str, ...] = ()
    created_seq: int = -1

    def to_dict(self) -> dict:
        return {
            "op_name": self.op_name,
            "params": dict(self.params),
            "input_ids": list(self.input_ids),
            "created_seq": self.created_seq,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "ProvenanceRecord":
        return cls(
            op_name=str(d["op_name"]),
            params=dict(d.get("params", {})),
            input_ids=tuple(d.get("input_ids", ())),
            created_seq=int(d.get("created_seq", -1)),
        )


def encode_params(params: Mapping[str, object] | None) -> dict:
    """Flatten operation arguments into the scalar/string-only provenance map."""
    out = {}
    for key, val in (params or {}).items():
        if val is None:
            continue
        if isinstance(val, (str, bool, int, float)):
            out[key] = val
        else:
            out[key] = json.dumps(val, sort_keys=True, separators=(",", ":"))
    return out


SOURCE = "source"


def _writable(array: np.ndarray) -> bool:
    """Whether ``array`` can change: it, or an array it views, is writeable,
    or its memory belongs to a buffer that is not a numpy array."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return True
        array = array.base
    return array is not None


@dataclass(frozen=True)
class Panel:
    """Immutable T x N grid of float64 values with NaN as the missing marker.

    The grid is read-only. A grid that can change under the panel (see
    ``_writable``) is copied once on construction; a read-only grid that owns
    its memory, or views only read-only arrays, is shared as it is. A panel
    re-wrapped under another id or provenance (``to_series``, ``register``, a
    reused step) is a ``relabel``, which shares the grid and frame as they are.
    """

    panel_id: str
    dates: DateIndex
    assets: tuple[str, ...]
    values: np.ndarray
    provenance: ProvenanceRecord

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (len(self.dates), len(self.assets)):
            raise DataError(
                f"value grid {vals.shape} does not match "
                f"{len(self.dates)}x{len(self.assets)} frame"
            )
        if len(set(self.assets)) != len(self.assets):
            raise DataError("asset ids must be unique")
        if _writable(vals):
            vals = vals.copy()
            vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "assets", tuple(self.assets))

    # -- constructors ------------------------------------------------------

    @classmethod
    def source(cls, panel_id: str, dates, assets, values, params=None) -> "Panel":
        if isinstance(dates, (list, tuple)):
            dates = DateIndex(dates)
        return cls(
            panel_id=panel_id,
            dates=dates,
            assets=tuple(assets),
            values=np.asarray(values, dtype=np.float64),
            provenance=ProvenanceRecord(SOURCE, encode_params(params)),
        )

    @classmethod
    def derive(cls, op_name, params, inputs: Sequence["Panel"], dates, assets, values) -> "Panel":
        """New unregistered panel whose provenance points at ``inputs``."""
        return cls(
            panel_id="",
            dates=dates,
            assets=tuple(assets),
            values=values,
            provenance=ProvenanceRecord(
                op_name, encode_params(params), tuple(p.panel_id for p in inputs)
            ),
        )

    def relabel(self, panel_id: str, provenance: ProvenanceRecord) -> "Panel":
        """This panel's dates, assets and read-only grid under another id and
        provenance. They were checked when this panel was built and cannot
        change, so the new panel is built without running ``__post_init__`` again."""
        panel = object.__new__(Panel)
        panel.__dict__.update(self.__dict__, panel_id=panel_id, provenance=provenance)
        return panel

    # -- introspection -----------------------------------------------------

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def date_span(self) -> list[str]:
        """The first and last period, or ``[]`` for a frame without dates."""
        return list(self.dates.span)

    def n_nonmissing(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.values)))

    def payload(self) -> dict:
        """Summary handle passed around instead of full data (tool-call style)."""
        return {
            "panel_id": self.panel_id,
            "n_dates": self.n_dates,
            "n_assets": self.n_assets,
            "n_nonmissing": self.n_nonmissing(),
            "date_span": self.date_span,
        }

    def is_series(self) -> bool:
        return self.n_assets == 1

    def to_series(self, name: str | None = None) -> "Panel":
        """This panel as a per-date series, relabelled ``name`` when given.

        A series is a one-column panel, so a wider panel is a ``DataError``.
        The panel comes back itself, or as an unregistered panel whose
        ``panel_id`` is ``name`` and which shares this grid; consumers label a
        series by its id.
        """
        if not self.is_series():
            raise DataError(f"panel {self.panel_id!r} has {self.n_assets} columns, expected 1")
        if name is None or name == self.panel_id:
            return self
        return self.relabel(name, self.provenance)


class _Saved(NamedTuple):  # a saved panel in a registry, its values not read yet
    directory: Path
    provenance: ProvenanceRecord


class _Step(NamedTuple):  # a computed step, kept for the repeats of its key
    panel: Panel  # the registered output of its first computation
    call_ids: tuple[str, ...]  # the input ids that computation was called with
    summary: object  # what the step's caller handed ``remember``


class PanelRegistry:
    """Session-scoped id -> Panel map. Registration is the single write path.

    Ids are never reused; provenance inputs must already be registered, which
    makes the provenance graph acyclic by construction. A registered entry is a
    ``Panel.relabel`` of the panel handed in, which is not checked again: a
    panel's frame and grid were checked when it was built and cannot change.
    Saved panels restored by ``load_registry`` read their values on the first
    ``get``. Registration and that read are serialized with a lock, so reads
    are safe to share.

    The registry also remembers each computed operator step for the rest of
    the session, so that a repeat of it is answered without computing
    (``step_key``, ``reuse``, ``remember``). A step's key holds each input's
    content token: the panel's own id, except for a panel registered by
    ``reuse``, whose token is that of the step's first output. Engine steps
    are deterministic and panels immutable, so equal keys mean equal results.
    Nothing is remembered across sessions or on disk.
    """

    def __init__(self):
        self._panels: dict[str, Panel | _Saved] = {}
        self._counter = 1
        self._lock = threading.RLock()  # reuse registers while it holds the lock
        self._steps: dict[tuple, _Step] = {}
        self._tokens: dict[str, str] = {}  # id of a reused output -> its content token

    def __contains__(self, panel_id: str) -> bool:
        return panel_id in self._panels

    def __len__(self) -> int:
        return len(self._panels)

    def ids(self) -> list[str]:
        return list(self._panels)

    def get(self, panel_id: str) -> Panel:
        with self._lock:
            entry = self._entry(panel_id)
            if isinstance(entry, _Saved):
                entry = self._panels[panel_id] = load(entry.directory, panel_id)
            return entry

    def provenance(self, panel_id: str) -> ProvenanceRecord:
        """The panel's provenance record, without reading saved values."""
        return self._entry(panel_id).provenance

    def _entry(self, panel_id: str) -> Panel | _Saved:
        try:
            return self._panels[panel_id]
        except KeyError:
            raise RegistryError(f"unknown panel id {panel_id!r}") from None

    def register(self, panel: Panel, name: str | None = None) -> str:
        """Insert a panel, assign its id and sequence number, return the id.

        An explicit ``panel.panel_id`` must be unused. Unnamed panels take
        ``name`` when free, falling back to ``_<counter>``.
        """
        with self._lock:
            for input_id in panel.provenance.input_ids:
                if input_id not in self._panels:
                    raise RegistryError(f"provenance input {input_id!r} is not registered")
            panel_id = panel.panel_id
            if panel_id:
                if panel_id in self._panels:
                    raise RegistryError(f"duplicate panel id {panel_id!r}")
            elif name and name not in self._panels:
                panel_id = name
            else:
                panel_id = f"_{self._counter}"
            if not is_panel_id(panel_id):
                raise RegistryError(f"invalid panel id {panel_id!r}")
            record = panel.provenance
            self._panels[panel_id] = panel.relabel(panel_id, ProvenanceRecord(
                record.op_name, record.params, record.input_ids, self._counter))
            self._counter += 1
            return panel_id

    def step_key(self, op: str, args_json: str, input_ids: Sequence[str]) -> tuple:
        """The reuse key of a step: its op, its canonical argument JSON, each
        input's content token and the call's repeat pattern of input ids (so
        that a step on one panel twice never answers one on two panels)."""
        with self._lock:
            tokens = tuple(self._tokens.get(i, i) for i in input_ids)
        return op, args_json, tokens, tuple(map(input_ids.index, input_ids))

    def reuse(self, key: tuple, input_ids: Sequence[str],
              name: str | None = None) -> tuple[str, object] | None:
        """Register a repeat of the step remembered under ``key``, or return None.

        The new panel shares the first output's grid, frame and params. Its
        provenance inputs are the first output's, mapped onto ``input_ids``,
        and ``register`` gives it its own id and sequence number. Returns the
        new id and the step's summary.
        """
        with self._lock:
            step = self._steps.get(key)
            if step is None:
                return None
            first, record = step.panel, step.panel.provenance
            inputs = tuple(input_ids[step.call_ids.index(i)] for i in record.input_ids)
            panel_id = self.register(
                first.relabel("", ProvenanceRecord(record.op_name, record.params, inputs)), name)
            self._tokens[panel_id] = first.panel_id
            return panel_id, step.summary

    def remember(self, key: tuple, panel_id: str, input_ids: Sequence[str],
                 summary: object) -> None:
        """Keep the registered output of a computed step, called on ``input_ids``,
        for the repeats of ``key``; the first output kept under a key stays."""
        with self._lock:
            self._steps.setdefault(key, _Step(self._panels[panel_id], tuple(input_ids), summary))

    def _restore(self, panel_id: str, saved: _Saved) -> None:
        """Insert a saved panel unread, keeping its original sequence number."""
        with self._lock:
            if panel_id in self._panels:
                raise RegistryError(f"duplicate panel id {panel_id!r}")
            self._panels[panel_id] = saved
            self._counter = max(self._counter, saved.provenance.created_seq + 1)


# -- persistence -----------------------------------------------------------


def save(panel: Panel, directory) -> list[Path]:
    """Write the panel's store: ``<id>.npy`` (the float64 grid, by ``np.save``
    without pickles) and ``<id>.meta.json`` (frame and provenance)."""
    directory = _store_dir(directory, panel.panel_id)
    directory.mkdir(parents=True, exist_ok=True)
    npy_path = directory / f"{panel.panel_id}.npy"
    meta_path = directory / f"{panel.panel_id}.meta.json"
    with npy_path.open("wb") as fh:
        np.save(fh, panel.values, allow_pickle=False)
    meta = {
        "panel_id": panel.panel_id,
        "assets": list(panel.assets),
        "dates": list(panel.dates),
        "date_span": panel.date_span,
        "provenance": panel.provenance.to_dict(),
    }
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return [npy_path, meta_path]


def export_csv(panel: Panel, directory) -> Path:
    """Write ``<id>.csv``: long form ``date,asset,value`` in date-major order,
    missing cells omitted and values in shortest round-trip form. It is an
    export for people and other tools; ``load`` never reads it.

    An existing ``<id>.csv`` whose first line is not that header is some other
    file, such as an input, so it is a ``DataError`` naming the file, which is
    left as it is."""
    directory = _store_dir(directory, panel.panel_id)
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / f"{panel.panel_id}.csv"
    if csv_path.exists():
        with csv_path.open("rb") as fh:
            if fh.readline(len(_CSV_HEADER) + 2).rstrip(b"\r\n") != _CSV_HEADER.encode():
                raise DataError(f"{csv_path}: not a panel export, so it is not replaced: "
                                f"its first line is not {_CSV_HEADER}")
    i, j = np.nonzero(~np.isnan(panel.values))
    text = [f"{_CSV_HEADER}\n"]
    if i.size:  # a float's repr never holds ", ", but repr([]) would split into one empty value
        values = repr(panel.values[i, j].tolist())[1:-1].split(", ")
        periods = np.array([f"{period}," for period in panel.dates.periods], dtype=object)[i]
        assets = np.array([f"{asset}," for asset in panel.assets], dtype=object)[j]
        text += chain.from_iterable(zip(periods.tolist(), assets.tolist(), values, repeat("\n")))
    csv_path.write_text("".join(text), encoding="utf-8")
    return csv_path


def _store_dir(directory, panel_id: str) -> Path:
    """``directory``, once ``panel_id`` is known to name files only inside it."""
    if not is_panel_id(panel_id):
        raise DataError(f"invalid panel id {panel_id!r}")
    return Path(directory)


def saved_panel_at(path) -> tuple[Path, str]:
    """The directory and id of the saved panel that ``path`` is one of the files of."""
    path = Path(path)
    for suffix in _STORE_SUFFIXES:
        if path.name.endswith(suffix):
            return path.parent, path.name[:-len(suffix)]
    raise DataError(f"expected a saved panel's {', '.join(_STORE_SUFFIXES)} file, got {path}")


def _read_meta(directory, panel_id: str) -> tuple[DateIndex, tuple, ProvenanceRecord]:
    """The checked frame and provenance in a saved panel's ``<id>.meta.json``."""
    meta_path = _store_dir(directory, panel_id) / f"{panel_id}.meta.json"
    if not meta_path.exists():
        raise DataError(f"missing file {meta_path}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DataError(f"{meta_path}: cannot read: {exc}") from exc
    try:  # a document that is not an object fails on the first lookup
        dates, assets = DateIndex(meta["dates"]), tuple(meta["assets"])
        if meta["panel_id"] != panel_id:
            raise ValueError(f"panel_id {meta['panel_id']!r} is not the file's {panel_id!r}")
        return dates, assets, ProvenanceRecord.from_dict(meta["provenance"])
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        raise DataError(f"{meta_path}: bad metadata: {type(exc).__name__}: {exc}") from exc


def read_grid(path: Path, shape: tuple[int, int]) -> np.ndarray:
    """The saved float64 grid in ``path``, checked against the frame's ``shape``.

    A missing, truncated, pickled or ``.npz`` file, a dtype other than native
    float64 and a shape other than ``shape`` are each a ``DataError`` naming
    the file.
    """
    try:
        with path.open("rb") as fh:
            grid = np.load(fh, allow_pickle=False)
    except FileNotFoundError:
        raise DataError(f"missing file {path}") from None
    except (OSError, ValueError, EOFError) as exc:
        raise DataError(f"{path}: cannot read: {exc}") from exc
    if not isinstance(grid, np.ndarray):  # an .npz archive
        raise DataError(f"{path}: cannot read: not a .npy array")
    if grid.dtype != np.dtype(np.float64):
        raise DataError(f"{path}: dtype {grid.dtype.str} is not native float64")
    if grid.shape != shape:
        raise DataError(f"{path}: grid {grid.shape} does not match the "
                        f"{shape[0]}x{shape[1]} metadata frame")
    return grid


def load(directory, panel_id: str) -> Panel:
    """Rebuild a saved panel bit-exactly from its ``<id>.meta.json`` and ``<id>.npy``."""
    dates, assets, provenance = _read_meta(directory, panel_id)
    values = read_grid(Path(directory) / f"{panel_id}.npy", (len(dates), len(assets)))
    grid = values
    while isinstance(grid, np.ndarray):  # np.load may return a view of the array it
        grid.setflags(write=False)  # read; nothing else holds either, so the panel shares
        grid = grid.base
    return Panel(panel_id, dates, assets, values, provenance)


def load_registry(directory) -> PanelRegistry:
    """Restore a registry from a directory's ``.meta.json`` files; values load on first ``get``."""
    directory = Path(directory)
    ids = [path.name[: -len(".meta.json")] for path in sorted(directory.glob("*.meta.json"))]
    saved = {i: _Saved(directory, _read_meta(directory, i)[2]) for i in ids}
    registry = PanelRegistry()
    for panel_id in sorted(saved, key=lambda i: saved[i].provenance.created_seq):
        registry._restore(panel_id, saved[panel_id])
    return registry


# -- provenance graph ------------------------------------------------------


def export_graph(registry: PanelRegistry, root_id: str) -> tuple[dict, str]:
    """Transitive-input subgraph of ``root_id`` as (JSON document, DOT text).

    Only provenance records are walked, so no saved value file is read. Nodes
    come out in topological order (inputs before outputs), which a walk
    ordered by registration sequence guarantees.
    """
    reached = {}
    stack = [root_id]
    while stack:
        panel_id = stack.pop()
        if panel_id in reached:
            continue
        reached[panel_id] = registry.provenance(panel_id)
        stack.extend(reached[panel_id].input_ids)

    ordered = sorted(reached.items(), key=lambda item: item[1].created_seq)
    nodes = [
        {"id": panel_id, "op_name": record.op_name, "params": dict(record.params)}
        for panel_id, record in ordered
    ]
    edges = [
        {"from": input_id, "to": panel_id}
        for panel_id, record in ordered
        for input_id in record.input_ids
    ]
    doc = {"root": root_id, "nodes": nodes, "edges": edges}

    lines = ["digraph provenance {", "  rankdir=LR;"]
    for node in nodes:
        lines.append(f'  "{node["id"]}" [label="{node["id"]}\\n{node["op_name"]}"];')
    for edge in edges:
        lines.append(f'  "{edge["from"]}" -> "{edge["to"]}";')
    lines.append("}")
    return doc, "\n".join(lines) + "\n"
