"""Span tracer that times calls into factorlab's public functions from outside.

The tracer wraps each target function (``"<module>:<qualname>"`` under the
``factorlab`` package) in a recording wrapper, everywhere the function is
reachable: the module attribute, every ``from ... import`` alias in another
factorlab module, and module-level dicts that hold it (``cli.COMMANDS``).
Methods are wrapped on their class. Spans are kept in memory; a layer's self
time is its span's duration minus the part of that interval its child spans
cover.

A target that no longer resolves (renamed or removed by a refactor) is
reported in ``Tracer.missing`` and its metrics read zero; nothing crashes.
Untraced passes never construct a Tracer, so they run unwrapped code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

PACKAGE = "factorlab"


def _ingest_rows(result):
    return {"ingest.rows": result.n_rows}


def _saved_bytes(result):
    return {"panel.save.bytes": sum(Path(p).stat().st_size for p in result)}


def _flag_count(result):
    return {"pipeline.flags": len(result.flags)}


# target -> None, or a function of its result giving {counter: increment}
TARGETS = {
    "ingest:ingest_monthly": _ingest_rows,
    "ingest:ingest_annual": _ingest_rows,
    "ingest:book_equity": None,
    "ingest:book_to_market": None,
    "panel:save": _saved_bytes,
    "panel:load": None,
    "panel:load_registry": None,
    "panel:PanelRegistry.register": None,
    "panel:Panel.payload": None,
    "transforms:align_panels": None,
    "transforms:ewma": None,
    "transforms:quantile_bins": None,
    "transforms:rolling_compound_return": None,
    "transforms:winsorize": None,
    "transforms:compare": None,
    "transforms:xs_percentile_row": None,
    "transforms:annual_to_monthly": None,
    "transforms:binary_op": None,
    "transforms:mask": None,
    "portfolio:independent_sort_2x3": None,
    "portfolio:weights_from_membership": None,
    "portfolio:portfolio_return": None,
    "portfolio:spread_2x3": None,
    "portfolio:spread_topbottom": None,
    "ops:validate_args": None,
    "ops:execute_operator": None,
    "pipeline:parse_and_validate": None,
    "pipeline:execute": _flag_count,
    "pipeline:run_recipe": None,
    "riskstats:ts_regress": None,
    "riskstats:size_stratified_alphas": None,
    "riskstats:coverage_by_period": None,
    "riskstats:summarize": None,
    "report:build_report": None,
    "report:render_markdown": None,
    "report:render_json": None,
    "evalharness:evaluate_task": None,
    "evalharness:align": None,
    "cli:cmd_ingest": None,
    "cli:cmd_run": None,
    "cli:cmd_report": None,
}

# counters reported besides per-target ``.s`` and ``.calls``
COUNTERS = ("ingest.rows", "panel.save.bytes", "pipeline.flags")


def span_name(target: str) -> str:
    """``"panel:Panel.payload"`` -> ``"panel.Panel.payload"``."""
    return target.replace(":", ".", 1)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's interval and merged, so
    overlapping or out-of-range children are never subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, span.start), min(hi, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((span.end - span.start) - covered)
    return out


@dataclass
class Tracer:
    """Records spans for the wrapped targets between ``install`` and ``uninstall``."""

    targets: dict = field(default_factory=lambda: dict(TARGETS))
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _undo: list = field(default_factory=list)

    # -- recording --------------------------------------------------------------

    def _wrap(self, name, fn, count):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, time.perf_counter(), parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(result).items():
                    counters[key] = counters.get(key, 0) + value
            return result

        return traced

    # -- patching ---------------------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self) -> "Tracer":
        owners = {}
        for target in self.targets:
            module_name = target.partition(":")[0]
            try:
                owners[target] = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                pass
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for target, count in self.targets.items():
            qualname = target.partition(":")[2]
            owner = owners.get(target)
            if owner is None:
                self.missing.append(target)
                continue
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if path and isinstance(owner, type):  # a method: patch the class defining it
                owner = next((k for k in owner.__mro__ if attr in vars(k)), None)
                original = vars(owner)[attr] if owner is not None else None
                if inspect.isfunction(original):
                    self._set(owner, attr, self._wrap(span_name(target), original, count))
                else:
                    self.missing.append(target)
                continue
            original = getattr(owner, attr, None) if owner is not None else None
            if path or not callable(original):
                self.missing.append(target)
                continue
            wrapper = self._wrap(span_name(target), original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for k, v in list(value.items()):
                            if v is original:
                                self._set(value, k, wrapper)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- summary ----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """``<name>.s`` (summed self time) and ``<name>.calls`` for every target."""
        out = {}
        for target in self.targets:
            name = span_name(target)
            out[f"{name}.s"] = 0.0
            out[f"{name}.calls"] = 0
        for span, own in zip(self.spans, self_times(self.spans)):
            out[f"{span.name}.s"] += own
            out[f"{span.name}.calls"] += 1
        for key in COUNTERS:
            out[key] = self.counters.get(key, 0)
        return out
