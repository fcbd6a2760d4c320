"""Operator registry: one declarative spec per panel operator.

The pipeline interpreter validates recipe steps against these specs, and the
tool server derives its callable-tool descriptors from the same table, so
static validation and the wire schema cannot drift apart. Both run a step
through ``apply_step``, so they compute, check and record it the same way,
and both share the registry's step-reuse map: a step already computed in the
session, on the same op, canonical arguments and input contents, registers
a new panel sharing the first output's grid instead of running again. Every
operator takes part, so each one's result must depend on its step key alone.
``validate_args`` is the one check of an operator's arguments: the functions
trust what it returns and check only the data. The one exception is the keys
of ``trend``'s ``params`` map, which the chosen transform's own signature
refuses with ``TypeError``.
The tool server declares and checks its non-operator tools with the same
``OperatorSpec``/``validate_args`` (no module, no inputs); they stay out of
``OPERATORS``, so recipes cannot name them.

Each operator is the function of the same name in its spec's module, and
``execute_operator`` calls every one by a single rule: the input panels go in
positionally, except that an input past ``inputs_min`` goes in by the spec's
``optional_input`` keyword; the validated args go in by name; and the step's
flag list goes in as ``flags`` when the function takes that parameter. The
functions return fully-provenanced panels; operators whose natural result is
a per-date scalar series return a one-column panel.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from dataclasses import dataclass
from functools import cached_property
from types import ModuleType
from typing import Callable, Sequence

import numpy as np

from . import ingest, portfolio, transforms
from .errors import EngineError, RegistryError, StepExecutionError
from .panel import Panel, PanelRegistry


class ArgError(EngineError):
    """An operator argument failed validation; ``param`` names the field."""

    def __init__(self, message, param=None):
        self.param = param
        super().__init__(message)


@dataclass(frozen=True)
class ParamSpec:
    name: str
    type: str  # number | int | string | bool | number_list | map
    required: bool = False
    doc: str = ""
    default: object = None
    choices: tuple | None = None
    minimum: float | None = None
    maximum: float | None = None
    exclusive_min: bool = False
    exclusive_max: bool = False


@dataclass(frozen=True)
class OperatorSpec:
    name: str
    description: str
    inputs_min: int
    inputs_max: int | None  # None = variadic
    input_doc: str
    params: tuple[ParamSpec, ...]
    returns: str  # "panel", "series", or the result type of a non-operator tool
    module: ModuleType | None = None  # defines the operator's function, under its name
    optional_input: str | None = None  # keyword of an input past inputs_min
    cross_check: Callable | None = None

    @cached_property
    def param_names(self) -> frozenset[str]:
        return frozenset(p.name for p in self.params)

    def describe(self) -> dict:
        """Wire-format tool descriptor; deterministic field order by construction."""
        return {
            "name": self.name,
            "description": self.description,
            "inputs": {
                "min": self.inputs_min,
                "max": self.inputs_max,
                "doc": self.input_doc,
            },
            "parameters": [
                {
                    "name": p.name,
                    "type": p.type,
                    "required": p.required,
                    "doc": p.doc,
                }
                for p in self.params
            ],
            "returns": {"type": self.returns},
        }


def _finite(p: ParamSpec, value) -> float:
    """``value`` as a float; NaN and infinities pass no range check, so refuse them."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ArgError(f"{p.name}: expected a finite number, got {value!r}", p.name)
    return number


def _check_type(p: ParamSpec, value):
    if p.type == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ArgError(f"{p.name}: expected a number, got {value!r}", p.name)
        return _finite(p, value)
    if p.type == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ArgError(f"{p.name}: expected an integer, got {value!r}", p.name)
        return int(value)
    if p.type == "string":
        if not isinstance(value, str) or not value:
            raise ArgError(f"{p.name}: expected a non-empty string, got {value!r}", p.name)
        return value
    if p.type == "bool":
        if not isinstance(value, bool):
            raise ArgError(f"{p.name}: expected a boolean, got {value!r}", p.name)
        return value
    if p.type == "number_list":
        if not isinstance(value, list) or not value or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in value
        ):
            raise ArgError(f"{p.name}: expected a non-empty list of numbers", p.name)
        return [_finite(p, v) for v in value]
    if p.type == "map":
        if not isinstance(value, dict) or any(not isinstance(k, str) for k in value):
            raise ArgError(f"{p.name}: expected an object with string keys", p.name)
        return dict(value)
    raise ArgError(f"{p.name}: unknown parameter type {p.type!r}", p.name)


def _check_range(p: ParamSpec, value):
    def out_of_range(v):
        if p.minimum is not None and (v < p.minimum or (p.exclusive_min and v == p.minimum)):
            return True
        if p.maximum is not None and (v > p.maximum or (p.exclusive_max and v == p.maximum)):
            return True
        return False

    lo = "(-inf" if p.minimum is None else f"{'(' if p.exclusive_min else '['}{p.minimum}"
    hi = "inf)" if p.maximum is None else f"{p.maximum}{')' if p.exclusive_max else ']'}"
    bounds = f"{lo}, {hi}"
    if p.type in ("number", "int") and out_of_range(value):
        raise ArgError(f"{p.name}: value {value} outside {bounds}", p.name)
    if p.type == "number_list":
        for v in value:
            if out_of_range(v):
                raise ArgError(f"{p.name}: element {v} outside {bounds}", p.name)


def validate_args(spec: OperatorSpec, args: dict, n_inputs: int) -> dict:
    """Type-check and normalize an argument map; raises ArgError naming the field."""
    if not isinstance(args, dict):
        raise ArgError("args must be an object", "args")
    for key in args:
        if key not in spec.param_names:
            raise ArgError(f"unknown argument {key!r} for op {spec.name!r}", key)
    if spec.inputs_max is not None and not spec.inputs_min <= n_inputs <= spec.inputs_max:
        expect = (str(spec.inputs_min) if spec.inputs_min == spec.inputs_max
                  else f"{spec.inputs_min}..{spec.inputs_max}")
        raise ArgError(f"op {spec.name!r} takes {expect} inputs, got {n_inputs}", "inputs")
    if spec.inputs_max is None and n_inputs < spec.inputs_min:
        raise ArgError(
            f"op {spec.name!r} takes at least {spec.inputs_min} inputs, got {n_inputs}",
            "inputs",
        )

    out = {}
    for p in spec.params:
        if p.name in args and args[p.name] is not None:
            value = _check_type(p, args[p.name])
            _check_range(p, value)
            if p.choices is not None and value not in p.choices:
                raise ArgError(
                    f"{p.name}: {value!r} not one of {sorted(p.choices)}", p.name
                )
            out[p.name] = value
        elif p.required:
            raise ArgError(f"missing required argument {p.name!r}", p.name)
        else:
            out[p.name] = p.default
    if spec.cross_check is not None:
        spec.cross_check(out, n_inputs)
    return out


def execute_operator(spec: OperatorSpec, inputs: Sequence[Panel], args: dict,
                     flags: list[str] | None = None) -> Panel:
    """Call the operator's function on validated args by the one calling rule above.

    The function is looked up on its module at call time, so a wrapper put on
    the module attribute (a tracer, a test double) sees every call.
    """
    fn = getattr(spec.module, spec.name)
    inputs = list(inputs)
    kwargs = dict(args)
    if spec.optional_input is not None and len(inputs) > spec.inputs_min:
        kwargs[spec.optional_input] = inputs.pop()
    if spec.name in _TAKES_FLAGS:
        kwargs["flags"] = flags
    return fn(*inputs, **kwargs)


def apply_step(registry: PanelRegistry, op: str, input_ids: Sequence[str], args: dict,
               name: str | None = None) -> tuple[str, dict]:
    """Validate, execute and register one operator step; return its id and record.

    A bad argument, an unknown input id or an unusable output name raises
    ArgError naming the field, and an all-missing output raises
    StepExecutionError; whatever the operator's function raises propagates
    unchanged. The record holds the output's shape, non-missing cell and
    month counts, wall time and the function's flags.

    A step the registry has computed before, with the same op, canonical
    arguments and input contents (``PanelRegistry.step_key``), is not
    computed again: the registry registers a new panel with its own id and
    provenance that shares the first output's grid, and the record replays
    the first computation's counts and flags. A step that raised is not
    remembered, so its next call computes it again.
    """
    spec = get_operator(op)
    normalized = validate_args(spec, args, len(input_ids))
    input_ids = tuple(input_ids)
    key = registry.step_key(op, json.dumps(normalized, sort_keys=True), input_ids)
    started = time.perf_counter()
    try:
        reused = registry.reuse(key, input_ids, name)
    except RegistryError as exc:
        raise ArgError(str(exc), "name") from exc
    if reused:
        panel_id, (counts, flags) = reused
    else:
        try:
            panels = [registry.get(pid) for pid in input_ids]
        except RegistryError as exc:
            raise ArgError(str(exc), "inputs") from exc
        started = time.perf_counter()
        flags = []
        out = execute_operator(spec, panels, normalized, flags)
        live = ~np.isnan(out.values)
        n_nonmissing = int(np.count_nonzero(live))
        if n_nonmissing == 0:
            raise StepExecutionError(f"op {op!r} produced no non-missing values")
        try:
            panel_id = registry.register(out, name=name)
        except RegistryError as exc:
            raise ArgError(str(exc), "name") from exc
        counts = {
            "n_dates": out.n_dates,
            "n_assets": out.n_assets,
            "n_nonmissing": n_nonmissing,
            "n_months_nonnull": int(np.count_nonzero(live.any(axis=1))),
        }
        flags = tuple(flags)
        registry.remember(key, panel_id, input_ids, (counts, flags))
    return panel_id, {
        "op": op,
        "panel_id": panel_id,
        **counts,
        "seconds": round(time.perf_counter() - started, 6),
        "flags": list(flags),
    }


# -- cross-field checks ---------------------------------------------------------


def _winsorize_check(args, n_inputs):
    lo, hi = args["lo_pct"], args["hi_pct"]
    if lo is None and hi is None:
        raise ArgError("winsorize needs lo_pct or hi_pct", "lo_pct")
    if lo is not None and hi is not None and not lo < hi:
        raise ArgError(f"lo_pct {lo} must be below hi_pct {hi}", "lo_pct")


def _compare_check(args, n_inputs):
    if n_inputs == 1 and args["threshold"] is None:
        raise ArgError("compare needs a threshold input panel or a scalar threshold",
                       "threshold")
    if n_inputs == 2 and args["threshold"] is not None:
        raise ArgError("compare takes either a threshold input or a scalar, not both",
                       "threshold")


def _rolling_compound_check(args, n_inputs):
    window, skip, min_obs = args["window"], args["skip"], args["min_obs"]
    if not window > skip:
        raise ArgError(f"window {window} must exceed skip {skip}", "window")
    if min_obs is not None and min_obs > window - skip:
        raise ArgError(f"min_obs must lie in 1..{window - skip}", "min_obs")


def _rolling_stat_check(args, n_inputs):
    if args["min_obs"] > args["window"]:
        raise ArgError("min_obs must lie in 1..window", "min_obs")


def _quantile_check(args, n_inputs):
    pcts = args["percentiles"]
    if any(q <= p for p, q in zip(pcts, pcts[1:])):
        raise ArgError("percentiles must be strictly increasing", "percentiles")


OPERATORS: dict[str, OperatorSpec] = {spec.name: spec for spec in (
    OperatorSpec(
        "binary_op", "Element-wise add/sub/mul/div of two aligned panels.",
        2, 2, "left panel, right panel",
        (ParamSpec("op", "string", required=True, choices=transforms.BINARY_OPS,
                   doc="one of add, sub, mul, div"),),
        "panel", transforms,
    ),
    OperatorSpec(
        "unary_op", "Element-wise neg/abs/log/rank_sign_flip of a panel.",
        1, 1, "input panel",
        (ParamSpec("op", "string", required=True, choices=transforms.UNARY_OPS,
                   doc="one of neg, abs, log, rank_sign_flip"),),
        "panel", transforms,
    ),
    OperatorSpec(
        "coalesce", "Per cell, first non-missing value across the input panels in order.",
        1, None, "panels in preference order",
        (),
        "panel", transforms,
    ),
    OperatorSpec(
        "winsorize", "Clip each date's values to universe percentile bounds.",
        1, 2, "input panel, optional boolean universe panel",
        (
            ParamSpec("lo_pct", "number", doc="lower percentile in [0, 100]",
                      minimum=0.0, maximum=100.0),
            ParamSpec("hi_pct", "number", doc="upper percentile in [0, 100]",
                      minimum=0.0, maximum=100.0),
        ),
        "panel", transforms, optional_input="universe", cross_check=_winsorize_check,
    ),
    OperatorSpec(
        "standardize", "Per date, demean and scale by the universe sample sd.",
        1, 2, "input panel, optional boolean universe panel",
        (),
        "panel", transforms, optional_input="universe",
    ),
    OperatorSpec(
        "quantile_bins", "Integer bins 1..len(percentiles)+1 from universe breakpoints.",
        1, 2, "input panel, optional boolean universe panel",
        (ParamSpec("percentiles", "number_list", required=True,
                   doc="strictly increasing breakpoint percentiles in (0, 100)",
                   minimum=0.0, maximum=100.0, exclusive_min=True, exclusive_max=True),),
        "panel", transforms, optional_input="universe", cross_check=_quantile_check,
    ),
    OperatorSpec(
        "mask", "Blank out cells failing a condition panel.",
        2, 2, "input panel, condition panel",
        (ParamSpec("keep_if", "string", default="nonzero", choices=("nonzero", "zero"),
                   doc="keep cells where the condition is nonzero (default) or zero"),),
        "panel", transforms,
    ),
    OperatorSpec(
        "compare", "Boolean panel comparing cells to a per-date threshold.",
        1, 2, "input panel, optional threshold series panel",
        (
            ParamSpec("op", "string", required=True, choices=transforms.COMPARE_OPS,
                      doc="lt (strict) or ge"),
            ParamSpec("threshold", "number", doc="scalar threshold when no series input"),
        ),
        "panel", transforms, optional_input="threshold", cross_check=_compare_check,
    ),
    OperatorSpec(
        "xs_percentile_row", "Per-date percentile of universe values, as a series.",
        1, 2, "input panel, optional boolean universe panel",
        (ParamSpec("pct", "number", required=True, doc="percentile strictly in (0, 100)",
                   minimum=0.0, maximum=100.0, exclusive_min=True, exclusive_max=True),),
        "series", transforms, optional_input="universe",
    ),
    OperatorSpec(
        "lag", "Shift values forward by k calendar months, per asset.",
        1, 1, "input panel",
        (ParamSpec("k", "int", required=True, doc="months to lag, k >= 1", minimum=1),),
        "panel", transforms,
    ),
    OperatorSpec(
        "rolling_compound_return",
        "Compound growth over calendar months t-window .. t-skip-1 per asset.",
        1, 1, "monthly return panel",
        (
            ParamSpec("window", "int", required=True, doc="trailing window length in months",
                      minimum=1),
            ParamSpec("skip", "int", default=0, doc="most recent months to skip", minimum=0),
            ParamSpec("min_obs", "int", doc="minimum non-missing returns; default window-skip",
                      minimum=1),
        ),
        "panel", transforms, cross_check=_rolling_compound_check,
    ),
    OperatorSpec(
        "rolling_stat", "Trailing-window mean/std/sum/min/max including the current month.",
        1, 1, "input panel",
        (
            ParamSpec("window", "int", required=True, doc="window length in months", minimum=1),
            ParamSpec("stat", "string", required=True, choices=transforms.ROLLING_STATS,
                      doc="one of mean, std, sum, min, max"),
            ParamSpec("min_obs", "int", default=1, doc="minimum non-missing observations",
                      minimum=1),
        ),
        "panel", transforms, cross_check=_rolling_stat_check,
    ),
    OperatorSpec(
        "ewma", "Recursive exponentially weighted mean over each asset's observations.",
        1, 1, "input panel",
        (
            ParamSpec("alpha", "number", required=True, doc="smoothing weight in (0, 1]",
                      minimum=0.0, maximum=1.0, exclusive_min=True),
            ParamSpec("min_periods", "int", default=1,
                      doc="observations required before output", minimum=1),
        ),
        "panel", transforms,
    ),
    OperatorSpec(
        "trend", "Apply identity, cumsum or ewma independently per asset.",
        1, 1, "input panel",
        (
            ParamSpec("name", "string", required=True,
                      choices=tuple(transforms.SERIES_TRANSFORMS),
                      doc="one of identity, cumsum, ewma"),
            ParamSpec("params", "map",
                      doc="keyword parameters: alpha and min_periods for ewma"),
        ),
        "panel", transforms,
    ),
    OperatorSpec(
        "annual_to_monthly", "Carry annual placement-month values forward monthly.",
        1, 1, "panel with values at placement months",
        (
            ParamSpec("placement_month", "int", required=True, doc="calendar month 1..12",
                      minimum=1, maximum=12),
            ParamSpec("offset", "int", required=True,
                      doc="months after placement when validity starts", minimum=0),
            ParamSpec("valid_months", "int", required=True, doc="validity span in months",
                      minimum=1),
        ),
        "panel", transforms,
    ),
    OperatorSpec(
        "book_equity",
        "Stockholder equity minus preferred stock (redemption, liquidation, par order).",
        4, 4, "seq, pstkrv, pstkl, pstk panels",
        (),
        "panel", ingest,
    ),
    OperatorSpec(
        "book_to_market",
        "December book equity over December company cap, usable from the following June.",
        2, 2, "book equity panel, company market equity panel",
        (),
        "panel", ingest,
    ),
    OperatorSpec(
        "weights_from_membership",
        "Long-only weights proportional to a weight basis over member cells.",
        1, 2, "boolean membership panel, optional weight basis panel",
        (),
        "panel", portfolio, optional_input="weight_by",
    ),
    OperatorSpec(
        "portfolio_return", "Next-month renormalized portfolio returns from weights.",
        2, 2, "weight panel, return panel",
        (),
        "series", portfolio,
    ),
    OperatorSpec(
        "independent_sort_2x3",
        "One 2x3 size-by-value intersection membership cell (SG, SN, SV, BG, BN, BV).",
        2, 2, "size bin panel (1..2), value bin panel (1..3)",
        (ParamSpec("cell", "string", required=True, choices=portfolio.SORT_CELLS_2X3,
                   doc="which intersection cell to emit"),),
        "panel", portfolio,
    ),
    OperatorSpec(
        "spread_2x3", "0.5*(SV+BV) - 0.5*(SG+BG) from six leg return series.",
        6, 6, "six leg series panels ordered SG, SN, SV, BG, BN, BV",
        (),
        "series", portfolio,
    ),
    OperatorSpec(
        "spread_topbottom", "Top leg minus bottom leg return series.",
        2, 2, "top series panel, bottom series panel",
        (),
        "series", portfolio,
    ),
    OperatorSpec(
        "turnover", "Half the absolute weight change between consecutive weight rows.",
        1, 1, "weight panel",
        (),
        "series", portfolio,
    ),
)}

# operators whose function records per-date flags; read once from the signatures
_TAKES_FLAGS = frozenset(
    name for name, spec in OPERATORS.items()
    if "flags" in inspect.signature(getattr(spec.module, name)).parameters
)


def get_operator(name: str) -> OperatorSpec:
    try:
        return OPERATORS[name]
    except KeyError:
        raise ArgError(f"unknown op {name!r}", "op") from None
