from __future__ import annotations

import inspect
import json
import math

import pytest

from factorlab import transforms
from factorlab.errors import RecipeError
from factorlab.ops import (
    OPERATORS,
    ArgError,
    OperatorSpec,
    ParamSpec,
    apply_step,
    get_operator,
    validate_args,
)
from factorlab.panel import PanelRegistry
from factorlab.pipeline import parse_and_validate
from factorlab.toolserver import INVALID_PARAMS, ToolServer

from .conftest import make_panel

NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("op, args, param", [
    ("winsorize", {"lo_pct": 1.0}, "hi_pct"),
    ("compare", {"op": "lt"}, "threshold"),
])
def test_non_finite_number_rejected(op, args, param, value):
    with pytest.raises(ArgError) as exc:
        validate_args(get_operator(op), {**args, param: value}, 1)
    assert exc.value.param == param


def test_integer_too_large_for_a_float_rejected():
    with pytest.raises(ArgError) as exc:
        validate_args(get_operator("compare"), {"op": "lt", "threshold": 10 ** 400}, 1)
    assert exc.value.param == "threshold"


def test_non_finite_element_of_number_list_rejected():
    with pytest.raises(ArgError) as exc:
        validate_args(get_operator("quantile_bins"), {"percentiles": [30.0, math.nan]}, 1)
    assert exc.value.param == "percentiles"


def test_recipe_with_nan_argument_rejected():
    recipe = {
        "name": "nan_threshold",
        "sources": ["X"],
        "steps": [{"op": "compare", "inputs": ["X"], "output": "Y",
                   "args": {"op": "lt", "threshold": math.nan}}],
    }
    with pytest.raises(RecipeError):
        parse_and_validate(recipe)


def test_tool_server_answers_nan_with_invalid_params():
    server = ToolServer()
    server.registry.register(make_panel("X", ["1990-01"], ["a", "b"], [[1.0, 2.0]]))
    request = {"jsonrpc": "2.0", "id": 1, "method": "tools/call",
               "params": {"name": "winsorize",
                          "arguments": {"inputs": ["X"], "args": {"hi_pct": math.nan}}}}
    response = json.loads(server.handle_line(json.dumps(request)))
    assert response["error"]["code"] == INVALID_PARAMS
    assert response["error"]["data"] == {"param": "hi_pct"}


# -- the operator table against the operator functions ------------------------------


@pytest.mark.parametrize("spec", OPERATORS.values(), ids=list(OPERATORS))
def test_every_operator_function_takes_its_inputs_and_arguments(spec):
    fn = getattr(spec.module, spec.name)
    signature = inspect.signature(fn)
    inputs = [object()] * spec.inputs_min
    args = {p.name: object() for p in spec.params}
    signature.bind(*inputs, **args)
    if spec.inputs_max is None:
        assert spec.optional_input is None
        signature.bind(*inputs, object(), object(), **args)
    elif spec.inputs_max > spec.inputs_min:
        assert spec.inputs_max == spec.inputs_min + 1
        signature.bind(*inputs, **{**args, spec.optional_input: object()})
    else:
        assert spec.optional_input is None


def test_apply_step_calls_the_function_on_its_module_at_call_time(monkeypatch):
    calls = []
    original = transforms.quantile_bins

    def recording(*args, **kwargs):
        calls.append(sorted(kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(transforms, "quantile_bins", recording)
    registry = PanelRegistry()
    registry.register(make_panel("X", ["1990-01"], ["a", "b"], [[1.0, 2.0]]))
    registry.register(make_panel("U", ["1990-01"], ["a", "b"], [[1.0, 1.0]]))
    panel_id, record = apply_step(registry, "quantile_bins", ["X", "U"],
                                  {"percentiles": [50.0]})
    assert calls == [["flags", "percentiles", "universe"]]
    assert registry.get(panel_id).values.tolist() == [[1.0, 2.0]]
    assert record["flags"] == []


@pytest.mark.parametrize("op, args", [
    ("quantile_bins", {"percentiles": [50.0]}),
    ("xs_percentile_row", {"pct": 50.0}),
])
def test_apply_step_flags_a_date_with_an_empty_universe(op, args):
    periods = ["1990-01", "1990-02"]
    registry = PanelRegistry()
    registry.register(make_panel("X", periods, ["a", "b"], [[1.0, 2.0], [3.0, 4.0]]))
    registry.register(make_panel("U", periods, ["a", "b"], [[1.0, 1.0], [0.0, 0.0]]))
    panel_id, record = apply_step(registry, op, ["X", "U"], args)
    assert record["flags"] == [f"{op}: 1990-02: empty universe"]
    values = registry.get(panel_id).values
    assert all(map(math.isnan, values[1]))
    assert not any(map(math.isnan, values[0]))


# -- each argument rule has one home: the operator table ------------------------------
#
# One row per check an operator function used to repeat, and per int()/float()
# coercion it used to apply: the table refuses the value the same way in
# validate_args, in a recipe step and in a tool call, so the function never sees it.

ROLLING_STAT = {"window": 3, "stat": "mean"}
ANNUAL = {"placement_month": 12, "offset": 6, "valid_months": 12}

ARGUMENT_RULES = [
    pytest.param("binary_op", {"op": "pow"}, 2, "op", id="binary_op-op-choices"),
    pytest.param("unary_op", {"op": "sqrt"}, 1, "op", id="unary_op-op-choices"),
    pytest.param("coalesce", {}, 0, "inputs", id="coalesce-no-inputs"),
    pytest.param("winsorize", {}, 1, "lo_pct", id="winsorize-no-bound"),
    pytest.param("winsorize", {"lo_pct": -1.0}, 1, "lo_pct", id="winsorize-lo-range"),
    pytest.param("winsorize", {"hi_pct": 100.5}, 1, "hi_pct", id="winsorize-hi-range"),
    pytest.param("winsorize", {"lo_pct": 80, "hi_pct": 20}, 1, "lo_pct",
                 id="winsorize-lo-above-hi"),
    pytest.param("winsorize", {"lo_pct": 50, "hi_pct": 50}, 1, "lo_pct",
                 id="winsorize-lo-equals-hi"),
    pytest.param("quantile_bins", {"percentiles": []}, 1, "percentiles",
                 id="quantile_bins-empty"),
    pytest.param("quantile_bins", {"percentiles": [0]}, 1, "percentiles",
                 id="quantile_bins-zero"),
    pytest.param("quantile_bins", {"percentiles": [30, 100]}, 1, "percentiles",
                 id="quantile_bins-hundred"),
    pytest.param("quantile_bins", {"percentiles": [30, 30]}, 1, "percentiles",
                 id="quantile_bins-not-increasing"),
    pytest.param("quantile_bins", {"percentiles": ["30"]}, 1, "percentiles",
                 id="quantile_bins-not-numbers"),
    pytest.param("mask", {"keep_if": "positive"}, 2, "keep_if", id="mask-keep_if-choices"),
    pytest.param("compare", {"op": "gt", "threshold": 0.0}, 1, "op", id="compare-op-choices"),
    pytest.param("compare", {"op": "lt", "threshold": "0"}, 1, "threshold",
                 id="compare-threshold-type"),
    pytest.param("xs_percentile_row", {"pct": 0}, 1, "pct", id="xs_percentile_row-zero"),
    pytest.param("xs_percentile_row", {"pct": 100}, 1, "pct", id="xs_percentile_row-hundred"),
    pytest.param("lag", {"k": 0}, 1, "k", id="lag-k-range"),
    pytest.param("lag", {"k": 1.5}, 1, "k", id="lag-k-type"),
    pytest.param("rolling_compound_return", {"window": 12.0}, 1, "window",
                 id="rolling_compound_return-window-type"),
    pytest.param("rolling_compound_return", {"window": 12, "skip": 12}, 1, "window",
                 id="rolling_compound_return-window-not-above-skip"),
    pytest.param("rolling_compound_return", {"window": 12, "skip": -1}, 1, "skip",
                 id="rolling_compound_return-skip-range"),
    pytest.param("rolling_compound_return", {"window": 12, "skip": 1, "min_obs": 0}, 1,
                 "min_obs", id="rolling_compound_return-min_obs-zero"),
    pytest.param("rolling_compound_return", {"window": 12, "skip": 1, "min_obs": 12}, 1,
                 "min_obs", id="rolling_compound_return-min_obs-above-span"),
    pytest.param("rolling_stat", {"window": 3, "stat": "median"}, 1, "stat",
                 id="rolling_stat-stat-choices"),
    pytest.param("rolling_stat", {**ROLLING_STAT, "window": 0}, 1, "window",
                 id="rolling_stat-window-range"),
    pytest.param("rolling_stat", {**ROLLING_STAT, "min_obs": 0}, 1, "min_obs",
                 id="rolling_stat-min_obs-zero"),
    pytest.param("rolling_stat", {**ROLLING_STAT, "min_obs": 4}, 1, "min_obs",
                 id="rolling_stat-min_obs-above-window"),
    pytest.param("ewma", {"alpha": 0}, 1, "alpha", id="ewma-alpha-zero"),
    pytest.param("ewma", {"alpha": 1.5}, 1, "alpha", id="ewma-alpha-above-one"),
    pytest.param("ewma", {"alpha": "0.5"}, 1, "alpha", id="ewma-alpha-type"),
    pytest.param("ewma", {"alpha": 0.5, "min_periods": 0}, 1, "min_periods",
                 id="ewma-min_periods-range"),
    pytest.param("trend", {"name": "frobnicate"}, 1, "name", id="trend-unknown-name"),
    pytest.param("annual_to_monthly", {**ANNUAL, "placement_month": 0}, 1,
                 "placement_month", id="annual_to_monthly-placement-zero"),
    pytest.param("annual_to_monthly", {**ANNUAL, "placement_month": 13}, 1,
                 "placement_month", id="annual_to_monthly-placement-thirteen"),
    pytest.param("annual_to_monthly", {**ANNUAL, "offset": -1}, 1, "offset",
                 id="annual_to_monthly-offset-range"),
    pytest.param("annual_to_monthly", {**ANNUAL, "valid_months": 0}, 1, "valid_months",
                 id="annual_to_monthly-valid_months-range"),
    pytest.param("independent_sort_2x3", {"cell": "XX"}, 2, "cell",
                 id="independent_sort_2x3-cell-choices"),
    pytest.param("spread_2x3", {}, 5, "inputs", id="spread_2x3-five-legs"),
]


@pytest.mark.parametrize("op, args, n_inputs, param", ARGUMENT_RULES)
def test_each_argument_rule_is_refused_at_every_boundary(op, args, n_inputs, param):
    with pytest.raises(ArgError) as exc:
        validate_args(get_operator(op), args, n_inputs)
    assert exc.value.param == param

    recipe = {"name": "boundary", "sources": ["X"], "steps": [
        {"op": "lag", "inputs": ["X"], "args": {"k": 1}, "output": "L"},
        {"op": op, "inputs": ["L"] * n_inputs, "args": args, "output": "Y"},
    ]}
    with pytest.raises(RecipeError) as exc:
        parse_and_validate(recipe)
    assert (exc.value.step, exc.value.field) == (1, param)

    server = ToolServer()
    server.registry.register(make_panel("X", ["1990-01"], ["a", "b"], [[1.0, 2.0]]))
    request = {"jsonrpc": "2.0", "id": 1, "method": "tools/call",
               "params": {"name": op, "arguments": {"inputs": ["X"] * n_inputs,
                                                    "args": args}}}
    response = json.loads(server.handle_line(json.dumps(request)))
    assert response["error"]["code"] == INVALID_PARAMS
    assert response["error"]["data"] == {"param": param}
    assert server.registry.ids() == ["X"]


@pytest.mark.parametrize("bounds, value, text", [
    ({"minimum": 1}, 0, "value 0 outside [1, inf)"),
    ({"maximum": 5, "exclusive_max": True}, 5, "value 5 outside (-inf, 5)"),
    ({"minimum": 0, "maximum": 100, "exclusive_min": True}, 0, "value 0 outside (0, 100]"),
])
def test_a_range_error_prints_only_the_bounds_it_has(bounds, value, text):
    spec = OperatorSpec("probe", "", 0, 0, "", (ParamSpec("w", "int", **bounds),), "panel")
    with pytest.raises(ArgError) as exc:
        validate_args(spec, {"w": value}, 0)
    assert str(exc.value) == f"w: {text}"
