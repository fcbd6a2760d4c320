from __future__ import annotations

import inspect
import json
import math

import pytest

from factorlab import transforms
from factorlab.errors import RecipeError
from factorlab.ops import OPERATORS, ArgError, apply_step, get_operator, validate_args
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
