from __future__ import annotations

import json
import math

import pytest

from factorlab.errors import RecipeError
from factorlab.ops import ArgError, get_operator, validate_args
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
