from __future__ import annotations

import inspect
import json
import math
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from factorlab import ops, transforms
from factorlab import panel as panelio
from factorlab.errors import DataError, RecipeError
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


# -- each step is computed once per registry ------------------------------------------


@pytest.fixture
def computed(monkeypatch):
    """The operators actually run, by name, from now on."""
    names, real = [], ops.execute_operator

    def counted(spec, *args, **kwargs):
        names.append(spec.name)
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(ops, "execute_operator", counted)
    return names


def small_registry() -> PanelRegistry:
    registry = PanelRegistry()
    periods = ["1990-01", "1990-02"]
    registry.register(make_panel("X", periods, ["a", "b"], [[1.0, 2.0], [3.0, -4.0]]))
    registry.register(make_panel("Y", periods, ["a", "b"], [[2.0, 1.0], [0.0, 5.0]]))
    registry.register(make_panel("U", periods, ["a", "b"], [[1.0, 1.0], [0.0, 0.0]]))
    return registry


def test_a_repeated_step_shares_the_grid_and_replays_the_record(computed):
    registry = small_registry()
    args = {"percentiles": [50.0]}
    first, record = apply_step(registry, "quantile_bins", ["X", "U"], args, name="Q")
    again, repeat = apply_step(registry, "quantile_bins", ["X", "U"], {"percentiles": [50]})
    assert computed == ["quantile_bins"]
    assert again != first
    assert registry.get(again).values is registry.get(first).values
    assert repeat["flags"] == record["flags"] == ["quantile_bins: 1990-02: empty universe"]
    assert {**repeat, "panel_id": first, "seconds": 0} == {**record, "seconds": 0}
    assert registry.provenance(again).created_seq == registry.provenance(first).created_seq + 1
    with pytest.raises(ValueError):
        registry.get(again).values[0, 0] = 5.0


@pytest.mark.parametrize("op, inputs, args", [
    pytest.param("compare", ["X"], {"op": "ge", "threshold": 0.0}, id="arg"),
    pytest.param("compare", ["X"], {"op": "lt", "threshold": -0.0}, id="minus-zero"),
    pytest.param("compare", ["Y"], {"op": "lt", "threshold": 0.0}, id="input"),
    pytest.param("unary_op", ["X"], {"op": "neg"}, id="op"),
])
def test_a_step_that_differs_is_computed(computed, op, inputs, args):
    registry = small_registry()
    apply_step(registry, "compare", ["X"], {"op": "lt", "threshold": 0.0})
    apply_step(registry, op, inputs, args)
    assert computed == ["compare", op]


def test_a_step_on_one_panel_twice_does_not_answer_one_on_two(computed):
    registry = small_registry()
    c, _ = apply_step(registry, "unary_op", ["X"], {"op": "neg"}, name="C")
    d, _ = apply_step(registry, "unary_op", ["X"], {"op": "neg"}, name="D")
    assert computed == ["unary_op"]  # so C and D have one content token
    same, _ = apply_step(registry, "binary_op", [c, c], {"op": "sub"})
    pair, _ = apply_step(registry, "binary_op", [c, d], {"op": "sub"})
    swapped, _ = apply_step(registry, "binary_op", [d, c], {"op": "sub"})
    twice, _ = apply_step(registry, "binary_op", [d, d], {"op": "sub"})
    assert computed == ["unary_op", "binary_op", "binary_op"]
    assert [registry.provenance(i).input_ids for i in (same, pair, swapped, twice)] == [
        ("C", "C"), ("C", "D"), ("D", "C"), ("D", "D")]


def test_a_step_that_raised_is_computed_again(computed, monkeypatch):
    registry = small_registry()
    real = transforms.unary_op

    def fails_once(*args, **kwargs):
        monkeypatch.setattr(transforms, "unary_op", real)
        raise DataError("transient")

    monkeypatch.setattr(transforms, "unary_op", fails_once)
    with pytest.raises(DataError, match="transient"):
        apply_step(registry, "unary_op", ["X"], {"op": "neg"})
    panel_id, _ = apply_step(registry, "unary_op", ["X"], {"op": "neg"})
    assert computed == ["unary_op", "unary_op"]
    assert registry.get(panel_id).values.tolist() == [[-1.0, -2.0], [-3.0, 4.0]]


def test_a_step_whose_name_is_refused_is_not_remembered(computed):
    registry = small_registry()
    with pytest.raises(ArgError) as exc:
        apply_step(registry, "unary_op", ["X"], {"op": "neg"}, name="../bad")
    assert exc.value.param == "name"
    apply_step(registry, "unary_op", ["X"], {"op": "neg"})
    with pytest.raises(ArgError) as exc:  # a repeat refuses the same name the same way
        apply_step(registry, "unary_op", ["X"], {"op": "neg"}, name="../bad")
    assert exc.value.param == "name"
    assert computed == ["unary_op", "unary_op"]
    assert registry.ids() == ["X", "Y", "U", "_4"]


def test_a_repeated_trend_is_answered_from_the_reuse_map(computed):
    registry = small_registry()
    first, _ = apply_step(registry, "trend", ["X"], {"name": "cumsum"})
    again, _ = apply_step(registry, "trend", ["X"], {"name": "cumsum"})
    assert computed == ["trend"]
    assert registry.get(again).values is registry.get(first).values
    assert registry.get(first).values.tolist() == [[1.0, 2.0], [4.0, -2.0]]


def test_a_trend_with_a_bad_params_key_is_not_remembered(computed):
    registry = small_registry()
    before = registry.ids()
    for _ in range(2):
        with pytest.raises(TypeError, match="bogus"):
            apply_step(registry, "trend", ["X"], {"name": "ewma", "params": {"bogus": 1}})
    assert computed == ["trend", "trend"]
    assert registry.ids() == before


CALLS = [  # (op, inputs, args, name): repeats of earlier calls, under their own names
    ("unary_op", ["X"], {"op": "neg"}, "N"),
    ("unary_op", ["X"], {"op": "neg"}, "N2"),
    ("binary_op", ["N", "Y"], {"op": "add"}, "S"),
    ("binary_op", ["N2", "Y"], {"op": "add"}, "S2"),
    ("quantile_bins", ["S2", "U"], {"percentiles": [50.0]}, None),
    ("quantile_bins", ["S", "U"], {"percentiles": [50.0]}, None),
]


def test_a_reused_step_is_recorded_as_a_computed_one(computed, monkeypatch, tmp_path):
    sessions = {}
    for mode in ("reused", "computed"):
        registry = small_registry()
        if mode == "computed":
            monkeypatch.setattr(registry, "reuse", lambda *args, **kwargs: None)
        ids = [apply_step(registry, op, inputs, args, name=name)[0]
               for op, inputs, args, name in CALLS]
        for panel_id in ids:
            panelio.save(registry.get(panel_id), tmp_path / mode)
        graphs = [panelio.export_graph(registry, panel_id) for panel_id in ids]
        files = {f.name: f.read_bytes() for f in sorted((tmp_path / mode).iterdir())}
        sessions[mode] = ids, [registry.provenance(i) for i in ids], graphs, files
    assert computed.count("unary_op") == 3  # once reused, twice computed
    assert sessions["reused"] == sessions["computed"]
    assert len(sessions["reused"][3]) == 2 * len(CALLS)


def test_threads_repeating_steps_in_one_registry_lose_no_panel():
    registry = small_registry()

    def chain(k: int) -> list[tuple[str, str]]:
        pairs = []
        for i in range(20):
            n, _ = apply_step(registry, "unary_op", ["X"], {"op": "neg"}, name=f"N{k}_{i}")
            pairs.append((n, apply_step(registry, "binary_op", [n, "Y"], {"op": "add"})[0]))
        return pairs

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(chain, k) for k in range(8)]
            outputs = [i for f in futures for i in f.result(timeout=60)]
    finally:
        sys.setswitchinterval(interval)
    assert len(registry) == 3 + 8 * 20 * 2
    assert len({out for _, out in outputs}) == len(outputs)
    for n, out in outputs:
        assert registry.get(out).values.tolist() == [[1.0, -1.0], [-3.0, 9.0]]
        assert registry.provenance(out).input_ids == (n, "Y")
        assert registry.provenance(n).input_ids == ("X",)


def test_the_agent_session_answers_as_it_would_computing_every_step(
        source_panels, tmp_path, monkeypatch, computed):
    """The benchmark's agent session, replayed with and without reuse: every
    response and every saved file is byte-identical, and most steps are reused."""
    from perfbench import workloads

    sources = tmp_path / "sources"
    for source in source_panels.values():
        panelio.save(source, sources)
    out = tmp_path / "out"
    plan = workloads.agent_plan(3, sources, out)
    sessions = {}
    for mode in ("computed", "reused"):
        server = ToolServer()
        if mode == "computed":
            monkeypatch.setattr(server.registry, "reuse", lambda *args, **kwargs: None)
        responses = []
        for request in plan:
            try:
                responses.append(server.handle_line(request.line))
            except Exception as exc:  # the two known escapes of handle_line
                responses.append(f"escaped: {type(exc).__name__}: {exc}")
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        shutil.rmtree(out)
        sessions[mode] = responses, files, len(computed)
        computed.clear()
    assert sessions["reused"][:2] == sessions["computed"][:2]
    assert len(sessions["reused"][1]) == 120
    assert sessions["reused"][2] < sessions["computed"][2] / 3
