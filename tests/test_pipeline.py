"""End-to-end check of the shipped recipes against the straight-loop oracles."""

from __future__ import annotations

import numpy as np
import pytest

from factorlab import pipeline
from factorlab.errors import DataError, RecipeError, StepExecutionError
from factorlab.panel import PanelRegistry

from . import oracles
from .conftest import make_panel, nonmissing_cells

TOLERANCE = 1e-12


@pytest.mark.parametrize("recipe, output, n_values", [
    ("hml", "HML_spread", 102),
    ("jkp_momentum", "MOM_spread", 107),
    ("ewma_vol", "EWMA_VOL", 5328),
    ("market_vw", "MKT", 119),
])
def test_recipe_matches_oracle(recipe, output, n_values, source_panels, synthetic_dir):
    oracle = oracles.recipe_oracle(recipe, synthetic_dir / "monthly.csv",
                                   synthetic_dir / "annual.csv")
    spec = pipeline.load_recipe(recipe)
    registry, result = pipeline.run_recipe(spec, {s: source_panels[s] for s in spec.sources})
    produced = nonmissing_cells(registry.get(result.outputs[output]))
    assert set(produced) == set(oracle)
    assert len(produced) == n_values
    assert max(abs(produced[m] - oracle[m]) for m in oracle) <= TOLERANCE


def _two_step_recipe(second: dict) -> pipeline.PipelineSpec:
    return pipeline.parse_and_validate({
        "name": "two_steps",
        "sources": ["X"],
        "steps": [{"op": "unary_op", "inputs": ["X"], "args": {"op": "neg"}, "output": "A"},
                  {**second, "inputs": ["A"], "output": "B"}],
    })


@pytest.mark.parametrize("second, message", [
    ({"op": "lag", "args": {"k": 5}}, "step 1: op 'lag' produced no non-missing values"),
    ({"op": "trend", "args": {"name": "ewma", "params": {"bogus": 1}}},
     "step 1: op 'trend' failed: "),
])
def test_failing_step_keeps_earlier_outputs(second, message):
    source = make_panel("X", ["2000-01", "2000-02", "2000-03"], ["a", "b"],
                        [[1.0, 2.0], [3.0, None], [5.0, 6.0]])
    registry = PanelRegistry()
    registry.register(source)
    with pytest.raises(StepExecutionError) as exc:
        pipeline.execute(_two_step_recipe(second), registry)
    assert str(exc.value).startswith(message)
    assert exc.value.step == 1
    assert exc.value.outputs == {"A": "A"}
    assert registry.ids() == ["X", "A"]
    np.testing.assert_array_equal(registry.get("A").values, -source.values)


def test_step_log_records_shape_and_coverage(source_panels):
    spec = pipeline.load_recipe("jkp_momentum")
    registry, result = pipeline.run_recipe(spec, {s: source_panels[s] for s in spec.sources})
    assert [entry["step"] for entry in result.log] == list(range(len(spec.steps)))
    for entry, step in zip(result.log, spec.steps):
        panel = registry.get(entry["panel_id"])
        assert (entry["op"], entry["output"]) == (step.op, step.output)
        assert (entry["n_dates"], entry["n_assets"]) == panel.values.shape
        assert entry["n_nonmissing"] == panel.n_nonmissing()
        assert entry["n_months_nonnull"] == int((~np.isnan(panel.values)).any(axis=1).sum())


def test_recipe_that_is_a_directory_or_not_text_is_a_data_error(tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    for ref in ("", str(tmp_path), str(binary)):
        with pytest.raises(DataError):
            pipeline.load_recipe(ref)


MASK_STEP = {"op": "mask", "inputs": ["X", "X"], "args": {"keep_if": "zero"}, "output": "M"}


@pytest.mark.parametrize("recipe, step, field", [
    ({"name": "r", "sources": ["X"], "steps": [MASK_STEP], "description": "d"},
     None, "description"),
    ({"name": "r", "sources": ["X"], "steps": [MASK_STEP, {**MASK_STEP, "output": "N",
                                                           "note": "n"}]}, 1, "note"),
    # a misspelled "args": the step would otherwise run on the default keep_if
    ({"name": "r", "sources": ["X"], "steps": [
        {"op": "mask", "inputs": ["X", "X"], "arg": {"keep_if": "zero"}, "output": "M"}]},
     0, "arg"),
])
def test_an_unknown_recipe_or_step_key_is_refused(recipe, step, field):
    with pytest.raises(RecipeError) as exc:
        pipeline.parse_and_validate(recipe)
    assert (exc.value.step, exc.value.field) == (step, field)


def test_an_override_the_recipe_does_not_declare_is_refused():
    with pytest.raises(RecipeError) as exc:
        pipeline.load_recipe("jkp_momentum", overrides={"mom_window": 6, "mom_windw": 6})
    assert (exc.value.step, exc.value.field) == (None, "params")
    assert str(exc.value) == ("params: unknown param 'mom_windw'; the recipe declares "
                              "['mom_min_obs', 'mom_skip', 'mom_window']")


@pytest.mark.parametrize("override, message", [
    ({"mom_window": 0}, "step 0: window: value 0 outside [1, inf)"),
    ({"mom_skip": 13}, "step 0: window 12 must exceed skip 13"),
    ({"mom_min_obs": 0}, "step 0: min_obs: value 0 outside [1, inf)"),
])
def test_an_argument_error_names_its_field_once(override, message):
    with pytest.raises(RecipeError) as exc:
        pipeline.load_recipe("jkp_momentum", overrides=override)
    assert str(exc.value) == message
