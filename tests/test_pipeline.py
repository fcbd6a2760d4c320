"""End-to-end check of the shipped recipes against the straight-loop oracles."""

from __future__ import annotations

import numpy as np
import pytest

from factorlab import pipeline

from . import oracles

TOLERANCE = 1e-12


def _spread(recipe: str, output: str, sources) -> dict[int, float]:
    spec = pipeline.load_recipe(recipe)
    registry, result = pipeline.run_recipe(spec, {s: sources[s] for s in spec.sources})
    panel = registry.get(result.outputs[output])
    return {int(o): float(v) for o, v in zip(panel.dates.ordinals, panel.values[:, 0])
            if not np.isnan(v)}


@pytest.mark.parametrize("recipe, output, n_months", [
    ("hml", "HML_spread", 102),
    ("jkp_momentum", "MOM_spread", 107),
])
def test_recipe_matches_oracle(recipe, output, n_months, source_panels, synthetic_dir):
    monthly, annual = synthetic_dir / "monthly.csv", synthetic_dir / "annual.csv"
    oracle = (oracles.hml_bruteforce(monthly, annual) if recipe == "hml"
              else oracles.jkp_bruteforce(monthly))
    produced = _spread(recipe, output, source_panels)
    assert set(produced) == set(oracle)
    assert len(produced) == n_months
    assert max(abs(produced[m] - oracle[m]) for m in oracle) <= TOLERANCE
