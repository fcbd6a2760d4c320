"""The SVG scatter plot: exact output for fixed inputs, and its input checks."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from factorlab.errors import DataError
from factorlab.plotting import scatter_svg

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "three_points": ([-0.02, 0.01, 0.03], [0.015, -0.01, 0.04]),
    "constant": ([0.02, 0.02], [0.02, 0.02]),  # one value: the range is padded by 10%
    "constant_zero": ([0.0, 0.0], [0.0, 0.0]),  # zero: the range is padded by 0.01
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_svg_matches_the_golden_file(case):
    x, y = CASES[case]
    svg = scatter_svg(np.array(x), np.array(y), x_label="benchmark: MKT",
                      y_label="factor: HML", title=f"HML vs MKT ({case})")
    assert svg == (GOLDEN / f"scatter_{case}.svg").read_text()


@pytest.mark.parametrize("x, y", [([], []), ([0.1, 0.2], [0.1])],
                         ids=["empty", "unequal_length"])
def test_bad_vectors_are_data_errors(x, y):
    with pytest.raises(DataError, match="equal-length non-empty"):
        scatter_svg(np.array(x), np.array(y), x_label="x", y_label="y", title="t")
