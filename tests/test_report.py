"""The diagnostics report document: its sections, annotations and renderings."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from factorlab import report, transforms
from factorlab.errors import DataError
from factorlab.panel import DateIndex, Panel
from factorlab.riskstats import RegressionResult, StratifiedCell

HURDLE = "clears the 3.0 hurdle"
CAUTION = ("caution: performance concentrates in the smallest size quantile, "
           "where trading frictions are largest")


@pytest.fixture
def panels():
    """build_report's panels on a 60-month x 30-asset frame."""
    rng = np.random.default_rng(5)
    dates = DateIndex.range("1995-01", 60)
    assets = tuple(f"a{j:02d}" for j in range(30))
    cap = Panel.source("CAP", dates, assets, rng.lognormal(5.0, 1.0, size=(60, 30)))
    series = {name: Panel.source(name, dates, ("value",), rng.normal(0.0, 0.05, size=(60, 1)))
              for name in ("S", "M")}
    return {
        "spread": series["S"],
        "char": Panel.source("CHAR", dates, assets, rng.normal(size=(60, 30))),
        "cap": cap,
        "size_bins": transforms.quantile_bins(cap, [50.0]),
        "models": {"CAPM": [series["M"]]},
    }


def fit(t_alpha: float) -> RegressionResult:
    return RegressionResult(alpha=0.01, betas=(0.5,), se_alpha=0.004, se_betas=(0.1,),
                            t_alpha=t_alpha, t_betas=(5.0,), r2=0.3, n_obs=60,
                            se_method="ols", factor_names=("M",))


def test_render_json_is_the_document_and_markdown_renders_it(panels):
    doc = report.build_report(**panels)
    assert json.loads(report.render_json(doc)) == doc
    assert doc["metadata"]["factor"] == "S"
    assert doc["alphas_by_size"] == report.INSUFFICIENT
    assert doc["annotations"] == ["size section unavailable: no spread builder provided"]
    markdown = report.render_markdown(doc)
    assert markdown.startswith("# Factor Diagnostics: S\n")
    assert f"## {report.SECTION_SIZE}\n\n_{report.INSUFFICIENT}_\n" in markdown


@pytest.mark.parametrize("t_alpha, rendered, noted", [
    (2.996, "3.00", False),  # rounds to the hurdle but does not clear it
    (3.0, "3.00", True),
    (math.nan, "n/a", False),
])
def test_the_hurdle_note_reads_the_unrounded_t_statistic(panels, monkeypatch,
                                                         t_alpha, rendered, noted):
    monkeypatch.setattr(report, "ts_regress", lambda *args, **kwargs: fit(t_alpha))
    doc = report.build_report(**panels)
    assert f"| alpha | 0.0100 | {rendered} |" in report.render_markdown(doc)
    notes = [note for note in doc["annotations"] if HURDLE in note]
    assert notes == (["alpha t-statistic 3.00 clears the 3.0 hurdle recommended for new "
                      "discoveries"] if noted else [])


@pytest.mark.parametrize("small, big, cautioned", [
    (2.0, 1.0, True),
    (1.96, math.nan, True),
    (2.0, None, True),  # the largest bin has no regression
    (2.0, 2.5, False),
    (1.95, 1.0, False),
    (None, 1.0, False),
])
def test_the_small_size_caution(panels, monkeypatch, small, big, cautioned):
    cells = [StratifiedCell(1, "CAPM", None if small is None else fit(small)),
             StratifiedCell(2, "CAPM", fit(5.0)),  # a middle bin counts for neither end
             StratifiedCell(3, "CAPM", None if big is None else fit(big), "too few months")]
    monkeypatch.setattr(report, "size_stratified_alphas", lambda *args, **kwargs: cells)
    doc = report.build_report(**panels, spread_builder=lambda universe: panels["spread"])
    assert [c["size_bin"] for c in doc["alphas_by_size"]] == [1, 2, 3]
    assert doc["alphas_by_size"][2]["note"] == "too few months"
    assert (CAUTION in doc["annotations"]) == cautioned


def test_one_size_bin_gives_no_caution(panels, monkeypatch):
    cells = [StratifiedCell(1, "CAPM", fit(2.5))]
    monkeypatch.setattr(report, "size_stratified_alphas", lambda *args, **kwargs: cells)
    doc = report.build_report(**panels, spread_builder=lambda universe: panels["spread"])
    assert CAUTION not in doc["annotations"]


@pytest.mark.parametrize("target, key, label", [
    ("coverage_by_period", "coverage_by_period", "coverage"),
    ("summarize", "summary_statistics", "summary"),
    ("ts_regress", "alphas_by_model", "alpha"),
    ("size_stratified_alphas", "alphas_by_size", "size"),
])
def test_a_failing_section_degrades_to_insufficient_data(panels, monkeypatch,
                                                         target, key, label):
    cells = [StratifiedCell(1, "CAPM", fit(1.0))]
    monkeypatch.setattr(report, "size_stratified_alphas", lambda *args, **kwargs: cells)
    builder = lambda universe: panels["spread"]  # noqa: E731
    whole = report.build_report(**panels, spread_builder=builder)

    def fail(*args, **kwargs):
        raise DataError("boom")

    monkeypatch.setattr(report, target, fail)
    doc = report.build_report(**panels, spread_builder=builder)
    assert doc[key] == report.INSUFFICIENT
    assert doc["annotations"] == [*whole["annotations"], f"{label} section unavailable: boom"]
    assert {k: v for k, v in doc.items() if k not in (key, "annotations")} == \
        {k: v for k, v in whole.items() if k not in (key, "annotations")}
    assert f"_{report.INSUFFICIENT}_" in report.render_markdown(doc)
