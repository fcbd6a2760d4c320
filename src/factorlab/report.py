"""Standardized four-section diagnostics report for a candidate spread factor.

Sections follow the replication-protocol layout: coverage by period, spread
summary statistics, risk-adjusted alphas by model, and alphas by size
quantile. ``build_report`` returns the report as one JSON-ready document with
returns rounded to 4 decimals and t-statistics to 2, so reports golden-file
cleanly; ``render_json`` and ``render_markdown`` are pure views of that
document. The narrative is templated annotation text, never generated, and it
reads the unrounded statistics.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from typing import Callable, Mapping, Sequence

import numpy as np

from . import pipeline
from .errors import EngineError
from .ops import ArgError
from .panel import Panel, PanelRegistry
from .portfolio import turnover as turnover_op
from .riskstats import (
    RegressionResult,
    coverage_by_period,
    size_stratified_alphas,
    summarize,
    ts_regress,
)

SECTION_COVERAGE = "Coverage by Period"
SECTION_SUMMARY = "Spread Portfolio Summary Statistics"
SECTION_ALPHAS = "Alpha, Coefficients, and t-Statistics by Model"
SECTION_SIZE = "Alpha and t-Statistics by Model and Size Quantile"

T_HURDLE = 3.0
T_CONVENTIONAL = 1.96

INSUFFICIENT = "insufficient data"

SUMMARY_STATS = ("mean", "sd", "sharpe_annualized", "skewness", "min", "max")


def _round(x, digits: int) -> float | None:
    """``x`` rounded to ``digits`` places; None when it is None or NaN."""
    x = None if x is None else float(x)
    return None if x is None or math.isnan(x) else round(x, digits)


def _regression_dict(result: RegressionResult) -> dict:
    return {
        "alpha": _round(result.alpha, 4),
        "t_alpha": _round(result.t_alpha, 2),
        "betas": {
            name: {"coef": _round(b, 4), "t": _round(t, 2)}
            for name, b, t in zip(result.factor_names, result.betas, result.t_betas)
        },
        "r2": _round(result.r2, 4),
        "n_obs": result.n_obs,
        "se_method": result.se_method,
    }


def build_report(
    spread: Panel,
    char: Panel,
    cap: Panel,
    size_bins: Panel,
    models: Mapping[str, Sequence[Panel]],
    spread_builder: Callable[[Panel], Panel] | None = None,
    weight_panel: Panel | None = None,
    recipe_reference: str = "",
    se_method: str = "ols",
    nw_lags: int = 0,
) -> dict:
    """The report document; a section that fails degrades to ``INSUFFICIENT``.

    ``spread`` and the model factors are series (one-column panels); the
    report names the factor and the betas by their panel ids.
    """
    live = ~np.isnan(spread.to_series().values[:, 0])
    span = []
    if np.any(live):
        idx = np.flatnonzero(live)
        span = [spread.dates[int(idx[0])], spread.dates[int(idx[-1])]]
    annotations: list[str] = []
    doc: dict = {
        "metadata": {
            "factor": spread.panel_id,
            "sample_span": span,
            "recipe": recipe_reference,
            "panel_ids": {
                "characteristic": char.panel_id,
                "cap": cap.panel_id,
                "size_bins": size_bins.panel_id,
            },
            "se_method": se_method if se_method == "ols" else f"newey_west({nw_lags})",
        },
        "annotations": annotations,
    }

    try:
        doc["coverage_by_period"] = [
            {
                **asdict(row),
                "security_fraction": _round(row.security_fraction, 4),
                "cap_share": _round(row.cap_share, 4),
            }
            for row in coverage_by_period(char, cap)
        ]
    except EngineError as exc:
        doc["coverage_by_period"] = INSUFFICIENT
        annotations.append(f"coverage section unavailable: {exc}")

    try:
        stats = summarize(spread)
        if stats.flags:
            doc["summary_statistics"] = INSUFFICIENT
            annotations.extend(stats.flags)
        else:
            summary = {name: _round(getattr(stats, name), 4) for name in SUMMARY_STATS}
            summary["n_obs"] = stats.n_obs
            summary["mean_turnover"] = None
            if weight_panel is not None:
                try:
                    turnover = turnover_op(weight_panel).values[:, 0]
                    summary["mean_turnover"] = _round(np.nanmean(turnover), 4)
                except EngineError:
                    pass
            doc["summary_statistics"] = summary
    except EngineError as exc:
        doc["summary_statistics"] = INSUFFICIENT
        annotations.append(f"summary section unavailable: {exc}")

    fits: list[tuple[str, RegressionResult]] = []
    try:
        fits = [(model, ts_regress(spread, list(factors), se_method=se_method, nw_lags=nw_lags))
                for model, factors in models.items()]
    except EngineError as exc:
        annotations.append(f"alpha section unavailable: {exc}")
    doc["alphas_by_model"] = [
        dict(model=model, **_regression_dict(result)) for model, result in fits
    ] or INSUFFICIENT

    cells = []
    doc["alphas_by_size"] = INSUFFICIENT
    if spread_builder is None:
        annotations.append("size section unavailable: no spread builder provided")
    else:
        try:
            cells = size_stratified_alphas(
                spread_builder, size_bins, models, se_method=se_method, nw_lags=nw_lags
            )
            doc["alphas_by_size"] = [
                {
                    "size_bin": cell.size_bin,
                    "model": cell.model,
                    "alpha": _round(cell.result.alpha, 4) if cell.result else None,
                    "t_alpha": _round(cell.result.t_alpha, 2) if cell.result else None,
                    "note": cell.note,
                }
                for cell in cells
            ]
        except EngineError as exc:
            annotations.append(f"size section unavailable: {exc}")

    best_t = max((r.t_alpha for _, r in fits if not math.isnan(r.t_alpha)), default=math.nan)
    if best_t >= T_HURDLE:
        annotations.append(
            f"alpha t-statistic {best_t:.2f} clears the {T_HURDLE:.1f} hurdle "
            "recommended for new discoveries"
        )

    bins = sorted({c.size_bin for c in cells})
    if len(bins) >= 2:
        def best_in(size_bin):
            return max((c.result.t_alpha for c in cells
                        if c.size_bin == size_bin and c.result is not None), default=math.nan)

        if best_in(bins[0]) >= T_CONVENTIONAL and not best_in(bins[-1]) >= T_CONVENTIONAL:
            annotations.append(
                "caution: performance concentrates in the smallest size "
                "quantile, where trading frictions are largest"
            )
    return doc


def resolve_arguments(registry: PanelRegistry, spread, characteristic, cap, size_bins,
                      models, stratify_recipe=None, stratify_output=None,
                      weights=None) -> dict:
    """``build_report``'s keyword arguments from panel ids in ``registry``.

    ``models`` maps a model name to a list of factor panel ids. A stratify
    recipe (path or shipped name) becomes the spread builder of the size
    section, fed with the registry's panels of the recipe's sources. A missing
    panel, a wrong type or a bad recipe raises ArgError naming the argument.
    """
    def lookup(param, panel_id, label=None, series=False):
        label = label or param
        if not isinstance(panel_id, str) or not panel_id:
            raise ArgError(f"missing or invalid {label!r}", param)
        try:
            found = registry.get(panel_id)
            return found.to_series() if series else found
        except EngineError as exc:
            raise ArgError(f"{label}: {exc}", param) from exc

    kwargs = {
        "spread": lookup("spread", spread, series=True),
        "char": lookup("characteristic", characteristic),
        "cap": lookup("cap", cap),
        "size_bins": lookup("size_bins", size_bins),
    }
    if not isinstance(models, dict) or not models:
        raise ArgError("models must map name -> [factor panel ids]", "models")
    kwargs["models"] = {}
    for model, ids in models.items():
        if not isinstance(ids, list):
            raise ArgError(f"models[{model}] must be a list", "models")
        kwargs["models"][model] = [lookup("models", i, f"models[{model}]", series=True)
                                   for i in ids]

    kwargs["spread_builder"] = None
    if stratify_recipe is not None:
        try:
            spec = pipeline.load_recipe(stratify_recipe)
            sources = {name: registry.get(name) for name in spec.sources}
        except EngineError as exc:
            raise ArgError(f"stratify_recipe: {exc}", "stratify_recipe") from exc
        output = stratify_output or (spec.steps[-1].output if spec.steps else "")
        try:
            kwargs["spread_builder"] = pipeline.make_spread_builder(spec, sources, output)
        except EngineError as exc:
            raise ArgError(f"stratify_output: {exc}", "stratify_output") from exc
    kwargs["weight_panel"] = None if weights is None else lookup("weights", weights)
    kwargs["recipe_reference"] = stratify_recipe or ""
    return kwargs


# -- rendering ---------------------------------------------------------------


def _fmt(x, digits: int) -> str:
    v = _round(x, digits)
    return "n/a" if v is None else f"{v:.{digits}f}"


def render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_markdown(doc: dict) -> str:
    md = doc["metadata"]
    lines = [f"# Factor Diagnostics: {md['factor']}", ""]
    span = md["sample_span"]
    lines.append(f"- sample span: {span[0]}..{span[1]}" if span else "- sample span: empty")
    lines.append(f"- recipe: {md['recipe'] or 'n/a'}")
    lines.append(f"- standard errors: {md['se_method']}")
    for key, val in sorted(md["panel_ids"].items()):
        lines.append(f"- {key} panel: {val}")
    lines.append("")

    lines.append(f"## {SECTION_COVERAGE}")
    lines.append("")
    cov = doc["coverage_by_period"]
    if isinstance(cov, str):
        lines.append(f"_{cov}_")
    else:
        lines.append("| bucket | span | security fraction | cap share | months |")
        lines.append("|---|---|---|---|---|")
        for row in cov:
            lines.append(
                f"| {row['bucket']} | {row['start']}..{row['end']} "
                f"| {_fmt(row['security_fraction'], 4)} | {_fmt(row['cap_share'], 4)} "
                f"| {row['n_months']} |"
            )
    lines.append("")

    lines.append(f"## {SECTION_SUMMARY}")
    lines.append("")
    summ = doc["summary_statistics"]
    if isinstance(summ, str):
        lines.append(f"_{summ}_")
    else:
        lines.append("| statistic | value |")
        lines.append("|---|---|")
        lines.append(f"| mean (monthly) | {_fmt(summ['mean'], 4)} |")
        lines.append(f"| sd (monthly) | {_fmt(summ['sd'], 4)} |")
        lines.append(f"| sharpe (annualized) | {_fmt(summ['sharpe_annualized'], 4)} |")
        lines.append(f"| skewness | {_fmt(summ['skewness'], 4)} |")
        lines.append(f"| min | {_fmt(summ['min'], 4)} |")
        lines.append(f"| max | {_fmt(summ['max'], 4)} |")
        lines.append(f"| months | {summ['n_obs']} |")
        lines.append(f"| mean turnover | {_fmt(summ['mean_turnover'], 4)} |")
    lines.append("")

    lines.append(f"## {SECTION_ALPHAS}")
    lines.append("")
    alphas = doc["alphas_by_model"]
    if isinstance(alphas, str):
        lines.append(f"_{alphas}_")
    else:
        for entry in alphas:
            lines.append(f"### model: {entry['model']}")
            lines.append("")
            lines.append("| term | coefficient | t-stat |")
            lines.append("|---|---|---|")
            lines.append(f"| alpha | {_fmt(entry['alpha'], 4)} | {_fmt(entry['t_alpha'], 2)} |")
            for name in sorted(entry["betas"]):
                beta = entry["betas"][name]
                lines.append(f"| {name} | {_fmt(beta['coef'], 4)} | {_fmt(beta['t'], 2)} |")
            lines.append("")
            lines.append(
                f"r2 {_fmt(entry['r2'], 4)}, n {entry['n_obs']}, se {entry['se_method']}"
            )
            lines.append("")

    lines.append(f"## {SECTION_SIZE}")
    lines.append("")
    size = doc["alphas_by_size"]
    if isinstance(size, str):
        lines.append(f"_{size}_")
    else:
        lines.append("| size bin | model | alpha | t-stat | note |")
        lines.append("|---|---|---|---|---|")
        for cell in size:
            lines.append(
                f"| {cell['size_bin']} | {cell['model']} | {_fmt(cell['alpha'], 4)} "
                f"| {_fmt(cell['t_alpha'], 2)} | {cell['note']} |"
            )
    lines.append("")

    lines.append("## Notes")
    lines.append("")
    if doc["annotations"]:
        for note in doc["annotations"]:
            lines.append(f"- {note}")
    else:
        lines.append("- none")
    lines.append("")
    return "\n".join(lines)
