"""Declarative pipeline interpreter and the keyword data catalog.

A recipe is a JSON document
    {"name", "params", "sources", "steps": [{"op", "args", "inputs", "output"}]}
whose steps run strictly in order against the operator registry. Validation
is fully static: operator names, argument types and ranges, and the input
reference graph are checked before anything executes, so a recipe that
validates cannot fail with unknown-op or arity errors at run time. Global
``params`` values are substituted into step arguments written as "$name".

Execution registers every output with full provenance and logs per-step
non-null row and month counts. A failing step aborts, but earlier outputs
stay registered and inspectable.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import transforms
from .errors import DataError, RecipeError, RegistryError, StepExecutionError
from .ops import ArgError, apply_step, get_operator, validate_args
from .panel import Panel, PanelRegistry


@dataclass(frozen=True)
class Step:
    op: str
    args: dict
    inputs: tuple[str, ...]
    output: str


@dataclass(frozen=True)
class PipelineSpec:
    name: str
    params: dict
    sources: tuple[str, ...]
    steps: tuple[Step, ...]


@dataclass
class ExecutionResult:
    outputs: dict[str, str]          # output name -> panel id
    log: list[dict] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)


def _substitute_params(value, params: Mapping, step: int, path: str):
    if isinstance(value, str) and value.startswith("$"):
        key = value[1:]
        if key not in params:
            raise RecipeError(f"placeholder ${key} has no value in params",
                              step=step, field=path)
        return params[key]
    if isinstance(value, list):
        return [_substitute_params(v, params, step, f"{path}[{i}]")
                for i, v in enumerate(value)]
    if isinstance(value, dict):
        return {k: _substitute_params(v, params, step, f"{path}.{k}")
                for k, v in value.items()}
    return value


def parse_and_validate(recipe, overrides: Mapping | None = None) -> PipelineSpec:
    """Parse JSON text (or an already-decoded dict) into a validated spec.

    Every op must exist, every argument must type-check with ranges, every
    input must reference a declared source or a prior output, and outputs
    must be unique. ``overrides`` may set only params the recipe declares.
    Errors carry the step index and field path.
    """
    if isinstance(recipe, (str, bytes)):
        try:
            doc = json.loads(recipe)
        except json.JSONDecodeError as exc:
            raise RecipeError(f"recipe is not valid JSON: {exc}") from exc
    else:
        doc = recipe
    if not isinstance(doc, dict):
        raise RecipeError("recipe must be a JSON object")
    for key in doc:
        if key not in ("name", "params", "sources", "steps"):
            raise RecipeError(f"unknown recipe key {key!r}", field=key)

    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise RecipeError("recipe needs a non-empty string 'name'", field="name")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise RecipeError("'params' must be an object", field="params")
    overrides = dict(overrides or {})
    for key in overrides:
        if key not in params:
            raise RecipeError(f"unknown param {key!r}; the recipe declares {sorted(params)}",
                              field="params")
    params = {**params, **overrides}
    sources = doc.get("sources", [])
    if (not isinstance(sources, list)
            or any(not isinstance(s, str) or not s for s in sources)):
        raise RecipeError("'sources' must be a list of panel names", field="sources")
    if len(set(sources)) != len(sources):
        raise RecipeError("duplicate source names", field="sources")
    raw_steps = doc.get("steps")
    if not isinstance(raw_steps, list):
        raise RecipeError("'steps' must be a list", field="steps")

    known: set[str] = set(sources)
    outputs: set[str] = set()
    steps: list[Step] = []
    for i, raw in enumerate(raw_steps):
        if not isinstance(raw, dict):
            raise RecipeError("step must be an object", step=i)
        for key in raw:
            if key not in ("op", "inputs", "args", "output"):
                raise RecipeError(f"unknown step key {key!r}", step=i, field=key)
        op_name = raw.get("op")
        if not isinstance(op_name, str):
            raise RecipeError("step needs a string 'op'", step=i, field="op")
        try:
            spec = get_operator(op_name)
        except ArgError as exc:
            raise RecipeError(str(exc), step=i, field="op") from exc

        inputs = raw.get("inputs", [])
        if not isinstance(inputs, list) or any(not isinstance(x, str) for x in inputs):
            raise RecipeError("'inputs' must be a list of panel names",
                              step=i, field="inputs")
        for pos, ref in enumerate(inputs):
            if ref not in known:
                raise RecipeError(
                    f"input {ref!r} is neither a declared source nor a prior output",
                    step=i, field=f"inputs[{pos}]",
                )

        output = raw.get("output")
        if not isinstance(output, str) or not output:
            raise RecipeError("step needs a non-empty string 'output'",
                              step=i, field="output")
        if output in outputs or output in sources:
            raise RecipeError(f"duplicate output name {output!r}",
                              step=i, field="output")

        args = raw.get("args", {})
        if not isinstance(args, dict):
            raise RecipeError("'args' must be an object", step=i, field="args")
        args = _substitute_params(args, params, i, "args")
        try:
            normalized = validate_args(spec, args, len(inputs))
        except ArgError as exc:
            raise RecipeError(str(exc), step=i, field=exc.param) from exc

        steps.append(Step(op=op_name, args=normalized,
                          inputs=tuple(inputs), output=output))
        known.add(output)
        outputs.add(output)

    return PipelineSpec(name=name, params=dict(params),
                        sources=tuple(sources), steps=tuple(steps))


def execute(spec: PipelineSpec, registry: PanelRegistry) -> ExecutionResult:
    """Run a validated spec against pre-registered source panels.

    Each output is registered under its step name (or a fresh ``_<n>`` id if
    taken) with full provenance. A runtime failure raises StepExecutionError
    carrying the outputs completed so far; those panels stay registered.
    """
    missing = [s for s in spec.sources if s not in registry]
    if missing:
        raise RegistryError(f"source panels not registered: {missing}")

    result = ExecutionResult(outputs={})
    for i, step in enumerate(spec.steps):
        input_ids = [result.outputs.get(ref, ref) for ref in step.inputs]
        try:
            panel_id, record = apply_step(registry, step.op, input_ids, step.args,
                                          name=step.output)
        except StepExecutionError as exc:
            raise StepExecutionError(str(exc), step=i, outputs=result.outputs) from exc
        except Exception as exc:
            raise StepExecutionError(
                f"op {step.op!r} failed: {exc}", step=i, outputs=result.outputs
            ) from exc
        result.outputs[step.output] = panel_id
        result.flags.extend(f"step {i} ({step.op}): {msg}" for msg in record.pop("flags"))
        result.log.append({"step": i, "output": step.output, **record})
    return result


def run_recipe(spec: PipelineSpec, sources: Mapping[str, Panel],
               registry: PanelRegistry | None = None) -> tuple[PanelRegistry, ExecutionResult]:
    """Register the given source panels and execute the recipe against them."""
    registry = PanelRegistry() if registry is None else registry
    for name in spec.sources:
        if name not in sources:
            raise RegistryError(f"recipe source {name!r} not provided")
        panel = sources[name]
        if name not in registry:
            if panel.panel_id != name:
                panel = Panel.source(name, panel.dates, panel.assets, panel.values)
            registry.register(panel)
    return registry, execute(spec, registry)


def make_spread_builder(spec: PipelineSpec, sources: Mapping[str, Panel],
                        output: str) -> Callable[[Panel | None], Panel]:
    """Spread construction restricted to an arbitrary asset universe.

    The returned callable masks every source panel by the universe (missing
    outside it), re-runs the recipe in a throwaway registry, and hands back
    the named output as a series. Used for size-stratified diagnostics.
    """
    if output not in {s.output for s in spec.steps}:
        raise RecipeError(f"recipe {spec.name!r} has no output {output!r}")

    def build(universe: Panel | None) -> Panel:
        restricted = sources if universe is None else {
            name: transforms.mask(sources[name], universe) for name in spec.sources}
        registry, result = run_recipe(spec, restricted)  # which re-roots each masked panel
        return registry.get(result.outputs[output]).to_series()

    return build


# -- shipped recipes -----------------------------------------------------------


def shipped_recipes_dir() -> Path:
    return Path(resources.files("factorlab") / "recipes")


def shipped_recipes() -> dict[str, Path]:
    return {p.stem: p for p in sorted(shipped_recipes_dir().glob("*.json"))}


def load_recipe(ref, overrides: Mapping | None = None) -> PipelineSpec:
    """Load a recipe from a filesystem path or by shipped-recipe name."""
    path = Path(ref)
    if not path.is_file():
        shipped = shipped_recipes()
        if str(ref) in shipped:
            path = shipped[str(ref)]
        else:
            raise DataError(
                f"recipe {ref!r} not found (shipped: {sorted(shipped)})"
            )
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"recipe {ref!r} cannot be read: {exc}") from exc
    return parse_and_validate(text, overrides=overrides)


# -- keyword catalog -----------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    item_id: str
    description: str
    source_table: str  # monthly | annual


_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _tokens(text: str) -> set[str]:
    return set(_TOKEN_RE.findall(text.lower()))


def load_catalog(path=None) -> list[CatalogEntry]:
    if path is None:
        raw = (resources.files("factorlab") / "catalog.json").read_text()
    else:
        raw = Path(path).read_text()
    entries = json.loads(raw)
    out = []
    seen = set()
    for e in entries:
        item_id = str(e["item_id"])
        if item_id in seen:
            raise DataError(f"duplicate catalog item_id {item_id!r}")
        seen.add(item_id)
        out.append(CatalogEntry(item_id=item_id,
                                description=str(e["description"]),
                                source_table=str(e["source_table"])))
    return out


def catalog_lookup(query: str, catalog: Sequence[CatalogEntry]) -> list[dict]:
    """Entries ranked by query-token matches against id and description tokens.

    Zero-score entries are excluded; ties break by item_id. The retrieval
    variant this replaces is out of scope by design.
    """
    if not catalog:
        raise DataError("catalog is empty")
    query_tokens = _tokens(query)
    ranked = []
    for entry in catalog:
        item_tokens = _tokens(entry.item_id) | _tokens(entry.description)
        score = sum(1 for t in query_tokens if t in item_tokens)
        if score > 0:
            ranked.append((score, entry))
    ranked.sort(key=lambda pair: (-pair[0], pair[1].item_id))
    return [
        {
            "item_id": e.item_id,
            "description": e.description,
            "source_table": e.source_table,
            "score": s,
        }
        for s, e in ranked
    ]
