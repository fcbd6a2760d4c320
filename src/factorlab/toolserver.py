"""JSON-RPC 2.0 tool server over newline-delimited stdio.

Exposes every registered panel operator plus load_source, save_panel,
export_graph, build_report, and catalog_lookup as callable tools, so generic
JSON-RPC clients (agent frameworks included) can drive the engine. One
message per line; methods are ``tools/list`` and
``tools/call {"name", "arguments"}``. The five non-operator tools are
declared in ``TOOLS`` with the operators' ``OperatorSpec``/``ParamSpec``, so
``tools/list`` describes and ``validate_args`` checks every tool the same
way; a checked call runs ``ToolServer._tool_<name>(**args)``. Panel-producing
tools return a summary payload (id, shape, coverage, span); full data moves
through save_panel and file reads, and build_report returns the report
document with its markdown rendering. Each server process owns one isolated
session registry and binds only to the stdio of its parent, so there is no
authentication layer.

Error codes: -32700 parse, -32600 invalid request, -32601 unknown method or
tool, -32602 invalid params (message names the offending field), -32000
operator runtime failure.
"""

from __future__ import annotations

import json
import sys

from . import panel as panelio
from . import pipeline, report
from .errors import EngineError, StepExecutionError
from .ops import OPERATORS, ArgError, OperatorSpec, ParamSpec, apply_step, validate_args
from .panel import Panel, PanelRegistry

PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
RUNTIME_ERROR = -32000

PROTOCOL_VERSION = "2.0"

TOOLS: dict[str, OperatorSpec] = {spec.name: spec for spec in (
    OperatorSpec(
        "load_source", "Load a saved panel from a directory into the session registry.",
        0, 0, "none; reads from disk",
        (
            ParamSpec("directory", "string", required=True,
                      doc="directory containing <panel_id>.npy and <panel_id>.meta.json"),
            ParamSpec("panel_id", "string", required=True, doc="panel id to load"),
        ),
        "panel_payload",
    ),
    OperatorSpec(
        "save_panel", "Write a registered panel to disk as a .npy grid plus metadata.",
        0, 0, "none; writes to disk",
        (
            ParamSpec("panel_id", "string", required=True, doc="registered panel id"),
            ParamSpec("directory", "string", required=True, doc="output directory"),
        ),
        "file_list",
    ),
    OperatorSpec(
        "export_graph", "Provenance subgraph of a panel as JSON and DOT.",
        0, 0, "none",
        (ParamSpec("panel_id", "string", required=True, doc="root panel id"),),
        "graph_document",
    ),
    OperatorSpec(
        "build_report", "Standardized four-section diagnostics report for a spread.",
        0, 0, "none; references registered panels",
        (
            ParamSpec("spread", "string", required=True,
                      doc="panel id of the spread return series (one column)"),
            ParamSpec("characteristic", "string", required=True,
                      doc="panel id of the sorting characteristic"),
            ParamSpec("cap", "string", required=True, doc="panel id of market equity"),
            ParamSpec("size_bins", "string", required=True,
                      doc="panel id of integer size bins"),
            ParamSpec("models", "map", required=True,
                      doc="model name -> list of factor series panel ids"),
            ParamSpec("stratify_recipe", "string",
                      doc="recipe path or shipped name rebuilt per size bin"),
            ParamSpec("stratify_output", "string",
                      doc="recipe output treated as the spread (default: recipe's last step)"),
            ParamSpec("weights", "string",
                      doc="panel id of spread leg weights for the turnover statistic"),
        ),
        "report_document",
    ),
    OperatorSpec(
        "catalog_lookup", "Rank catalog data items by keyword match against a query.",
        0, 0, "none",
        (ParamSpec("query", "string", required=True, doc="free-text query"),),
        "catalog_matches",
    ),
)}


class RpcError(Exception):
    def __init__(self, code: int, message: str, data=None):
        self.code = code
        self.data = data
        super().__init__(message)


class ToolServer:
    """One session: an isolated panel registry driven by tool calls."""

    def __init__(self, registry: PanelRegistry | None = None):
        self.registry = PanelRegistry() if registry is None else registry
        self.catalog = pipeline.load_catalog()

    # -- tool surface --------------------------------------------------------

    def list_tools(self) -> list[dict]:
        specs = [*OPERATORS.values(), *TOOLS.values()]
        return sorted((spec.describe() for spec in specs), key=lambda t: t["name"])

    def call_tool(self, name: str, arguments: dict) -> dict:
        if not isinstance(arguments, dict):
            raise RpcError(INVALID_PARAMS, "arguments must be an object")
        if name in OPERATORS:
            return self._call_operator(name, arguments)
        if name not in TOOLS:
            raise RpcError(METHOD_NOT_FOUND, f"unknown tool {name!r}")
        try:
            return getattr(self, f"_tool_{name}")(**validate_args(TOOLS[name], arguments, 0))
        except ArgError as exc:
            raise RpcError(INVALID_PARAMS, str(exc), data={"param": exc.param}) from exc

    def _call_operator(self, name: str, arguments: dict) -> dict:
        for key in arguments:
            if key not in ("inputs", "args", "name"):
                raise RpcError(INVALID_PARAMS, f"unknown key {key!r} for op {name!r}",
                               data={"param": key})
        input_ids = arguments.get("inputs", [])
        if not isinstance(input_ids, list) or any(not isinstance(x, str) for x in input_ids):
            raise RpcError(INVALID_PARAMS, "inputs must be a list of panel ids",
                           data={"param": "inputs"})
        args = arguments.get("args", {})
        out_name = arguments.get("name")
        if out_name is not None and not isinstance(out_name, str):
            raise RpcError(INVALID_PARAMS, "name must be a string",
                           data={"param": "name"})
        try:
            panel_id, record = apply_step(self.registry, name, input_ids, args, name=out_name)
        except ArgError as exc:
            raise RpcError(INVALID_PARAMS, str(exc), data={"param": exc.param}) from exc
        except StepExecutionError as exc:
            raise RpcError(RUNTIME_ERROR, str(exc)) from exc
        except EngineError as exc:
            raise RpcError(RUNTIME_ERROR, f"op {name!r} failed: {exc}") from exc
        # the output's payload, from the step record that has counted its cells
        return {"panel_id": panel_id, "date_span": self.registry.get(panel_id).date_span,
                **{key: record[key] for key in ("n_dates", "n_assets", "n_nonmissing")}}

    # -- non-operator tools: called with the arguments validate_args returns ----

    def _tool_load_source(self, directory: str, panel_id: str) -> dict:
        try:
            panel = panelio.load(directory, panel_id)
        except EngineError as exc:
            raise RpcError(RUNTIME_ERROR, str(exc)) from exc
        fresh = Panel.source(panel.panel_id, panel.dates, panel.assets, panel.values,
                             params={"directory": directory})
        self.registry.register(fresh)
        return self.registry.get(panel_id).payload()

    def _tool_save_panel(self, panel_id: str, directory: str) -> dict:
        try:
            panel = self.registry.get(panel_id)
        except EngineError as exc:
            raise RpcError(INVALID_PARAMS, str(exc), data={"param": "panel_id"}) from exc
        try:
            files = panelio.save(panel, directory)
        except (EngineError, OSError) as exc:
            raise RpcError(RUNTIME_ERROR, str(exc)) from exc
        return {"files": [str(f) for f in files]}

    def _tool_export_graph(self, panel_id: str) -> dict:
        try:
            doc, dot = panelio.export_graph(self.registry, panel_id)
        except EngineError as exc:
            raise RpcError(INVALID_PARAMS, str(exc), data={"param": "panel_id"}) from exc
        return {"graph": doc, "dot": dot}

    def _tool_build_report(self, **arguments) -> dict:
        kwargs = report.resolve_arguments(self.registry, **arguments)  # ArgError: -32602
        try:
            doc = report.build_report(**kwargs)
        except EngineError as exc:
            raise RpcError(RUNTIME_ERROR, str(exc)) from exc
        return {"document": doc, "markdown": report.render_markdown(doc)}

    def _tool_catalog_lookup(self, query: str) -> dict:
        return {"matches": pipeline.catalog_lookup(query, self.catalog)}

    # -- JSON-RPC plumbing -----------------------------------------------------

    def handle_request(self, obj) -> dict | None:
        if not isinstance(obj, dict) or obj.get("jsonrpc") != PROTOCOL_VERSION:
            return _error_response(None, INVALID_REQUEST, "expected a JSON-RPC 2.0 request")
        has_id = "id" in obj
        req_id = obj.get("id")
        method = obj.get("method")
        if not isinstance(method, str):
            return _error_response(req_id, INVALID_REQUEST, "missing method") if has_id else None

        try:
            if method == "tools/list":
                result = {"tools": self.list_tools()}
            elif method == "tools/call":
                params = obj.get("params", {})
                if not isinstance(params, dict) or not isinstance(params.get("name"), str):
                    raise RpcError(INVALID_PARAMS, "params must carry a tool 'name'",
                                   data={"param": "name"})
                result = self.call_tool(params["name"], params.get("arguments", {}))
            else:
                raise RpcError(METHOD_NOT_FOUND, f"unknown method {method!r}")
        except RpcError as exc:
            return _error_response(req_id, exc.code, str(exc), exc.data) if has_id else None

        if not has_id:
            return None  # notification: no response
        return {"jsonrpc": PROTOCOL_VERSION, "id": req_id, "result": result}

    def handle_line(self, line: str) -> str | None:
        line = line.strip()
        if not line:
            return None
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            return _dump(_error_response(None, PARSE_ERROR, f"parse error: {exc}"))

        if isinstance(obj, list):
            if not obj:
                return _dump(_error_response(None, INVALID_REQUEST, "empty batch"))
            responses = [r for r in (self.handle_request(item) for item in obj)
                         if r is not None]
            return _dump(responses) if responses else None

        response = self.handle_request(obj)
        return _dump(response) if response is not None else None

    def serve(self, stdin=None, stdout=None) -> None:
        """Process requests line by line until end of input."""
        stdin = stdin or sys.stdin
        stdout = stdout or sys.stdout
        for line in stdin:
            out = self.handle_line(line)
            if out is not None:
                stdout.write(out + "\n")
                stdout.flush()


def _error_response(req_id, code: int, message: str, data=None) -> dict:
    error = {"code": code, "message": message}
    if data is not None:
        error["data"] = data
    return {"jsonrpc": PROTOCOL_VERSION, "id": req_id, "error": error}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
