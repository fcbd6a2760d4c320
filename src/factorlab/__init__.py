"""factorlab: deterministic panel-data factor research engine."""

from .errors import (
    AlignmentError,
    DataError,
    EngineError,
    RecipeError,
    RegistryError,
    StepExecutionError,
)
from .panel import (
    DateIndex,
    Panel,
    PanelRegistry,
    ProvenanceRecord,
    export_graph,
    load,
    load_registry,
    save,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "DataError",
    "DateIndex",
    "EngineError",
    "Panel",
    "PanelRegistry",
    "ProvenanceRecord",
    "RecipeError",
    "RegistryError",
    "StepExecutionError",
    "export_graph",
    "load",
    "load_registry",
    "save",
    "__version__",
]
