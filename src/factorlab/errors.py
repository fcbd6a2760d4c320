"""Exception types shared across the engine."""

import re


class EngineError(Exception):
    """Base class for all factorlab errors."""


class RegistryError(EngineError):
    """Duplicate panel ids, dangling provenance inputs, unknown panels."""


class AlignmentError(EngineError):
    """Panels cannot be aligned (differing asset sets, empty overlap)."""


class DataError(EngineError):
    """Malformed input files: CSV rows, metadata, duplicate keys."""


class RecipeError(EngineError):
    """Static recipe validation failure. Carries step index and field path.

    The message is prefixed with the step, and with the field unless the
    message already names it as a word, so the text names each once.
    """

    def __init__(self, message, step=None, field=None):
        self.step = step
        self.field = field
        prefix = ""
        if step is not None:
            prefix += f"step {step}: "
        if field is not None and not re.search(rf"(?<!\w){re.escape(field)}(?!\w)", message):
            prefix += f"{field}: "
        super().__init__(prefix + message)


class StepExecutionError(EngineError):
    """Runtime abort during pipeline execution.

    ``outputs`` holds the name -> panel_id map of steps completed before the
    failure; those panels stay registered and inspectable.
    """

    def __init__(self, message, step=None, outputs=None):
        self.step = step
        self.outputs = dict(outputs or {})
        prefix = f"step {step}: " if step is not None else ""
        super().__init__(prefix + message)
