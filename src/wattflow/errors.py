"""Exception hierarchy and JSON document helpers shared by all modules.

Callers tell failure kinds apart by class; messages are for people.
"""

from __future__ import annotations

import json
from typing import Any, Callable


class WattflowError(Exception):
    """Base class for all wattflow errors."""


class InvalidArgumentError(WattflowError):
    pass


class OverflowComputationError(WattflowError):
    """Raised when a counter-to-joules product is not a finite real."""


class DegenerateSeriesError(WattflowError):
    """Series has fewer than two samples, so no delta exists."""


class WindowOutOfRangeError(WattflowError):
    """Requested window extends beyond the sampled span."""


class ParseError(WattflowError):
    """Malformed file content; carries the offending location when known."""

    def __init__(self, message: str, *, path: str | None = None,
                 line: int | None = None):
        where = ""
        if path is not None:
            where = f"{path}:" if line is None else f"{path}:{line}:"
        elif line is not None:
            where = f"line {line}:"
        super().__init__(f"{where} {message}".strip())
        self.path = path
        self.line = line


class HeaderMismatchError(ParseError):
    pass


class PermissionDeniedError(WattflowError):
    """Counter source exists but requires elevated privileges."""


class DeviceAbsentError(WattflowError):
    pass


class AlreadyActiveError(WattflowError):
    pass


class MissingColumnError(ParseError):
    pass


class RowParseError(ParseError):
    pass


class EmptyTraceError(ParseError):
    pass


class SchemaViolationError(ParseError):
    """Generic-trace or scenario document violates the published schema."""

    def __init__(self, message: str, *, json_path: str = "$"):
        super().__init__(f"{json_path}: {message}")
        self.json_path = json_path


def present_keys(doc: Any, **kinds: Callable[[Any], Any]) -> dict[str, Any]:
    """The keys of ``kinds`` that ``doc`` holds, each read through its
    kind: as keyword arguments they leave omitted keys to the defaults."""
    return {key: kind(doc[key]) for key, kind in kinds.items() if key in doc}


def json_text(obj: Any) -> str:
    """The text of every JSON document wattflow writes: two-space indent,
    sorted keys and a final newline, so equal documents are equal bytes.
    ``accounting.report_to_json`` writes this same text for reports from
    their fixed shape."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path: str) -> Any:
    """The JSON document in a UTF-8 file.

    Raises:
        SchemaViolationError: The file is not valid JSON.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaViolationError(f"not valid JSON: {exc}") from None


class MissingNodeLogError(WattflowError):
    """Tasks ran on a node with no usable log (undercount)."""


class NoPointsInWindowError(WattflowError):
    pass


class AgentStartError(WattflowError):
    pass
