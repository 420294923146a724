"""Exception hierarchy shared by all wattflow modules.

Every error carries a stable ``code`` string so CLI consumers and tests can
match on failure kind without parsing messages.
"""

from __future__ import annotations

import json
from typing import Any


class WattflowError(Exception):
    """Base class for all wattflow errors."""

    code = "error"

    def __init__(self, message: str, *, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class InvalidArgumentError(WattflowError):
    code = "invalid-argument"


class OverflowComputationError(WattflowError):
    """Raised when a counter-to-joules product is not a finite real."""

    code = "overflow"


class DegenerateSeriesError(WattflowError):
    """Series has fewer than two samples, so no delta exists."""

    code = "degenerate-series"


class WindowOutOfRangeError(WattflowError):
    """Requested window extends beyond the sampled span.

    ``code`` is ``window-head-out-of-range`` when the window starts before
    the first sample and ``window-tail-out-of-range`` when it ends after the
    last one.
    """

    code = "window-out-of-range"


class ParseError(WattflowError):
    """Malformed file content; carries the offending location when known."""

    code = "parse-error"

    def __init__(self, message: str, *, path: str | None = None,
                 line: int | None = None, code: str | None = None):
        where = ""
        if path is not None:
            where = f"{path}:" if line is None else f"{path}:{line}:"
        elif line is not None:
            where = f"line {line}:"
        super().__init__(f"{where} {message}".strip(), code=code)
        self.path = path
        self.line = line


class HeaderMismatchError(ParseError):
    code = "header-mismatch"


class PermissionDeniedError(WattflowError):
    """Counter source exists but requires elevated privileges."""

    code = "permission-denied"


class DeviceAbsentError(WattflowError):
    code = "device-absent"


class AlreadyActiveError(WattflowError):
    code = "already-active"


class MissingColumnError(ParseError):
    code = "missing-column"


class RowParseError(ParseError):
    code = "row-parse-error"


class EmptyTraceError(ParseError):
    code = "empty-trace"


class SchemaViolationError(ParseError):
    """Generic-trace or scenario document violates the published schema."""

    code = "schema-violation"

    def __init__(self, message: str, *, json_path: str = "$"):
        super().__init__(f"{json_path}: {message}")
        self.json_path = json_path


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
    """A node participated in the session but produced no log (undercount)."""

    code = "missing-node-log"


class NoPointsInWindowError(WattflowError):
    code = "no-points-in-window"


class AgentStartError(WattflowError):
    code = "agent-start-failed"
