"""Exception hierarchy and JSON document helpers shared by all modules.

Callers tell failure kinds apart by class; messages are for people. A
class exists only where some caller tells it apart: ``cli`` exits 2 on
:class:`InvalidArgumentError` and :class:`ParseError` (its
:class:`SchemaViolationError` included) and 3 on any other
:class:`WattflowError`; ``accounting.node_energies`` leaves a log out on
:class:`DegenerateSeriesError`; the agent keeps a session already open on
:class:`AlreadyActiveError`. Every other failure raises its base class,
and its message says what went wrong.
"""

from __future__ import annotations

import json
from typing import Any, Callable


class WattflowError(Exception):
    """Base class for all wattflow errors."""


class InvalidArgumentError(WattflowError):
    pass


class DegenerateSeriesError(WattflowError):
    """Series has fewer than two samples, so no delta exists."""


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


class AlreadyActiveError(WattflowError):
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
    ``accounting.write_report`` writes this same text for a report
    straight from its fields."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path: str,
              object_hook: Callable[[dict], Any] | None = None) -> Any:
    """The JSON document in a UTF-8 file, each object decoded passed
    through ``object_hook`` when one is given (see :func:`json.load`).

    Raises:
        SchemaViolationError: The file is not valid JSON.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_hook=object_hook)
        except json.JSONDecodeError as exc:
            raise SchemaViolationError(f"not valid JSON: {exc}") from None
