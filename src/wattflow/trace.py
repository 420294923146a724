"""Workflow trace ingestion.

Turns execution traces into task records for accounting, from either the
tab-separated trace file a workflow engine writes or an engine-agnostic JSON
document.  Parsing is total over malformed input in the sense that every
failure is a diagnostic naming the file, row, or JSON path, never a bare
crash; recoverable oddities (unknown host, equal start and end stamps,
missing CPU time) become flags on the record instead of errors.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from typing import Any, Mapping

from .errors import (
    InvalidArgumentError,
    ParseError,
    SchemaViolationError,
    json_text,
    load_json,
)

FLAG_SUB_RESOLUTION = "sub_resolution"
FLAG_UNKNOWN_NODE = "unknown_node"
FLAG_CPU_TIME_FALLBACK = "cpu_time_fallback"
FLAG_NO_TIMING = "no_timing"

SUB_RESOLUTION_S = 0.5

# Flag sets the readers share among records, so that a record's flags cost
# a pointer, not a set of its own.
_NO_FLAGS: frozenset[str] = frozenset()
_CPU_TIME_FALLBACK_FLAGS = frozenset({FLAG_CPU_TIME_FALLBACK})
# A TSV row's flags, by whether it lacks timing and whether it lacks a host.
_ROW_FLAGS = {
    (no_timing, unknown_node): frozenset(
        flag for flag, on in ((FLAG_NO_TIMING, no_timing),
                              (FLAG_UNKNOWN_NODE, unknown_node)) if on)
    for no_timing in (False, True) for unknown_node in (False, True)}


class TaskStatus(Enum):
    COMPLETED = "completed"
    FAILED = "failed"
    CACHED = "cached"


@dataclass(frozen=True, slots=True)
class TaskRecord:
    """One executed task: placement, wall-time window, and CPU time.

    ``end_wall_ns == start_wall_ns`` marks a task whose engine stamped both
    ends with the same instant (runtime below the trace resolution); such
    records carry the ``sub_resolution`` flag and get an assumed window for
    accounting (see :meth:`window`).  A record flagged ``no_timing`` has
    no window: its times and CPU time are 0 and stand for nothing.

    ``flags`` is kept as given when it is a frozenset, so records with the
    same flags share one set: the trace readers pass module constants, and
    the default is one empty set for every record.
    """

    task_id: str
    name: str
    node_id: str
    start_wall_ns: int
    end_wall_ns: int
    cpu_time_s: float
    status: TaskStatus
    flags: frozenset[str] = _NO_FLAGS

    def __post_init__(self) -> None:
        if not self.task_id:
            raise InvalidArgumentError("task_id must be non-empty")
        if self.end_wall_ns < self.start_wall_ns:
            raise InvalidArgumentError(
                f"task {self.task_id}: end {self.end_wall_ns} before "
                f"start {self.start_wall_ns}")
        if not (math.isfinite(self.cpu_time_s) and self.cpu_time_s >= 0):
            raise InvalidArgumentError(
                f"task {self.task_id}: cpu_time_s must be >= 0, "
                f"got {self.cpu_time_s}")
        flags = frozenset(self.flags)
        if self.end_wall_ns == self.start_wall_ns and \
                FLAG_NO_TIMING not in flags:
            flags |= {FLAG_SUB_RESOLUTION}
        object.__setattr__(self, "flags", flags)

    @property
    def sub_resolution(self) -> bool:
        return FLAG_SUB_RESOLUTION in self.flags

    def window(self) -> tuple[int, int]:
        """Wall-time window for accounting.

        Sub-resolution tasks get an assumed duration centered on the logged
        instant; everyone else gets their logged interval.
        """
        if not self.sub_resolution:
            return self.start_wall_ns, self.end_wall_ns
        half = int(SUB_RESOLUTION_S * 5e8)
        return self.start_wall_ns - half, self.start_wall_ns + half


@dataclass(frozen=True)
class WorkflowTrace:
    """All tasks of one workflow run plus its submit/finish bounds."""

    workflow_id: str
    submitted_wall_ns: int
    finished_wall_ns: int
    tasks: tuple[TaskRecord, ...]

    def __post_init__(self) -> None:
        if not self.workflow_id:
            raise InvalidArgumentError("workflow_id must be non-empty")
        if self.finished_wall_ns < self.submitted_wall_ns:
            raise InvalidArgumentError(
                f"workflow {self.workflow_id}: finished before submitted")
        seen: set[str] = set()
        for t in self.tasks:
            if t.task_id in seen:
                raise InvalidArgumentError(
                    f"workflow {self.workflow_id}: duplicate task_id "
                    f"{t.task_id!r}")
            seen.add(t.task_id)


_NF_STATUS = {
    "COMPLETED": TaskStatus.COMPLETED,
    "CACHED": TaskStatus.CACHED,
    "FAILED": TaskStatus.FAILED,
    "ABORTED": TaskStatus.FAILED,
}

# The columns a row needs to be placed in time; the engine writes "-" for
# a field it did not record.
_TIMING_COLUMNS = ("start", "complete", "realtime", "%cpu")
_DURATION_TOKEN = re.compile(r"(?P<num>\d+(?:\.\d+)?)\s*(?P<unit>ms|[smhd])$")
_UNIT_S = {"ms": 1e-3, "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def parse_duration_s(text: str) -> float:
    """Engine duration field to seconds.

    Accepts humanized forms (``1h 2m``, ``3.5s``, ``500ms``) and bare
    numbers, which the engine's raw mode writes as milliseconds.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty duration")
    try:
        return float(text) * 1e-3
    except ValueError:
        pass
    total = 0.0
    for token in text.split():
        m = _DURATION_TOKEN.match(token)
        if not m:
            raise ValueError(f"bad duration token {token!r}")
        total += float(m.group("num")) * _UNIT_S[m.group("unit")]
    return total


def parse_timestamp_wall_ns(text: str) -> int:
    """Engine timestamp field to wall nanoseconds.

    Bare integers are epoch milliseconds (raw mode); otherwise the
    ``YYYY-MM-DD HH:MM:SS[.fff]`` form is read as UTC.
    """
    text = text.strip()
    if re.fullmatch(r"\d+", text):
        return int(text) * 1_000_000
    dt = datetime.strptime(
        text, "%Y-%m-%d %H:%M:%S.%f" if "." in text else "%Y-%m-%d %H:%M:%S")
    epoch_s = int(dt.replace(tzinfo=timezone.utc, microsecond=0).timestamp())
    return epoch_s * 1_000_000_000 + dt.microsecond * 1_000


def parse_percent(text: str) -> float:
    return float(text.strip().rstrip("%"))


def parse_nextflow_trace(path: str) -> WorkflowTrace:
    """Parse a workflow engine's tab-separated trace file.

    CPU time is reconstructed as ``realtime x (%cpu / 100)``: the engine
    reports task wall runtime and average CPU utilization, not CPU seconds.
    Node placement comes from the hostname column when present; rows without
    one get node ``unknown`` plus a flag.  A row with ``-`` in ``start``,
    ``complete``, ``realtime`` or ``%cpu`` (a task the engine aborted
    before it recorded them) is kept with the ``no_timing`` flag and no
    window.  The workflow window runs from the earliest start to the
    latest completion of the timed rows that are not ``CACHED`` (of every
    timed row when all are).  The workflow id is the file's base name
    without extension.

    Raises:
        ParseError: No task rows, no timed row, a required column absent
            from the header, or a row's field that cannot be interpreted
            (carries the row number).
    """
    tasks: list[TaskRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        # Each row becomes its record as it is read; the file is never
        # held whole.
        header_line = fh.readline().rstrip("\n")
        if not header_line.strip():
            raise ParseError("trace file has no header row", path=path)
        header = header_line.split("\t")
        index: dict[str, int] = {}
        for column in ("task_id", "name", "status", "start", "complete",
                       "realtime", "%cpu"):
            if column not in header:
                raise ParseError(
                    f"required column {column!r} not in header", path=path)
            index[column] = header.index(column)
        host_col = header.index("hostname") if "hostname" in header \
            else None

        for rownum, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) < len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(fields)}",
                    path=path, line=rownum)
            try:
                status_text = fields[index["status"]].strip().upper()
                if status_text not in _NF_STATUS:
                    raise ValueError(f"unknown status {status_text!r}")
                no_timing = any(fields[index[c]].strip() == "-"
                                for c in _TIMING_COLUMNS)
                if no_timing:
                    start = end = 0
                    cpu_time_s = 0.0
                else:
                    realtime_s = parse_duration_s(fields[index["realtime"]])
                    pcpu = parse_percent(fields[index["%cpu"]])
                    if pcpu < 0:
                        raise ValueError(f"negative %cpu {pcpu}")
                    start = parse_timestamp_wall_ns(fields[index["start"]])
                    end = parse_timestamp_wall_ns(fields[index["complete"]])
                    cpu_time_s = realtime_s * (pcpu / 100.0)
                host = fields[host_col].strip() if host_col is not None \
                    else ""
                unknown_node = host in ("", "-")
                record = TaskRecord(
                    task_id=fields[index["task_id"]].strip(),
                    name=fields[index["name"]].strip(),
                    node_id="unknown" if unknown_node else sys.intern(host),
                    start_wall_ns=start,
                    end_wall_ns=end,
                    cpu_time_s=cpu_time_s,
                    status=_NF_STATUS[status_text],
                    flags=_ROW_FLAGS[no_timing, unknown_node])
            except (ValueError, InvalidArgumentError) as exc:
                raise ParseError(str(exc), path=path, line=rownum) from None
            tasks.append(record)
    if not tasks:
        raise ParseError("trace file has no task rows", path=path)
    timed = [t for t in tasks if FLAG_NO_TIMING not in t.flags]
    if not timed:
        raise ParseError("trace file has no row with timing", path=path)
    ran = [t for t in timed if t.status is not TaskStatus.CACHED] or timed
    return WorkflowTrace(
        workflow_id=_stem(path),
        submitted_wall_ns=min(t.start_wall_ns for t in ran),
        finished_wall_ns=max(t.end_wall_ns for t in ran),
        tasks=tuple(tasks))


def _stem(path: str) -> str:
    import os
    base = os.path.basename(path)
    return base.rsplit(".", 1)[0] if "." in base else base


def _require(obj: Mapping[str, Any], key: str, kind, json_path: str):
    if key not in obj:
        raise SchemaViolationError(f"missing required key {key!r}",
                                   json_path=json_path)
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise SchemaViolationError(f"expected integer, got boolean",
                                   json_path=f"{json_path}.{key}")
    if not isinstance(value, kind):
        raise SchemaViolationError(
            f"expected {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}", json_path=f"{json_path}.{key}")
    return value


def parse_generic_trace(path: str) -> WorkflowTrace:
    """Parse the engine-agnostic JSON trace document.

    Tasks without ``cpu_time_s`` fall back to their wall duration and are
    flagged, which later makes their attribution weight equal a plain
    wall-time share.

    Each task-shaped object becomes its record as soon as the decoder
    has read it, so the decoded document is never held whole.  A
    document that then raises is decoded again, plainly, and gives what
    :func:`trace_from_obj` makes of the plain document.  The decoder
    cannot tell where an object sits, so that second decode is what
    reads a task-shaped top level or ``workflow_id`` as the object it is.

    Raises:
        SchemaViolationError: Structural problem, named by JSON path.
    """
    try:
        return trace_from_obj(load_json(path, object_hook=_decoded))
    except SchemaViolationError:
        return trace_from_obj(load_json(path))


# Each status by its spelling in lower case.
_STATUS_OF = {status.value: status for status in TaskStatus}


def _record(item: Any, jp: str) -> TaskRecord:
    """The record of the task entry at ``jp``, its keys checked in the
    order below, so that the first bad key is the one named.  A value of
    the exact type :mod:`json` decodes it to passes one type check; any
    other goes through the check that names its error."""
    if not isinstance(item, dict):
        raise SchemaViolationError("task entry must be an object",
                                   json_path=jp)
    status_text = item.get("status")
    if type(status_text) is not str:
        status_text = _require(item, "status", str, jp)
    status = _STATUS_OF.get(status_text.lower())
    if status is None:
        raise SchemaViolationError(f"unknown status {status_text!r}",
                                   json_path=f"{jp}.status")
    start, end = item.get("start_wall_ns"), item.get("end_wall_ns")
    if type(start) is not int:
        start = _require(item, "start_wall_ns", int, jp)
    if type(end) is not int:
        end = _require(item, "end_wall_ns", int, jp)
    cpu_time, flags = item.get("cpu_time_s"), _NO_FLAGS
    if type(cpu_time) is not float:
        if "cpu_time_s" not in item:
            try:
                cpu_time = (end - start) / 1e9
            except OverflowError:
                raise SchemaViolationError(
                    "wall duration too large for a float",
                    json_path=jp) from None
            flags = _CPU_TIME_FALLBACK_FLAGS
        elif isinstance(cpu_time, bool) or \
                not isinstance(cpu_time, (int, float)):
            raise SchemaViolationError(
                f"expected number, got {type(cpu_time).__name__}",
                json_path=f"{jp}.cpu_time_s")
        else:
            try:
                cpu_time = float(cpu_time)
            except OverflowError:
                raise SchemaViolationError(
                    "number too large for a float",
                    json_path=f"{jp}.cpu_time_s") from None
    task_id, name, node_id = (item.get("task_id"), item.get("name"),
                              item.get("node_id"))
    if type(task_id) is not str:
        task_id = _require(item, "task_id", str, jp)
    if type(name) is not str:
        name = _require(item, "name", str, jp)
    if type(node_id) is not str:
        # Only an exact str can be interned.
        node_id = str(_require(item, "node_id", str, jp))
    try:
        # One string per node, not one per task.
        return TaskRecord(task_id, name, sys.intern(node_id), start, end,
                          cpu_time, status, flags)
    except InvalidArgumentError as exc:
        raise SchemaViolationError(str(exc), json_path=jp) from None


def _decoded(obj: dict) -> Any:
    """``json.load``'s hook: a task entry's record in its place, and any
    other object as it is."""
    if "task_id" not in obj:
        # No task entry, and cheaper to pass by than the checker's raise.
        return obj
    try:
        return _record(obj, "$")
    except SchemaViolationError:
        return obj


def trace_from_obj(doc: Any) -> WorkflowTrace:
    """The trace of a generic-document object.

    A task entry that is already a :class:`TaskRecord` (what
    :func:`parse_generic_trace`'s decoder makes of one) is kept as is.
    """
    if not isinstance(doc, dict):
        raise SchemaViolationError("top level must be an object")
    workflow_id = _require(doc, "workflow_id", str, "$")
    submitted = _require(doc, "submitted_wall_ns", int, "$")
    finished = _require(doc, "finished_wall_ns", int, "$")
    tasks_obj = _require(doc, "tasks", list, "$")
    tasks: list[TaskRecord] = []
    for i, item in enumerate(tasks_obj):
        if type(item) is not TaskRecord:
            item = _record(item, f"$.tasks[{i}]")
        tasks.append(item)
    try:
        return WorkflowTrace(workflow_id=workflow_id,
                             submitted_wall_ns=submitted,
                             finished_wall_ns=finished,
                             tasks=tuple(tasks))
    except InvalidArgumentError as exc:
        raise SchemaViolationError(str(exc)) from None


def trace_to_obj(trace: WorkflowTrace) -> dict[str, Any]:
    """Generic-document form of a trace; inverse of :func:`trace_from_obj`.

    CPU times that were wall-duration fallbacks are omitted again so
    export(import(x)) reproduces the original document.
    """
    tasks = []
    for t in trace.tasks:
        item: dict[str, Any] = {
            "task_id": t.task_id,
            "name": t.name,
            "node_id": t.node_id,
            "start_wall_ns": t.start_wall_ns,
            "end_wall_ns": t.end_wall_ns,
            "status": t.status.value,
        }
        if FLAG_CPU_TIME_FALLBACK not in t.flags:
            item["cpu_time_s"] = t.cpu_time_s
        tasks.append(item)
    return {
        "workflow_id": trace.workflow_id,
        "submitted_wall_ns": trace.submitted_wall_ns,
        "finished_wall_ns": trace.finished_wall_ns,
        "tasks": tasks,
    }


def write_generic_trace(trace: WorkflowTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(trace_to_obj(trace)))
