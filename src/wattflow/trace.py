"""Workflow trace ingestion.

Turns execution traces into task records for accounting, from either the
tab-separated trace file a workflow engine writes or an engine-agnostic JSON
document.  Parsing is total over malformed input in the sense that every
failure is a diagnostic naming the file, row, or JSON path, never a bare
crash; recoverable oddities (unknown host, equal start and end stamps,
missing CPU time) become flags on the record instead of errors.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from enum import Enum
from typing import Any, Mapping

from .errors import (
    EmptyTraceError,
    InvalidArgumentError,
    MissingColumnError,
    RowParseError,
    SchemaViolationError,
)

FLAG_SUB_RESOLUTION = "sub_resolution"
FLAG_UNKNOWN_NODE = "unknown_node"
FLAG_CPU_TIME_FALLBACK = "cpu_time_fallback"
FLAG_OUTSIDE_WINDOW = "outside_workflow_window"

DEFAULT_SUB_RESOLUTION_S = 0.5


class TaskStatus(Enum):
    COMPLETED = "completed"
    FAILED = "failed"
    CACHED = "cached"


@dataclass(frozen=True)
class TaskRecord:
    """One executed task: placement, wall-time window, and CPU time.

    ``end_wall_ns == start_wall_ns`` marks a task whose engine stamped both
    ends with the same instant (runtime below the trace resolution); such
    records carry the ``sub_resolution`` flag and get an assumed window for
    accounting (see :meth:`window`).
    """

    task_id: str
    name: str
    node_id: str
    start_wall_ns: int
    end_wall_ns: int
    cpu_time_s: float
    status: TaskStatus
    flags: frozenset[str] = frozenset()

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
        if self.end_wall_ns == self.start_wall_ns:
            flags |= {FLAG_SUB_RESOLUTION}
        object.__setattr__(self, "flags", flags)

    @property
    def sub_resolution(self) -> bool:
        return FLAG_SUB_RESOLUTION in self.flags

    def window(self, assumed_duration_s: float = DEFAULT_SUB_RESOLUTION_S
               ) -> tuple[int, int]:
        """Wall-time window for accounting.

        Sub-resolution tasks get an assumed duration centered on the logged
        instant; everyone else gets their logged interval.
        """
        if not self.sub_resolution:
            return self.start_wall_ns, self.end_wall_ns
        half = int(assumed_duration_s * 5e8)
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
        flagged = tuple(
            replace(t, flags=t.flags | {FLAG_OUTSIDE_WINDOW})
            if (t.start_wall_ns < self.submitted_wall_ns
                or t.end_wall_ns > self.finished_wall_ns)
            and FLAG_OUTSIDE_WINDOW not in t.flags
            else t
            for t in self.tasks)
        object.__setattr__(self, "tasks", flagged)


_NF_STATUS = {
    "COMPLETED": TaskStatus.COMPLETED,
    "CACHED": TaskStatus.CACHED,
    "FAILED": TaskStatus.FAILED,
    "ABORTED": TaskStatus.FAILED,
}

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
    one get node ``unknown`` plus a flag.  The workflow id is the file's
    base name without extension.

    Raises:
        MissingColumnError: A required column is absent from the header.
        RowParseError: A row's field cannot be interpreted (carries the
            row number).
        EmptyTraceError: No task rows.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or not lines[0].strip():
        raise EmptyTraceError("trace file has no header row", path=path)
    header = lines[0].split("\t")
    index: dict[str, int] = {}
    for column in ("task_id", "name", "status", "start", "complete",
                   "realtime", "%cpu"):
        if column not in header:
            raise MissingColumnError(
                f"required column {column!r} not in header", path=path)
        index[column] = header.index(column)
    host_col = header.index("hostname") if "hostname" in header else None

    tasks: list[TaskRecord] = []
    for rownum, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < len(header):
            raise RowParseError(
                f"expected {len(header)} fields, got {len(fields)}",
                path=path, line=rownum)
        try:
            status_text = fields[index["status"]].strip().upper()
            if status_text not in _NF_STATUS:
                raise ValueError(f"unknown status {status_text!r}")
            realtime_s = parse_duration_s(fields[index["realtime"]])
            pcpu = parse_percent(fields[index["%cpu"]])
            if pcpu < 0:
                raise ValueError(f"negative %cpu {pcpu}")
            flags = set()
            if host_col is not None and fields[host_col].strip() not in ("", "-"):
                node_id = fields[host_col].strip()
            else:
                node_id = "unknown"
                flags.add(FLAG_UNKNOWN_NODE)
            record = TaskRecord(
                task_id=fields[index["task_id"]].strip(),
                name=fields[index["name"]].strip(),
                node_id=node_id,
                start_wall_ns=parse_timestamp_wall_ns(fields[index["start"]]),
                end_wall_ns=parse_timestamp_wall_ns(fields[index["complete"]]),
                cpu_time_s=realtime_s * (pcpu / 100.0),
                status=_NF_STATUS[status_text],
                flags=frozenset(flags))
        except (ValueError, InvalidArgumentError) as exc:
            raise RowParseError(str(exc), path=path, line=rownum) from None
        tasks.append(record)
    if not tasks:
        raise EmptyTraceError("trace file has no task rows", path=path)
    return WorkflowTrace(
        workflow_id=_stem(path),
        submitted_wall_ns=min(t.start_wall_ns for t in tasks),
        finished_wall_ns=max(t.end_wall_ns for t in tasks),
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

    Raises:
        SchemaViolationError: Structural problem, named by JSON path.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaViolationError(f"not valid JSON: {exc}") from None
    return trace_from_obj(doc)


def trace_from_obj(doc: Any) -> WorkflowTrace:
    if not isinstance(doc, dict):
        raise SchemaViolationError("top level must be an object")
    workflow_id = _require(doc, "workflow_id", str, "$")
    submitted = _require(doc, "submitted_wall_ns", int, "$")
    finished = _require(doc, "finished_wall_ns", int, "$")
    tasks_obj = _require(doc, "tasks", list, "$")
    tasks: list[TaskRecord] = []
    for i, item in enumerate(tasks_obj):
        jp = f"$.tasks[{i}]"
        if not isinstance(item, dict):
            raise SchemaViolationError("task entry must be an object",
                                       json_path=jp)
        status_text = _require(item, "status", str, jp)
        try:
            status = TaskStatus(status_text.lower())
        except ValueError:
            raise SchemaViolationError(f"unknown status {status_text!r}",
                                       json_path=f"{jp}.status") from None
        start = _require(item, "start_wall_ns", int, jp)
        end = _require(item, "end_wall_ns", int, jp)
        flags = set()
        if "cpu_time_s" in item:
            cpu_time = item["cpu_time_s"]
            if isinstance(cpu_time, bool) or \
                    not isinstance(cpu_time, (int, float)):
                raise SchemaViolationError(
                    f"expected number, got {type(cpu_time).__name__}",
                    json_path=f"{jp}.cpu_time_s")
            cpu_time = float(cpu_time)
        else:
            cpu_time = (end - start) / 1e9
            flags.add(FLAG_CPU_TIME_FALLBACK)
        try:
            record = TaskRecord(
                task_id=_require(item, "task_id", str, jp),
                name=_require(item, "name", str, jp),
                node_id=_require(item, "node_id", str, jp),
                start_wall_ns=start,
                end_wall_ns=end,
                cpu_time_s=cpu_time,
                status=status,
                flags=frozenset(flags))
        except InvalidArgumentError as exc:
            raise SchemaViolationError(str(exc), json_path=jp) from None
        tasks.append(record)
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
        json.dump(trace_to_obj(trace), fh, indent=2, sort_keys=True)
        fh.write("\n")


def tasks_by_node(trace: WorkflowTrace) -> dict[str, list[TaskRecord]]:
    """Tasks grouped by node, each group in start order.

    Tasks flagged ``unknown_node`` ran on no node the trace names, so
    they are left out.
    """
    out: dict[str, list[TaskRecord]] = {}
    for t in trace.tasks:
        if FLAG_UNKNOWN_NODE not in t.flags:
            out.setdefault(t.node_id, []).append(t)
    for records in out.values():
        records.sort(key=lambda t: (t.start_wall_ns, t.end_wall_ns, t.task_id))
    return out
