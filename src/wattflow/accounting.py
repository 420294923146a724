"""Energy accounting over sample logs and workflow traces.

Combines per-node counter logs with a task trace to produce per-task,
per-node, and per-workflow energy.  Concurrent tasks on a node are handled
by segmenting the timeline at every task boundary and splitting each
segment's energy among the tasks active in it; whatever no policy assigns
stays visible as unattributed energy, so attribution always conserves the
node total.

Also hosts the interval-scrape estimator, which deliberately reproduces the
point-count times interval arithmetic of average-power monitoring queries
(including their boundary coarseness).

Everything here is pure computation over immutable inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Mapping, Sequence

from .counter import EnergyQuantity, RaplDomain, SampleSeries, integrate_window
from .errors import (
    InvalidArgumentError,
    MissingNodeLogError,
    NoPointsInWindowError,
    SchemaViolationError,
)
from .logfile import ParsedLog
from .trace import (
    DEFAULT_SUB_RESOLUTION_S,
    FLAG_UNKNOWN_NODE,
    TaskRecord,
    WorkflowTrace,
    tasks_by_node,
)

REPORT_VERSION = 1

NOTE_SUB_RESOLUTION = "sub_resolution"
NOTE_SHARED_WINDOW = "shared_window"
NOTE_UNSAFE_GAP = "unsafe_gap"
NOTE_EQUAL_SPLIT = "equal_split_zero_weight"
NOTE_IDLE_CLAMPED = "idle_clamped"
NOTE_CLIPPED_WINDOW = "clipped_window"


class MeasurementMethod(Enum):
    SHELL_WRAP = "shell-wrap"
    SIGNAL_WORKFLOW = "signal-workflow"
    SIGNAL_PLUGIN = "signal-plugin"
    INTERVAL_SCRAPE = "interval-scrape"


class PolicyKind(Enum):
    CPU_TIME_SHARE = "cputime"
    WALL_TIME_SHARE = "walltime"
    EXCLUSIVE_ONLY = "exclusive"


@dataclass(frozen=True)
class AttributionPolicy:
    """How to split a shared segment's energy among active tasks.

    CPU_TIME_SHARE weighs tasks by mean CPU rate (CPU seconds per wall
    second), WALL_TIME_SHARE splits equally among whoever is running, and
    EXCLUSIVE_ONLY attributes only segments where exactly one task runs.
    ``idle_baseline_watts`` removes a constant node draw from the package
    domain before splitting (only meaningful when energy is being shared).
    """

    kind: PolicyKind
    idle_baseline_watts: float | None = None

    def __post_init__(self) -> None:
        if self.idle_baseline_watts is not None:
            if self.kind is PolicyKind.EXCLUSIVE_ONLY:
                raise InvalidArgumentError(
                    "idle baseline only applies to share policies")
            if not (math.isfinite(self.idle_baseline_watts)
                    and self.idle_baseline_watts >= 0):
                raise InvalidArgumentError(
                    f"idle_baseline_watts must be >= 0, "
                    f"got {self.idle_baseline_watts}")


@dataclass(frozen=True)
class NodeEnergyLog:
    """All recorded domains of one node for one session."""

    node_id: str
    series_by_domain: Mapping[RaplDomain, SampleSeries]

    def __post_init__(self) -> None:
        if not self.series_by_domain:
            raise InvalidArgumentError(
                f"node {self.node_id}: no recorded domains")
        # Kept in domain-name order: node_window_energy, called once per
        # attribution segment, returns domains in this order unsorted.
        object.__setattr__(self, "series_by_domain", dict(sorted(
            self.series_by_domain.items(), key=lambda kv: kv[0].value)))
        for domain, series in self.series_by_domain.items():
            if series.node_id != self.node_id:
                raise InvalidArgumentError(
                    f"series for {domain} belongs to {series.node_id!r}, "
                    f"not {self.node_id!r}")
            if series.spec.domain is not domain:
                raise InvalidArgumentError(
                    f"series keyed {domain} but carries "
                    f"{series.spec.domain}")

    @classmethod
    def from_parsed(cls, parsed: ParsedLog) -> "NodeEnergyLog":
        return cls(node_id=parsed.node_id, series_by_domain=parsed.series)

    def wall_span(self) -> tuple[int, int]:
        """Intersection of all domains' sampled spans, in wall time."""
        starts, ends = [], []
        for series in self.series_by_domain.values():
            first, last = series.span_ns
            starts.append(first + series.epoch_wall_ns)
            ends.append(last + series.epoch_wall_ns)
        lo, hi = max(starts), min(ends)
        if hi <= lo:
            raise InvalidArgumentError(
                f"node {self.node_id}: recorded domains share no time span")
        return lo, hi

    def has_unsafe_gap(self, start_wall_ns: int, end_wall_ns: int) -> bool:
        return any(
            series.has_unsafe_gap(start_wall_ns - series.epoch_wall_ns,
                                  end_wall_ns - series.epoch_wall_ns)
            for series in self.series_by_domain.values())


def node_window_energy(log: NodeEnergyLog, start_wall_ns: int,
                       end_wall_ns: int) -> dict[RaplDomain, float]:
    """Per-domain energy of one node over a wall-time window.

    Each domain is integrated independently (domains account for disjoint
    or nested hardware planes; they are never mixed here).  An empty window
    yields zeros.
    """
    if start_wall_ns > end_wall_ns:
        raise InvalidArgumentError(
            f"window start {start_wall_ns} after end {end_wall_ns}")
    out: dict[RaplDomain, float] = {}
    for domain, series in log.series_by_domain.items():
        if start_wall_ns == end_wall_ns:
            out[domain] = 0.0
            continue
        mono_start = start_wall_ns - series.epoch_wall_ns
        mono_end = end_wall_ns - series.epoch_wall_ns
        out[domain] = integrate_window(series, mono_start, mono_end).joules
    return out


def countable_domains(domains: Iterable[RaplDomain]) -> frozenset[RaplDomain]:
    """Domains that may be summed into a node total without double counting.

    Core and graphics are subsets of package, and psys contains it, so when
    package is recorded the total is package plus dram; without package all
    recorded domains except psys count, and a psys-only log counts itself.
    """
    present = frozenset(domains)
    if RaplDomain.PACKAGE in present:
        return present & {RaplDomain.PACKAGE, RaplDomain.DRAM}
    rest = present - {RaplDomain.PSYS}
    return rest if rest else present


def _countable_sum(joules_by_domain: Mapping[RaplDomain, float]) -> float:
    counted = countable_domains(joules_by_domain.keys())
    return sum(joules_by_domain[d]
               for d in sorted(counted, key=lambda d: d.value))


def countable_total(per_node: Mapping[str, Mapping[RaplDomain, float]]
                    ) -> float:
    """Countable energy summed over nodes.

    Each node contributes the sum of its countable domains, taken in
    domain-name order; nodes are added in sorted node-id order.  The fixed
    order makes the float result, and so every report that carries it,
    identical in every process.
    """
    total = 0.0
    for node in sorted(per_node):
        total += _countable_sum(per_node[node])
    return total


@dataclass(frozen=True)
class TaskEnergy:
    """Energy attributed to one task, with how trustworthy it is.

    ``estimated`` is set whenever any modeling assumption stands between
    the counters and this number (shared windows, assumed sub-resolution
    duration); ``notes`` say which ones.
    """

    task_id: str
    joules_by_domain: Mapping[RaplDomain, float]
    estimated: bool = False
    notes: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        cleaned: dict[RaplDomain, float] = {}
        for domain, joules in self.joules_by_domain.items():
            if -1e-9 < joules < 0.0:
                joules = 0.0
            if not (math.isfinite(joules) and joules >= 0):
                raise InvalidArgumentError(
                    f"task {self.task_id}: {domain} energy must be >= 0, "
                    f"got {joules}")
            cleaned[domain] = joules
        object.__setattr__(self, "joules_by_domain", cleaned)
        object.__setattr__(self, "notes", frozenset(self.notes))

    @property
    def total_joules(self) -> float:
        return _countable_sum(self.joules_by_domain)


@dataclass(frozen=True)
class AttributionResult:
    """Outcome of splitting one node's energy among its tasks."""

    task_energies: tuple[TaskEnergy, ...]
    unattributed_by_domain: Mapping[RaplDomain, float]

    @property
    def unattributed_joules(self) -> float:
        return _countable_sum(self.unattributed_by_domain)


def attribute_concurrent(tasks: Sequence[TaskRecord], log: NodeEnergyLog,
                         policy: AttributionPolicy,
                         window: tuple[int, int] | None = None,
                         assumed_duration_s: float = DEFAULT_SUB_RESOLUTION_S
                         ) -> AttributionResult:
    """Split a node's windowed energy among concurrently running tasks.

    The timeline is cut at every task start and end inside the accounting
    window.  Within one segment the per-domain energy, after optional idle
    baseline removal on the package domain, is divided proportionally to
    task weights (mean CPU rate, equal shares, or solo-only depending on
    the policy).  Energy no task receives, including all idle time and the
    removed baseline, accumulates as unattributed, so

        sum of task energies + unattributed == node window energy

    holds per domain up to float rounding regardless of policy.

    The active tasks of each segment come from a sweep over the sorted
    segment boundaries: at each boundary the tasks whose clipped window
    ends there leave the live set, then those starting there join it.
    That costs O((tasks + segments) log tasks) plus the active tasks of
    each segment, instead of a scan of every task per segment.  Each
    segment's active list is taken in input task order, so every float
    sum (total weight, shares, leftover, and each task's accumulation
    over segments) adds its terms in a fixed order and reports stay
    byte-stable.

    Args:
        tasks: Task records placed on this log's node.
        log: The node's recorded counters.
        policy: Split rule plus optional idle baseline.
        window: Wall-ns accounting window; defaults to the log's sampled
            span.  Task windows are clipped to it.
        assumed_duration_s: Window length assumed for sub-resolution tasks.
    """
    for task in tasks:
        if task.node_id != log.node_id:
            raise InvalidArgumentError(
                f"task {task.task_id} ran on {task.node_id!r}, log is for "
                f"{log.node_id!r}")
    if window is None:
        window = log.wall_span()
    win_lo, win_hi = window
    if win_lo >= win_hi:
        raise InvalidArgumentError(f"empty accounting window {window}")

    # Per task, by position in ``tasks``.
    clipped: list[tuple[int, int]] = []
    weights: list[float] = []
    notes: list[set[str]] = []
    starting: dict[int, list[int]] = {}
    ending: dict[int, list[int]] = {}
    for i, task in enumerate(tasks):
        lo, hi = task.window(assumed_duration_s)
        lo, hi = max(lo, win_lo), min(hi, win_hi)
        notes.append({NOTE_SUB_RESOLUTION} if task.sub_resolution else set())
        if lo >= hi:
            clipped.append((win_lo, win_lo))
            weights.append(0.0)
            notes[i].add(NOTE_CLIPPED_WINDOW)
            continue
        if (lo, hi) != task.window(assumed_duration_s):
            notes[i].add(NOTE_CLIPPED_WINDOW)
        clipped.append((lo, hi))
        starting.setdefault(lo, []).append(i)
        ending.setdefault(hi, []).append(i)
        if policy.kind is PolicyKind.CPU_TIME_SHARE:
            weights.append(task.cpu_time_s / ((hi - lo) / 1e9))
        else:
            weights.append(1.0)

    boundaries = sorted({win_lo, win_hi} | starting.keys() | ending.keys())
    # Joules per task and unattributed, by position in ``domains`` (the
    # order node_window_energy returns them in); dicts are built once.
    domains = list(log.series_by_domain)
    package = domains.index(RaplDomain.PACKAGE) \
        if RaplDomain.PACKAGE in domains else None
    task_joules = [[0.0] * len(domains) for _ in tasks]
    unattributed = [0.0] * len(domains)
    exclusive = policy.kind is PolicyKind.EXCLUSIVE_ONLY
    baseline_w = policy.idle_baseline_watts
    live: set[int] = set()

    for seg_lo, seg_hi in zip(boundaries, boundaries[1:]):
        live.difference_update(ending.get(seg_lo, ()))
        live.update(starting.get(seg_lo, ()))
        seg_energy = node_window_energy(log, seg_lo, seg_hi)
        active = sorted(live)
        shared = len(active) > 1
        if shared:
            for i in active:
                notes[i].add(NOTE_SHARED_WINDOW)
            if exclusive:
                active = []
        fractions: list[float] | None = None
        if active:
            total_weight = sum(weights[i] for i in active)
            if total_weight > 0:
                fractions = [weights[i] / total_weight for i in active]
            else:
                for i in active:
                    notes[i].add(NOTE_EQUAL_SPLIT)
        dur_s = (seg_hi - seg_lo) / 1e9
        for d, joules in enumerate(seg_energy.values()):
            shares: list[float] = []
            if active:
                available = joules
                if baseline_w is not None and d == package:
                    baseline_j = baseline_w * dur_s
                    if baseline_j > available:
                        for i in active:
                            notes[i].add(NOTE_IDLE_CLAMPED)
                    available = max(available - baseline_j, 0.0)
                if fractions is not None:
                    shares = [available * f for f in fractions]
                else:
                    shares = [available / len(active)] * len(active)
                for i, share in zip(active, shares):
                    task_joules[i][d] += share
            unattributed[d] += joules - sum(shares)

    energies = []
    for i, task in enumerate(tasks):
        lo, hi = clipped[i]
        if lo < hi and log.has_unsafe_gap(lo, hi):
            notes[i].add(NOTE_UNSAFE_GAP)
        energies.append(TaskEnergy(
            task_id=task.task_id,
            joules_by_domain=dict(zip(domains, task_joules[i])),
            estimated=True, notes=frozenset(notes[i])))
    return AttributionResult(task_energies=tuple(energies),
                             unattributed_by_domain=dict(zip(domains,
                                                             unattributed)))


def interval_estimate(avg_watt_points: Sequence[tuple[int, float]],
                      window: tuple[int, int], scrape_interval_s: float
                      ) -> EnergyQuantity:
    """Energy estimate from periodically scraped average-power points.

    Faithfully models the monitoring-query arithmetic: take every stored
    point with timestamp in ``(end - duration, end]`` and
    multiply the sum of their watt values by the scrape interval.  The
    estimate inherits that query's boundary coarseness: the covered span is
    a whole number of intervals, not the actual window, which overestimates
    short windows inside busy surroundings and truncates heads.

    Args:
        avg_watt_points: (t_wall_ns, watts) pairs, any order.
        window: (start_wall_ns, end_wall_ns), start < end.
        scrape_interval_s: Spacing the points were stored at.

    Raises:
        NoPointsInWindowError: No point lies inside the window.
    """
    if scrape_interval_s <= 0:
        raise InvalidArgumentError(
            f"scrape_interval_s must be > 0, got {scrape_interval_s}")
    start, end = window
    if start >= end:
        raise InvalidArgumentError(f"empty estimation window {window}")
    inside = sorted((t, w) for t, w in avg_watt_points if start < t <= end)
    if not inside:
        raise NoPointsInWindowError(
            f"no average-watt points in ({start}, {end}]")
    return EnergyQuantity(sum(w for _, w in inside) * scrape_interval_s)


@dataclass(frozen=True)
class EnergyReport:
    """One method's energy accounting of one workflow run."""

    workflow_id: str
    method: MeasurementMethod
    total_joules: float
    per_node: Mapping[str, Mapping[RaplDomain, float]]
    per_task: tuple[TaskEnergy, ...] = ()
    coverage_fraction: float | None = None
    unattributed_joules: float = 0.0
    status: str = "ok"
    flags: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.coverage_fraction is not None \
                and not 0.0 <= self.coverage_fraction <= 1.0:
            raise InvalidArgumentError(
                f"coverage_fraction must be in [0, 1], "
                f"got {self.coverage_fraction}")
        if self.status not in ("ok", "failed"):
            raise InvalidArgumentError(f"unknown status {self.status!r}")
        object.__setattr__(
            self, "per_node",
            {node: dict(domains) for node, domains in self.per_node.items()})
        object.__setattr__(self, "per_task", tuple(self.per_task))
        object.__setattr__(self, "flags", frozenset(self.flags))


def assemble_report(trace: WorkflowTrace,
                    logs: Mapping[str, NodeEnergyLog],
                    policy: AttributionPolicy,
                    method: MeasurementMethod = MeasurementMethod.SIGNAL_WORKFLOW,
                    coverage_fraction: float | None = None,
                    status: str = "ok",
                    assumed_duration_s: float = DEFAULT_SUB_RESOLUTION_S
                    ) -> EnergyReport:
    """Full accounting pipeline: trace plus node logs to an energy report.

    The accounting window is the workflow's submit-to-finish interval,
    clipped per node to what that node's log actually covers (clipping is
    flagged).  Per-task energy comes from concurrent attribution on each
    node; the report total is the sum of per-node countable energy, so the
    conservation invariant links totals, tasks, and unattributed energy.

    Tasks flagged ``unknown_node`` ran on no known node: they are listed
    with no energy and that note, their energy stays unattributed, and the
    report carries the flag.

    Raises:
        MissingNodeLogError: The trace places tasks on a node with no log.
    """
    groups = tasks_by_node(trace)
    missing = sorted(set(groups) - set(logs))
    if missing:
        raise MissingNodeLogError(
            f"no sample log for node(s): {', '.join(missing)}")
    report_flags: set[str] = set()
    per_node: dict[str, Mapping[RaplDomain, float]] = {}
    all_tasks = [TaskEnergy(task_id=t.task_id, joules_by_domain={},
                            estimated=True, notes={FLAG_UNKNOWN_NODE})
                 for t in trace.tasks if FLAG_UNKNOWN_NODE in t.flags]
    if all_tasks:
        report_flags.add(FLAG_UNKNOWN_NODE)
    unattributed = 0.0
    for node in sorted(logs):
        log = logs[node]
        span_lo, span_hi = log.wall_span()
        win_lo = max(trace.submitted_wall_ns, span_lo)
        win_hi = min(trace.finished_wall_ns, span_hi)
        if (win_lo, win_hi) != (trace.submitted_wall_ns,
                                trace.finished_wall_ns):
            report_flags.add(NOTE_CLIPPED_WINDOW)
        if win_lo >= win_hi:
            raise MissingNodeLogError(
                f"log for node {node} does not cover the workflow window")
        result = attribute_concurrent(
            groups.get(node, []), log, policy, window=(win_lo, win_hi),
            assumed_duration_s=assumed_duration_s)
        per_node[node] = node_window_energy(log, win_lo, win_hi)
        unattributed += result.unattributed_joules
        all_tasks.extend(result.task_energies)
        if any(s.gap_markers for s in log.series_by_domain.values()):
            report_flags.add(NOTE_UNSAFE_GAP)
    all_tasks.sort(key=lambda te: te.task_id)
    return EnergyReport(
        workflow_id=trace.workflow_id, method=method,
        total_joules=countable_total(per_node),
        per_node=per_node, per_task=tuple(all_tasks),
        coverage_fraction=coverage_fraction,
        unattributed_joules=unattributed, status=status,
        flags=frozenset(report_flags))


def report_to_obj(report: EnergyReport) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "report_version": REPORT_VERSION,
        "workflow_id": report.workflow_id,
        "method": report.method.value,
        "status": report.status,
        "total_joules": report.total_joules,
        "unattributed_joules": report.unattributed_joules,
        "per_node": {
            node: {domain.value: joules
                   for domain, joules in sorted(
                       domains.items(), key=lambda kv: kv[0].value)}
            for node, domains in sorted(report.per_node.items())},
        "per_task": [
            {
                "task_id": te.task_id,
                "joules_by_domain": {
                    domain.value: joules
                    for domain, joules in sorted(
                        te.joules_by_domain.items(),
                        key=lambda kv: kv[0].value)},
                "estimated": te.estimated,
                "notes": sorted(te.notes),
            }
            for te in report.per_task],
    }
    if report.coverage_fraction is not None:
        obj["coverage_fraction"] = report.coverage_fraction
    if report.flags:
        obj["flags"] = sorted(report.flags)
    return obj


def report_to_json(report: EnergyReport) -> str:
    """Deterministic serialization: fixed key order, no volatile fields."""
    return json.dumps(report_to_obj(report), indent=2, sort_keys=True) + "\n"


def report_from_obj(obj: Any) -> EnergyReport:
    if not isinstance(obj, dict):
        raise SchemaViolationError("report must be an object")
    try:
        if obj["report_version"] != REPORT_VERSION:
            raise SchemaViolationError(
                f"unsupported report_version {obj['report_version']!r}",
                json_path="$.report_version")
        per_node = {
            node: {RaplDomain.parse(d): float(j)
                   for d, j in domains.items()}
            for node, domains in obj["per_node"].items()}
        per_task = tuple(
            TaskEnergy(
                task_id=item["task_id"],
                joules_by_domain={RaplDomain.parse(d): float(j)
                                  for d, j in
                                  item["joules_by_domain"].items()},
                estimated=bool(item["estimated"]),
                notes=frozenset(item.get("notes", ())))
            for item in obj["per_task"])
        return EnergyReport(
            workflow_id=obj["workflow_id"],
            method=MeasurementMethod(obj["method"]),
            total_joules=float(obj["total_joules"]),
            per_node=per_node,
            per_task=per_task,
            coverage_fraction=obj.get("coverage_fraction"),
            unattributed_joules=float(obj.get("unattributed_joules", 0.0)),
            status=obj.get("status", "ok"),
            flags=frozenset(obj.get("flags", ())))
    except SchemaViolationError:
        raise
    except (KeyError, ValueError, TypeError, InvalidArgumentError) as exc:
        raise SchemaViolationError(f"bad report document: {exc}") from None


def load_report(path: str) -> EnergyReport:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaViolationError(f"not valid JSON: {exc}") from None
    return report_from_obj(obj)
