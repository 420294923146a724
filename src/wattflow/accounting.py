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
from bisect import insort
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Mapping, Sequence

from .counter import (
    EnergyQuantity,
    RaplDomain,
    SampleSeries,
    counts_at,
    integrate_window,
)
from .errors import (
    DegenerateSeriesError,
    InvalidArgumentError,
    MissingNodeLogError,
    NoPointsInWindowError,
    SchemaViolationError,
    load_json,
)
from .logfile import LogStatus, ParsedLog
from .trace import (
    FLAG_SUB_RESOLUTION as _SUB_RESOLUTION,  # a task note, no report flag
    FLAG_UNKNOWN_NODE,
    TaskRecord,
    TaskStatus,
    WorkflowTrace,
    tasks_by_node,
)

REPORT_VERSION = 1

NOTE_SHARED_WINDOW = "shared_window"
NOTE_EQUAL_SPLIT = "equal_split_zero_weight"
NOTE_IDLE_CLAMPED = "idle_clamped"
NOTE_CACHED = "cached"

# Report-level flags are this module's FLAG_* names, FLAG_UNKNOWN_NODE
# among them: a report carrying one is partial.  The first two are also
# task notes.
FLAG_CLIPPED_WINDOW = "clipped_window"
FLAG_UNSAFE_GAP = "unsafe_gap"
FLAG_FLAGGED_LOG = "flagged_log"
FLAG_MISSING_LOG = "missing_log"
FLAG_RESUMED = "resumed"


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
    """A node's recorded domains for one session and its log's status."""

    node_id: str
    series_by_domain: Mapping[RaplDomain, SampleSeries]
    status: LogStatus = LogStatus.CLOSED

    def __post_init__(self) -> None:
        if not self.series_by_domain:
            raise InvalidArgumentError(
                f"node {self.node_id}: no recorded domains")
        # Kept in domain-name order, the order node_window_energy and
        # attribute_concurrent return domains in.
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
        return cls(node_id=parsed.node_id, series_by_domain=parsed.series,
                   status=parsed.status)

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


def log_flags(log: NodeEnergyLog) -> set[str]:
    """The report flags one node's log raises: ``flagged_log:<node>``
    unless it ended with a ``closed`` trailer, and ``unsafe_gap`` when it
    holds an unsafe gap (see :meth:`SampleSeries.unsafe_gaps`), a span
    the counter may have wrapped in unseen.
    """
    flags = set()
    if log.status is not LogStatus.CLOSED:
        flags.add(f"{FLAG_FLAGGED_LOG}:{log.node_id}")
    if any(s.unsafe_gaps() for s in log.series_by_domain.values()):
        flags.add(FLAG_UNSAFE_GAP)
    return flags


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


def node_energies(logs: Mapping[str, NodeEnergyLog],
                  window: tuple[int, int] | None = None
                  ) -> tuple[dict[str, dict[RaplDomain, float]],
                             dict[str, tuple[int, int]], set[str]]:
    """Per-node energy over a wall-time window, and the flags that raises.

    Each node's window is ``window`` clipped to its log's sampled span
    (the whole span when ``window`` is None); a clip flags
    ``clipped_window``.  A log with no sampled span, or that covers none
    of the window, is left out and flagged ``missing_log:<node>``; each
    log used adds its :func:`log_flags`.  A window clipping leaves
    unchanged is used as is, even when it has zero length.

    Returns:
        Joules by domain per node, in sorted node order; each node's
        clipped window; the flags.
    """
    per_node: dict[str, dict[RaplDomain, float]] = {}
    windows: dict[str, tuple[int, int]] = {}
    flags: set[str] = set()
    for node in sorted(logs):
        log = logs[node]
        try:
            lo, hi = log.wall_span()
        except (DegenerateSeriesError, InvalidArgumentError):
            flags.add(f"{FLAG_MISSING_LOG}:{node}")
            continue
        if window is not None:
            lo, hi = max(window[0], lo), min(window[1], hi)
            if (lo, hi) != window:
                if lo >= hi:
                    flags.add(f"{FLAG_MISSING_LOG}:{node}")
                    continue
                flags.add(FLAG_CLIPPED_WINDOW)
        flags |= log_flags(log)
        per_node[node] = node_window_energy(log, lo, hi)
        windows[node] = (lo, hi)
    return per_node, windows, flags


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
                         window: tuple[int, int] | None = None
                         ) -> AttributionResult:
    """Split a node's windowed energy among concurrently running tasks.

    The timeline is cut at every task start and end inside the accounting
    window.  Each domain's unwrapped count is taken once at every boundary,
    in one forward walk of its series (:func:`counts_at`), and a segment's
    energy is the difference of its two boundary counts times the energy
    unit: the same float :func:`integrate_window` gives for that segment.
    Within one segment the per-domain energy, after optional idle
    baseline removal on the package domain, is divided proportionally to
    task weights (mean CPU rate, equal shares, or solo-only depending on
    the policy).  Energy no task receives, including all idle time and the
    removed baseline, accumulates as unattributed, so

        sum of task energies + unattributed == node window energy

    holds per domain up to float rounding regardless of policy.

    The active tasks of each segment come from a sweep over the sorted
    segment boundaries: at each boundary the tasks whose clipped window
    ends there leave the live list, then those starting there join it.
    That costs the active tasks of each segment, instead of a scan of
    every task per segment.  The live list is kept in input task order,
    so every float sum (total weight, shares, leftover, and each task's
    accumulation over segments) adds its terms in a fixed order and
    reports stay byte-stable.

    Args:
        tasks: Task records placed on this log's node.
        log: The node's recorded counters.
        policy: Split rule plus optional idle baseline.
        window: Wall-ns accounting window; defaults to the log's sampled
            span.  Task windows are clipped to it.
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
        task_lo, task_hi = task.window()
        lo, hi = max(task_lo, win_lo), min(task_hi, win_hi)
        notes.append({_SUB_RESOLUTION} if task.sub_resolution else set())
        if lo >= hi:
            clipped.append((win_lo, win_lo))
            weights.append(0.0)
            notes[i].add(FLAG_CLIPPED_WINDOW)
            continue
        if (lo, hi) != (task_lo, task_hi):
            notes[i].add(FLAG_CLIPPED_WINDOW)
        clipped.append((lo, hi))
        starting.setdefault(lo, []).append(i)
        ending.setdefault(hi, []).append(i)
        if policy.kind is PolicyKind.CPU_TIME_SHARE:
            weights.append(task.cpu_time_s / ((hi - lo) / 1e9))
        else:
            weights.append(1.0)

    boundaries = sorted({win_lo, win_hi} | starting.keys() | ending.keys())
    # Joules per task and unattributed, by position in ``domains``; dicts
    # are built once.  Each domain's entry carries its count at every
    # boundary and its energy unit.
    domains = list(log.series_by_domain)
    package = domains.index(RaplDomain.PACKAGE) \
        if RaplDomain.PACKAGE in domains else None
    task_joules = [[0.0] * len(tasks) for _ in domains]
    unattributed = [0.0] * len(domains)
    per_domain = [
        (d, counts_at(series, [b - series.epoch_wall_ns for b in boundaries]),
         series.spec.energy_unit_joules, task_joules[d])
        for d, series in enumerate(log.series_by_domain.values())]
    exclusive = policy.kind is PolicyKind.EXCLUSIVE_ONLY
    baseline_w = policy.idle_baseline_watts
    live: list[int] = []
    shared: set[int] = set()

    for k, (seg_lo, seg_hi) in enumerate(zip(boundaries, boundaries[1:])):
        for i in ending.get(seg_lo, ()):
            live.remove(i)
        for i in starting.get(seg_lo, ()):
            insort(live, i)
        active = live
        if len(active) > 1:
            shared.update(active)
            if exclusive:
                active = []
        if active:
            seg_weights = [weights[i] for i in active]
            total_weight = sum(seg_weights)
            if not total_weight > 0:
                for i in active:
                    notes[i].add(NOTE_EQUAL_SPLIT)
        dur_s = (seg_hi - seg_lo) / 1e9
        for d, domain_counts, unit, joules_of in per_domain:
            joules = max(domain_counts[k + 1] - domain_counts[k], 0.0) * unit
            shares: list[float] = []
            if active:
                available = joules
                if baseline_w is not None and d == package:
                    baseline_j = baseline_w * dur_s
                    if baseline_j > available:
                        for i in active:
                            notes[i].add(NOTE_IDLE_CLAMPED)
                    available = max(available - baseline_j, 0.0)
                if total_weight > 0:
                    shares = [available * (w / total_weight)
                              for w in seg_weights]
                else:
                    shares = [available / len(active)] * len(active)
                for i, share in zip(active, shares):
                    joules_of[i] += share
            unattributed[d] += joules - sum(shares)

    for i in shared:
        notes[i].add(NOTE_SHARED_WINDOW)
    energies = []
    for i, task in enumerate(tasks):
        lo, hi = clipped[i]
        if lo < hi and log.has_unsafe_gap(lo, hi):
            notes[i].add(FLAG_UNSAFE_GAP)
        energies.append(TaskEnergy(
            task_id=task.task_id,
            joules_by_domain={domain: joules_of[i] for domain, joules_of
                              in zip(domains, task_joules)},
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
                    method: MeasurementMethod = MeasurementMethod.SIGNAL_WORKFLOW
                    ) -> EnergyReport:
    """Full accounting pipeline: trace plus node logs to an energy report.

    The accounting window is the workflow's submit-to-finish interval,
    clipped per node by :func:`node_energies`, which also gives the
    per-node energy and the log flags.  Per-task energy comes from
    concurrent attribution on each node; the report total is the sum of
    per-node countable energy, so the conservation invariant links totals,
    tasks, and unattributed energy.

    Tasks flagged ``unknown_node`` ran on no known node: they are listed
    with no energy and that note, their energy stays unattributed, and the
    report carries the flag.  ``cached`` tasks did not run in this
    session: they are listed with no energy and the ``cached`` note, and
    take no share of any segment.

    Raises:
        MissingNodeLogError: The trace places tasks on a node with no
            usable log.
    """
    groups = tasks_by_node(trace)
    per_node, windows, report_flags = node_energies(
        logs, (trace.submitted_wall_ns, trace.finished_wall_ns))
    missing = sorted(set(groups) - set(per_node))
    if missing:
        raise MissingNodeLogError(
            f"no usable sample log for node(s): {', '.join(missing)}")
    all_tasks = []
    for t in trace.tasks:
        if t.status is TaskStatus.CACHED:
            note = NOTE_CACHED
        elif FLAG_UNKNOWN_NODE in t.flags:
            note = FLAG_UNKNOWN_NODE
            report_flags.add(FLAG_UNKNOWN_NODE)
        else:
            continue
        all_tasks.append(TaskEnergy(task_id=t.task_id, joules_by_domain={},
                                    estimated=True, notes={note}))
    unattributed = 0.0
    for node, window in windows.items():
        result = attribute_concurrent(
            groups.get(node, []), logs[node], policy, window=window)
        unattributed += result.unattributed_joules
        all_tasks.extend(result.task_energies)
    all_tasks.sort(key=lambda te: te.task_id)
    return EnergyReport(
        workflow_id=trace.workflow_id, method=method,
        total_joules=countable_total(per_node),
        per_node=per_node, per_task=tuple(all_tasks),
        unattributed_joules=unattributed, flags=frozenset(report_flags))


def report_to_obj(report: EnergyReport) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "report_version": REPORT_VERSION,
        "workflow_id": report.workflow_id,
        "method": report.method.value,
        "status": report.status,
        "total_joules": report.total_joules,
        "unattributed_joules": report.unattributed_joules,
        "per_node": {node: {d.value: j for d, j in domains.items()}
                     for node, domains in report.per_node.items()},
        "per_task": [
            {
                "task_id": te.task_id,
                "joules_by_domain": {d.value: j for d, j in
                                     te.joules_by_domain.items()},
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


def _scalar_text(value: Any, _pad: str = "") -> str:
    """One JSON scalar as ``json.dumps`` writes it.

    Strings go through json's own ASCII escaper, finite floats through
    ``float.__repr__`` (what json's encoder writes them with) and booleans
    become json's ``true``/``false``; any other value goes through
    ``json.dumps`` itself.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    return json.dumps(value)


def _object_text(obj: Mapping[str, Any], pad: str,
                 value_text: Callable[[Any, str], str]) -> str:
    """An object at indent ``pad`` as :func:`json_text` writes it, each
    value written by ``value_text(value, indent of its key)``."""
    if not obj:
        return "{}"
    inner = pad + "  "
    return "{\n" + ",\n".join(
        f"{inner}{encode_basestring_ascii(key)}: {value_text(value, inner)}"
        for key, value in sorted(obj.items())) + f"\n{pad}}}"


def _strings_text(items: Sequence[str], pad: str) -> str:
    """A list of strings at indent ``pad`` as :func:`json_text` writes it."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[\n" + ",\n".join(
        inner + _scalar_text(item) for item in items) + f"\n{pad}]"


def _domains_text(joules_by_domain: Mapping[str, float], pad: str) -> str:
    return _object_text(joules_by_domain, pad, _scalar_text)


def _tasks_text(tasks: Sequence[Mapping[str, Any]], pad: str) -> str:
    """``per_task``: one fixed template per entry of :func:`report_to_obj`."""
    if not tasks:
        return "[]"
    inner, field = pad + "  ", pad + "    "
    return "[\n" + ",\n".join(
        f"{inner}{{\n"
        f'{field}"estimated": {_scalar_text(task["estimated"])},\n'
        f'{field}"joules_by_domain": '
        f'{_domains_text(task["joules_by_domain"], field)},\n'
        f'{field}"notes": {_strings_text(task["notes"], field)},\n'
        f'{field}"task_id": {_scalar_text(task["task_id"])}\n'
        f"{inner}}}" for task in tasks) + f"\n{pad}]"


# The report's values that are not scalars, by top-level key.
_REPORT_VALUE_TEXT: dict[str, Callable[[Any, str], str]] = {
    "per_node": lambda per_node, pad: _object_text(per_node, pad,
                                                    _domains_text),
    "per_task": _tasks_text,
    "flags": _strings_text,
}


def report_to_json(report: EnergyReport) -> str:
    """Deterministic serialization: fixed key order, no volatile fields.

    The text is ``json_text(report_to_obj(report))``, byte for byte, but
    written by the report's fixed shape: the top-level keys in sorted
    order, ``per_node``, and one template per ``per_task`` entry, each
    leaf encoded as :mod:`json` encodes it.  This skips the pure-Python
    encoder that ``json.dumps`` falls back to under ``indent``.
    """
    obj = report_to_obj(report)
    return "{\n" + ",\n".join(
        f"  {encode_basestring_ascii(key)}: "
        f"{_REPORT_VALUE_TEXT.get(key, _scalar_text)(obj[key], '  ')}"
        for key in sorted(obj)) + "\n}\n"


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
    return report_from_obj(load_json(path))
