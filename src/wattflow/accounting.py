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

Each node's log arrives as a :class:`~wattflow.logfile.NodeEnergyLog`,
which :mod:`wattflow.logfile` reads; no log is read here, and everything
here is pure computation over immutable inputs.
"""

from __future__ import annotations

import io
import json
import math
from array import array
from bisect import insort
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Iterator, Mapping, Sequence, TextIO

from .counter import (
    EnergyQuantity,
    RaplDomain,
    counts_at,
    integrate_window,
)
from .errors import (
    DegenerateSeriesError,
    InvalidArgumentError,
    SchemaViolationError,
    WattflowError,
    load_json,
)
from .kinds import MeasurementMethod, PolicyKind
from .logfile import LogStatus, NodeEnergyLog
from .trace import (
    FLAG_NO_TIMING,
    FLAG_SUB_RESOLUTION as _SUB_RESOLUTION,  # a task note, no report flag
    FLAG_UNKNOWN_NODE,
    TaskRecord,
    TaskStatus,
    WorkflowTrace,
)

REPORT_VERSION = 1

NOTE_SHARED_WINDOW = "shared_window"
NOTE_EQUAL_SPLIT = "equal_split_zero_weight"
NOTE_IDLE_CLAMPED = "idle_clamped"
NOTE_CACHED = "cached"

# Report-level flags are this module's FLAG_* names, FLAG_UNKNOWN_NODE
# and FLAG_NO_TIMING among them: a report carrying one is partial.  Those
# two and the first two below are also task notes.
FLAG_CLIPPED_WINDOW = "clipped_window"
FLAG_UNSAFE_GAP = "unsafe_gap"
FLAG_FLAGGED_LOG = "flagged_log"
FLAG_MISSING_LOG = "missing_log"
FLAG_RESUMED = "resumed"
# The trace flags that leave a task on no node, and flag the report.
_UNPLACED = frozenset({FLAG_UNKNOWN_NODE, FLAG_NO_TIMING})
# Every TaskEnergy notes set built here, by its contents, so that entries
# with the same notes share one set.  Notes come from the fixed names
# above, so the table stays small.
_NOTE_SETS: dict[frozenset[str], frozenset[str]] = {}


def _shared_notes(notes: Iterable[str], *more: str) -> frozenset[str]:
    """``notes`` and ``more`` as the one set every entry with them shares."""
    frozen = frozenset(notes).union(more)
    return _NOTE_SETS.setdefault(frozen, frozen)


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


def _clip(window: tuple[int, int], span: tuple[int, int]
          ) -> tuple[int, int]:
    return max(window[0], span[0]), min(window[1], span[1])


def log_flags(log: NodeEnergyLog) -> set[str]:
    """The report flags one node's log raises: ``flagged_log:<node>``
    unless it ended with a ``closed`` trailer, and ``unsafe_gap`` when it
    holds an unsafe gap (see :meth:`SampleSeries.unsafe_gaps`), a span
    the counter may have wrapped in unseen.
    """
    flags = set()
    if log.status is not LogStatus.CLOSED:
        flags.add(f"{FLAG_FLAGGED_LOG}:{log.node_id}")
    if any(s.unsafe_gaps() for s in log.series.values()):
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
    for domain, series in log.series.items():
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
            lo, hi = _clip(window, (lo, hi))
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
    total = 0.0
    for d in sorted(countable_domains(joules_by_domain.keys()),
                    key=lambda d: d.value):
        total += joules_by_domain[d]
    return total


def countable_total(per_node: Mapping[str, Mapping[RaplDomain, float]]
                    ) -> float:
    """Countable energy summed over nodes.

    Each node contributes the sum of its countable domains, taken in
    domain-name order; nodes are added in sorted node-id order.  The fixed
    order, and plain left folds rather than ``sum()`` (which Python 3.12
    made compensated), make the float result, and so every report that
    carries it, identical in every process and on every Python version.
    """
    total = 0.0
    for node in sorted(per_node):
        total += _countable_sum(per_node[node])
    return total


class _Joules(Mapping):
    """A task's joules by domain: the domains, a tuple entries with the
    same key order share, and the joules in that order.

    A read-only mapping that costs two tuples, where a dict of one domain
    costs about 224 bytes.
    """

    __slots__ = ("_domains", "_joules")

    def __init__(self, domains: tuple[RaplDomain, ...],
                 joules: tuple[float, ...]) -> None:
        self._domains = domains
        self._joules = joules

    def __getitem__(self, domain: RaplDomain) -> float:
        try:
            return self._joules[self._domains.index(domain)]
        except ValueError:
            raise KeyError(domain) from None

    def __iter__(self) -> Iterator[RaplDomain]:
        return iter(self._domains)

    def __len__(self) -> int:
        return len(self._domains)

    def __repr__(self) -> str:
        return repr(dict(zip(self._domains, self._joules)))


# Every key order a TaskEnergy was built from a mapping with, so that
# entries with the same domains share one tuple; at most one per ordered
# subset of the few RAPL domains.
_DOMAIN_ORDERS: dict[tuple[RaplDomain, ...], tuple[RaplDomain, ...]] = {}


@dataclass(frozen=True, slots=True)
class TaskEnergy:
    """Energy attributed to one task, with how trustworthy it is.

    Every entry wattflow computes has ``estimated`` set: a task's joules
    are always apportioned from node counters by its time window, never
    read from a counter of its own.  ``notes`` name the further
    assumptions that apply (shared windows, assumed sub-resolution
    duration, clipping) and why an entry holds no joules.  ``notes`` is
    kept as given when it is a frozenset, so entries with the same notes
    share one set: attribution hands out one set per combination of notes.
    ``joules_by_domain`` is kept as a read-only mapping, in the order it
    was given.
    """

    task_id: str
    joules_by_domain: Mapping[RaplDomain, float]
    estimated: bool = False
    notes: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        given = self.joules_by_domain
        if type(given) is _Joules:
            domains, values = given._domains, given._joules
        else:
            domains = tuple(given)
            domains = _DOMAIN_ORDERS.setdefault(domains, domains)
            values = tuple(given.values())
        cleaned = []
        for domain, joules in zip(domains, values):
            if -1e-9 < joules < 0.0:
                joules = 0.0
            if not (math.isfinite(joules) and joules >= 0):
                raise InvalidArgumentError(
                    f"task {self.task_id}: {domain} energy must be >= 0, "
                    f"got {joules}")
            cleaned.append(joules)
        object.__setattr__(self, "joules_by_domain",
                           _Joules(domains, tuple(cleaned)))
        object.__setattr__(self, "notes", frozenset(self.notes))


@dataclass(frozen=True)
class AttributionResult:
    """Outcome of splitting one node's energy among its tasks."""

    task_energies: tuple[TaskEnergy, ...]
    unattributed_by_domain: Mapping[RaplDomain, float]

    @property
    def unattributed_joules(self) -> float:
        return _countable_sum(self.unattributed_by_domain)


# Each task's clipped window, or None, and the sorted segment boundaries.
_Cuts = tuple[list["tuple[int, int] | None"], list[int]]


def _clip_tasks(tasks: Iterable[TaskRecord], window: tuple[int, int]
                ) -> _Cuts:
    """Each task's window clipped to ``window``, None when nothing of it
    is left, and the sorted segment boundaries: the window's ends and the
    ends of every clipped task window."""
    clipped: list[tuple[int, int] | None] = []
    boundaries = set(window)
    win_lo, win_hi = window
    for task in tasks:
        task_lo, task_hi = task.window()
        lo, hi = max(task_lo, win_lo), min(task_hi, win_hi)
        if lo < hi:
            clipped.append((lo, hi))
            boundaries.update((lo, hi))
        else:
            clipped.append(None)
    return clipped, sorted(boundaries)


def attribute_concurrent(tasks: Sequence[TaskRecord], log: NodeEnergyLog,
                         policy: AttributionPolicy,
                         window: tuple[int, int] | None = None,
                         cuts: _Cuts | None = None) -> AttributionResult:
    """Split a node's windowed energy among concurrently running tasks.

    The timeline is cut at every task start and end inside the accounting
    window.  Each domain's unwrapped count is taken once at every boundary,
    in one forward walk of its series or from the counts a streamed log
    holds (:func:`counts_at`), and a segment's
    energy is the difference of its two boundary counts times the energy
    unit: the same float :func:`integrate_window` gives for that segment.
    Within one segment the per-domain energy, after optional idle
    baseline removal on the package domain, is divided proportionally to
    task weights (mean CPU rate, equal shares, or solo-only depending on
    the policy).  Energy no task receives, including all idle time and the
    removed baseline, accumulates as unattributed, so

        sum of task energies + unattributed == node window energy

    holds per domain up to float rounding regardless of policy.

    Args:
        tasks: Task records placed on this log's node.
        log: The node's recorded counters.
        policy: Split rule plus optional idle baseline.
        window: Wall-ns accounting window; defaults to the log's sampled
            span.  Task windows are clipped to it.
        cuts: The tasks' clipped windows and the segment boundaries over
            ``window``, when the caller has them already
            (:meth:`ReportPlan.cuts`); computed here otherwise.
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

    if cuts is None:
        cuts = _clip_tasks(tasks, window)
    task_joules, unattributed, notes = _sweep(tasks, cuts, log, policy)
    domains = tuple(log.series)
    energies = []
    for task, clip, joules, task_notes in zip(tasks, cuts[0],
                                              zip(*task_joules), notes):
        if clip is not None and log.has_unsafe_gap(*clip):
            task_notes = _shared_notes(task_notes, FLAG_UNSAFE_GAP)
        energies.append(TaskEnergy(
            task_id=task.task_id, joules_by_domain=_Joules(domains, joules),
            estimated=True, notes=task_notes))
    return AttributionResult(task_energies=tuple(energies),
                             unattributed_by_domain=dict(zip(domains,
                                                             unattributed)))


def _sweep(tasks: Sequence[TaskRecord], cuts: _Cuts, log: NodeEnergyLog,
           policy: AttributionPolicy
           ) -> tuple[list[list[float]], list[float], list[frozenset[str]]]:
    """Joules per task and unattributed joules, by domain in ``log.series``
    order, and each task's notes, by position in ``tasks``.

    The active tasks of each segment come from a sweep over the sorted
    segment boundaries: at each boundary the tasks whose clipped window
    ends there leave the live list, then those starting there join it.
    The placed tasks, sorted stably by clipped start and by clipped end,
    are walked with one pointer each, so no boundary holds a container
    of its own.  That costs the active tasks of each segment, instead of
    a scan of every task per segment.  The live list is kept in input
    task order, so every float sum (total weight, shares, leftover, and
    each task's accumulation over segments) is a left fold over its terms
    in a fixed order, and reports stay byte-stable.
    """
    clipped, boundaries = cuts
    weights: list[float] = []
    # Each task's notes, one shared set per combination: a set per task
    # would add about a fifth to a task's cost at the report's peak.
    notes: list[frozenset[str]] = []
    placed: list[int] = []
    no_notes = _shared_notes(())
    for i, (task, clip) in enumerate(zip(tasks, clipped)):
        notes.append(_shared_notes((_SUB_RESOLUTION,))
                     if task.sub_resolution else no_notes)
        if clip != task.window():  # None when nothing of it is left
            notes[i] = _shared_notes(notes[i], FLAG_CLIPPED_WINDOW)
        if clip is None:
            weights.append(0.0)
            continue
        placed.append(i)
        if policy.kind is PolicyKind.CPU_TIME_SHARE:
            lo, hi = clip
            weights.append(task.cpu_time_s / ((hi - lo) / 1e9))
        else:
            weights.append(1.0)
    by_start = sorted(placed, key=lambda i: clipped[i][0])
    by_end = sorted(placed, key=lambda i: clipped[i][1])

    # Joules per task and unattributed, by position in ``domains``.  Each
    # domain's entry carries its count at every boundary and its energy
    # unit.
    domains = list(log.series)
    package = domains.index(RaplDomain.PACKAGE) \
        if RaplDomain.PACKAGE in domains else None
    task_joules = [[0.0] * len(tasks) for _ in domains]
    unattributed = [0.0] * len(domains)
    per_domain = [
        (d, counts_at(series, array("q", (b - series.epoch_wall_ns
                                          for b in boundaries))),
         series.spec.energy_unit_joules, task_joules[d])
        for d, series in enumerate(log.series.values())]
    exclusive = policy.kind is PolicyKind.EXCLUSIVE_ONLY
    baseline_w = policy.idle_baseline_watts
    live: list[int] = []
    shared: set[int] = set()
    # The next task to join and to leave, by position in by_start and
    # by_end; every clipped end is a boundary, so each is met exactly.
    joins = leaves = 0
    n_placed = len(by_start)

    for k, (seg_lo, seg_hi) in enumerate(zip(boundaries, boundaries[1:])):
        while leaves < n_placed and clipped[by_end[leaves]][1] == seg_lo:
            live.remove(by_end[leaves])
            leaves += 1
        joined = joins
        while joins < n_placed and clipped[by_start[joins]][0] == seg_lo:
            insort(live, by_start[joins])
            joins += 1
        # Until a task joins again the live list only shrinks, so a task
        # that shares a segment is live with another where one joined.
        if joins > joined and len(live) > 1:
            shared.update(live)
        active = () if exclusive and len(live) > 1 else live
        if active:
            total_weight = 0.0
            for i in active:
                total_weight += weights[i]
            if not total_weight > 0:
                for i in active:
                    notes[i] = _shared_notes(notes[i], NOTE_EQUAL_SPLIT)
        for d, domain_counts, unit, joules_of in per_domain:
            joules = max(domain_counts[k + 1] - domain_counts[k], 0.0) * unit
            attributed = 0.0
            if active:
                available = joules
                if baseline_w is not None and d == package:
                    baseline_j = baseline_w * ((seg_hi - seg_lo) / 1e9)
                    if baseline_j > available:
                        for i in active:
                            notes[i] = _shared_notes(notes[i],
                                                     NOTE_IDLE_CLAMPED)
                    available = max(available - baseline_j, 0.0)
                if total_weight > 0:
                    for i in active:
                        share = available * (weights[i] / total_weight)
                        joules_of[i] += share
                        attributed += share
                else:
                    share = available / len(active)
                    for i in active:
                        joules_of[i] += share
                        attributed += share
            unattributed[d] += joules - attributed

    for i in shared:
        notes[i] = _shared_notes(notes[i], NOTE_SHARED_WINDOW)
    return task_joules, unattributed, notes


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
        WattflowError: No point lies inside the window.
    """
    if scrape_interval_s <= 0:
        raise InvalidArgumentError(
            f"scrape_interval_s must be > 0, got {scrape_interval_s}")
    start, end = window
    if start >= end:
        raise InvalidArgumentError(f"empty estimation window {window}")
    inside = sorted((t, w) for t, w in avg_watt_points if start < t <= end)
    if not inside:
        raise WattflowError(
            f"no average-watt points in ({start}, {end}]")
    watts = 0.0
    for _, w in inside:
        watts += w
    return EnergyQuantity(watts * scrape_interval_s)


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


class ReportPlan:
    """How :func:`assemble_report` cuts a trace's nodes, worked out once.

    ``groups`` holds the trace's tasks by node, each group ordered by
    ``(start, end, task_id)`` so that the order of the trace's rows never
    reaches the report; ``unplaced`` holds, in trace order, the tasks
    placed on no node: those ``cached`` and those flagged
    ``unknown_node`` or ``no_timing``.  :meth:`cuts` gives a node's
    clipped task windows and segment boundaries over an accounting window,
    computed on first use and kept until :meth:`take_cuts` hands them to
    attribution; :meth:`edges` is the
    :data:`~wattflow.logfile.EdgePlan` a log is read at with
    :func:`~wattflow.logfile.read_counts`, and attribution takes the same
    cuts.
    """

    def __init__(self, trace: WorkflowTrace) -> None:
        self.window = (trace.submitted_wall_ns, trace.finished_wall_ns)
        self.groups: dict[str, list[TaskRecord]] = {}
        self.unplaced: list[TaskRecord] = []
        for t in trace.tasks:
            if t.status is TaskStatus.CACHED or t.flags & _UNPLACED:
                self.unplaced.append(t)
            else:
                self.groups.setdefault(t.node_id, []).append(t)
        for tasks in self.groups.values():
            tasks.sort(key=lambda t: (t.start_wall_ns, t.end_wall_ns,
                                      t.task_id))
        self._cuts: dict[tuple[str, tuple[int, int]], _Cuts] = {}

    def cuts(self, node_id: str, window: tuple[int, int]) -> _Cuts:
        """:func:`_clip_tasks` of the node's group over ``window``."""
        key = (node_id, window)
        if key not in self._cuts:
            self._cuts[key] = _clip_tasks(self.groups.get(node_id, ()),
                                          window)
        return self._cuts[key]

    def take_cuts(self, node_id: str, window: tuple[int, int]) -> _Cuts:
        """:meth:`cuts`, which the plan then no longer keeps."""
        cuts = self.cuts(node_id, window)
        del self._cuts[node_id, window]
        return cuts

    def edges(self, node_id: str, span: tuple[int, int] | None
              ) -> list[int]:
        """The node's segment boundaries over the workflow window clipped
        to the log's span, or over the whole window while the span is not
        known; none when the clipped window is empty, since the node's log
        is then left out."""
        lo, hi = self.window if span is None else _clip(self.window, span)
        if lo >= hi:
            return []
        return self.cuts(node_id, (lo, hi))[1]


def assemble_report(trace: WorkflowTrace,
                    logs: Mapping[str, NodeEnergyLog],
                    policy: AttributionPolicy,
                    method: MeasurementMethod = MeasurementMethod.SIGNAL_WORKFLOW,
                    plan: ReportPlan | None = None) -> EnergyReport:
    """Full accounting pipeline: trace plus node logs to an energy report.

    The accounting window is the workflow's submit-to-finish interval,
    clipped per node by :func:`node_energies`, which also gives the
    per-node energy and the log flags.  Per-task energy comes from
    concurrent attribution on each node; the report total is the sum of
    per-node countable energy, so the conservation invariant links totals,
    tasks, and unattributed energy.

    ``cached`` tasks did not run in this session: they are listed with no
    energy and the ``cached`` note, and take no share of any segment.
    Tasks flagged ``unknown_node`` ran on no known node, and tasks flagged
    ``no_timing`` at no known time: they are listed with no energy and
    those notes, their energy stays unattributed, and the report carries
    the flags.  Every other task joins its node's group, in the order
    :class:`ReportPlan` gives.  ``plan`` is a plan of ``trace``,
    made here when None; the one the logs were read with
    (:meth:`ReportPlan.edges`) lends attribution the cuts it made.

    Raises:
        WattflowError: The trace places tasks on a node with no usable
            log.
    """
    if plan is None:
        plan = ReportPlan(trace)
    per_node, windows, report_flags = node_energies(logs, plan.window)
    groups = plan.groups
    all_tasks = []
    for t in plan.unplaced:
        if t.status is TaskStatus.CACHED:
            notes = _shared_notes((), NOTE_CACHED)
        else:
            notes = _shared_notes(t.flags & _UNPLACED)
            report_flags |= notes
        all_tasks.append(TaskEnergy(task_id=t.task_id, joules_by_domain={},
                                    estimated=True, notes=notes))
    missing = sorted(set(groups) - set(per_node))
    if missing:
        raise WattflowError(
            f"no usable sample log for node(s): {', '.join(missing)}")
    unattributed = 0.0
    for node, window in windows.items():
        # A node's cuts are not needed once it is attributed.
        result = attribute_concurrent(groups.get(node, []), logs[node],
                                      policy, window=window,
                                      cuts=plan.take_cuts(node, window))
        unattributed += result.unattributed_joules
        all_tasks.extend(result.task_energies)
    all_tasks.sort(key=lambda te: te.task_id)
    return EnergyReport(
        workflow_id=trace.workflow_id, method=method,
        total_joules=countable_total(per_node),
        per_node=per_node, per_task=tuple(all_tasks),
        unattributed_joules=unattributed, flags=frozenset(report_flags))


def _scalar_text(value: Any) -> str:
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


def _container_text(entries: Sequence[str], pad: str, brackets: str) -> str:
    """Written entries as a JSON list (``brackets`` is ``"[]"``) or object
    (``"{}"``) at indent ``pad``, one entry a line, as
    :func:`~wattflow.errors.json_text` writes it."""
    if not entries:
        return brackets
    inner = "\n" + pad + "  "
    return brackets[0] + inner + ("," + inner).join(entries) \
        + "\n" + pad + brackets[1]


def _strings_text(strings: Iterable[str], pad: str) -> str:
    return _container_text([_scalar_text(s) for s in sorted(strings)], pad,
                           "[]")


def _domains_text(joules_by_domain: Mapping[RaplDomain, float],
                  pad: str) -> str:
    return _container_text(
        [f'"{name}": {_scalar_text(joules)}' for name, joules
         in sorted((d.value, j) for d, j in joules_by_domain.items())],
        pad, "{}")


def write_report(report: EnergyReport, fh: TextIO) -> None:
    """Write a report's deterministic serialization to ``fh``: fixed key
    order, no volatile fields.

    The text is the one :func:`~wattflow.errors.json_text` writes for the
    report's JSON document, written straight from the report's fields by
    one fixed template: the top-level keys in sorted order, ``per_node``
    holding the sorted nodes, each with its domains by name, and each
    ``per_task`` entry written to ``fh`` as it is formatted, so that the
    whole text is never held.  Each leaf is encoded as :mod:`json` encodes
    it, which skips the pure-Python encoder that ``json.dumps`` falls back
    to under ``indent``.  :func:`report_from_obj` reads the document back.
    """
    write = fh.write
    write("{\n")
    if report.coverage_fraction is not None:
        write(f'  "coverage_fraction": '
              f'{_scalar_text(report.coverage_fraction)},\n')
    if report.flags:
        write(f'  "flags": {_strings_text(report.flags, "  ")},\n')
    per_node = _container_text(
        [f"{encode_basestring_ascii(node)}: "
         f"{_domains_text(report.per_node[node], '    ')}"
         for node in sorted(report.per_node)], "  ", "{}")
    write(f'  "method": {_scalar_text(report.method.value)},\n'
          f'  "per_node": {per_node},\n'
          f'  "per_task": ')
    # Each notes set's text, and each domain-key order's joule positions
    # in name order and format, made once per call; a key order is named
    # by its members' ids, as hashing an Enum member runs Python code.
    notes_texts: dict[frozenset[str], str] = {}
    domain_forms: dict[tuple[int, ...], tuple[list[int], str]] = {}
    separator = "[\n    "
    for te in report.per_task:
        if te.notes not in notes_texts:
            notes_texts[te.notes] = _strings_text(te.notes, "      ")
        by_domain: _Joules = te.joules_by_domain
        key = tuple(map(id, by_domain._domains))
        if key not in domain_forms:
            names = sorted((d.value, n) for n, d
                           in enumerate(by_domain._domains))
            domain_forms[key] = [n for _, n in names], _container_text(
                [f'"{name}": %s' for name, _ in names], "      ", "{}")
        order, form = domain_forms[key]
        joules = by_domain._joules
        write(f'{separator}{{\n'
              f'      "estimated": {_scalar_text(te.estimated)},\n'
              f'      "joules_by_domain": '
              f'{form % tuple([_scalar_text(joules[n]) for n in order])},\n'
              f'      "notes": {notes_texts[te.notes]},\n'
              f'      "task_id": {_scalar_text(te.task_id)}\n'
              "    }")
        separator = ",\n    "
    write("\n  ]" if report.per_task else "[]")
    write(f',\n  "report_version": {_scalar_text(REPORT_VERSION)},\n'
          f'  "status": {_scalar_text(report.status)},\n'
          f'  "total_joules": {_scalar_text(report.total_joules)},\n'
          f'  "unattributed_joules": '
          f'{_scalar_text(report.unattributed_joules)},\n'
          f'  "workflow_id": {_scalar_text(report.workflow_id)}\n'
          "}\n")


def report_to_json(report: EnergyReport) -> str:
    """The text :func:`write_report` writes for ``report``, as one string."""
    buffer = io.StringIO()
    write_report(report, buffer)
    return buffer.getvalue()


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
