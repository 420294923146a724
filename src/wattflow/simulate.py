"""Synthetic scenarios with exact analytic ground truth.

A scenario describes per-node power as idle draw plus piecewise-constant
task loads, the workflow trace those tasks imply, counter geometry, and the
timing of the four measurement methods.  Each node's log is recorded by the
sampling agent over a mock backend playing the node's profile, and parsed
back as ``wattflow report`` reads it; against closed-form ground truth this
module evaluates how much of the true energy each method captures:

* shell-wrap brackets the workflow with a lead on both sides,
* the scheduler-plugin and in-workflow signal methods start late by their
  respective delays,
* interval scraping applies the average-power query arithmetic to
  true interval means of the profile.

Piecewise-constant power keeps every oracle closed-form; recording is
deterministic, so identical scenarios yield bit-identical logs.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field
from typing import Any, Mapping

from .accounting import (
    EnergyReport,
    MeasurementMethod,
    countable_total,
    interval_estimate,
    node_energies,
)
from .agent import SamplerAgent, SamplerConfig
from .backends import MockBackend, PowerProfile, TaskLoad, analytic_energy
from .counter import CounterSpec, RaplDomain
from .errors import (
    CONVERSION_ERRORS,
    InvalidArgumentError,
    SchemaViolationError,
    WattflowError,
    load_json,
    present_keys,
)
from .logfile import (
    LogStatus,
    NodeEnergyLog,
    log_filename,
    parse_log,
    read_status,
)
from .signals import SessionMarker, check_safe_id, signal_start, signal_stop
from .trace import TaskRecord, TaskStatus, WorkflowTrace

DEFAULT_WALL_ORIGIN_NS = 1_700_000_000_000_000_000


@dataclass(frozen=True)
class MethodTiming:
    """When each measurement method starts and stops relative to the run."""

    shell_lead_s: float = 0.0
    plugin_delay_s: float = 0.0
    taskmethod_delay_s: float = 0.0
    scrape_interval_s: float = 30.0

    def __post_init__(self) -> None:
        for name in ("shell_lead_s", "plugin_delay_s", "taskmethod_delay_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidArgumentError(f"{name} must be >= 0, got {value}")
        if not (math.isfinite(self.scrape_interval_s)
                and self.scrape_interval_s > 0):
            raise InvalidArgumentError(
                f"scrape_interval_s must be > 0, "
                f"got {self.scrape_interval_s}")


@dataclass(frozen=True)
class Scenario:
    """Complete synthetic experiment description."""

    scenario_id: str
    profiles: tuple[PowerProfile, ...]
    trace: WorkflowTrace
    specs: Mapping[str, CounterSpec]
    timing: MethodTiming = field(default_factory=MethodTiming)
    sample_interval_ms: int = 500
    wall_origin_ns: int = DEFAULT_WALL_ORIGIN_NS

    def __post_init__(self) -> None:
        check_safe_id("scenario_id", self.scenario_id)
        if not self.profiles:
            raise InvalidArgumentError("scenario needs at least one profile")
        if self.sample_interval_ms <= 0:
            raise InvalidArgumentError(
                f"sample_interval_ms must be > 0, "
                f"got {self.sample_interval_ms}")
        object.__setattr__(self, "profiles", tuple(self.profiles))
        object.__setattr__(self, "specs", dict(self.specs))
        nodes = [p.node_id for p in self.profiles]
        if len(set(nodes)) != len(nodes):
            raise InvalidArgumentError("duplicate node profiles")
        for node in nodes:
            check_safe_id("node_id", node)
            if node not in self.specs:
                raise InvalidArgumentError(f"no counter spec for node {node}")
        tasks_by_id = {t.task_id: t for t in self.trace.tasks}
        for profile in self.profiles:
            for load in profile.task_loads:
                task = tasks_by_id.get(load.task_id)
                if task is None:
                    raise InvalidArgumentError(
                        f"load {load.task_id} has no trace task")
                want = (self.wall_origin_ns + _ns(load.start_s),
                        self.wall_origin_ns + _ns(load.end_s))
                if (task.start_wall_ns, task.end_wall_ns) != want:
                    raise InvalidArgumentError(
                        f"load {load.task_id} window disagrees with trace")
                if task.node_id != profile.node_id:
                    raise InvalidArgumentError(
                        f"load {load.task_id} on {profile.node_id} but trace "
                        f"places it on {task.node_id}")

    @property
    def workflow_window_s(self) -> tuple[float, float]:
        return ((self.trace.submitted_wall_ns - self.wall_origin_ns) / 1e9,
                (self.trace.finished_wall_ns - self.wall_origin_ns) / 1e9)

    @property
    def synthesis_window_s(self) -> tuple[float, float]:
        """Span the synthetic agent samples: workflow plus margins.

        Wide enough that every method's window, including the shell lead
        and the earliest scrape point's averaging span, stays inside the
        sampled range.
        """
        wf_start, wf_end = self.workflow_window_s
        margin = max(2 * self.sample_interval_ms / 1000.0,
                     self.timing.shell_lead_s + 1.0,
                     self.timing.scrape_interval_s + 1.0)
        return wf_start - margin, wf_end + margin


def _ns(seconds: float) -> int:
    return round(seconds * 1e9)


@dataclass(frozen=True)
class GroundTruth:
    """Closed-form energy of a scenario: no sampling, no estimation."""

    total_joules: float
    per_node_joules: Mapping[str, float]
    per_task_joules: Mapping[str, float]


def ground_truth(scenario: Scenario) -> GroundTruth:
    """Exact workflow-window energy per node, plus each load's own energy.

    Per-task values are the marginal energy of the task's load (watts times
    duration); idle draw belongs to the node, not to any task.
    """
    window = scenario.workflow_window_s
    per_node = {p.node_id: analytic_energy(p, window)
                for p in scenario.profiles}
    per_task: dict[str, float] = {}
    for profile in scenario.profiles:
        for load in profile.task_loads:
            per_task[load.task_id] = \
                load.watts * (load.end_s - load.start_s)
    total = 0.0
    for node in sorted(per_node):
        total += per_node[node]
    return GroundTruth(total_joules=total, per_node_joules=per_node,
                       per_task_joules=per_task)


def write_log_files(scenario: Scenario, out_dir: str) -> list[str]:
    """Record each node's session log into ``out_dir``, with one
    in-process :class:`SamplerAgent` per node sampling a
    :class:`MockBackend` that plays the node's profile on a virtual clock
    from the synthesis window's start; the paths, in node order.

    Raises:
        WattflowError: The agent skipped a session, or a log did not end
            closed.
    """
    synth_start_s, synth_end_s = scenario.synthesis_window_s
    interval_ns = scenario.sample_interval_ms * 1_000_000
    ticks = math.ceil(_ns(synth_end_s - synth_start_s) / interval_ns)
    epoch_wall_ns = scenario.wall_origin_ns + _ns(synth_start_s)
    sid = scenario.scenario_id
    paths = []
    for profile in sorted(scenario.profiles, key=lambda p: p.node_id):
        spec = scenario.specs[profile.node_id]
        path = f"{out_dir}/{log_filename(profile.node_id, sid)}"
        now_ns = 0
        with tempfile.TemporaryDirectory() as signal_dir:
            agent = SamplerAgent(
                SamplerConfig(profile.node_id, (spec,), out_dir, signal_dir,
                              interval_ms=scenario.sample_interval_ms,
                              # Outlasts the session, so no reaping ends it.
                              stale_timeout_s=(ticks + 1) * interval_ns / 1e9),
                {spec.domain: MockBackend(profile, start_s=synth_start_s)},
                mono_ns=lambda: now_ns,
                wall_ns=lambda: epoch_wall_ns + now_ns)
            # Removed before the last tick, which is the final record.
            signal_start(signal_dir, SessionMarker(sid, epoch_wall_ns))
            try:
                for k in range(ticks + 1):
                    now_ns = k * interval_ns
                    if k == 1 and sid not in agent.active_sessions:
                        raise WattflowError(
                            f"the agent skipped session {sid}: its log "
                            f"{path} already exists or cannot be created")
                    if k == ticks:
                        signal_stop(signal_dir, sid)
                    agent.tick_once(now_ns)
            finally:
                agent.shutdown()
        status = read_status(path)
        if status is not LogStatus.CLOSED:
            raise WattflowError(f"session log {path} ended {status.value}")
        paths.append(path)
    return paths


def synthesize_counters(scenario: Scenario) -> dict[str, NodeEnergyLog]:
    """Every node's log as :func:`write_log_files` records it, parsed
    back from a temporary directory."""
    with tempfile.TemporaryDirectory() as out_dir:
        return {log.node_id: log
                for log in map(parse_log, write_log_files(scenario, out_dir))}


def scrape_points(profile: PowerProfile, scenario: Scenario
                  ) -> list[tuple[int, float]]:
    """Average-power samples as a periodic scraper would store them.

    Points sit on a grid aligned to the workflow end (queries are evaluated
    at scrape instants); each point carries the true mean power over the
    preceding scrape interval, isolating query-arithmetic error from sensor
    error.
    """
    interval_s = scenario.timing.scrape_interval_s
    wf_start, wf_end = scenario.workflow_window_s
    synth_start, _ = scenario.synthesis_window_s
    points = []
    k = 0
    while True:
        t_s = wf_end - k * interval_s
        if t_s <= wf_start or t_s - interval_s < synth_start:
            break
        mean_w = analytic_energy(profile,
                                 (t_s - interval_s, t_s)) / interval_s
        points.append((scenario.wall_origin_ns + _ns(t_s), mean_w))
        k += 1
    return sorted(points)


@dataclass(frozen=True)
class CoverageRow:
    method: MeasurementMethod
    measured_joules: float
    vs_truth: float
    vs_shell: float


@dataclass(frozen=True)
class CoverageTable:
    scenario_id: str
    ground_truth_joules: float
    rows: tuple[CoverageRow, ...]

    def row(self, method: MeasurementMethod) -> CoverageRow:
        for row in self.rows:
            if row.method is method:
                return row
        raise KeyError(method)

    def to_obj(self) -> dict[str, Any]:
        return {
            "scenario_id": self.scenario_id,
            "ground_truth_joules": self.ground_truth_joules,
            "methods": [
                {
                    "method": r.method.value,
                    "measured_joules": r.measured_joules,
                    "vs_truth_percent": r.vs_truth * 100.0,
                    "vs_shell_percent": r.vs_shell * 100.0,
                }
                for r in self.rows],
        }

    def format_text(self) -> str:
        lines = [
            f"scenario {self.scenario_id}: "
            f"ground truth {self.ground_truth_joules:.2f} J",
            f"{'method':<18}{'joules':>14}{'vs truth':>11}{'vs shell':>11}",
        ]
        for r in self.rows:
            lines.append(
                f"{r.method.value:<18}{r.measured_joules:>14.2f}"
                f"{r.vs_truth * 100:>10.2f}%{r.vs_shell * 100:>10.2f}%")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MethodEvaluation:
    scenario_id: str
    truth: GroundTruth
    reports: Mapping[MeasurementMethod, EnergyReport]
    table: CoverageTable


def evaluate_methods(scenario: Scenario,
                     logs: Mapping[str, NodeEnergyLog] | None = None
                     ) -> MethodEvaluation:
    """Measure the scenario with all four methods over shared logs.

    Every counter-based method integrates the *same* synthesized logs, only
    over its own window: the shell method brackets the workflow with its
    lead, the plugin and in-workflow methods start late by their delays,
    and interval scraping estimates from average-power points.  A counter
    method's total counts each node's countable domains only, so a node
    that logs package and psys is not counted twice, and its report
    carries the flags :func:`node_energies` raises over its window.
    Coverage is reported against both analytic ground truth and the shell
    measurement.
    """
    if logs is None:
        logs = synthesize_counters(scenario)
    truth = ground_truth(scenario)
    origin = scenario.wall_origin_ns
    wf_start, wf_end = scenario.workflow_window_s
    t = scenario.timing

    windows = {
        MeasurementMethod.SHELL_WRAP: (
            origin + _ns(wf_start - t.shell_lead_s),
            origin + _ns(wf_end + t.shell_lead_s)),
        MeasurementMethod.SIGNAL_PLUGIN: (
            origin + _ns(min(wf_start + t.plugin_delay_s, wf_end)),
            origin + _ns(wf_end)),
        MeasurementMethod.SIGNAL_WORKFLOW: (
            origin + _ns(min(wf_start + t.taskmethod_delay_s, wf_end)),
            origin + _ns(wf_end)),
    }

    measured: dict[MeasurementMethod, float] = {}
    per_node_by_method: dict[MeasurementMethod,
                             dict[str, dict[RaplDomain, float]]] = {}
    flags_by_method: dict[MeasurementMethod, set[str]] = {}
    for method, window in windows.items():
        per_node, _, flags = node_energies(logs, window)
        measured[method] = countable_total(per_node)
        per_node_by_method[method] = per_node
        flags_by_method[method] = flags

    scrape_total = 0.0
    scrape_per_node: dict[str, dict[RaplDomain, float]] = {}
    scrape_window = (origin + _ns(wf_start), origin + _ns(wf_end))
    for profile in scenario.profiles:
        points = scrape_points(profile, scenario)
        estimate = interval_estimate(points, scrape_window,
                                     t.scrape_interval_s).joules
        domain = scenario.specs[profile.node_id].domain
        scrape_per_node[profile.node_id] = {domain: estimate}
        scrape_total += estimate
    measured[MeasurementMethod.INTERVAL_SCRAPE] = scrape_total
    per_node_by_method[MeasurementMethod.INTERVAL_SCRAPE] = scrape_per_node

    shell_total = measured[MeasurementMethod.SHELL_WRAP]
    reports = {}
    rows = []
    for method in (MeasurementMethod.SHELL_WRAP,
                   MeasurementMethod.SIGNAL_PLUGIN,
                   MeasurementMethod.SIGNAL_WORKFLOW,
                   MeasurementMethod.INTERVAL_SCRAPE):
        total = measured[method]
        vs_shell = total / shell_total if shell_total > 0 else 0.0
        if method is MeasurementMethod.SHELL_WRAP:
            coverage = 1.0
        elif method is MeasurementMethod.INTERVAL_SCRAPE:
            coverage = None
        else:
            coverage = min(vs_shell, 1.0)
        reports[method] = EnergyReport(
            workflow_id=scenario.trace.workflow_id, method=method,
            total_joules=total, per_node=per_node_by_method[method],
            coverage_fraction=coverage,
            flags=flags_by_method.get(method, frozenset()))
        rows.append(CoverageRow(
            method=method, measured_joules=total,
            vs_truth=total / truth.total_joules if truth.total_joules > 0
            else 0.0,
            vs_shell=vs_shell))
    table = CoverageTable(scenario_id=scenario.scenario_id,
                          ground_truth_joules=truth.total_joules,
                          rows=tuple(rows))
    return MethodEvaluation(scenario_id=scenario.scenario_id, truth=truth,
                            reports=reports, table=table)


def scenario_from_obj(doc: Any) -> Scenario:
    """Build a scenario from its JSON document form.

    The document authors loads once per node; the workflow trace is derived
    from them, which makes the trace-vs-loads consistency invariant hold by
    construction.
    """
    if not isinstance(doc, dict):
        raise SchemaViolationError("scenario must be an object")
    try:
        scenario_id = doc["scenario_id"]
        workflow = doc["workflow"]
        wf_id = workflow["workflow_id"]
        wf_start = float(workflow["start_s"])
        wf_end = float(workflow["end_s"])
        origin = int(doc.get("wall_origin_ns", DEFAULT_WALL_ORIGIN_NS))
        timing = MethodTiming(**present_keys(
            doc.get("method_timing", {}), shell_lead_s=float,
            plugin_delay_s=float, taskmethod_delay_s=float,
            scrape_interval_s=float))
        profiles = []
        specs: dict[str, CounterSpec] = {}
        tasks: list[TaskRecord] = []
        for node in doc["nodes"]:
            node_id = node["node_id"]
            specs[node_id] = CounterSpec.from_obj(node.get("spec", {}))
            loads = []
            for load_obj in node.get("tasks", []):
                load = TaskLoad(task_id=load_obj["task_id"],
                                start_s=float(load_obj["start_s"]),
                                end_s=float(load_obj["end_s"]),
                                watts=float(load_obj["watts"]))
                loads.append(load)
                cpu_time = load_obj.get("cpu_time_s")
                tasks.append(TaskRecord(
                    task_id=load.task_id,
                    name=load_obj.get("name", load.task_id),
                    node_id=node_id,
                    start_wall_ns=origin + _ns(load.start_s),
                    end_wall_ns=origin + _ns(load.end_s),
                    cpu_time_s=float(cpu_time) if cpu_time is not None
                    else load.end_s - load.start_s,
                    status=TaskStatus.COMPLETED))
            profiles.append(PowerProfile(
                node_id=node_id,
                idle_watts=float(node.get("idle_watts", 0.0)),
                task_loads=tuple(loads)))
        trace = WorkflowTrace(
            workflow_id=wf_id,
            submitted_wall_ns=origin + _ns(wf_start),
            finished_wall_ns=origin + _ns(wf_end),
            tasks=tuple(sorted(tasks, key=lambda t: (t.start_wall_ns,
                                                     t.task_id))))
        return Scenario(
            scenario_id=scenario_id, profiles=tuple(profiles), trace=trace,
            specs=specs, timing=timing, wall_origin_ns=origin,
            **present_keys(doc, sample_interval_ms=int))
    except CONVERSION_ERRORS as exc:
        raise SchemaViolationError(f"bad scenario document: {exc}") from None


def load_scenario(path: str) -> Scenario:
    return scenario_from_obj(load_json(path))
