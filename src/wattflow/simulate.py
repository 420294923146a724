"""Synthetic scenarios with exact analytic ground truth.

A scenario describes per-node power as idle draw plus piecewise-constant
task loads, the workflow trace those tasks imply, counter geometry, and the
timing parameters of the four measurement methods.  From that this module
synthesizes wrap-accurate counter logs, computes closed-form ground truth,
and evaluates how much of the true energy each method captures:

* shell-wrap brackets the workflow with a lead on both sides,
* the scheduler-plugin and in-workflow signal methods start late by their
  respective delays,
* interval scraping applies the average-power query arithmetic to
  true interval means of the profile.

Piecewise-constant power keeps every oracle closed-form; synthesis is
deterministic, so identical scenarios yield bit-identical logs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from .accounting import (
    EnergyReport,
    MeasurementMethod,
    NodeEnergyLog,
    countable_total,
    interval_estimate,
    node_window_energy,
)
from .counter import CounterSpec, RaplDomain, SampleSeries
from .errors import (
    InvalidArgumentError,
    SchemaViolationError,
    WindowOutOfRangeError,
)
from .logfile import LogStatus, LogWriter, log_filename
from .trace import TaskRecord, TaskStatus, WorkflowTrace

DEFAULT_WALL_ORIGIN_NS = 1_700_000_000_000_000_000
DEFAULT_SAMPLE_INTERVAL_MS = 500


@dataclass(frozen=True)
class TaskLoad:
    """One task's constant power contribution while it runs."""

    task_id: str
    start_s: float
    end_s: float
    watts: float

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise InvalidArgumentError(
                f"load {self.task_id}: end before start")
        if not (math.isfinite(self.watts) and self.watts >= 0):
            raise InvalidArgumentError(
                f"load {self.task_id}: watts must be >= 0, got {self.watts}")


@dataclass(frozen=True)
class PowerProfile:
    """A node's power over time: idle draw plus active task loads.

    Instantaneous power at time t is ``idle_watts`` plus the sum of watts of
    loads whose [start, end) interval contains t.  Idle extends indefinitely
    in both directions unless ``duration_s`` bounds the modeled span.
    """

    node_id: str
    idle_watts: float
    task_loads: tuple[TaskLoad, ...] = ()
    duration_s: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.idle_watts) and self.idle_watts >= 0):
            raise InvalidArgumentError(
                f"idle_watts must be >= 0, got {self.idle_watts}")
        object.__setattr__(self, "task_loads", tuple(self.task_loads))

    def power_at(self, t_s: float) -> float:
        return self.idle_watts + sum(
            load.watts for load in self.task_loads
            if load.start_s <= t_s < load.end_s)


def analytic_energy(profile: PowerProfile,
                    window: tuple[float, float]) -> float:
    """Exact integral of the profile over a window, in joules.

    Piecewise-constant power integrates segment by segment in closed form;
    there is no sampling involved and no sampling error.

    Raises:
        WindowOutOfRangeError: Window outside the profile's bounded span.
        InvalidArgumentError: Inverted window.
    """
    start, end = window
    if end < start:
        raise InvalidArgumentError(f"inverted window {window}")
    if profile.duration_s is not None and \
            (start < 0 or end > profile.duration_s):
        raise WindowOutOfRangeError(
            f"window {window} outside profile span "
            f"[0, {profile.duration_s}]")
    if end == start:
        return 0.0
    energy = profile.idle_watts * (end - start)
    for load in profile.task_loads:
        overlap = min(end, load.end_s) - max(start, load.start_s)
        if overlap > 0:
            energy += load.watts * overlap
    return energy


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
        if not self.scrape_interval_s > 0:
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
    sample_interval_ms: int = DEFAULT_SAMPLE_INTERVAL_MS
    wall_origin_ns: int = DEFAULT_WALL_ORIGIN_NS

    def __post_init__(self) -> None:
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
    return GroundTruth(
        total_joules=sum(per_node[n] for n in sorted(per_node)),
        per_node_joules=per_node, per_task_joules=per_task)


def synthesize_counters(scenario: Scenario) -> dict[str, NodeEnergyLog]:
    """Deterministic wrap-accurate counter logs for every node.

    The counter starts at zero at the beginning of the synthesis window and
    accumulates the exact profile integral; each sample is the floor of
    cumulative energy in counter units, reduced by the wrap modulus.  The
    sample log's wall anchor is set so trace timestamps line up.
    """
    synth_start_s, synth_end_s = scenario.synthesis_window_s
    interval_ns = scenario.sample_interval_ms * 1_000_000
    ticks = math.ceil(_ns(synth_end_s - synth_start_s) / interval_ns)
    logs: dict[str, NodeEnergyLog] = {}
    for profile in scenario.profiles:
        spec = scenario.specs[profile.node_id]
        modulus = spec.modulus
        unit = spec.energy_unit_joules
        raws = []
        for k in range(ticks + 1):
            t_s = synth_start_s + k * interval_ns / 1e9
            joules = analytic_energy(profile, (synth_start_s, t_s))
            raws.append(math.floor(joules / unit) % modulus)
        series = SampleSeries(
            node_id=profile.node_id, spec=spec,
            times=range(0, (ticks + 1) * interval_ns, interval_ns),
            raws=raws,
            epoch_wall_ns=scenario.wall_origin_ns + _ns(synth_start_s))
        logs[profile.node_id] = NodeEnergyLog(
            node_id=profile.node_id,
            series_by_domain={spec.domain: series})
    return logs


def write_log_files(scenario: Scenario, logs: Mapping[str, NodeEnergyLog],
                    out_dir: str) -> list[str]:
    """Persist synthesized logs in the standard session log format."""
    paths = []
    for node in sorted(logs):
        log = logs[node]
        series = next(iter(log.series_by_domain.values()))
        path = f"{out_dir}/{log_filename(node, scenario.scenario_id)}"
        writer = LogWriter(path, node,
                           {d: s.spec for d, s in
                            log.series_by_domain.items()},
                           epoch_wall_ns=series.epoch_wall_ns)
        for domain, s in log.series_by_domain.items():
            for t_ns, raw in zip(s.times, s.raws):
                writer.record(t_ns, domain, raw)
        writer.close(LogStatus.CLOSED)
        paths.append(path)
    return paths


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
    that logs package and psys is not counted twice.  Coverage is reported
    against both analytic ground truth and the shell measurement.
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
    for method, (lo, hi) in windows.items():
        per_node = {node: node_window_energy(logs[node], lo, hi)
                    for node in sorted(logs)}
        measured[method] = countable_total(per_node)
        per_node_by_method[method] = per_node

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
            coverage_fraction=coverage)
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
        timing_obj = doc.get("method_timing", {})
        timing = MethodTiming(
            shell_lead_s=float(timing_obj.get("shell_lead_s", 0.0)),
            plugin_delay_s=float(timing_obj.get("plugin_delay_s", 0.0)),
            taskmethod_delay_s=float(
                timing_obj.get("taskmethod_delay_s", 0.0)),
            scrape_interval_s=float(
                timing_obj.get("scrape_interval_s", 30.0)))
        profiles = []
        specs: dict[str, CounterSpec] = {}
        tasks: list[TaskRecord] = []
        for node in doc["nodes"]:
            node_id = node["node_id"]
            spec_obj = node.get("spec", {})
            specs[node_id] = CounterSpec(
                domain=RaplDomain.parse(spec_obj.get("domain", "package")),
                bit_width=int(spec_obj.get("bit_width", 32)),
                energy_unit_joules=float(spec_obj.get("unit_j", 1e-6)))
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
            specs=specs, timing=timing,
            sample_interval_ms=int(
                doc.get("sample_interval_ms", DEFAULT_SAMPLE_INTERVAL_MS)),
            wall_origin_ns=origin)
    except SchemaViolationError:
        raise
    except (KeyError, TypeError, ValueError, InvalidArgumentError) as exc:
        raise SchemaViolationError(f"bad scenario document: {exc}") from None


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaViolationError(f"not valid JSON: {exc}") from None
    return scenario_from_obj(doc)
