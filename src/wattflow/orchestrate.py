"""Wrapped workflow execution: measure first, run, stop, collect.

``run_wrapped`` launches one sampling agent per node through a configurable
command template (a local shell, ``kubectl exec``, and ``ssh`` all fit),
signals a measurement session, and only starts the workflow process after
every node's log shows its first record; no part of the run is unmeasured.
After the workflow exits the session is stopped, agents are given time to
write their trailers, logs are collected into the output directory, and a
whole-run report is emitted.  A crashed orchestrator can be recovered with
``resume``, which salvages whatever the agents recorded.
"""

from __future__ import annotations

import json
import logging
import shlex
import shutil
import subprocess
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .accounting import (
    EnergyReport,
    MeasurementMethod,
    NodeEnergyLog,
    countable_total,
    node_window_energy,
    report_to_json,
)
from .errors import (
    AgentStartError,
    InvalidArgumentError,
    ParseError,
    SchemaViolationError,
)
from .logfile import (
    LogStatus,
    ParsedLog,
    has_record,
    log_filename,
    parse_log,
    read_status,
)
from .signals import (
    SessionMarker,
    SessionScope,
    signal_start,
    signal_stop,
)

logger = logging.getLogger(__name__)

DEFAULT_STARTUP_TIMEOUT_S = 30.0
DEFAULT_STOP_TIMEOUT_S = 30.0

FLAG_MISSING_LOG = "missing_log"
FLAG_RESUMED = "resumed"


@dataclass(frozen=True)
class AgentEndpoint:
    """How to reach one node's sampling agent.

    ``exec_template`` must contain the placeholder ``{cmd}`` exactly once;
    it is replaced with ``agent_cmd`` to form the launch command line, so
    ``{cmd}`` runs locally while ``kubectl exec pod-n1 -- {cmd}`` runs in a
    pod.  ``signal_dir`` must be shared with the agent; ``log_dir`` is
    where the agent's session logs appear for collection.
    """

    node_id: str
    exec_template: str
    agent_cmd: str
    signal_dir: str
    log_dir: str

    def __post_init__(self) -> None:
        if not self.node_id:
            raise InvalidArgumentError("node_id must be non-empty")
        if self.exec_template.count("{cmd}") != 1:
            raise InvalidArgumentError(
                f"exec_template must contain {{cmd}} exactly once: "
                f"{self.exec_template!r}")
        if not self.agent_cmd:
            raise InvalidArgumentError("agent_cmd must be non-empty")

    def launch_argv(self) -> list[str]:
        return shlex.split(self.exec_template.replace("{cmd}",
                                                      self.agent_cmd))


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to run one workflow under measurement."""

    workflow_cmd: str
    agents: tuple[AgentEndpoint, ...]
    session_id: str
    output_dir: str
    startup_timeout_s: float = DEFAULT_STARTUP_TIMEOUT_S
    stop_timeout_s: float = DEFAULT_STOP_TIMEOUT_S

    def __post_init__(self) -> None:
        if not self.workflow_cmd:
            raise InvalidArgumentError("workflow_cmd must be non-empty")
        if not self.agents:
            raise InvalidArgumentError("at least one agent is required")
        object.__setattr__(self, "agents", tuple(self.agents))
        nodes = [a.node_id for a in self.agents]
        if len(set(nodes)) != len(nodes):
            raise InvalidArgumentError("duplicate agent node_id")
        # Reuse the marker naming rules so a bad id fails before any
        # process is launched.
        SessionMarker(session_id=self.session_id, created_wall_ns=0)


def run_config_from_obj(doc: Any, *, workflow_cmd: str | None = None,
                        session_id: str | None = None,
                        output_dir: str | None = None) -> RunConfig:
    """Parse a run config document, with optional field overrides.

    Unknown keys are ignored, so a document that still carries a removed
    option loads unchanged.
    """
    if not isinstance(doc, dict):
        raise SchemaViolationError("run config must be an object")
    try:
        agents = tuple(
            AgentEndpoint(
                node_id=entry["node_id"],
                exec_template=entry.get("exec_template", "{cmd}"),
                agent_cmd=entry["agent_cmd"],
                signal_dir=entry["signal_dir"],
                log_dir=entry["log_dir"])
            for entry in doc["agents"])
        return RunConfig(
            workflow_cmd=workflow_cmd or doc.get("workflow_cmd", ""),
            agents=agents,
            session_id=session_id or doc.get(
                "session_id", f"wf-{time.strftime('%Y%m%d-%H%M%S')}"),
            output_dir=output_dir or doc["output_dir"],
            startup_timeout_s=float(
                doc.get("startup_timeout_s", DEFAULT_STARTUP_TIMEOUT_S)),
            stop_timeout_s=float(
                doc.get("stop_timeout_s", DEFAULT_STOP_TIMEOUT_S)))
    except (KeyError, TypeError, ValueError, InvalidArgumentError) as exc:
        raise SchemaViolationError(f"bad run config: {exc}") from None


def load_run_config(path: str, **overrides: str | None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaViolationError(f"not valid JSON: {exc}") from None
    return run_config_from_obj(doc, **overrides)


@dataclass(frozen=True)
class RunResult:
    report: EnergyReport
    report_path: str
    meta_path: str
    workflow_exit_code: int | None
    log_paths: Mapping[str, str | None]


def _session_log_path(endpoint: AgentEndpoint, session_id: str) -> str:
    return f"{endpoint.log_dir}/" \
           f"{log_filename(endpoint.node_id, session_id)}"


def _try_parse(path: str) -> ParsedLog | None:
    try:
        return parse_log(path)
    except (OSError, ParseError):
        return None


def _await_logs(config: RunConfig, ready: Callable[[str], bool],
                timeout_s: float,
                sleep: Callable[[float], None]) -> list[str]:
    """Poll every node's log until ``ready`` holds for each, or timeout.

    Each log is checked at least once, even with a zero timeout; a log
    that cannot be read or parsed yet stays pending.  Returns the nodes
    still pending, sorted.
    """
    deadline = time.monotonic() + timeout_s
    pending = {a.node_id: _session_log_path(a, config.session_id)
               for a in config.agents}
    while True:
        for node_id in list(pending):
            try:
                if ready(pending[node_id]):
                    del pending[node_id]
            except (OSError, ParseError):
                pass
        if not pending or time.monotonic() >= deadline:
            return sorted(pending)
        sleep(0.05)


def _await_trailers(config: RunConfig,
                    sleep: Callable[[float], None]) -> None:
    """Wait until every node's log has ended, reading only each tail."""
    late = _await_logs(
        config, lambda path: read_status(path) is not LogStatus.OPEN,
        config.stop_timeout_s, sleep)
    if late:
        logger.warning("no trailer from %s within %.0fs",
                       late, config.stop_timeout_s)


def _signal_dirs(config: RunConfig) -> list[str]:
    seen: list[str] = []
    for agent in config.agents:
        if agent.signal_dir not in seen:
            seen.append(agent.signal_dir)
    return seen


def _stop_everywhere(config: RunConfig) -> None:
    for signal_dir in _signal_dirs(config):
        try:
            signal_stop(signal_dir, config.session_id)
        except OSError:
            logger.error("could not remove marker in %s", signal_dir)


def _collect_logs(config: RunConfig) -> dict[str, str | None]:
    collected: dict[str, str | None] = {}
    for agent in config.agents:
        src = _session_log_path(agent, config.session_id)
        dst = f"{config.output_dir}/" \
              f"{log_filename(agent.node_id, config.session_id)}"
        try:
            if src != dst:
                shutil.copy2(src, dst)
            collected[agent.node_id] = dst
        except OSError:
            logger.error("log for node %s missing at %s",
                         agent.node_id, src)
            collected[agent.node_id] = None
    return collected


def _build_run_report(config: RunConfig,
                      log_paths: Mapping[str, str | None],
                      status: str, extra_flags: tuple[str, ...] = ()
                      ) -> EnergyReport:
    """Whole-session totals per node; the shell method covers the run."""
    per_node: dict[str, dict[Any, float]] = {}
    flags = list(extra_flags)
    for node_id in sorted(log_paths):
        path = log_paths[node_id]
        parsed = _try_parse(path) if path else None
        if parsed is None:
            flags.append(f"{FLAG_MISSING_LOG}:{node_id}")
            continue
        if parsed.flagged:
            flags.append(f"flagged_log:{node_id}")
        log = NodeEnergyLog.from_parsed(parsed)
        per_node[node_id] = node_window_energy(log, *log.wall_span())
    return EnergyReport(
        workflow_id=config.session_id,
        method=MeasurementMethod.SHELL_WRAP,
        total_joules=countable_total(per_node),
        per_node=per_node,
        coverage_fraction=1.0,
        status=status,
        flags=tuple(flags))


def _write_outputs(config: RunConfig, report: EnergyReport,
                   meta: dict[str, Any],
                   log_paths: Mapping[str, str | None]) -> RunResult:
    report_path = f"{config.output_dir}/report_{config.session_id}.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report))
    meta_path = f"{config.output_dir}/run_{config.session_id}.json"
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return RunResult(report=report, report_path=report_path,
                     meta_path=meta_path,
                     workflow_exit_code=meta.get("workflow_exit_code"),
                     log_paths=dict(log_paths))


def run_wrapped(config: RunConfig,
                sleep: Callable[[float], None] = time.sleep) -> RunResult:
    """Run the workflow bracketed by measurement on every node.

    Agents are launched and must produce their first record before the
    workflow process starts; a node that never reports aborts the run
    before anything unmeasured happens.  The workflow's exit code decides
    the report status but never skips measurement teardown.

    Raises:
        AgentStartError: An agent could not be launched or produced no
            records within the startup timeout.  The workflow was not
            started.
    """
    processes: list[subprocess.Popen] = []
    try:
        for agent in config.agents:
            try:
                processes.append(subprocess.Popen(
                    agent.launch_argv(),
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL))
            except OSError as exc:
                raise AgentStartError(
                    f"cannot launch agent for {agent.node_id}: "
                    f"{exc}") from None
        for signal_dir in _signal_dirs(config):
            signal_start(signal_dir, SessionMarker(
                session_id=config.session_id,
                created_wall_ns=time.time_ns(),
                scope=SessionScope.WORKFLOW))
        silent = _await_logs(config, has_record,
                             config.startup_timeout_s, sleep)
        if silent:
            _stop_everywhere(config)
            raise AgentStartError(
                f"no measurement records from {silent} within "
                f"{config.startup_timeout_s}s")

        workflow_started_wall_ns = time.time_ns()
        logger.info("measurement active on %d node(s); starting workflow",
                    len(config.agents))
        workflow = subprocess.Popen(shlex.split(config.workflow_cmd))
        workflow.wait()
        workflow_finished_wall_ns = time.time_ns()
        exit_code = workflow.returncode

        _stop_everywhere(config)
        _await_trailers(config, sleep)
    finally:
        for proc in processes:
            if proc.poll() is None:
                proc.terminate()
        for proc in processes:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()

    log_paths = _collect_logs(config)
    status = "ok" if exit_code == 0 else "failed"
    report = _build_run_report(config, log_paths, status)
    meta = {
        "session_id": config.session_id,
        "workflow_cmd": config.workflow_cmd,
        "workflow_exit_code": exit_code,
        "workflow_started_wall_ns": workflow_started_wall_ns,
        "workflow_finished_wall_ns": workflow_finished_wall_ns,
        "nodes": [a.node_id for a in config.agents],
    }
    return _write_outputs(config, report, meta, log_paths)


def resume(config: RunConfig,
           sleep: Callable[[float], None] = time.sleep) -> RunResult:
    """Salvage a session after an orchestrator crash.

    Stops the session markers so surviving agents close their logs, then
    collects whatever exists.  The workflow outcome is unknown, so the
    report is marked failed and flagged as resumed.
    """
    _stop_everywhere(config)
    _await_trailers(config, sleep)
    log_paths = _collect_logs(config)
    report = _build_run_report(config, log_paths, status="failed",
                               extra_flags=(FLAG_RESUMED,))
    meta = {
        "session_id": config.session_id,
        "workflow_cmd": config.workflow_cmd,
        "workflow_exit_code": None,
        "resumed": True,
        "nodes": [a.node_id for a in config.agents],
    }
    return _write_outputs(config, report, meta, log_paths)
