"""Integration tests for wrapped workflow execution with real agents."""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import shlex
import subprocess
import sys
import time

import pytest

from wattflow.counter import CounterSpec, RaplDomain
from wattflow.errors import (
    InvalidArgumentError,
    SchemaViolationError,
    WattflowError,
)
from wattflow.logfile import LogStatus, LogWriter, log_filename, parse_log
from wattflow import orchestrate
from wattflow.orchestrate import (
    AgentEndpoint,
    RunConfig,
    load_run_config,
    resume,
    run_config_from_obj,
    run_wrapped,
)
from wattflow.signals import SessionMarker, signal_start


def write_agent_config(tmp_path, node_id: str, watts: float = 100.0,
                       interval_ms: int = 100) -> str:
    cfg = {
        "node_id": node_id,
        "interval_ms": interval_ms,
        "log_dir": str(tmp_path / "agent_logs"),
        "signal_dir": str(tmp_path / "signals"),
        "max_runtime_s": 60.0,
        "domains": [
            {"domain": "package", "bit_width": 32, "unit_j": 1e-6,
             "backend": {"kind": "mock",
                         "segments": [[3600.0, watts]]}},
        ],
    }
    path = tmp_path / f"agent_{node_id}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def agent_cmd_for(config_path: str) -> str:
    return f"{sys.executable} -m wattflow.cli agent --config {config_path}"


def make_run_config(tmp_path, nodes=("n1", "n2"),
                    workflow_cmd: str = "sleep 1.0",
                    session_id: str = "it-run",
                    agent_cmds: dict | None = None,
                    **kwargs) -> RunConfig:
    (tmp_path / "agent_logs").mkdir(exist_ok=True)
    (tmp_path / "signals").mkdir(exist_ok=True)
    (tmp_path / "out").mkdir(exist_ok=True)
    agents = []
    for node in nodes:
        cmd = (agent_cmds or {}).get(node) or \
            agent_cmd_for(write_agent_config(tmp_path, node))
        agents.append(AgentEndpoint(
            node_id=node, exec_template="{cmd}", agent_cmd=cmd,
            signal_dir=str(tmp_path / "signals"),
            log_dir=str(tmp_path / "agent_logs")))
    defaults = dict(startup_timeout_s=10.0, stop_timeout_s=10.0)
    defaults.update(kwargs)
    return RunConfig(workflow_cmd=workflow_cmd, agents=tuple(agents),
                     session_id=session_id,
                     output_dir=str(tmp_path / "out"), **defaults)


class TestRunWrapped:
    def test_two_node_run_measures_before_and_after(self, tmp_path):
        config = make_run_config(tmp_path, workflow_cmd="sleep 1.0")
        result = run_wrapped(config)
        assert result.workflow_exit_code == 0
        report = result.report
        assert report.status == "ok"
        assert report.coverage_fraction == 1.0
        assert sorted(report.per_node) == ["n1", "n2"]
        assert report.total_joules > 0
        assert os.path.exists(result.report_path)
        with open(result.meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
        # Start-before-launch: every node recorded strictly before the
        # workflow process was spawned.
        for node in ("n1", "n2"):
            parsed = parse_log(result.log_paths[node])
            assert parsed.status is LogStatus.CLOSED
            series = parsed.series[RaplDomain.PACKAGE]
            first_wall = series.epoch_wall_ns + series.samples[0].t_ns
            assert first_wall < meta["workflow_started_wall_ns"]
        # Markers are gone after the run.
        assert list((tmp_path / "signals").iterdir()) == []

    def test_failed_workflow_still_collects_and_reports(self, tmp_path):
        config = make_run_config(
            tmp_path, nodes=("n1",),
            workflow_cmd="sh -c 'sleep 0.3; exit 7'",
            session_id="it-fail")
        result = run_wrapped(config)
        assert result.workflow_exit_code == 7
        assert result.report.status == "failed"
        assert result.report.total_joules > 0
        parsed = parse_log(result.log_paths["n1"])
        assert parsed.status is LogStatus.CLOSED

    def test_agent_start_failure_aborts_before_workflow(self, tmp_path):
        sentinel = tmp_path / "workflow-ran"
        config = make_run_config(
            tmp_path, nodes=("n1",),
            workflow_cmd=f"touch {sentinel}",
            session_id="it-abort",
            agent_cmds={"n1": "false"},
            startup_timeout_s=1.0)
        with pytest.raises(WattflowError,
                           match=r"no measurement records from \['n1'\]"
                           ) as exc:
            run_wrapped(config)
        assert type(exc.value) is WattflowError
        assert not sentinel.exists()
        assert list((tmp_path / "signals").iterdir()) == []

    def test_resume_salvages_abandoned_session(self, tmp_path):
        config = make_run_config(tmp_path, nodes=("n1",),
                                 session_id="it-resume")
        agent_proc = subprocess.Popen(
            shlex.split(config.agents[0].agent_cmd),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            signal_start(str(tmp_path / "signals"), SessionMarker(
                session_id="it-resume", created_wall_ns=time.time_ns()))
            deadline = time.monotonic() + 10.0
            log_file = tmp_path / "agent_logs" / "rapl_n1_it-resume.csv"
            while time.monotonic() < deadline:
                if log_file.exists() and log_file.stat().st_size > 200:
                    break
                time.sleep(0.05)
            result = resume(config)
        finally:
            agent_proc.terminate()
            agent_proc.wait(timeout=5)
        assert result.report.status == "failed"
        assert "resumed" in result.report.flags
        assert result.report.total_joules > 0
        parsed = parse_log(result.log_paths["n1"])
        assert parsed.status is LogStatus.CLOSED


class TestNodeTiming:
    def test_run_records_launch_and_stop_latency_per_node(self, tmp_path):
        # A 5 s interval: acting on the stop only at the next tick, the
        # trailer would take up to the whole interval.
        interval_s = 5.0
        cmds = {node: agent_cmd_for(write_agent_config(
                    tmp_path, node, interval_ms=round(interval_s * 1000)))
                for node in ("n1", "n2")}
        config = make_run_config(tmp_path, workflow_cmd="sleep 0.3",
                                 session_id="it-timing", agent_cmds=cmds)
        result = run_wrapped(config)
        with open(result.meta_path, encoding="utf-8") as fh:
            timing = json.load(fh)["node_timing"]
        assert sorted(timing) == ["n1", "n2"]
        for node in ("n1", "n2"):
            first, stop = (timing[node]["first_record_s"],
                           timing[node]["stop_to_trailer_s"])
            for seconds in (first, stop):
                assert math.isfinite(seconds) and seconds >= 0
            assert stop < interval_s / 5
        with open(result.report_path, encoding="utf-8") as fh:
            assert "node_timing" not in json.load(fh)


class TestRunConfig:
    def test_template_must_embed_cmd_once(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="exactly once"):
            AgentEndpoint(node_id="n1", exec_template="run-it",
                          agent_cmd="x", signal_dir=".", log_dir=".")
        with pytest.raises(InvalidArgumentError, match="exactly once"):
            AgentEndpoint(node_id="n1", exec_template="{cmd} {cmd}",
                          agent_cmd="x", signal_dir=".", log_dir=".")
        endpoint = AgentEndpoint(
            node_id="n1", exec_template="kubectl exec pod-n1 -- {cmd}",
            agent_cmd="wattflow agent --config a.json",
            signal_dir=".", log_dir=".")
        argv = endpoint.launch_argv()
        assert argv[:4] == ["kubectl", "exec", "pod-n1", "--"]
        assert argv[4:] == ["wattflow", "agent", "--config", "a.json"]

    def test_config_validation(self):
        endpoint = AgentEndpoint(node_id="n1", exec_template="{cmd}",
                                 agent_cmd="x", signal_dir=".",
                                 log_dir=".")
        with pytest.raises(InvalidArgumentError):
            RunConfig(workflow_cmd="", agents=(endpoint,),
                      session_id="s", output_dir=".")
        with pytest.raises(InvalidArgumentError):
            RunConfig(workflow_cmd="sleep 1", agents=(),
                      session_id="s", output_dir=".")
        with pytest.raises(InvalidArgumentError):
            RunConfig(workflow_cmd="sleep 1", agents=(endpoint,),
                      session_id="../evil", output_dir=".")
        with pytest.raises(InvalidArgumentError):
            RunConfig(workflow_cmd="sleep 1", agents=(endpoint, endpoint),
                      session_id="s", output_dir=".")

    def test_document_round_trip_with_overrides(self, tmp_path):
        doc = {
            "workflow_cmd": "sleep 5",
            "session_id": "from-doc",
            "output_dir": str(tmp_path),
            "poll_interval_s": 1.5,
            "agents": [
                {"node_id": "n1", "agent_cmd": "run-agent",
                 "signal_dir": "sig", "log_dir": "logs"},
            ],
        }
        # A document still carrying the removed key loads; it is ignored.
        config = run_config_from_obj(doc)
        assert not hasattr(config, "poll_interval_s")
        assert config.agents[0].exec_template == "{cmd}"
        overridden = run_config_from_obj(
            doc, workflow_cmd="sleep 1", session_id="cli-session",
            output_dir="elsewhere")
        assert overridden.workflow_cmd == "sleep 1"
        assert overridden.session_id == "cli-session"
        assert overridden.output_dir == "elsewhere"
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert load_run_config(str(path)).session_id == "from-doc"

    def test_bad_documents_rejected(self):
        with pytest.raises(SchemaViolationError):
            run_config_from_obj([])
        with pytest.raises(SchemaViolationError):
            run_config_from_obj({"agents": []})


class TestResumeDeterminism:
    def test_report_bytes_do_not_depend_on_hash_seed(self, tmp_path):
        # Package plus dram on two nodes.  Adding these joules domain by
        # domain gives a different float for each domain order, and set
        # order follows the per-process hash seed; seeds 0..3 cover both
        # orders.
        counts_uj = {"n1": (102_285_142, 475_623_510),
                     "n2": (459_008_934, 85_006_691)}
        domains = (RaplDomain.PACKAGE, RaplDomain.DRAM)
        specs = {d: CounterSpec(domain=d, bit_width=64,
                                energy_unit_joules=1e-6) for d in domains}
        log_dir = tmp_path / "agent_logs"
        log_dir.mkdir()
        for node, counts in counts_uj.items():
            writer = LogWriter(str(log_dir / log_filename(node, "hs")), node,
                               specs, epoch_wall_ns=1_700_000_000 * 10**9)
            for t_ns, scale in ((0, 0), (10 * 10**9, 1)):
                for domain, count in zip(domains, counts):
                    writer.record(t_ns, domain, scale * count)
            writer.close(LogStatus.CLOSED)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "workflow_cmd": "true",
            "output_dir": str(tmp_path / "out"),
            "agents": [{"node_id": node, "agent_cmd": "unused",
                        "signal_dir": str(tmp_path / "signals"),
                        "log_dir": str(log_dir)} for node in counts_uj]}),
            encoding="utf-8")
        reports = set()
        for seed in range(4):
            out = tmp_path / f"out{seed}"
            proc = subprocess.run(
                [sys.executable, "-m", "wattflow.cli", "run",
                 "--config", str(config), "--resume", "hs",
                 "--out", str(out)],
                env=dict(os.environ, PYTHONHASHSEED=str(seed)),
                capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            reports.add((out / "report_hs.json").read_bytes())
        assert len(reports) == 1


def closed_logs_config(tmp_path, tails: dict[str, str | None],
                       **kwargs) -> RunConfig:
    """A resume config over hand-written logs, one per node.

    ``tails`` maps node to the text after its records (``None``: no log).
    """
    log_dir = tmp_path / "agent_logs"
    log_dir.mkdir()
    (tmp_path / "out").mkdir()
    spec = CounterSpec(domain=RaplDomain.PACKAGE, bit_width=32,
                       energy_unit_joules=1e-6)
    for node, tail in tails.items():
        if tail is None:
            continue
        path = str(log_dir / log_filename(node, "rs"))
        writer = LogWriter(path, node, {RaplDomain.PACKAGE: spec},
                           epoch_wall_ns=1_700_000_000 * 10**9)
        writer.record(0, RaplDomain.PACKAGE, 0)
        writer.record(10**9, RaplDomain.PACKAGE, 100_000_000)
        writer.abandon()
        with open(path, "a", encoding="ascii") as fh:
            fh.write(tail)
    agents = tuple(AgentEndpoint(
        node_id=node, exec_template="{cmd}", agent_cmd="unused",
        signal_dir=str(tmp_path / "signals"), log_dir=str(log_dir))
        for node in tails)
    return RunConfig(workflow_cmd="true", agents=agents, session_id="rs",
                     output_dir=str(tmp_path / "out"), **kwargs)


def _never_sleep(seconds: float) -> None:
    raise AssertionError(f"waited {seconds}s for logs that had ended")


class TestResumeTrailerWait:
    def test_each_log_parsed_once(self, tmp_path, monkeypatch):
        config = closed_logs_config(
            tmp_path, {"n1": "#wattflow-end status=closed\n",
                       "n2": "#wattflow-end status=closed\n"})
        parsed = []

        def counting_parse(path):
            parsed.append(path)
            return parse_log(path)
        monkeypatch.setattr(orchestrate, "parse_log", counting_parse)
        result = resume(config, sleep=_never_sleep)
        assert sorted(parsed) == sorted(result.log_paths.values())
        assert result.report.total_joules == pytest.approx(200.0)

    @pytest.mark.parametrize("tail", [
        "#wattflow-end status=closed\n", "#wattflow-end status=reaped\n",
        "#wattflow-end status=truncated\n", "2000000000,pack"])
    def test_ended_logs_need_no_wait(self, tmp_path, tail):
        config = closed_logs_config(tmp_path, {"n1": tail})
        result = resume(config, sleep=_never_sleep)
        assert not any(f.startswith("missing_log")
                       for f in result.report.flags)

    @pytest.mark.parametrize("tail", [
        "", "#wattflow-end status=closed\n2000000000,package,5\n", None])
    def test_open_or_missing_log_waits_until_timeout(self, tmp_path, tail):
        # No trailer, content after a trailer and no file all stay
        # pending until the stop timeout.
        config = closed_logs_config(
            tmp_path, {"n1": "#wattflow-end status=closed\n", "n2": tail},
            stop_timeout_s=0.2)
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            time.sleep(seconds)
        started = time.monotonic()
        result = resume(config, sleep=sleep)
        assert time.monotonic() - started >= 0.2
        assert sleeps
        flagged = "missing_log:n2" in result.report.flags
        assert flagged is (tail != "")

    def test_resume_records_stop_to_trailer_only(self, tmp_path):
        config = closed_logs_config(
            tmp_path, {"n1": "#wattflow-end status=closed\n", "n2": None},
            stop_timeout_s=0.0)
        result = resume(config, sleep=_never_sleep)
        with open(result.meta_path, encoding="utf-8") as fh:
            timing = json.load(fh)["node_timing"]
        assert list(timing) == ["n1", "n2"]
        assert list(timing["n1"]) == ["stop_to_trailer_s"]
        assert 0 <= timing["n1"]["stop_to_trailer_s"] < 1.0
        assert timing["n2"] == {"stop_to_trailer_s": None}

    def test_zero_timeout_still_checks_each_log(self, tmp_path, caplog):
        config = closed_logs_config(
            tmp_path, {"n1": "#wattflow-end status=closed\n"},
            stop_timeout_s=0.0)
        with caplog.at_level(logging.WARNING,
                             logger="wattflow.orchestrate"):
            resume(config, sleep=_never_sleep)
        assert not [r for r in caplog.records if "trailer" in r.message]


def prewritten_run_config(tmp_path, tails: dict[str, str | None] | None
                          = None, **kwargs) -> RunConfig:
    """A run over logs that already hold records and trailers.

    The agents exit at once, so the orchestrator's waits see only the
    hand-written logs.  ``tails`` is as for :func:`closed_logs_config`;
    by default n1 and n2 both close cleanly.
    """
    (tmp_path / "signals").mkdir()
    config = closed_logs_config(
        tmp_path, tails or {"n1": "#wattflow-end status=closed\n",
                            "n2": "#wattflow-end status=closed\n"},
        **kwargs)
    return dataclasses.replace(config, agents=tuple(
        dataclasses.replace(a, agent_cmd="true") for a in config.agents))


class TestFirstRecordWait:
    def test_wait_reads_heads_without_parsing(self, tmp_path, monkeypatch):
        config = prewritten_run_config(tmp_path)
        parsed = []

        def counting_parse(path):
            parsed.append(path)
            return parse_log(path)
        monkeypatch.setattr(orchestrate, "parse_log", counting_parse)
        result = run_wrapped(config, sleep=_never_sleep)
        # Only the report parses, once per collected log.
        assert sorted(parsed) == sorted(result.log_paths.values())
        assert result.workflow_exit_code == 0

    def test_log_without_record_aborts(self, tmp_path):
        # A zero timeout still checks each log once: only n2 is named.
        config = prewritten_run_config(tmp_path, startup_timeout_s=0.0)
        path = tmp_path / "agent_logs" / log_filename("n2", "rs")
        header = path.read_text().splitlines()[0]
        path.write_text(header + "\n")
        with pytest.raises(WattflowError,
                           match=r"no measurement records from \['n2'\]"
                           ) as exc:
            run_wrapped(config, sleep=_never_sleep)
        assert type(exc.value) is WattflowError
