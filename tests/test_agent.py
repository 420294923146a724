"""Tests for the per-node sampling agent, driven by synthetic clocks."""

from __future__ import annotations

import functools
import itertools
import json
import logging
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wattflow import signals
from wattflow.accounting import NodeEnergyLog, log_flags
from wattflow.agent import (
    SamplerAgent,
    SamplerConfig,
    build_backend,
    config_from_obj,
    load_config,
)
from wattflow.backends import (
    CounterBackend,
    MockBackend,
    PowercapBackend,
    PowerProfile,
)
from wattflow.cli import main
from wattflow.counter import (
    CounterSpec,
    RaplDomain,
    RawSample,
    series_total,
)
from wattflow.errors import (
    InvalidArgumentError,
    SchemaViolationError,
    WattflowError,
)
from wattflow.logfile import (
    LogStatus,
    has_record,
    log_filename,
    parse_log,
    read_status,
)
from wattflow.signals import SessionMarker, signal_start, signal_stop

S = 1_000_000_000
EPOCH = 1_700_000_000 * S

SPEC = CounterSpec(domain=RaplDomain.PACKAGE, bit_width=32,
                   energy_unit_joules=1e-6)


class FakeClock:
    """Monotonic and wall clocks that advance together."""

    def __init__(self) -> None:
        self.mono = 0
        self.wall = EPOCH

    def advance(self, seconds: float) -> None:
        step = round(seconds * S)
        self.mono += step
        self.wall += step

    def mono_ns(self) -> int:
        return self.mono

    def wall_ns(self) -> int:
        return self.wall


class FlakyBackend(CounterBackend):
    """Wraps a backend, raising according to a scripted plan."""

    def __init__(self, inner: CounterBackend, plan: list[bool]) -> None:
        self.inner = inner
        self.plan = list(plan)
        self.calls = 0

    def read(self, spec: CounterSpec, now_ns: int) -> RawSample:
        self.calls += 1
        fail = self.plan.pop(0) if self.plan else False
        if fail:
            raise WattflowError("scripted failure")
        return self.inner.read(spec, now_ns)

    def wrap_modulus(self, spec: CounterSpec) -> int:
        return self.inner.wrap_modulus(spec)


def constant_backend(watts: float = 100.0) -> MockBackend:
    return MockBackend(PowerProfile("n1", watts))


def make_agent(tmp_path, clock: FakeClock, backend=None,
               interval_ms: int = 500, stale_timeout_s: float = 86400.0,
               spec: CounterSpec = SPEC,
               max_power_watts: float = 250.0) -> SamplerAgent:
    log_dir = tmp_path / "logs"
    signal_dir = tmp_path / "signals"
    log_dir.mkdir(exist_ok=True)
    signal_dir.mkdir(exist_ok=True)
    config = SamplerConfig(
        node_id="n1", domains=(spec,), log_dir=str(log_dir),
        signal_dir=str(signal_dir), interval_ms=interval_ms,
        stale_timeout_s=stale_timeout_s, max_power_watts=max_power_watts)
    return SamplerAgent(config, {spec.domain: backend or constant_backend()},
                        mono_ns=clock.mono_ns, wall_ns=clock.wall_ns)


def start_session(tmp_path, clock: FakeClock, session_id: str = "s1") -> str:
    marker = SessionMarker(session_id=session_id,
                           created_wall_ns=clock.wall)
    signal_start(str(tmp_path / "signals"), marker)
    return session_id


def log_path(tmp_path, session_id: str = "s1") -> str:
    return str(tmp_path / "logs" / log_filename("n1", session_id))


def drive(agent: SamplerAgent, clock: FakeClock, ticks: int,
          interval_s: float = 0.5) -> None:
    for _ in range(ticks):
        agent.tick_once(clock.mono)
        clock.advance(interval_s)


class TestRecordCounts:
    def test_ten_second_session_yields_twenty_records_plus_final(
            self, tmp_path):
        clock = FakeClock()
        agent = make_agent(tmp_path, clock)
        start_session(tmp_path, clock)
        drive(agent, clock, 20)          # records at t = 0 .. 9.5 s
        signal_stop(str(tmp_path / "signals"), "s1")
        agent.tick_once(clock.mono)      # stop detected; final record
        parsed = parse_log(log_path(tmp_path))
        assert parsed.status is LogStatus.CLOSED
        n = len(parsed.series[RaplDomain.PACKAGE].samples)
        assert 20 <= n <= 22
        assert parsed.series[RaplDomain.PACKAGE].samples[-1].t_ns == 10 * S

    def test_final_record_not_before_stop_detection(self, tmp_path):
        clock = FakeClock()
        agent = make_agent(tmp_path, clock)
        start_session(tmp_path, clock)
        drive(agent, clock, 21)          # through t = 10.0 s
        clock.advance(-0.3)              # now at t = 10.2 s
        signal_stop(str(tmp_path / "signals"), "s1")
        clock.advance(0.3)               # next tick at t = 10.5 s
        agent.tick_once(clock.mono)
        parsed = parse_log(log_path(tmp_path))
        last = parsed.series[RaplDomain.PACKAGE].samples[-1]
        assert last.t_ns == round(10.5 * S)
        assert parsed.status is LogStatus.CLOSED

    def test_no_records_outside_session_window(self, tmp_path):
        clock = FakeClock()
        agent = make_agent(tmp_path, clock)
        drive(agent, clock, 4)           # t = 0 .. 1.5 s: no session
        clock.advance(0.1)               # t = 2.1 s
        start_session(tmp_path, clock)
        clock.advance(0.4)               # next tick boundary t = 2.5 s
        drive(agent, clock, 6)           # t = 2.5 .. 5.0 s
        clock.advance(0.1)               # t = 5.6 s
        signal_stop(str(tmp_path / "signals"), "s1")
        clock.advance(0.4)
        drive(agent, clock, 4)           # stop detected at t = 6.0 s
        parsed = parse_log(log_path(tmp_path))
        samples = parsed.series[RaplDomain.PACKAGE].samples
        assert samples[0].t_ns >= round(2.5 * S)
        assert samples[-1].t_ns <= round(6.0 * S)
        assert parsed.status is LogStatus.CLOSED


class TestEnergyAccuracy:
    def test_sixty_second_constant_load_measures_6000_joules(self, tmp_path):
        clock = FakeClock()
        agent = make_agent(tmp_path, clock)
        start_session(tmp_path, clock)
        drive(agent, clock, 120)         # records at t = 0 .. 59.5 s
        signal_stop(str(tmp_path / "signals"), "s1")
        agent.tick_once(clock.mono)      # final record at t = 60 s
        parsed = parse_log(log_path(tmp_path))
        total = series_total(parsed.series[RaplDomain.PACKAGE]).joules
        assert total == pytest.approx(6000.0, rel=0.005)

    def test_concurrent_sessions_share_identical_readings(self, tmp_path):
        clock = FakeClock()
        agent = make_agent(tmp_path, clock)
        start_session(tmp_path, clock, "alpha")
        start_session(tmp_path, clock, "beta")
        drive(agent, clock, 10)
        for sid in ("alpha", "beta"):
            signal_stop(str(tmp_path / "signals"), sid)
        agent.tick_once(clock.mono)
        a = parse_log(log_path(tmp_path, "alpha"))
        b = parse_log(log_path(tmp_path, "beta"))
        assert tuple(a.series[RaplDomain.PACKAGE].samples) == \
            tuple(b.series[RaplDomain.PACKAGE].samples)


class TestFailureModes:
    def test_single_read_failure_retried_without_gap(self, tmp_path):
        clock = FakeClock()
        flaky = FlakyBackend(constant_backend(), plan=[True, False])
        agent = make_agent(tmp_path, clock, backend=flaky)
        start_session(tmp_path, clock)
        drive(agent, clock, 5)
        signal_stop(str(tmp_path / "signals"), "s1")
        agent.tick_once(clock.mono)
        parsed = parse_log(log_path(tmp_path))
        series = parsed.series[RaplDomain.PACKAGE]
        assert series.gap_markers == ()
        assert len(series.samples) == 6
        assert flaky.calls == 7          # one retry on the first tick

    def test_double_read_failure_becomes_gap_marker(self, tmp_path):
        clock = FakeClock()
        flaky = FlakyBackend(constant_backend(),
                             plan=[False, True, True, False])
        agent = make_agent(tmp_path, clock, backend=flaky)
        start_session(tmp_path, clock)
        drive(agent, clock, 5)
        signal_stop(str(tmp_path / "signals"), "s1")
        agent.tick_once(clock.mono)
        parsed = parse_log(log_path(tmp_path))
        series = parsed.series[RaplDomain.PACKAGE]
        assert len(series.gap_markers) == 1
        assert series.gap_markers[0] == round(0.5 * S)
        assert log_flags(NodeEnergyLog.from_parsed(parsed)) == {"unsafe_gap"}
        assert len(series.samples) == 5  # one tick recorded no sample

    def test_sink_failure_closes_log_truncated(self, tmp_path):
        clock = FakeClock()
        agent = make_agent(tmp_path, clock)
        start_session(tmp_path, clock)
        drive(agent, clock, 3)
        writer = agent._writers["s1"]
        handle_write = writer._fh.write

        def disk_full_once(text):
            writer._fh.write = handle_write     # the trailer still fits
            raise OSError("disk full")

        writer._fh.write = disk_full_once
        agent.tick_once(clock.mono)
        assert agent.active_sessions == ()
        parsed = parse_log(log_path(tmp_path))
        assert parsed.status is LogStatus.TRUNCATED
        assert log_flags(NodeEnergyLog.from_parsed(parsed)) == \
            {"flagged_log:n1"}
        clock.advance(0.5)
        agent.tick_once(clock.mono)      # dropped session stays dropped
        assert agent.active_sessions == ()

    def test_raw_beyond_declared_width_closes_log_truncated(self, tmp_path):
        # A powercap zone whose energy_uj exceeds 2**bit_width: the log
        # refuses the reading, so the session closes instead of the agent
        # dying with an open log.
        zone = tmp_path / "zone"
        zone.mkdir()
        (zone / "energy_uj").write_text(f"{2**32 + 5}\n")
        (zone / "max_energy_range_uj").write_text(f"{2**40}\n")
        clock = FakeClock()
        agent = make_agent(tmp_path, clock,
                           backend=PowercapBackend(str(zone)))
        start_session(tmp_path, clock)
        agent.tick_once(clock.mono)
        assert agent.active_sessions == ()
        with open(log_path(tmp_path), encoding="ascii") as fh:
            assert fh.read().splitlines()[-1] == \
                "#wattflow-end status=truncated"

    def test_stale_session_closed_as_reaped(self, tmp_path):
        clock = FakeClock()
        agent = make_agent(tmp_path, clock, stale_timeout_s=100.0)
        start_session(tmp_path, clock)
        drive(agent, clock, 3)
        clock.advance(150.0)
        agent.tick_once(clock.mono)
        parsed = parse_log(log_path(tmp_path))
        assert parsed.status is LogStatus.REAPED
        assert log_flags(NodeEnergyLog.from_parsed(parsed)) == \
            {"flagged_log:n1"}
        assert agent.active_sessions == ()

    def test_existing_log_file_skips_session(self, tmp_path, caplog):
        clock = FakeClock()
        agent = make_agent(tmp_path, clock)
        (tmp_path / "logs" / log_filename("n1", "s1")).write_text("stale")
        with caplog.at_level(logging.WARNING, logger="wattflow.agent"):
            start_session(tmp_path, clock)
            drive(agent, clock, 3)
        assert agent.active_sessions == ()
        assert any("already exists" in r.message for r in caplog.records)

    def test_open_session_keeps_sampling_across_failed_open(
            self, tmp_path, caplog):
        # The log directory moves away under a running session: its open
        # file keeps taking records, while a session started meanwhile
        # cannot create its log and is skipped, not fatal to the agent.
        clock = FakeClock()
        agent = make_agent(tmp_path, clock)
        start_session(tmp_path, clock, "s1")
        drive(agent, clock, 2)
        os.rename(tmp_path / "logs", tmp_path / "moved")
        with caplog.at_level(logging.ERROR, logger="wattflow.agent"):
            start_session(tmp_path, clock, "s2")
            drive(agent, clock, 3)
        assert agent.active_sessions == ("s1",)
        assert any("cannot create log" in r.message for r in caplog.records)
        signal_stop(str(tmp_path / "signals"), "s1")
        agent.tick_once(clock.mono)
        parsed = parse_log(str(tmp_path / "moved" / log_filename("n1", "s1")))
        assert parsed.status is LogStatus.CLOSED
        assert [s.t_ns for s in parsed.series[RaplDomain.PACKAGE].samples] \
            == [k * S // 2 for k in range(6)]

    def test_session_after_directory_returns_records(self, tmp_path):
        clock = FakeClock()
        agent = make_agent(tmp_path, clock)
        shutil.rmtree(tmp_path / "logs")
        start_session(tmp_path, clock, "s1")
        drive(agent, clock, 2)
        assert agent.active_sessions == ()
        (tmp_path / "logs").mkdir()
        start_session(tmp_path, clock, "s2")
        drive(agent, clock, 3)
        signal_stop(str(tmp_path / "signals"), "s2")
        agent.tick_once(clock.mono)
        assert os.listdir(tmp_path / "logs") == [log_filename("n1", "s2")]
        parsed = parse_log(log_path(tmp_path, "s2"))
        assert parsed.status is LogStatus.CLOSED
        assert len(parsed.series[RaplDomain.PACKAGE].samples) == 4

    def test_signal_dir_vanishing_truncates_all_logs(self, tmp_path):
        clock = FakeClock()
        agent = make_agent(tmp_path, clock)
        start_session(tmp_path, clock)
        drive(agent, clock, 3)
        shutil.rmtree(tmp_path / "signals")
        agent.tick_once(clock.mono)
        parsed = parse_log(log_path(tmp_path))
        assert parsed.status is LogStatus.TRUNCATED
        assert agent.active_sessions == ()


class TestStartupChecks:
    def test_interval_beyond_half_wrap_horizon_warns(self, tmp_path, caplog):
        clock = FakeClock()
        fast_wrap = CounterSpec(domain=RaplDomain.PACKAGE, bit_width=20,
                                energy_unit_joules=1e-6)
        with caplog.at_level(logging.WARNING, logger="wattflow.agent"):
            make_agent(tmp_path, clock, spec=fast_wrap)
        assert any("wrap horizon" in r.message for r in caplog.records)

    def test_comfortable_interval_does_not_warn(self, tmp_path, caplog):
        clock = FakeClock()
        with caplog.at_level(logging.WARNING, logger="wattflow.agent"):
            make_agent(tmp_path, clock)
        assert not [r for r in caplog.records if "horizon" in r.message]

    def test_config_validation(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            SamplerConfig(node_id="", domains=(SPEC,), log_dir=".",
                          signal_dir=".")
        with pytest.raises(InvalidArgumentError):
            SamplerConfig(node_id="n1", domains=(), log_dir=".",
                          signal_dir=".")
        with pytest.raises(InvalidArgumentError):
            SamplerConfig(node_id="n1", domains=(SPEC,), log_dir=".",
                          signal_dir=".", interval_ms=0)
        with pytest.raises(InvalidArgumentError):
            SamplerConfig(node_id="n1", domains=(SPEC, SPEC), log_dir=".",
                          signal_dir=".")


class TestRunLoop:
    def test_run_respects_max_runtime_and_schedule(self, tmp_path):
        clock = FakeClock()
        log_dir = tmp_path / "logs"
        signal_dir = tmp_path / "signals"
        log_dir.mkdir()
        signal_dir.mkdir()
        config = SamplerConfig(
            node_id="n1", domains=(SPEC,), log_dir=str(log_dir),
            signal_dir=str(signal_dir), interval_ms=500, max_runtime_s=3.0)
        agent = SamplerAgent(config, {SPEC.domain: constant_backend()},
                             mono_ns=clock.mono_ns, wall_ns=clock.wall_ns)
        start_session(tmp_path, clock)
        agent.run(sleep=clock.advance)
        assert clock.mono <= round(3.5 * S)
        parsed = parse_log(log_path(tmp_path))
        # run() exited before any stop signal, so the log is truncated.
        assert parsed.status is LogStatus.TRUNCATED
        samples = parsed.series[RaplDomain.PACKAGE].samples
        assert len(samples) == 7        # ticks at t = 0 .. 3.0 s
        assert [s.t_ns for s in samples] == [k * S // 2 for k in range(7)]

    def test_unexpected_error_still_leaves_a_trailer(self, tmp_path):
        class BrokenBackend(CounterBackend):
            def __init__(self) -> None:
                self.calls = 0

            def read(self, spec, now_ns):
                self.calls += 1
                if self.calls > 2:
                    raise RuntimeError("driver bug")
                return RawSample(t_ns=now_ns, raw=self.calls)

        clock = FakeClock()
        agent = make_agent(tmp_path, clock, backend=BrokenBackend())
        start_session(tmp_path, clock)
        with pytest.raises(RuntimeError, match="driver bug"):
            agent.run(sleep=clock.advance)
        parsed = parse_log(log_path(tmp_path))
        assert parsed.status is LogStatus.TRUNCATED
        assert len(parsed.series[RaplDomain.PACKAGE].samples) == 2


class TestPromptStop:
    def test_sigterm_ends_the_wait_between_ticks(self, tmp_path):
        # A 5 s interval: without a wakeable wait the agent would exit
        # only at its next tick, seconds after the signal.
        (tmp_path / "logs").mkdir()
        (tmp_path / "signals").mkdir()
        config = tmp_path / "agent.json"
        config.write_text(json.dumps({
            "node_id": "n1", "interval_ms": 5000,
            "log_dir": str(tmp_path / "logs"),
            "signal_dir": str(tmp_path / "signals"),
            "max_runtime_s": 60.0,
            "domains": [{"domain": "package", "bit_width": 32,
                         "unit_j": 1e-6,
                         "backend": {"kind": "mock",
                                     "segments": [[3600.0, 100.0]]}}],
        }), encoding="utf-8")
        signal_start(str(tmp_path / "signals"), SessionMarker(
            session_id="s1", created_wall_ns=time.time_ns()))
        proc = subprocess.Popen(
            [sys.executable, "-m", "wattflow.cli", "agent",
             "--config", str(config)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 10.0
            while not (os.path.exists(log_path(tmp_path))
                       and has_record(log_path(tmp_path))):
                assert time.monotonic() < deadline, "agent never recorded"
                time.sleep(0.05)
            time.sleep(0.2)              # well inside the 5 s wait
            sent = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=10.0)
            waited = time.monotonic() - sent
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert code == 0
        assert waited < 1.0
        assert read_status(log_path(tmp_path)) is LogStatus.TRUNCATED
        parsed = parse_log(log_path(tmp_path))
        assert len(parsed.series[RaplDomain.PACKAGE].samples) == 1

    def test_injected_sleep_still_drives_the_loop(self, tmp_path):
        clock = FakeClock()
        agent = make_agent(tmp_path, clock)
        agent.install_signal_handlers()
        try:
            start_session(tmp_path, clock)
            naps: list[float] = []

            def nap(seconds: float) -> None:
                naps.append(seconds)
                clock.advance(seconds)
                if len(naps) == 3:
                    os.kill(os.getpid(), signal.SIGTERM)

            agent.run(sleep=nap)
        finally:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.signal(signal.SIGINT, signal.default_int_handler)
        assert naps == [0.5, 0.5, 0.5]
        parsed = parse_log(log_path(tmp_path))
        assert parsed.status is LogStatus.TRUNCATED
        assert len(parsed.series[RaplDomain.PACKAGE].samples) == 3


def spawn_agent(tmp_path, interval_ms: int) -> subprocess.Popen:
    """An agent process on a constant 100 W mock, logging under
    ``tmp_path/logs`` and watching ``tmp_path/signals``."""
    config = tmp_path / "agent.json"
    config.write_text(json.dumps({
        "node_id": "n1", "interval_ms": interval_ms,
        "log_dir": str(tmp_path / "logs"),
        "signal_dir": str(tmp_path / "signals"),
        "max_runtime_s": 60.0,
        "domains": [{"domain": "package", "bit_width": 32, "unit_j": 1e-6,
                     "backend": {"kind": "mock",
                                 "segments": [[3600.0, 100.0]]}}],
    }), encoding="utf-8")
    return subprocess.Popen(
        [sys.executable, "-m", "wattflow.cli", "agent",
         "--config", str(config)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def wait_until(condition, timeout_s: float, what: str) -> float:
    """Poll ``condition`` every 5 ms; return the seconds it took."""
    started = time.monotonic()
    while not condition():
        assert time.monotonic() - started < timeout_s, what
        time.sleep(0.005)
    return time.monotonic() - started


def recorded(path: str) -> bool:
    return os.path.exists(path) and has_record(path)


class TestBetweenTicks:
    """Markers are acted on between ticks; the tick grid does not move."""

    def test_removed_marker_closes_the_log_mid_interval(self, tmp_path):
        # A 5 s interval: acting only at ticks, the trailer would come
        # about 5 s after the removal.
        (tmp_path / "logs").mkdir()
        sigs = tmp_path / "signals"
        sigs.mkdir()
        signal_start(str(sigs), SessionMarker(
            session_id="s1", created_wall_ns=time.time_ns()))
        proc = spawn_agent(tmp_path, interval_ms=5000)
        path = log_path(tmp_path)
        try:
            wait_until(lambda: recorded(path), 10.0, "agent never recorded")
            time.sleep(0.2)
            removed_ns = time.monotonic_ns()
            signal_stop(str(sigs), "s1")
            waited = wait_until(
                lambda: read_status(path) is not LogStatus.OPEN, 10.0,
                "no trailer")
        finally:
            proc.terminate()
            proc.wait(timeout=10.0)
        assert waited < 1.0
        parsed = parse_log(path)
        assert parsed.status is LogStatus.CLOSED
        samples = parsed.series[RaplDomain.PACKAGE].samples
        # The agent's timestamps are on the same monotonic clock.
        assert len(samples) == 2
        assert samples[-1].t_ns > removed_ns

    def test_dropped_marker_records_mid_interval(self, tmp_path):
        (tmp_path / "logs").mkdir()
        sigs = tmp_path / "signals"
        sigs.mkdir()
        signal_start(str(sigs), SessionMarker(
            session_id="warm", created_wall_ns=time.time_ns()))
        proc = spawn_agent(tmp_path, interval_ms=5000)
        path = log_path(tmp_path)
        try:
            wait_until(lambda: recorded(log_path(tmp_path, "warm")), 10.0,
                       "agent never recorded")
            time.sleep(0.2)
            dropped_ns = time.monotonic_ns()
            signal_start(str(sigs), SessionMarker(
                session_id="s1", created_wall_ns=time.time_ns()))
            waited = wait_until(lambda: recorded(path), 10.0,
                                "no first record")
        finally:
            proc.terminate()
            proc.wait(timeout=10.0)
        assert waited < 1.0
        first = parse_log(path).series[RaplDomain.PACKAGE].samples[0]
        assert first.t_ns > dropped_ns

    def test_off_schedule_reading_reaches_every_open_log(self, tmp_path):
        clock = FakeClock()
        (tmp_path / "logs").mkdir()
        (tmp_path / "signals").mkdir()
        config = SamplerConfig(
            node_id="n1", domains=(SPEC,), log_dir=str(tmp_path / "logs"),
            signal_dir=str(tmp_path / "signals"), interval_ms=500,
            max_runtime_s=1.0)
        agent = SamplerAgent(config, {SPEC.domain: constant_backend()},
                             mono_ns=clock.mono_ns, wall_ns=clock.wall_ns)
        start_session(tmp_path, clock, "a")
        start_session(tmp_path, clock, "b")
        naps: list[float] = []

        def nap(seconds: float) -> None:
            # The first wait sees a task session start at 0.2 s and stop
            # at 0.3 s, each acted on at once.
            naps.append(seconds)
            if len(naps) == 1:
                clock.advance(0.2)
                start_session(tmp_path, clock, "task")
                agent._poll_between_ticks()
                clock.advance(0.1)
                signal_stop(str(tmp_path / "signals"), "task")
                agent._poll_between_ticks()
                seconds -= 0.3
            clock.advance(seconds)

        agent.run(sleep=nap)
        assert naps == [0.5, 0.5]
        times = [round(t * S) for t in (0.0, 0.2, 0.3, 0.5, 1.0)]
        logs = {sid: parse_log(log_path(tmp_path, sid))
                for sid in ("a", "b", "task")}
        for sid in ("a", "b"):
            samples = logs[sid].series[RaplDomain.PACKAGE].samples
            assert [s.t_ns for s in samples] == times
        assert tuple(logs["a"].series[RaplDomain.PACKAGE].samples) == \
            tuple(logs["b"].series[RaplDomain.PACKAGE].samples)
        task = logs["task"]
        assert task.status is LogStatus.CLOSED
        assert [s.t_ns for s in task.series[RaplDomain.PACKAGE].samples] \
            == times[1:3]

    def test_reap_between_ticks_takes_no_reading(self, tmp_path):
        clock = FakeClock()
        agent = make_agent(tmp_path, clock, stale_timeout_s=1.0)
        start_session(tmp_path, clock, "a")
        agent.tick_once(clock.mono)
        clock.advance(0.6)
        start_session(tmp_path, clock, "b")
        agent._poll_between_ticks()     # "b" opens with a reading
        clock.advance(0.6)              # "a" is now stale, "b" is not
        agent._poll_between_ticks()
        assert agent.active_sessions == ("b",)
        agent.shutdown()
        a = parse_log(log_path(tmp_path, "a"))
        assert a.status is LogStatus.REAPED
        assert [s.t_ns for s in a.series[RaplDomain.PACKAGE].samples] == \
            [0, round(0.6 * S)]
        b = parse_log(log_path(tmp_path, "b"))
        assert [s.t_ns for s in b.series[RaplDomain.PACKAGE].samples] == \
            [round(0.6 * S)]

    def test_watcher_failure_between_ticks_ends_run(self, tmp_path):
        log_dir = tmp_path / "logs"
        sigs = tmp_path / "signals"
        log_dir.mkdir()
        sigs.mkdir()
        config = SamplerConfig(
            node_id="n1", domains=(SPEC,), log_dir=str(log_dir),
            signal_dir=str(sigs), interval_ms=5000, max_runtime_s=60.0)
        agent = SamplerAgent(config, {SPEC.domain: constant_backend()})
        for sid in ("a", "b"):
            signal_start(str(sigs), SessionMarker(
                session_id=sid, created_wall_ns=time.time_ns()))
        remover = threading.Timer(0.2, shutil.rmtree, args=(str(sigs),))
        remover.start()
        started = time.monotonic()
        try:
            agent.run()
        finally:
            remover.join(timeout=10.0)
        assert time.monotonic() - started < 2.0
        assert agent.active_sessions == ()
        for sid in ("a", "b"):
            parsed = parse_log(log_path(tmp_path, sid))
            assert parsed.status is LogStatus.TRUNCATED
            assert len(parsed.series[RaplDomain.PACKAGE].samples) == 1


class TestConfigDocument:
    def make_doc(self, tmp_path) -> dict:
        return {
            "node_id": "n1",
            "interval_ms": 250,
            "log_dir": str(tmp_path / "logs"),
            "signal_dir": str(tmp_path / "signals"),
            "max_power_watts": 200.0,
            "domains": [
                {"domain": "package", "bit_width": 32, "unit_j": 1e-6,
                 "backend": {"kind": "mock",
                             "segments": [[60.0, 100.0], [60.0, 50.0]],
                             "seed": 3}},
                {"domain": "dram", "bit_width": 32, "unit_j": 1e-6,
                 "backend": {"kind": "mock", "segments": [[120.0, 10.0]]}},
            ],
        }

    def test_round_trip(self, tmp_path):
        config, backends = config_from_obj(self.make_doc(tmp_path))
        assert config.node_id == "n1"
        assert config.interval_ms == 250
        assert {s.domain for s in config.domains} == \
            {RaplDomain.PACKAGE, RaplDomain.DRAM}
        assert isinstance(backends[RaplDomain.PACKAGE], MockBackend)
        sample = backends[RaplDomain.DRAM].read(config.domains[1], 5 * S)
        assert sample.raw == 50_000_000  # 10 W for 5 s in microjoules

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "agent.json"
        path.write_text(json.dumps(self.make_doc(tmp_path)),
                        encoding="utf-8")
        config, backends = load_config(str(path))
        assert config.max_power_watts == 200.0
        assert RaplDomain.PACKAGE in backends

    def test_unknown_backend_kind_rejected(self, tmp_path):
        doc = self.make_doc(tmp_path)
        doc["domains"][0]["backend"]["kind"] = "quantum"
        with pytest.raises(SchemaViolationError, match="quantum"):
            config_from_obj(doc)

    def test_missing_fields_rejected(self, tmp_path):
        doc = self.make_doc(tmp_path)
        del doc["node_id"]
        with pytest.raises(SchemaViolationError):
            config_from_obj(doc)
        with pytest.raises(SchemaViolationError):
            config_from_obj([])

    @pytest.mark.parametrize("segments", [
        [], [[0.0, 10.0]], [[-1.0, 10.0]], [[60.0, -5.0]], [[60.0, "hot"]],
        [[60.0, None]], [[60.0, float("inf")]], [[60.0, float("nan")]],
        [[float("inf"), 10.0]], [[float("nan"), 10.0]]])
    def test_bad_mock_segments_exit_2_at_load(self, tmp_path, capsys,
                                              segments):
        doc = self.make_doc(tmp_path)
        doc["domains"][1]["backend"]["segments"] = segments
        path = tmp_path / "agent.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["agent", "--config", str(path)]) == 2
        assert "wattflow: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, text", [
        ("max_power_watts", "NaN"), ("max_power_watts", "1e400"),
        ("stale_timeout_s", "1e400"), ("stale_timeout_s", "NaN"),
        ("max_runtime_s", "NaN"), ("interval_ms", "1e400")])
    def test_non_finite_config_value_exits_2_at_load(self, tmp_path, capsys,
                                                     key, text):
        # 1e400 reads as infinity.  Each exits 2 with one error line, not
        # a traceback from the agent's constructor or its first poll.
        doc = self.make_doc(tmp_path)
        doc[key] = "VALUE"
        path = tmp_path / "agent.json"
        path.write_text(json.dumps(doc).replace('"VALUE"', text),
                        encoding="utf-8")
        assert main(["agent", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("wattflow: error:")

    def test_domain_entry_must_be_an_object(self, tmp_path):
        doc = self.make_doc(tmp_path)
        doc["domains"][1] = "dram"
        with pytest.raises(SchemaViolationError, match="object"):
            config_from_obj(doc)

    def test_absent_keys_take_the_dataclass_defaults(self, tmp_path):
        doc = self.make_doc(tmp_path)
        del doc["interval_ms"], doc["max_power_watts"]
        doc["max_runtime_s"] = None
        config, _ = config_from_obj(doc)
        assert config == SamplerConfig(
            node_id="n1", domains=config.domains, log_dir=doc["log_dir"],
            signal_dir=doc["signal_dir"])

    def test_backend_paths_default_in_the_backends(self, tmp_path):
        assert build_backend(SPEC, {"kind": "msr"}).device_path \
            == "/dev/cpu/0/msr"
        assert build_backend(SPEC, {"kind": "msr", "device_path": "/x"}
                             ).device_path == "/x"
        zone = tmp_path / "intel-rapl:0"
        zone.mkdir()
        (zone / "name").write_text("package-0\n")
        (zone / "energy_uj").write_text("0\n")
        (zone / "max_energy_range_uj").write_text(f"{2**32 - 1}\n")
        backend = build_backend(
            SPEC, {"kind": "powercap", "base_path": str(tmp_path)})
        assert backend.zone_dir == str(zone)
        for kind, key in (("msr", "device_path"), ("powercap", "base_path")):
            with pytest.raises(SchemaViolationError):
                build_backend(SPEC, {"kind": kind, key: 5})

    def test_build_backend_requires_kind(self):
        with pytest.raises(SchemaViolationError):
            build_backend(SPEC, {"segments": []})
        with pytest.raises(SchemaViolationError):
            build_backend(SPEC, {"kind": "mock"})


# ------------------------------------------- one write per log per tick

def reference_record_all(agent: SamplerAgent, readings, gap_t_ns: int
                         ) -> None:
    """The per-record ``_record_all`` that wrote each line of a tick to
    each log with its own call, kept as the reference."""
    for session_id in list(agent._writers):
        writer = agent._writers[session_id]
        try:
            for spec in agent.config.domains:
                sample = readings[spec.domain]
                if sample is None:
                    writer.gap(gap_t_ns, spec.domain)
                else:
                    writer.record(sample.t_ns, spec.domain, sample.raw)
        except (OSError, ValueError, WattflowError):
            agent._close_writer(session_id, LogStatus.TRUNCATED)


class ScriptedBackend(CounterBackend):
    """Reads as told before each tick: a raw count, after one failure or
    not, or two failures (a gap)."""

    def __init__(self) -> None:
        self.outcome: tuple[str, int] = ("ok", 0)
        self.calls = 0

    def set(self, outcome: tuple[str, int]) -> None:
        self.outcome, self.calls = outcome, 0

    def read(self, spec: CounterSpec, now_ns: int) -> RawSample:
        kind, raw = self.outcome
        self.calls += 1
        if kind == "gap" or (kind == "retry" and self.calls == 1):
            raise WattflowError("scripted failure")
        return RawSample(t_ns=now_ns, raw=raw)


# Mostly good readings; a gap, a retried read, or a raw count at or
# above the modulus now and then.
READ_KINDS = ("ok",) * 15 + ("retry", "retry", "gap", "gap", "over")


@st.composite
def read_outcomes(draw, modulus: int) -> tuple[str, int]:
    kind = draw(st.sampled_from(READ_KINDS))
    if kind == "over":
        return kind, modulus + draw(st.integers(0, 3))
    return kind, draw(st.integers(0, modulus - 1))


@st.composite
def tick_schedules(draw):
    """Domains in config order, and per tick: the clock step in half
    seconds (0 repeats the last timestamp), a session to start and the age
    of its marker (old markers are reaped a few ticks later), a marker to
    remove, each domain's reading, and whether one open log's writes start
    to fail."""
    domains = draw(st.permutations(list(RaplDomain)))
    domains = domains[:draw(st.integers(1, 5))]
    specs = tuple(CounterSpec(domain=d,
                              bit_width=draw(st.sampled_from((8, 16, 32))),
                              energy_unit_joules=1e-6) for d in domains)
    ticks = [dict(step=draw(st.sampled_from((0, 1, 1, 1, 1))),
                  start=draw(st.sampled_from((None, None, 0.0, 0.0, 1.2,
                                              2.9))),
                  stop=draw(st.sampled_from((None,) * 4 + (0, 1, 2))),
                  reads=[draw(read_outcomes(spec.modulus))
                         for spec in specs],
                  break_writes=draw(st.integers(0, 11)) == 0)
             for _ in range(draw(st.integers(1, 24)))]
    return specs, ticks


_RUNS = itertools.count()


def disk_full(data):
    raise OSError("disk full")


def run_both(base, specs, ticks) -> tuple[str, str]:
    """Drive an agent and a reference agent through one schedule in
    lockstep, sharing the signal directory and the clock."""
    clock = FakeClock()
    sigs = base / "signals"
    sigs.mkdir(parents=True)
    agents, scripted = [], []
    for name in ("new", "ref"):
        (base / name).mkdir()
        backends = {spec.domain: ScriptedBackend() for spec in specs}
        config = SamplerConfig(node_id="n1", domains=specs,
                               log_dir=str(base / name),
                               signal_dir=str(sigs), stale_timeout_s=3.0)
        agent = SamplerAgent(config, backends, mono_ns=clock.mono_ns,
                             wall_ns=clock.wall_ns)
        agents.append(agent)
        scripted.append(backends)
    new, ref = agents
    ref._record_all = functools.partial(reference_record_all, ref)
    broken = False
    for k, tick in enumerate(ticks):
        if tick["start"] is not None:
            signal_start(str(sigs), SessionMarker(
                session_id=f"s{k}",
                created_wall_ns=clock.wall - round(tick["start"] * S)))
        if tick["stop"] is not None:
            present = sorted(os.listdir(sigs))
            if present:
                os.unlink(sigs / present[tick["stop"] % len(present)])
        if tick["break_writes"] and not broken and new.active_sessions:
            sid = new.active_sessions[-1]
            for agent in agents:
                agent._writers[sid]._fh.write = disk_full
            broken = True
        for backends in scripted:
            for spec, outcome in zip(specs, tick["reads"]):
                backends[spec.domain].set(outcome)
        clock.advance(0.5 * tick["step"])
        for agent in agents:
            agent.tick_once(clock.mono)
        assert new.active_sessions == ref.active_sessions
    for agent in agents:
        agent.shutdown()
    return str(base / "new"), str(base / "ref")


def read_dir(path: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestTickMatchesPerRecordWrites:
    @given(schedule=tick_schedules())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_logs_byte_identical_to_reference(self, tmp_path, schedule):
        specs, ticks = schedule
        new, ref = run_both(tmp_path / f"run{next(_RUNS)}", specs, ticks)
        assert read_dir(new) == read_dir(ref)

    def test_partial_tick_before_refused_reading_is_kept(self, tmp_path):
        # Package reads fine, dram beyond its modulus: the package line of
        # that tick is written, then the log closes as truncated.
        specs = (SPEC, CounterSpec(domain=RaplDomain.DRAM, bit_width=8,
                                   energy_unit_joules=1e-6))
        ticks = [dict(step=1, start=0.0, stop=None, break_writes=False,
                      reads=[("ok", 5), ("ok", 7)]),
                 dict(step=1, start=None, stop=None, break_writes=False,
                      reads=[("ok", 6), ("over", 256)])]
        new, ref = run_both(tmp_path, specs, ticks)
        logs = read_dir(new)
        assert logs == read_dir(ref)
        text = logs[log_filename("n1", "s0")].decode().splitlines()
        assert text[-2:] == ["1000000000,package,6",
                             "#wattflow-end status=truncated"]

    def test_repeated_timestamp_spares_a_new_session(self, tmp_path):
        ticks = [dict(step=1, start=0.0, stop=None, break_writes=False,
                      reads=[("ok", 5)]),
                 dict(step=0, start=0.0, stop=None, break_writes=False,
                      reads=[("ok", 6)])]
        new, ref = run_both(tmp_path, (SPEC,), ticks)
        logs = read_dir(new)
        assert logs == read_dir(ref)
        first = logs[log_filename("n1", "s0")].decode().splitlines()
        second = logs[log_filename("n1", "s1")].decode().splitlines()
        assert first[-1] == "#wattflow-end status=truncated"
        assert second[1:] == ["500000000,package,6",
                              "#wattflow-end status=truncated"]


class TestTickCost:
    """Counts, not timings: what one tick does with N open sessions."""

    SESSIONS = 5

    def make(self, tmp_path):
        zone = tmp_path / "zone"
        zone.mkdir()
        (zone / "energy_uj").write_text("1000\n")
        (zone / "max_energy_range_uj").write_text(f"{2**32 - 1}\n")
        dram = CounterSpec(domain=RaplDomain.DRAM, bit_width=32,
                           energy_unit_joules=1e-6)
        (tmp_path / "logs").mkdir()
        (tmp_path / "signals").mkdir()
        clock = FakeClock()
        config = SamplerConfig(
            node_id="n1", domains=(SPEC, dram),
            log_dir=str(tmp_path / "logs"),
            signal_dir=str(tmp_path / "signals"))
        agent = SamplerAgent(
            config, {SPEC.domain: PowercapBackend(str(zone)),
                     dram.domain: constant_backend(10.0)},
            mono_ns=clock.mono_ns, wall_ns=clock.wall_ns)
        return agent, clock

    def counters(self, monkeypatch) -> dict[str, int]:
        counts = {"energy_opens": 0, "name_parses": 0, "marker_parses": 0}
        real_open = os.open
        real_name = signals.session_id_from_marker_name
        real_marker = signals.parse_marker

        def open_(path, *args, **kwargs):
            if str(path).endswith("energy_uj"):
                counts["energy_opens"] += 1
            return real_open(path, *args, **kwargs)

        def name(text):
            counts["name_parses"] += 1
            return real_name(text)

        def marker(path):
            counts["marker_parses"] += 1
            return real_marker(path)

        monkeypatch.setattr(os, "open", open_)
        monkeypatch.setattr(signals, "session_id_from_marker_name", name)
        monkeypatch.setattr(signals, "parse_marker", marker)
        return counts

    def count_writes(self, agent) -> dict[str, list]:
        written: dict[str, list] = {}
        for sid, writer in agent._writers.items():
            real = writer._fh.write
            calls = written[sid] = []

            def write(data, real=real, calls=calls):
                calls.append(data)
                return real(data)

            writer._fh.write = write
        return written

    def test_one_write_per_log_and_no_reopen_or_reparse(self, tmp_path,
                                                        monkeypatch):
        agent, clock = self.make(tmp_path)
        for i in range(self.SESSIONS):
            start_session(tmp_path, clock, f"s{i}")
        drive(agent, clock, 2)
        counts = self.counters(monkeypatch)
        written = self.count_writes(agent)
        drive(agent, clock, 3)
        assert {sid: len(calls) for sid, calls in written.items()} == \
            {f"s{i}": 3 for i in range(self.SESSIONS)}
        assert counts == {"energy_opens": 0, "name_parses": 0,
                          "marker_parses": 0}
        agent.shutdown()

    def test_each_new_marker_parsed_once(self, tmp_path, monkeypatch):
        agent, clock = self.make(tmp_path)
        start_session(tmp_path, clock, "s0")
        drive(agent, clock, 1)
        counts = self.counters(monkeypatch)
        for i in range(1, 4):
            start_session(tmp_path, clock, f"s{i}")
            drive(agent, clock, 3)
        assert agent.active_sessions == ("s0", "s1", "s2", "s3")
        agent.shutdown()
        assert counts["marker_parses"] == 3
        assert counts["name_parses"] == 3

    def test_shutdown_closes_counter_files(self, tmp_path):
        class Closing(CounterBackend):
            closed = 0

            def read(self, spec, now_ns):
                return RawSample(t_ns=now_ns, raw=0)

            def close(self):
                self.closed += 1

        clock = FakeClock()
        backend = Closing()
        agent = make_agent(tmp_path, clock, backend=backend)
        agent.tick_once(clock.mono)
        agent.shutdown()
        assert backend.closed == 1
