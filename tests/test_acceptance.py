"""Acceptance suite: one test per criterion, reported line by line.

Each test exercises the shipped behavior end to end; the conftest hook
prints a PASS/FAIL verdict per criterion after the run.
"""

from __future__ import annotations

import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wattflow.accounting import (
    AttributionPolicy,
    MeasurementMethod,
    NodeEnergyLog,
    PolicyKind,
    attribute_concurrent,
    interval_estimate,
    load_report,
    node_window_energy,
)
from wattflow.counter import (
    CounterSpec,
    RaplDomain,
    RawSample,
    build_series,
    raw_delta,
    series_total,
)
from wattflow.logfile import LogStatus, parse_log
from wattflow.signals import (
    SessionMarker,
    SessionReaped,
    SessionStarted,
    SessionStopped,
    SignalWatcher,
    signal_start,
    signal_stop,
)
from wattflow.simulate import evaluate_methods, load_scenario
from wattflow.trace import TaskRecord, TaskStatus

from test_agent import FakeClock, drive, log_path, make_agent, start_session
from test_cli import run_simulate, write_report, write_scenario
from test_simulate import idle_only_scenario

S = 1_000_000_000
EPOCH = 1_700_000_000 * S
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

PACKAGE = RaplDomain.PACKAGE


def test_c1_overflow_oracle_equivalence():
    """Wrap-corrected deltas match unbounded integers for 1e5 cases."""
    rng = random.Random(7)
    widths = (32, 36, 38, 64)
    started = time.monotonic()
    for _ in range(100_000):
        bit_width = widths[rng.randrange(4)]
        modulus = 1 << bit_width
        prev_abs = rng.randrange(modulus * 4)
        increment = rng.randrange(modulus)  # true increment < modulus
        curr_abs = prev_abs + increment
        got = raw_delta(prev_abs % modulus, curr_abs % modulus, bit_width)
        assert got == increment
    assert time.monotonic() - started < 10.0


def test_c2_wrap_period_recovery():
    """52-minute wrap period, 2 h run: exact recovery, naive is off."""
    started = time.monotonic()
    capacity = (1 << 32) * 2.0 ** -14
    assert capacity == 262144.0
    watts = capacity / 3120.0  # one wrap every 52 minutes
    scenario = idle_only_scenario(watts, 7200.0, bit_width=32,
                                  unit=2.0 ** -14, sample_interval_ms=500)
    from wattflow.simulate import synthesize_counters
    logs = synthesize_counters(scenario)
    series = logs["n1"].series[PACKAGE]
    span_s = (series.samples[-1].t_ns - series.samples[0].t_ns) / 1e9
    analytic = watts * span_s
    total = series_total(series).joules
    assert total == pytest.approx(analytic, rel=1e-3)
    naive = (series.samples[-1].raw - series.samples[0].raw) * 2.0 ** -14
    assert abs(total - naive) >= capacity
    assert time.monotonic() - started < 30.0


def test_c3_integration_accuracy(tmp_path):
    """Constant 100 W mock at 500 ms over 60 s reads 6000 J."""
    clock = FakeClock()
    agent = make_agent(tmp_path, clock)  # 100 W mock, 500 ms interval
    start_session(tmp_path, clock)
    drive(agent, clock, 120)             # records at t = 0 .. 59.5 s
    signal_stop(str(tmp_path / "signals"), "s1")
    agent.tick_once(clock.mono)          # final record at t = 60 s
    parsed = parse_log(log_path(tmp_path))
    total = series_total(parsed.series[PACKAGE]).joules
    assert total == pytest.approx(6000.0, rel=0.005)


def test_c4_attribution_conservation():
    """200 random concurrent cases conserve energy to 1e-9 relative."""
    rng = random.Random(2024)
    spec = CounterSpec(domain=PACKAGE, bit_width=64,
                       energy_unit_joules=1e-6)
    for _ in range(200):
        ticks = rng.randrange(40, 120)
        raw = 0
        samples = []
        for k in range(ticks + 1):
            samples.append(RawSample(t_ns=k * S // 2, raw=raw))
            raw += rng.randrange(0, 2_000_000)
        series = build_series("n1", spec, samples, epoch_wall_ns=EPOCH)
        log = NodeEnergyLog("n1", {PACKAGE: series})
        span_lo, span_hi = log.wall_span()
        tasks = []
        for i in range(rng.randrange(2, 6)):
            a = rng.uniform(0, ticks / 2 - 0.6)
            b = a + rng.uniform(0.1, ticks / 2 - a)
            tasks.append(TaskRecord(
                task_id=f"t{i}", name=f"t{i}", node_id="n1",
                start_wall_ns=span_lo + round(a * S),
                end_wall_ns=span_lo + round(b * S),
                cpu_time_s=rng.uniform(0.0, 4 * (b - a)),
                status=TaskStatus.COMPLETED))
        window_joules = node_window_energy(log, span_lo, span_hi)[PACKAGE]
        for kind in (PolicyKind.CPU_TIME_SHARE, PolicyKind.WALL_TIME_SHARE):
            result = attribute_concurrent(tasks, log,
                                          AttributionPolicy(kind=kind))
            attributed = sum(te.joules_by_domain[PACKAGE]
                             for te in result.task_energies)
            leftover = result.unattributed_by_domain[PACKAGE]
            assert attributed + leftover == pytest.approx(
                window_joules, rel=1e-9, abs=1e-9)


def test_c5_coverage_reproduction():
    """Uniform-load scenarios land in the published coverage bands."""
    quantms = evaluate_methods(load_scenario(
        str(SCENARIOS / "quantms_like.json")))
    rnaseq = evaluate_methods(load_scenario(
        str(SCENARIOS / "rnaseq_like.json")))

    for result in (quantms, rnaseq):
        shell = result.reports[MeasurementMethod.SHELL_WRAP]
        plugin = result.reports[MeasurementMethod.SIGNAL_PLUGIN]
        task = result.reports[MeasurementMethod.SIGNAL_WORKFLOW]
        assert shell.total_joules >= plugin.total_joules
        assert plugin.total_joules >= task.total_joules
        assert shell.coverage_fraction == 1.0

    q_plugin = quantms.reports[MeasurementMethod.SIGNAL_PLUGIN]
    q_task = quantms.reports[MeasurementMethod.SIGNAL_WORKFLOW]
    assert 0.90 <= q_plugin.coverage_fraction <= 0.95
    assert 0.90 <= q_task.coverage_fraction <= 0.95

    r_plugin = rnaseq.reports[MeasurementMethod.SIGNAL_PLUGIN]
    r_task = rnaseq.reports[MeasurementMethod.SIGNAL_WORKFLOW]
    assert r_plugin.coverage_fraction >= 0.995
    assert r_task.coverage_fraction >= 0.995


def test_c6_interval_estimate_semantics():
    """Scrape-query arithmetic: point count times interval times power."""
    def grid(first_s: float, count: int, watts: float = 100.0
             ) -> list[tuple[int, float]]:
        return [(EPOCH + round((first_s + 30.0 * k) * S), watts)
                for k in range(count)]

    exact_1476 = 100.0 * 1476.0
    # Points on a grid aligned to the window end: ceil coverage.
    end_aligned = grid(6.0, 50)           # 6, 36, ... 1476
    est = interval_estimate(end_aligned, (EPOCH, EPOCH + 1476 * S), 30.0)
    assert est.joules == pytest.approx(50 * 30.0 * 100.0)
    assert est.joules > exact_1476
    # Offset grid: one fewer point lands inside, the published shape.
    offset = grid(15.0, 49)               # 15, 45, ... 1455
    est = interval_estimate(offset, (EPOCH, EPOCH + 1476 * S), 30.0)
    assert est.joules == pytest.approx(49 * 30.0 * 100.0)
    # Window divisible by the interval: estimate equals the integral.
    aligned = grid(30.0, 49)              # 30, 60, ... 1470
    est = interval_estimate(aligned, (EPOCH, EPOCH + 1470 * S), 30.0)
    assert est.joules == pytest.approx(100.0 * 1470.0, rel=1e-9)
    # Short workflow over active surroundings: overestimate above 10%.
    # 130 s window at 100 W with 80 W drawn before it; the earliest
    # point's trailing mean covers (-20 s, 10 s].
    first_mean = (20.0 * 80.0 + 10.0 * 100.0) / 30.0
    points = [(EPOCH + 10 * S, first_mean)] + \
        [(EPOCH + (40 + 30 * k) * S, 100.0) for k in range(4)]
    est = interval_estimate(points, (EPOCH, EPOCH + 130 * S), 30.0)
    exact = 100.0 * 130.0
    assert est.joules == pytest.approx(exact + 20.0 * 80.0)
    assert (est.joules - exact) / exact > 0.10


def test_c7_protocol_liveness(tmp_path):
    """Every started session ends Stopped or Reaped; samples stay in
    session bounds within one tick."""
    # Watcher-level fault injection: random starts, some never stopped.
    sig_dir = tmp_path / "w" / "signals"
    sig_dir.mkdir(parents=True)
    clock = FakeClock()
    watcher = SignalWatcher(str(sig_dir), stale_timeout_s=15.0,
                            wall_ns=clock.wall_ns)
    rng = random.Random(11)
    schedule = []
    expect_stop = set()
    for i in range(30):
        sid = f"s{i:02d}"
        start_at = rng.uniform(0.0, 20.0)
        schedule.append((start_at, "start", sid))
        if rng.random() < 0.6:
            schedule.append((start_at + rng.uniform(0.5, 10.0),
                             "stop", sid))
            expect_stop.add(sid)
    schedule.sort()
    events = []
    queue = list(schedule)
    for tick in range(130):               # 65 s in 0.5 s ticks
        target = tick * 0.5
        while queue and queue[0][0] <= target:
            at, op, sid = queue.pop(0)
            if op == "start":
                signal_start(str(sig_dir), SessionMarker(
                    session_id=sid, created_wall_ns=clock.wall))
            else:
                signal_stop(str(sig_dir), sid)
        events.extend(watcher.poll_once())
        clock.advance(0.5)
    started = [e.marker.session_id for e in events
               if isinstance(e, SessionStarted)]
    stopped = [e.session_id for e in events
               if isinstance(e, SessionStopped)]
    reaped = [e.session_id for e in events
              if isinstance(e, SessionReaped)]
    assert sorted(started) == [f"s{i:02d}" for i in range(30)]
    assert len(stopped) == len(set(stopped))
    assert len(reaped) == len(set(reaped))
    assert set(stopped) == expect_stop
    assert set(reaped) == set(started) - expect_stop

    # Agent-level bounds: no samples outside session windows +- a tick.
    agent_root = tmp_path / "a"
    agent_root.mkdir()
    clock2 = FakeClock()
    agent = make_agent(agent_root, clock2, stale_timeout_s=12.0)
    ops = [
        (2.1, "start", "a"), (7.3, "stop", "a"),
        (5.0, "start", "b"), (5.2, "stop", "b"),
        (10.05, "start", "c"),            # abandoned, reaps at 22.05 s
        (30.2, "start", "d"), (38.9, "stop", "d"),
    ]
    ops.sort()
    queue = list(ops)
    for tick in range(90):                # 45 s in 0.5 s ticks
        target = tick * 0.5
        while queue and queue[0][0] <= target:
            at, op, sid = queue.pop(0)
            behind = target - at
            clock2.advance(-behind)
            if op == "start":
                start_session(agent_root, clock2, sid)
            else:
                signal_stop(str(agent_root / "signals"), sid)
            clock2.advance(behind)
        agent.tick_once(clock2.mono)
        clock2.advance(0.5)
    windows = {"a": (2.1, 7.3), "b": (5.0, 5.2), "d": (30.2, 38.9)}
    for sid, (lo, hi) in windows.items():
        parsed = parse_log(log_path(agent_root, sid))
        assert parsed.status is LogStatus.CLOSED
        samples = parsed.series[PACKAGE].samples
        assert samples[0].t_ns >= round(lo * S)
        assert samples[-1].t_ns <= round((hi + 0.5) * S)
    reaped_log = parse_log(log_path(agent_root, "c"))
    assert reaped_log.status is LogStatus.REAPED
    last = reaped_log.series[PACKAGE].samples[-1]
    assert last.t_ns <= round((10.05 + 12.0 + 0.5) * S)


def test_c8_end_to_end_wrapped_run(tmp_path):
    """Real `wattflow run`: two mock agents around a 30 s workload."""
    started = time.monotonic()
    (tmp_path / "agent_logs").mkdir()
    (tmp_path / "signals").mkdir()
    out_dir = tmp_path / "out"
    node_watts = {"n1": 100.0, "n2": 50.0}
    agents = []
    for node, watts in node_watts.items():
        cfg = {
            "node_id": node,
            "interval_ms": 500,
            "log_dir": str(tmp_path / "agent_logs"),
            "signal_dir": str(tmp_path / "signals"),
            "max_runtime_s": 120.0,
            "domains": [
                {"domain": "package", "bit_width": 32, "unit_j": 1e-6,
                 "backend": {"kind": "mock",
                             "segments": [[3600.0, watts]]}},
            ],
        }
        cfg_path = tmp_path / f"agent_{node}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        agents.append({
            "node_id": node,
            "exec_template": "{cmd}",
            "agent_cmd": f"{sys.executable} -m wattflow.cli agent "
                         f"--config {cfg_path}",
            "signal_dir": str(tmp_path / "signals"),
            "log_dir": str(tmp_path / "agent_logs"),
        })
    run_cfg = {
        "workflow_cmd": "sleep 30",
        "session_id": "accept-e2e",
        "output_dir": str(out_dir),
        "poll_interval_s": 1.0,
        "startup_timeout_s": 20.0,
        "stop_timeout_s": 20.0,
        "agents": agents,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(run_cfg), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "wattflow.cli", "run",
         "--config", str(cfg_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = load_report(str(out_dir / "report_accept-e2e.json"))
    assert report.status == "ok"
    assert report.coverage_fraction == 1.0
    assert sorted(report.per_node) == ["n1", "n2"]
    with open(out_dir / "run_accept-e2e.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    for node, watts in node_watts.items():
        parsed = parse_log(str(out_dir / f"rapl_{node}_accept-e2e.csv"))
        series = parsed.series[PACKAGE]
        first_wall = series.epoch_wall_ns + series.samples[0].t_ns
        assert first_wall < meta["workflow_started_wall_ns"]
        span_s = (series.samples[-1].t_ns - series.samples[0].t_ns) / 1e9
        assert span_s >= 30.0
        measured = report.per_node[node][PACKAGE]
        assert measured == pytest.approx(watts * span_s, rel=0.01)
    assert time.monotonic() - started < 60.0


def test_c9_cli_contract(tmp_path, capsys):
    """Byte-stable reports; documented exit codes on error paths."""
    from wattflow.cli import main

    out = run_simulate(tmp_path)
    capsys.readouterr()
    blobs = []
    for name in ("r1.json", "r2.json"):
        target = str(tmp_path / name)
        code = main(["report", "--logs", out,
                     "--trace", os.path.join(out, "trace_demo.json"),
                     "--out", target])
        assert code == 0
        with open(target, "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]

    # Usage errors exit 2.
    assert main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--logs", str(empty),
                 "--trace", os.path.join(out, "trace_demo.json")]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["report"])
    assert exc.value.code == 2

    # Runtime failures exit 3.
    a = write_report(str(tmp_path / "wa.json"), "wf-a",
                     MeasurementMethod.SHELL_WRAP, 100.0)
    b = write_report(str(tmp_path / "wb.json"), "wf-b",
                     MeasurementMethod.SHELL_WRAP, 100.0)
    assert main(["compare", a, b]) == 3

    capsys.readouterr()
