"""One measured process: runs a job and prints its result as JSON.

``run.py`` starts this script once per job, so that peak resident memory
is that of the job alone.  A job is a JSON object on the command line:

* ``report`` / ``resume``: one ``cli.main`` call, timed around the call.
* ``agent``: the agent-ticks set-up and closed tick loop.
* ``wrapped``: the wrapped-run set-up and closed loop of ``wattflow run``.
* ``setup``: one agent-ticks or wrapped-run set-up, timed from spawn.

With ``"trace": true`` the job wraps the wattflow names each caller module
looks up and returns the tracer's per-name stats and counts.  The last
line of standard output is the result object.
"""

from __future__ import annotations

import array
import json
import os
import random
import resource
import shlex
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from wattflow import accounting, agent, cli, orchestrate, signals  # noqa: E402
from wattflow.accounting import NodeEnergyLog  # noqa: E402
from wattflow.backends import MockBackend, PowercapBackend  # noqa: E402
from wattflow.logfile import LogWriter, parse_log  # noqa: E402
from wattflow.signals import SessionMarker, SessionScope  # noqa: E402

from tracer import Tracer  # noqa: E402

WALL_ORIGIN_NS = 1_700_000_000_000_000_000


def peak_mb() -> float:
    """Peak resident memory of this process image, in MiB.

    ``ru_maxrss`` would carry over the parent's resident size at fork,
    so a worker started by a bigger ``run.py`` would read the parent's
    size; ``VmHWM`` belongs to the image ``exec`` created.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count_parsed(name: str):
    """Count the lines and samples a ``parse_log`` call returned."""
    def on_result(tracer: Tracer, _args: tuple, parsed) -> None:
        samples = sum(len(s.samples) for s in parsed.series.values())
        gaps = sum(len(s.gap_markers) for s in parsed.series.values())
        trailer = 0 if parsed.status.value == "open" else 1
        tracer.count(f"{name}.lines", len(parsed.series) + samples + gaps
                     + trailer)
        tracer.count(f"{name}.samples", samples)
    return on_result


def _count_segment(tracer: Tracer, _args: tuple, _result) -> None:
    if tracer.current == "accounting.attribute":
        tracer.count("accounting.segments")


def instrument_report(tracer: Tracer) -> None:
    tracer.wrap(cli, "parse_log", "logfile.parse",
                _count_parsed("logfile.parse"))
    tracer.wrap(cli, "parse_generic_trace", "trace.parse",
                lambda t, _a, trace: t.count("trace.tasks",
                                             len(trace.tasks)))
    tracer.wrap(cli, "assemble_report", "accounting.assemble")
    tracer.wrap(cli, "report_to_json", "accounting.serialize")
    instrument_accounting(tracer)


def instrument_accounting(tracer: Tracer) -> None:
    tracer.wrap(accounting, "attribute_concurrent", "accounting.attribute")
    tracer.wrap(accounting, "node_window_energy", "accounting.window_energy",
                _count_segment)
    tracer.wrap(orchestrate, "node_window_energy", "accounting.window_energy")
    tracer.wrap(accounting, "integrate_window", "counter.integrate")
    tracer.wrap(NodeEnergyLog, "has_unsafe_gap", "accounting.unsafe_gap")


def instrument_resume(tracer: Tracer) -> None:
    tracer.wrap(orchestrate, "parse_log", "orchestrate.parse_log",
                _count_parsed("orchestrate.parse_log"))
    instrument_accounting(tracer)


def instrument_agent(tracer: Tracer) -> None:
    tracer.wrap(agent.SamplerAgent, "tick_once", "agent.tick")
    tracer.wrap(signals.SignalWatcher, "poll_once", "signals.poll")
    tracer.wrap(signals, "parse_marker", "signals.parse_marker")
    tracer.wrap(PowercapBackend, "read", "backends.read.powercap")
    tracer.wrap(MockBackend, "read", "backends.read.mock")
    tracer.wrap(LogWriter, "record", "logfile.record")
    tracer.wrap(agent, "LogWriter", "agent.session_open")


def _timed_main(argv: list[str], tracer: Tracer | None) -> tuple[int, float]:
    frame = tracer.begin("cli.main") if tracer else None
    t0 = time.perf_counter()
    code = cli.main(argv)
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.end(frame)
    return code, seconds


def job_cli(job: dict) -> dict:
    """One ``report`` or ``resume`` op through ``cli.main``."""
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        (instrument_report if job["kind"] == "report"
         else instrument_resume)(tracer)
    code, seconds = _timed_main(job["argv"], tracer)
    out = {"code": code, "seconds": seconds, "peak_mb": peak_mb()}
    if tracer:
        tracer.restore()
        out["trace"] = tracer.summary()
        tracer.dump(job["spans_path"])
    return out


# ---------------------------------------------------------------- agent-ticks

AGENT_SESSIONS = 16
ROTATE_EVERY = 100
MAX_RANGE_UJ = 2**32 - 1
DRAM_WATTS = 12.0
INTERVAL_NS = 500_000_000
HIST_BIN_NS = 100
HIST_BINS = 200_000


def hist_quantile(hist: array.array, q: float) -> float:
    """Quantile of binned durations, interpolated inside its bin, in ns."""
    rank = q * sum(hist)
    seen = 0
    for i, n in enumerate(hist):
        if n and seen + n >= rank:
            return (i + (rank - seen) / n) * HIST_BIN_NS
        seen += n
    return len(hist) * HIST_BIN_NS


class SimClock:
    """Injected agent clock: monotonic ns plus a fixed wall origin."""

    def __init__(self) -> None:
        self.now_ns = 0

    def mono(self) -> int:
        return self.now_ns

    def wall(self) -> int:
        return WALL_ORIGIN_NS + self.now_ns


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def agent_setup(base: str) -> tuple:
    """Zone dir, README agent config, agent, and 16 open sessions."""
    zone = os.path.join(base, "zone")
    logs = os.path.join(base, "logs")
    sigs = os.path.join(base, "signals")
    for d in (zone, logs, sigs):
        os.makedirs(d)
    _write(os.path.join(zone, "name"), "package-0\n")
    _write(os.path.join(zone, "max_energy_range_uj"), f"{MAX_RANGE_UJ}\n")
    _write(os.path.join(zone, "energy_uj"), "0\n")
    config_path = os.path.join(base, "agent_n1.json")
    _write(config_path, json.dumps({
        "node_id": "n1", "interval_ms": 500, "log_dir": logs,
        "signal_dir": sigs, "max_power_watts": 250.0,
        "domains": [
            {"domain": "package", "bit_width": 32, "unit_j": 1e-06,
             "backend": {"kind": "powercap", "zone_dir": zone}},
            {"domain": "dram", "bit_width": 32, "unit_j": 1e-06,
             "backend": {"kind": "mock",
                         "segments": [[3600.0, DRAM_WATTS]]}}]}))
    clock = SimClock()
    config, backends = agent.load_config(config_path, start_ns=0)
    sampler = agent.SamplerAgent(config, backends, mono_ns=clock.mono,
                                 wall_ns=clock.wall)
    for i in range(AGENT_SESSIONS):
        _start_task_session(sigs, clock, i)
    return zone, logs, sigs, clock, sampler


def _start_task_session(sigs: str, clock: SimClock, i: int) -> None:
    signals.signal_start(sigs, SessionMarker(
        session_id=f"task-{i:05d}", created_wall_ns=clock.wall(),
        scope=SessionScope.TASK, task_id=f"t{i:05d}"))


def job_agent(job: dict) -> dict:
    """Closed loop of ``tick_once`` on one in-process agent.

    Every 100 ticks the oldest task session is stopped and a new one
    started, so the next tick closes one log and opens another.  With
    tracing on, blocks of 100 ticks alternate traced and untraced; the
    difference of their mean tick is the tracing overhead.
    """
    zone, logs, sigs, clock, sampler = agent_setup(
        os.path.join(job["work_dir"], "agent"))
    energy_path = os.path.join(zone, "energy_uj")
    rng = random.Random(f"agent-ticks:{job['seed']}")
    block_watts: list[int] = []     # package watts of each 100-tick block
    cum_uj = 0

    def advance() -> None:
        """Move the clock one interval and the zone's counter with it."""
        nonlocal cum_uj
        clock.now_ns += INTERVAL_NS
        cum_uj += block_watts[-1] * INTERVAL_NS // 1000
        _write(energy_path, f"{cum_uj % (MAX_RANGE_UJ + 1)}\n")

    tracer = Tracer(max_spans=100_000) if job["trace"] else None
    if tracer:
        instrument_agent(tracer)
    block_ns = {True: [0, 0], False: [0, 0]}    # traced? -> [ns, ticks]
    # Tick times go into 100 ns bins up to 20 ms, so memory stays the
    # same however many ticks a run makes.
    hist = array.array("q", bytes(8 * (HIST_BINS + 1)))
    tick_total_ns, ticks, rotation = 0, 0, []
    next_session = AGENT_SESSIONS
    # A traced run needs one traced and one untraced block at least.
    min_ticks = ROTATE_EVERY * (2 if tracer else 1)
    deadline = time.perf_counter() + job["seconds"]
    while True:
        if ticks % ROTATE_EVERY == 0:
            block_watts.append(rng.randint(80, 200))
        advance()
        traced = bool(tracer) and (ticks // ROTATE_EVERY) % 2 == 1
        if tracer:
            tracer.enabled = traced
        t0 = time.perf_counter_ns()
        sampler.tick_once(clock.now_ns)
        dt = time.perf_counter_ns() - t0
        tick_total_ns += dt
        hist[min(dt // HIST_BIN_NS, HIST_BINS)] += 1
        block_ns[traced][0] += dt
        block_ns[traced][1] += 1
        if ticks % ROTATE_EVERY == 0 and ticks:
            rotation.append(dt)
        ticks += 1
        if ticks % ROTATE_EVERY == 0:
            if ticks >= min_ticks and time.perf_counter() >= deadline:
                break
            signals.signal_stop(
                sigs, f"task-{next_session - AGENT_SESSIONS:05d}")
            _start_task_session(sigs, clock, next_session)
            next_session += 1
    if tracer:
        tracer.enabled = False
    for name in os.listdir(sigs):
        os.unlink(os.path.join(sigs, name))
    advance()
    sampler.tick_once(clock.now_ns)
    sampler.shutdown()

    def package_uj(t_ns: int) -> int:
        """Counts the zone advanced by from time 0 to tick ``t_ns``."""
        j = t_ns // INTERVAL_NS
        full = min(j // ROTATE_EVERY, len(block_watts))
        rest = j - full * ROTATE_EVERY
        return (ROTATE_EVERY * sum(block_watts[:full])
                + rest * block_watts[min(full, len(block_watts) - 1)]
                ) * INTERVAL_NS // 1000

    out = {
        "ticks": ticks,
        "tick_mean_s": tick_total_ns / ticks / 1e9,
        "tick_p90_s": hist_quantile(hist, 0.9) / 1e9,
        "rotation_tick_s": statistics.median(rotation) / 1e9
        if rotation else 0.0,
        "peak_mb": peak_mb(),
        "sessions": next_session,
        "violations": agent_gate(logs, package_uj, job["seed"],
                                 next_session),
    }
    if tracer:
        tracer.restore()
        out["trace"] = tracer.summary()
        for key, traced in (("traced_tick_s", True),
                            ("untraced_tick_s", False)):
            out[key] = block_ns[traced][0] / max(block_ns[traced][1], 1) / 1e9
        tracer.dump(job["spans_path"])
    return out


def agent_gate(logs: str, package_uj, seed: int,
               sessions: int) -> list[str]:
    """Check every log closed cleanly and eight of them against truth.

    Package energy must equal the counts the zone file advanced by over
    the log's span, and dram energy the mock's 12 W times the span within
    one count per endpoint.
    """
    from wattflow.counter import RaplDomain, series_total
    bad = []
    names = sorted(os.listdir(logs))
    if len(names) != sessions:
        bad.append(f"agent: {len(names)} logs for {sessions} sessions")
    for name in names:
        with open(os.path.join(logs, name), "rb") as fh:
            fh.seek(-64, os.SEEK_END)
            if not fh.read().endswith(b"#wattflow-end status=closed\n"):
                bad.append(f"agent: {name} not closed")
    for name in random.Random(seed).sample(names, min(8, len(names))):
        parsed = parse_log(os.path.join(logs, name))
        pkg = parsed.series[RaplDomain.PACKAGE]
        dram = parsed.series[RaplDomain.DRAM]
        first, last = pkg.span_ns
        want_pkg = (package_uj(last) - package_uj(first)) * 1e-6
        got_pkg = series_total(pkg).joules
        if abs(got_pkg - want_pkg) > 1e-9 * want_pkg:
            bad.append(f"agent: {name} package {got_pkg} J != {want_pkg} J")
        want_dram = DRAM_WATTS * (last - first) / 1e9
        got_dram = series_total(dram).joules
        if abs(got_dram - want_dram) > 2e-6 + 1e-9 * want_dram:
            bad.append(f"agent: {name} dram {got_dram} J != {want_dram} J")
    return bad


# ---------------------------------------------------------------- wrapped-run

NODE_WATTS = {"n1": 100.0, "n2": 50.0}
WORKFLOW_CMD = "sleep 1"


def wrapped_setup(base: str, session: str) -> str:
    """Agent configs and run config for one wrapped run."""
    logs = os.path.join(base, "agent_logs")
    sigs = os.path.join(base, "signals")
    out = os.path.join(base, "out")
    for d in (logs, sigs, out):
        os.makedirs(d)
    agents = []
    for node, watts in NODE_WATTS.items():
        cfg_path = os.path.join(base, f"agent_{node}.json")
        _write(cfg_path, json.dumps({
            "node_id": node, "interval_ms": 500, "log_dir": logs,
            "signal_dir": sigs, "max_runtime_s": 60.0,
            "domains": [{"domain": "package", "bit_width": 32,
                         "unit_j": 1e-06,
                         "backend": {"kind": "mock",
                                     "segments": [[3600.0, watts]]}}]}))
        agents.append({
            "node_id": node, "exec_template": "{cmd}",
            "agent_cmd": f"{shlex.quote(sys.executable)} -m wattflow.cli "
                         f"agent --config {shlex.quote(cfg_path)}",
            "signal_dir": sigs, "log_dir": logs})
    run_path = os.path.join(base, "run.json")
    _write(run_path, json.dumps({
        "workflow_cmd": WORKFLOW_CMD, "session_id": session,
        "output_dir": out, "startup_timeout_s": 20.0,
        "stop_timeout_s": 20.0,
        "agents": agents}))
    orchestrate.load_run_config(run_path)
    return run_path


class CallStamps:
    """Wall time of each ``run_wrapped`` call and return."""

    def __init__(self) -> None:
        self.original = cli.run_wrapped
        self.calls: list[tuple[int, int]] = []

        def stamped(config):
            t0 = time.time_ns()
            result = self.original(config)
            self.calls.append((t0, time.time_ns()))
            return result
        cli.run_wrapped = stamped

    def restore(self) -> None:
        cli.run_wrapped = self.original


def job_wrapped(job: dict) -> dict:
    """Closed loop of ``wattflow run`` around a fixed short workflow.

    Each rep launches two local agent processes with mock backends.  With
    tracing on, reps alternate traced and untraced, and the orchestrator's
    phases are derived from outside: ``run_<session>.json``, each log's
    first record, and each log's mtime, which is when its trailer was
    written.
    """
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([os.environ["PYTHONPATH"]]
                                       if os.environ.get("PYTHONPATH")
                                       else []))
    work = job["work_dir"]
    stamps = CallStamps()
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.wrap(orchestrate, "parse_log", "orchestrate.parse_log",
                    _count_parsed("orchestrate.parse_log"))
        instrument_accounting(tracer)
    reps: list[dict] = []
    deadline = time.perf_counter() + job["seconds"]
    rep_wall = 0.0
    min_reps = 2 if tracer else 1      # traced runs alternate from rep 1
    while len(reps) < min_reps or \
            time.perf_counter() + rep_wall <= deadline:
        started = time.perf_counter()
        k = len(reps)
        session = f"wrap-{k:03d}"
        base = os.path.join(work, f"rep{k:03d}")
        run_path = wrapped_setup(base, session)
        traced = bool(tracer) and k % 2 == 1
        if tracer:
            tracer.enabled = traced
        code = cli.main(["run", "--config", run_path])
        if tracer:
            tracer.enabled = False
        call_ns, return_ns = stamps.calls[-1]
        rep = wrapped_rep(base, session, call_ns, return_ns, code)
        rep["traced"] = traced
        if traced:
            # Derived spans are in wall time; shift them onto the tracer's
            # clock so the span file has one time base.
            shift = tracer.clock() - time.time_ns()
            root = tracer.new_id()
            edges = [call_ns] + rep["edges"] + [return_ns]
            tracer.add(root, "orchestrate.run_wrapped", 0,
                       edges[0] + shift, edges[-1] + shift,
                       child_ns=edges[-1] - edges[0])
            for name, lo, hi in zip(
                    ("orchestrate.agent_ready", "orchestrate.launch_delay",
                     "orchestrate.workflow", "orchestrate.stop_to_trailer",
                     "orchestrate.teardown"), edges, edges[1:]):
                tracer.add(tracer.new_id(), name, root, lo + shift,
                           hi + shift)
        reps.append(rep)
        rep_wall = time.perf_counter() - started
    stamps.restore()
    out = {"reps": reps, "peak_mb": peak_mb()}
    if tracer:
        tracer.restore()
        out["trace"] = tracer.summary()
        tracer.dump(job["spans_path"])
    return out


def wrapped_rep(base: str, session: str, call_ns: int, return_ns: int,
                code: int) -> dict:
    """Lead, tail and phase edges of one rep, plus its correctness gate.

    Every node's first record must precede the workflow start, and its
    joules must match watts times the sampled span within 1 %.
    """
    from wattflow.counter import RaplDomain
    out_dir = os.path.join(base, "out")
    with open(os.path.join(out_dir, f"run_{session}.json"),
              encoding="utf-8") as fh:
        meta = json.load(fh)
    with open(os.path.join(out_dir, f"report_{session}.json"),
              encoding="utf-8") as fh:
        report = json.load(fh)
    started = meta["workflow_started_wall_ns"]
    finished = meta["workflow_finished_wall_ns"]
    violations = []
    if code != 0:
        violations.append(f"wrapped {session}: exit {code}, expected 0")
    firsts, trailers = [], []
    for node, watts in NODE_WATTS.items():
        path = os.path.join(base, "agent_logs", f"rapl_{node}_{session}.csv")
        parsed = parse_log(path)
        series = parsed.series[RaplDomain.PACKAGE]
        first = series.epoch_wall_ns + series.samples[0].t_ns
        firsts.append(first)
        trailers.append(os.stat(path).st_mtime_ns)
        if first >= started:
            violations.append(f"wrapped {session}: {node} first record "
                              f"after workflow start")
        span_s = (series.samples[-1].t_ns - series.samples[0].t_ns) / 1e9
        got = report["per_node"].get(node, {}).get("package", 0.0)
        if abs(got - watts * span_s) > 0.01 * watts * span_s:
            violations.append(f"wrapped {session}: {node} {got} J, "
                              f"expected {watts * span_s} J")
    return {"lead_s": (started - call_ns) / 1e9,
            "tail_s": (return_ns - finished) / 1e9,
            "edges": [max(firsts), started, finished, max(trailers)],
            "violations": violations}


def job_setup(job: dict) -> dict:
    """Set up once and report the time since ``run.py`` spawned us.

    Interpreter start, wattflow import, configs and program state: what a
    node pays before its agent, or a user before ``wattflow run``, does
    anything.
    """
    base = os.path.join(job["work_dir"], f"setup-{os.getpid()}")
    if job["target"] == "agent":
        agent_setup(base)
    else:
        wrapped_setup(base, "setup")
    return {"ready_s": (time.monotonic_ns() - job["spawned_ns"]) / 1e9}


def main() -> int:
    job = json.loads(sys.argv[1])
    handler = {"report": job_cli, "resume": job_cli, "agent": job_agent,
               "wrapped": job_wrapped, "setup": job_setup}[job["kind"]]
    result = handler(job)
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
