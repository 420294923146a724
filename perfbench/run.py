"""wattflow benchmark: one workload, one seed, one JSON result line.

Usage::

    python3 perfbench/run.py --workload long-session --seed 1 \\
        --seconds 28 --trace 0

``--workload all`` runs every workload in turn.

Run from the root of a checkout.  The benchmark generates its inputs from
``--seed`` under ``.perfbench_work/`` (removed on exit), runs a closed loop
of the workload's ops with one caller for ``--seconds``, checks every op's
output, and prints a human summary followed by one JSON object as the last
line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same loop with spans around wattflow's public calls and reports per-layer
metrics instead, keeping the spans under ``.perfbench_out/``.

End-to-end metrics, the same four on every workload (see README.md for
what primary and secondary mean on each):

* ``primary_s``   median wall time of the workload's main op
* ``secondary_s`` median wall time of its second op
* ``peak_mb``     peak resident memory of the process running the op
* ``setup_s``     median time to build inputs and program state
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OP_TIMEOUT_S = 120

E2E = {"primary_s": "s", "secondary_s": "s", "peak_mb": "MB",
       "setup_s": "s"}

# Per-layer metric -> unit.  Layers a workload does not touch read 0.
PER_LAYER = {
    "logfile.parse_s": "s", "logfile.lines_parsed": "count",
    "logfile.parse_us_per_line": "us", "logfile.samples_held": "count",
    "logfile.record_us": "us", "logfile.records_written": "count",
    "counter.integrate_calls": "count", "counter.integrate_s": "s",
    "accounting.attribute_self_s": "s", "accounting.segments": "count",
    "accounting.window_energy_s": "s", "accounting.unsafe_gap_s": "s",
    "accounting.serialize_s": "s",
    "trace.parse_s": "s", "trace.tasks": "count",
    "orchestrate.resume_parses": "count", "orchestrate.resume_parse_s": "s",
    "orchestrate.wrap_parses": "count",
    "orchestrate.agent_ready_s": "s", "orchestrate.launch_delay_s": "s",
    "orchestrate.stop_to_trailer_s": "s", "orchestrate.teardown_s": "s",
    "signals.poll_us": "us", "signals.markers_parsed": "count",
    "backends.read_us.powercap": "us", "backends.read_us.mock": "us",
    "agent.ticks": "count", "agent.sessions_opened": "count",
    "agent.session_open_us": "us",
    "tracing.overhead_s": "s",
}

# Report exit code each report-side workload must return: dense logs carry
# gap markers, so their report is flagged partial.
REPORT_EXIT = {"long-session": 0, "dense-attribution": 4}
REPORT_SETUPS = {"long-session": 3, "dense-attribution": 5}
PROCESS_SETUPS = 5
UNIT_J = 1e-6


class Run:
    """Everything one benchmark run measured and checked."""

    def __init__(self, args: argparse.Namespace, work: str, out: str):
        self.args = args
        self.work = work
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []
        self.lines: list[str] = []      # human summary, printed first
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}

    def op(self, violations: list[str]) -> bool:
        """Count one op; a violation makes it a failed op."""
        self.attempted += 1
        if violations:
            self.failed += 1
            self.violations.extend(violations)
        return not violations

    def spans_path(self, tag: str) -> str:
        a = self.args
        return os.path.join(self.out, f"spans-{a.workload}-seed{a.seed}-"
                                      f"{tag}.jsonl")


def run_worker(job: dict) -> dict:
    """Start one worker process, wait for it, return its result object."""
    proc = subprocess.run(
        [sys.executable, WORKER, json.dumps(job)], cwd=ROOT,
        capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {job['kind']} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _fmt(values: list[float] | None) -> str:
    return "[" + ", ".join(f"{v:.4g}" for v in values or ()) + "]"


def _stat(summary: dict, name: str, field: int) -> float:
    return summary["stats"].get(name, [0, 0, 0])[field]


def _count(summary: dict, name: str) -> float:
    return summary["counts"].get(name, 0)


# ------------------------------------------------------------- correctness

def close(got: float, want: float) -> bool:
    """Within the quantisation bound: one count per window endpoint, plus
    float rounding of the analytic truth."""
    return abs(got - want) <= 2 * UNIT_J + 1e-12 * abs(want)


def check_per_node(tag: str, per_node: dict, truth: dict) -> list[str]:
    bad = []
    for node, by_domain in truth.items():
        for domain, want in by_domain.items():
            got = per_node.get(node, {}).get(domain)
            if got is None or not close(got, want):
                bad.append(f"{tag}: {node}/{domain} {got} J, truth {want} J")
    return bad


def check_report(path: str, code: int, expected_code: int,
                 truth: dict) -> tuple[list[str], str]:
    """Gate for one report op: exit code, truth, conservation."""
    with open(path, "rb") as fh:
        blob = fh.read()
    report = json.loads(blob)
    bad = []
    if code != expected_code:
        bad.append(f"report: exit {code}, expected {expected_code}")
    bad += check_per_node("report", report["per_node"], truth)
    tasks = sum(j for t in report["per_task"]
                for j in t["joules_by_domain"].values())
    total = report["total_joules"]
    if abs(tasks + report["unattributed_joules"] - total) > 1e-9 * total:
        bad.append(f"report: tasks {tasks} J + unattributed "
                   f"{report['unattributed_joules']} J != total {total} J")
    return bad, hashlib.sha256(blob).hexdigest()


def check_resume(path: str, code: int, truth: dict
                 ) -> tuple[list[str], str, dict]:
    """Gate for one resume op: exit 0, resumed flag, whole-span truth."""
    with open(path, "rb") as fh:
        blob = fh.read()
    report = json.loads(blob)
    bad = []
    if code != 0:
        bad.append(f"resume: exit {code}, expected 0")
    if "resumed" not in report.get("flags", ()):
        bad.append("resume: report lacks the resumed flag")
    bad += check_per_node("resume", report["per_node"], truth)
    return bad, hashlib.sha256(blob).hexdigest(), report


def check_digests(run: Run, what: str, digests: list[str]) -> None:
    if len(set(digests)) > 1:
        run.violations.append(f"{what}: outputs differ across repetitions")
        run.failed += 1
    elif digests:
        run.lines.append(f"{what} sha256 {digests[0]}")


def same_numbers(a, b) -> bool:
    """Equal documents, with floats equal to 1e-12 relative."""
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= 1e-12 * max(abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_numbers(a[k], b[k])
                                            for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(same_numbers, a, b))
    return a == b


def check_resumes(run: Run, reports: list[tuple[str, dict]]) -> None:
    """Resume reports must agree in value across repetitions.

    Their bytes may not: ``orchestrate`` sums the countable domains of a
    node in set iteration order, which follows the per-process string
    hash seed, so with two domains ``total_joules`` can differ in its last
    bit between processes.  That is a wattflow defect; it is printed, not
    hidden, and does not fail the op.
    """
    if not reports:
        return
    digest, first = reports[0]
    if any(not same_numbers(first, doc) for _, doc in reports[1:]):
        run.violations.append("resume: reports differ across repetitions")
        run.failed += 1
    digests = sorted({d for d, _ in reports})
    run.lines.append(f"resume sha256 {' '.join(digests)}")
    if len(digests) > 1:
        run.lines.append("resume: DEFECT report bytes differ across "
                         "processes (total_joules summed in set order)")


# ----------------------------------------------------------- report side

def report_side(run: Run) -> None:
    """long-session and dense-attribution: ``report`` then ``resume``.

    Every op is a fresh worker process, so each report parses its inputs
    cold and its peak memory is its own.
    """
    sys.path.insert(0, SRC)
    import gen
    from wattflow.logfile import LogWriter
    from tracer import Tracer

    a = run.args
    tracer = None
    if a.trace:
        tracer = Tracer(max_spans=0)
        tracer.wrap(LogWriter, "record", "logfile.record")
    setups, digests = [], []
    for k in range(REPORT_SETUPS[a.workload]):
        target = os.path.join(run.work, f"setup{k}")
        t0 = time.perf_counter()
        generated = gen.generate(a.workload, a.seed, target)
        setups.append(time.perf_counter() - t0)
        digests.append(gen.digest_tree(target))
        if k:
            shutil.rmtree(os.path.join(run.work, f"setup{k - 1}"))
    if tracer:
        tracer.restore()
    check_digests(run, "inputs", digests)
    run.lines.append(f"inputs: {generated.tasks} tasks, "
                     f"{generated.records} records")

    resume_out = os.path.join(run.work, "resume_out")
    signal_dir = os.path.join(run.work, "signals")
    os.makedirs(resume_out)
    os.makedirs(signal_dir)
    run_config = os.path.join(run.work, "run.json")
    with open(run_config, "w", encoding="utf-8") as fh:
        json.dump({"workflow_cmd": "true", "output_dir": resume_out,
                   "agents": [{"node_id": node, "agent_cmd": "true",
                               "signal_dir": signal_dir,
                               "log_dir": generated.log_dir}
                              for node in generated.profiles]}, fh)
    report_path = os.path.join(run.work, "report.json")
    window_truth = generated.truth(generated.window_s)
    span_truth = generated.truth(generated.span_s)

    # Op kinds share the run's time equally: the next op is of the kind
    # with the least time spent so far, so a short op gets many samples.
    kinds = [("report", False), ("resume", False)]
    if a.trace:
        kinds = [("report", False), ("report", True), ("resume", True)]
    spent = {k: 0.0 for k in kinds}
    last_wall: dict[tuple[str, bool], float] = {}
    times: dict[tuple[str, bool], list[float]] = {}
    peaks, summaries = [], {"report": [], "resume": []}
    digests, resumes = [], []
    deadline = time.perf_counter() + a.seconds
    n = 0
    while True:
        kind, traced = key = min(kinds, key=lambda k: spent[k])
        if len(last_wall) == len(kinds) and \
                time.perf_counter() + last_wall[key] > deadline:
            break
        n += 1
        started = time.perf_counter()
        if kind == "report":
            argv = ["report", "--logs", generated.log_dir,
                    "--trace", generated.trace_path,
                    "--idle-baseline-watts", "40", "--out", report_path]
        else:
            argv = ["run", "--config", run_config,
                    "--resume", generated.session_id]
        result = run_worker({"kind": kind, "argv": argv, "trace": traced,
                             "spans_path": run.spans_path(f"{kind}{n}")})
        last_wall[key] = time.perf_counter() - started
        spent[key] += last_wall[key]
        if kind == "report":
            bad, digest = check_report(report_path, result["code"],
                                       REPORT_EXIT[a.workload],
                                       window_truth)
            digests.append(digest)
        else:
            bad, digest, doc = check_resume(
                os.path.join(resume_out,
                             f"report_{generated.session_id}.json"),
                result["code"], span_truth)
            resumes.append((digest, doc))
        if run.op(bad):
            times.setdefault((kind, traced), []).append(result["seconds"])
            if kind == "report" and not traced:
                peaks.append(result["peak_mb"])
        if traced:
            summaries[kind].append(result["trace"])
    check_digests(run, "report", digests)
    check_resumes(run, resumes)

    report_s = _median(times.get(("report", False), []))
    resume_s = _median(times.get(("resume", False), []))
    run.e2e = {"primary_s": report_s, "secondary_s": resume_s,
               "peak_mb": _median(peaks), "setup_s": _median(setups)}
    run.lines += [
        f"report_s {report_s:.4f} s of {_fmt(times.get(('report', False)))}",
        f"resume_s {resume_s:.4f} s of {_fmt(times.get(('resume', False)))}",
        f"report_peak_mb {_median(peaks):.1f} MB",
        f"setup_s {_median(setups):.4f} s of {_fmt(setups)}"]
    if tracer:
        records = tracer.calls("logfile.record")
        run.layers["logfile.records_written"] = records / len(setups)
        run.layers["logfile.record_us"] = \
            tracer.total_s("logfile.record") / max(records, 1) * 1e6
        report_layers(run, summaries["report"], summaries["resume"])
        run.layers["tracing.overhead_s"] = (
            _median(times.get(("report", True), [])) - report_s)


def report_layers(run: Run, reports: list[dict], resumes: list[dict]
                  ) -> None:
    """Per-layer metrics: medians over the traced report and resume ops."""
    def med(fn, summaries=reports) -> float:
        return _median([fn(s) for s in summaries])

    parse_s = med(lambda s: _stat(s, "logfile.parse", 1) / 1e9)
    lines = med(lambda s: _count(s, "logfile.parse.lines"))
    run.layers.update({
        "logfile.parse_s": parse_s,
        "logfile.lines_parsed": lines,
        "logfile.parse_us_per_line": parse_s / lines * 1e6 if lines else 0.0,
        "logfile.samples_held": med(
            lambda s: _count(s, "logfile.parse.samples")),
        "counter.integrate_calls": med(
            lambda s: _stat(s, "counter.integrate", 0)),
        "counter.integrate_s": med(
            lambda s: _stat(s, "counter.integrate", 2) / 1e9),
        "accounting.attribute_self_s": med(
            lambda s: _stat(s, "accounting.attribute", 2) / 1e9),
        "accounting.segments": med(
            lambda s: _count(s, "accounting.segments")),
        "accounting.window_energy_s": med(
            lambda s: _stat(s, "accounting.window_energy", 2) / 1e9),
        "accounting.unsafe_gap_s": med(
            lambda s: _stat(s, "accounting.unsafe_gap", 2) / 1e9),
        "accounting.serialize_s": med(
            lambda s: _stat(s, "accounting.serialize", 2) / 1e9),
        "trace.parse_s": med(lambda s: _stat(s, "trace.parse", 2) / 1e9),
        "trace.tasks": med(lambda s: _count(s, "trace.tasks")),
        "orchestrate.resume_parses": med(
            lambda s: _stat(s, "orchestrate.parse_log", 0), resumes),
        "orchestrate.resume_parse_s": med(
            lambda s: _stat(s, "orchestrate.parse_log", 1) / 1e9, resumes),
    })


# ------------------------------------------------------------ agent-ticks

def process_setups(run: Run, target: str) -> list[float]:
    """Time several fresh worker processes from spawn to built state."""
    return [run_worker({"kind": "setup", "target": target,
                        "work_dir": run.work,
                        "spawned_ns": time.monotonic_ns()})["ready_s"]
            for _ in range(PROCESS_SETUPS)]


def agent_ticks(run: Run) -> None:
    """One in-process agent ticking 16 task sessions; see worker.py."""
    a = run.args
    setups = process_setups(run, "agent")
    result = run_worker({"kind": "agent", "seconds": a.seconds,
                         "seed": a.seed, "trace": bool(a.trace),
                         "work_dir": run.work,
                         "spans_path": run.spans_path("agent")})
    run.attempted = result["ticks"]
    run.failed = min(len(result["violations"]), result["ticks"])
    run.violations += result["violations"]
    run.e2e = {"primary_s": result["tick_mean_s"],
               "secondary_s": result["tick_p90_s"],
               "peak_mb": result["peak_mb"],
               "setup_s": _median(setups)}
    run.lines += [
        f"ticks {result['ticks']}, sessions {result['sessions']}",
        f"tick_mean_us {result['tick_mean_s'] * 1e6:.2f} us",
        f"tick_p90_us {result['tick_p90_s'] * 1e6:.2f} us",
        f"rotation_tick_us {result['rotation_tick_s'] * 1e6:.2f} us",
        f"agent_peak_mb {result['peak_mb']:.1f} MB",
        f"agent_setup_s {_median(setups):.4f} s of {_fmt(setups)}"]
    if a.trace:
        s = result["trace"]

        def mean_us(name: str) -> float:
            calls = _stat(s, name, 0)
            return _stat(s, name, 1) / calls / 1e3 if calls else 0.0
        run.layers.update({
            "logfile.record_us": mean_us("logfile.record"),
            "logfile.records_written": _stat(s, "logfile.record", 0),
            "signals.poll_us": mean_us("signals.poll"),
            "signals.markers_parsed": _stat(s, "signals.parse_marker", 0),
            "backends.read_us.powercap": mean_us("backends.read.powercap"),
            "backends.read_us.mock": mean_us("backends.read.mock"),
            "agent.ticks": _stat(s, "agent.tick", 0),
            "agent.sessions_opened": _stat(s, "agent.session_open", 0),
            "agent.session_open_us": mean_us("agent.session_open"),
            "tracing.overhead_s": (result["traced_tick_s"]
                                   - result["untraced_tick_s"]),
        })


# ------------------------------------------------------------ wrapped-run

def wrapped_run(run: Run) -> None:
    """Repeated ``wattflow run`` with two local mock agents; see worker.py."""
    a = run.args
    setups = process_setups(run, "wrapped")
    result = run_worker({"kind": "wrapped", "seconds": a.seconds,
                         "seed": a.seed, "trace": bool(a.trace),
                         "work_dir": run.work,
                         "spans_path": run.spans_path("wrapped")})
    leads, tails, traced = [], [], []
    for rep in result["reps"]:
        if run.op(rep["violations"]):
            if rep["traced"]:
                traced.append(rep)
            else:
                leads.append(rep["lead_s"])
                tails.append(rep["tail_s"])
    run.e2e = {"primary_s": _median(leads), "secondary_s": _median(tails),
               "peak_mb": result["peak_mb"],
               "setup_s": _median(setups)}
    run.lines += [f"reps {len(result['reps'])}",
                  f"run_setup_s {_median(setups):.4f} s of {_fmt(setups)}",
                  f"wrap_lead_s {_median(leads):.4f} s of {_fmt(leads)}",
                  f"wrap_tail_s {_median(tails):.4f} s of {_fmt(tails)}",
                  f"orchestrator_peak_mb {result['peak_mb']:.1f} MB"]
    if a.trace:
        s = result["trace"]
        n = max(len(traced), 1)

        def phase(fn) -> float:
            """Median over traced reps of one phase, in seconds.

            edges: last first record, workflow start, workflow exit,
            last trailer; lead and tail bound them from outside.
            """
            return _median([fn(r["edges"], r["lead_s"], r["tail_s"])
                            for r in traced])
        run.layers.update({
            "orchestrate.agent_ready_s": phase(
                lambda e, lead, _t: lead - (e[1] - e[0]) / 1e9),
            "orchestrate.launch_delay_s": phase(
                lambda e, _l, _t: (e[1] - e[0]) / 1e9),
            "orchestrate.stop_to_trailer_s": phase(
                lambda e, _l, _t: (e[3] - e[2]) / 1e9),
            "orchestrate.teardown_s": phase(
                lambda e, _l, tail: tail - (e[3] - e[2]) / 1e9),
            "orchestrate.wrap_parses":
                _stat(s, "orchestrate.parse_log", 0) / n,
            "logfile.parse_s": _stat(s, "orchestrate.parse_log", 1) / 1e9 / n,
            "logfile.lines_parsed":
                _count(s, "orchestrate.parse_log.lines") / n,
            "counter.integrate_calls": _stat(s, "counter.integrate", 0) / n,
            "counter.integrate_s": _stat(s, "counter.integrate", 2) / 1e9 / n,
            "accounting.window_energy_s":
                _stat(s, "accounting.window_energy", 2) / 1e9 / n,
            "tracing.overhead_s": _median([r["lead_s"] for r in traced])
            - _median(leads),
        })
        lines = run.layers["logfile.lines_parsed"]
        run.layers["logfile.parse_us_per_line"] = \
            run.layers["logfile.parse_s"] / lines * 1e6 if lines else 0.0

WORKLOADS = {
    "long-session": report_side,
    "dense-attribution": report_side,
    "agent-ticks": agent_ticks,
    "wrapped-run": wrapped_run,
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(args: argparse.Namespace) -> dict:
    """Run one workload, print its summary, return its result object."""
    work_root = os.path.join(ROOT, ".perfbench_work")
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(work_root, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    run = Run(args, work, out)
    try:
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        metrics = {name: {"value": run.layers.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": run.e2e[name], "unit": unit}
                   for name, unit in E2E.items()}
    for line in run.lines:
        print(f"{args.workload}: {line}")
    for violation in run.violations:
        print(f"{args.workload}: FAILED {violation}")
    return {"correct": run.failed == 0 and not run.violations,
            "attempted": max(run.attempted, 1),
            "failed": run.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into an exit, so the running worker is killed and the
    # work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "wattflow", "cli.py")):
        print(f"perfbench: no wattflow sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args)))
        return 0
    # All workloads in turn: one result object, metrics named
    # <workload>.<metric>.
    results = {name: run_workload(argparse.Namespace(**{
        **vars(args), "workload": name})) for name in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
