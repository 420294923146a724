"""Byte identity of the CLI's artifacts on the bundled scenarios.

Every artifact ``wattflow simulate`` writes for each bundled scenario, and
``wattflow report`` over the simulated logs for each policy (and for
``cputime``/``walltime`` with an idle baseline), must hash to the recorded
SHA-256.  A refactor that changes any byte of a log, trace, report or
coverage table fails here; a deliberate format change updates the digest
in the same change and says why.  The same digests hold on every other
CPython >= 3.10 found on the machine, run without pytest.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wattflow.cli import main
from wattflow.trace import (
    TaskRecord,
    TaskStatus,
    WorkflowTrace,
    parse_generic_trace,
    write_generic_trace,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

SIMULATE_DIGESTS = {
    "quantms_like": {
        "coverage_quantms_like.json":
            "804aa57b2a5dbed2a18d7c221eb6096d019fa2261426487edc8aea1eb650fb77",
        "coverage_quantms_like.txt":
            "2171221517790f96d9bfe41d6b43d446a669e393e662a3837619a50abf168cbe",
        "rapl_n1_quantms_like.csv":
            "74d28192671e6ab8d83c6a2cb724dc4926f9dfa5d7835a555059118d3fc92c9f",
        "report_quantms_like_interval-scrape.json":
            "779e3e756d545dffcf6a869bcae408d854c99c4c70887fd18b0764d8f99f099e",
        "report_quantms_like_shell-wrap.json":
            "f1448be4d1b30c9a0a7f446e78fa9d25384c48d87f44fde69703d463fa49f0fe",
        "report_quantms_like_signal-plugin.json":
            "0e8d01c694b272640c41e33eedaa5bf785d7001c5d3e084d30484d4892a08696",
        "report_quantms_like_signal-workflow.json":
            "6b16fb3e91bfde1f9c0cb19725196874eba622c50b3c4f9dfe05b054cc06e5d8",
        "trace_quantms_like.json":
            "d46f73a933943e688d14229d60fd18f0c44580491ae8aa129316cffefd78d239",
    },
    "rnaseq_like": {
        "coverage_rnaseq_like.json":
            "f7da0d2cdae07eb0f8c5e636d245e3ed3842753272b7bc22136620d20d9dfca8",
        "coverage_rnaseq_like.txt":
            "ce316987081805eb62cfd26ced4714fadf243e0b8c9d22552f47451f6ec658ce",
        "rapl_n1_rnaseq_like.csv":
            "3e954cd858b0b17ca470db18cb15f6a24cf23e972c7d42790d5a32d02d06383d",
        "report_rnaseq_like_interval-scrape.json":
            "07fecd240a9815a1993e87f0c32c79bf610d4577aae1b6d9ecb1fb10c7c858e7",
        "report_rnaseq_like_shell-wrap.json":
            "81ab611c3eea6a7688a923f095a2dea8d4cd10bfa9a30ed8f553eb359ebadd8e",
        "report_rnaseq_like_signal-plugin.json":
            "7bfc2623d4d2439879234b66d745f05a5184ec467993bff7c072a54cdf73352f",
        "report_rnaseq_like_signal-workflow.json":
            "2be63c281bf48c2bb83b85f613a2f7a24c06ab97b31828d156311afe6d8db767",
        "trace_rnaseq_like.json":
            "ecf4db7544f68ae3b66d70aa32f0437804c5c77a17ff145ee87dd4ee40a551de",
    },
}

# Each bundled scenario runs one task at a time, so the three policies
# split every segment alike and agree byte for byte.
REPORT_DIGESTS = {
    "quantms_like": {
        "":
            "d975e4aab90daaac6004f7ad39b917dfcaeff3ba649cf7c370beaaf360b67ae1",
        "5":
            "06c6bfab22e888ac1b780a44747ef2bc446b26bc9a1ec67ee4635e43a594a572",
    },
    "rnaseq_like": {
        "":
            "fade8d6be293cd2d953e5c0f29dcf486557efc99add53ca9c3b686263958f726",
        "5":
            "d500b13c64e235ce426becebfb6a4a8e3da7c628dc0d1e39ce1ddad3efa3f10d",
    },
}

REPORT_RUNS = [("cputime", ""), ("walltime", ""), ("exclusive", ""),
               ("cputime", "5"), ("walltime", "5")]


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digests_in(folder) -> dict[str, str]:
    return {name: sha256(os.path.join(folder, name))
            for name in sorted(os.listdir(folder))}


def simulate(tmp_path, scenario_id: str) -> str:
    out = str(tmp_path / scenario_id)
    assert main(["simulate", "--scenario",
                 str(SCENARIOS / f"{scenario_id}.json"), "--out", out]) == 0
    return out


def report_digests(run, logs: str, trace: str, tmp_path) -> dict:
    """The digest of each of ``REPORT_RUNS``' reports over ``logs`` and
    ``trace``, each written by ``run(argv)``, which returns the exit code.
    """
    digests = {}
    for policy, idle in REPORT_RUNS:
        target = str(tmp_path / f"report_{policy}_{idle}.json")
        argv = ["report", "--logs", logs, "--trace", trace,
                "--policy", policy, "--out", target]
        if idle:
            argv += ["--idle-baseline-watts", idle]
        assert run(argv) == 0, (policy, idle)
        digests[policy, idle] = sha256(target)
    return digests


@pytest.mark.parametrize("scenario_id", sorted(SIMULATE_DIGESTS))
def test_simulate_artifacts_are_byte_identical(tmp_path, scenario_id):
    out = simulate(tmp_path, scenario_id)
    assert digests_in(out) == SIMULATE_DIGESTS[scenario_id]


@pytest.mark.parametrize("scenario_id", sorted(REPORT_DIGESTS))
def test_reports_over_simulated_logs_are_byte_identical(tmp_path,
                                                        scenario_id):
    out = simulate(tmp_path, scenario_id)
    trace = os.path.join(out, f"trace_{scenario_id}.json")
    assert report_digests(main, out, trace, tmp_path) == {
        (policy, idle): REPORT_DIGESTS[scenario_id][idle]
        for policy, idle in REPORT_RUNS}


# The bundled scenarios never share a segment, so a second pin runs the
# five reports over ``rnaseq_like``'s logs (which wrap about every 28 s)
# with an overlapping trace: 64 tasks in 16 lanes, so at most 16 run at
# once.  It holds zero-CPU tasks (equal split), a sub-resolution task,
# one task clipped at each edge of the workflow window and a cached one.
# Edges fall both on sample times and between them.
CONCURRENT_DIGESTS = {
    ("cputime", ""):
        "850cf4a11c727f0e7af678e2b3a31fa52dc9f755fea3a1b70972809a189c3021",
    ("walltime", ""):
        "232325ba4182bc5beee1c0a9b99be6bff5dc366a643d3b66637da4db7f61a1c1",
    ("exclusive", ""):
        "b75aa8966d27e498025ed288c245f487007464c9121a6e0d6db7e98e52f771d5",
    ("cputime", "5"):
        "a35a786bbb3af8d697cfe277ff577d9cc79919cd93cb262e6ab79f08fbae9a6e",
    ("walltime", "5"):
        "f7d3a86c620e8ac16993726a2b4249373cf62ad3f2ca8aabc75631d6f3bf7688",
}

SAMPLE_NS = 500_000_000


def concurrent_trace(simulated: WorkflowTrace) -> WorkflowTrace:
    rng = random.Random(13)
    lo, hi = simulated.submitted_wall_ns, simulated.finished_wall_ns
    tasks = []

    def add(start, end, cpu_time_s, status=TaskStatus.COMPLETED):
        tasks.append(TaskRecord(
            task_id=f"c{len(tasks):02d}", name="overlap", node_id="n1",
            start_wall_ns=start, end_wall_ns=end, cpu_time_s=cpu_time_s,
            status=status))

    lane_s = (hi - lo) // 4
    for lane in range(16):
        for k in range(4):
            start = lo + k * lane_s + rng.randrange(lane_s // 3)
            end = start + rng.randrange(lane_s // 3, lane_s * 2 // 3)
            if rng.random() < 0.5:  # both edges on sample times
                start -= start % SAMPLE_NS
                end -= end % SAMPLE_NS
            cpu = 0.0 if rng.random() < 0.15 else \
                round(rng.uniform(0.1, 4.0) * (end - start) / 1e9, 3)
            slot = lane * 4 + k
            if slot == 0:
                start = lo - 7 * SAMPLE_NS  # clipped at the window start
            elif slot == 63:
                end = hi + 3 * SAMPLE_NS + 1234  # clipped at the end
            elif slot == 17:
                end = start  # sub-resolution
            add(start, end, cpu,
                TaskStatus.CACHED if slot == 42 else TaskStatus.COMPLETED)
    return WorkflowTrace(workflow_id="rnaseq-overlap",
                         submitted_wall_ns=lo, finished_wall_ns=hi,
                         tasks=tuple(tasks))


def test_concurrent_split_reports_are_byte_identical(tmp_path):
    out = simulate(tmp_path, "rnaseq_like")
    trace_path = os.path.join(out, "trace_rnaseq_like.json")
    trace = concurrent_trace(parse_generic_trace(trace_path))
    overlap = str(tmp_path / "overlap.json")
    write_generic_trace(trace, overlap)
    os.remove(trace_path)
    assert report_digests(main, out, overlap, tmp_path) == \
        CONCURRENT_DIGESTS


def other_interpreters() -> list[str]:
    """Every other CPython >= 3.10 here that starts, one per build.

    Candidates are each ``python3.N`` in every ``PATH`` folder and each
    ``$(pyenv root)/versions/3.*/bin/python``; a candidate that fails to
    start (such as a pyenv shim for a version not installed) is skipped,
    and so is one with this interpreter's ``sys.version``.
    """
    candidates = []
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        if os.path.isdir(folder):
            candidates += [os.path.join(folder, name)
                           for name in sorted(os.listdir(folder))
                           if re.fullmatch(r"python3\.\d+", name)]
    try:
        pyenv_root = subprocess.run(["pyenv", "root"], capture_output=True,
                                    text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pyenv_root = ""
    if pyenv_root and os.path.isdir(os.path.join(pyenv_root, "versions")):
        versions = os.path.join(pyenv_root, "versions")
        candidates += [os.path.join(versions, name, "bin", "python")
                       for name in sorted(os.listdir(versions))
                       if name.startswith("3.")]
    seen, found = {sys.version}, []
    for exe in candidates:
        try:
            probe = subprocess.run(
                [exe, "-c", "import sys; print(sys.version_info >= (3, 10), "
                 "sys.version, sep='\\n')"],
                capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            continue
        new, _, version = probe.stdout.rstrip("\n").partition("\n")
        if probe.returncode == 0 and new == "True" \
                and version not in seen:
            seen.add(version)
            found.append(exe)
    return found


def test_digests_hold_on_other_interpreters(tmp_path):
    # Float sums must not depend on the Python version (3.12 made sum()
    # compensated), so each other interpreter runs the CLI itself and
    # must write the pinned bytes.
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython >= 3.10 found")
    trace = concurrent_trace(parse_generic_trace(os.path.join(
        simulate(tmp_path, "rnaseq_like"), "trace_rnaseq_like.json")))
    overlap = str(tmp_path / "overlap.json")
    write_generic_trace(trace, overlap)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for n, exe in enumerate(interpreters):
        def cli(argv):
            done = subprocess.run([exe, "-m", "wattflow.cli", *argv],
                                  env=env, capture_output=True, text=True,
                                  timeout=300)
            assert done.returncode == 0, (exe, argv, done.stderr)
            return done.returncode

        work = tmp_path / f"py{n}"
        for scenario_id in sorted(SIMULATE_DIGESTS):
            out = str(work / scenario_id)
            cli(["simulate", "--scenario",
                 str(SCENARIOS / f"{scenario_id}.json"), "--out", out])
            assert digests_in(out) == SIMULATE_DIGESTS[scenario_id], exe
        assert report_digests(cli, str(work / "rnaseq_like"), overlap,
                              work) == CONCURRENT_DIGESTS, exe
