"""Seeded input generator for the report-side workloads.

A generated run is two nodes whose power is idle draw plus constant task
loads.  Counter samples come from one sweep over the load boundaries in
exact integer nanojoules, are reduced by the 32-bit wrap modulus, and are
written through ``LogWriter``; the trace is written with
``write_generic_trace``.  wattflow sees only the files.  The model that
produced them stays here and feeds the correctness gate through
``simulate.analytic_energy``.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass

from wattflow.counter import CounterSpec, RaplDomain
from wattflow.logfile import LogStatus, LogWriter, log_filename
from wattflow.simulate import PowerProfile, TaskLoad, analytic_energy
from wattflow.trace import (
    TaskRecord,
    TaskStatus,
    WorkflowTrace,
    write_generic_trace,
)

WALL_ORIGIN_NS = 1_700_000_000_000_000_000
SESSION_ID = "bench"
BIT_WIDTH = 32
UNIT_J = 1e-6
NJ_PER_COUNT = 1000
NODES = ("n1", "n2")
INTERVAL_MS = 500
LEAD_TICKS = 2          # log ticks before and after the workflow window


@dataclass(frozen=True)
class Shape:
    """Size and load mix of one generated run."""

    hours: float
    domains: tuple[RaplDomain, ...]
    slots: int                    # tasks that may run at once on a node
    task_s: tuple[float, float]   # task duration range
    pause_s: tuple[float, float]  # idle time between tasks in one slot
    idle_w: dict                  # domain -> (low, high) integer watts
    task_w: dict                  # domain -> (low, high) integer watts
    gap_markers: int = 0          # failed reads per node log


SHAPES = {
    # Day-long logs: package wraps about every 40 s, dram every few
    # minutes; about 100 tasks per node, at most 4 at once.
    "long-session": Shape(
        hours=24.0, domains=(RaplDomain.PACKAGE, RaplDomain.DRAM),
        slots=4, task_s=(1800.0, 4800.0), pause_s=(0.0, 600.0),
        idle_w={RaplDomain.PACKAGE: (45, 65), RaplDomain.DRAM: (8, 14)},
        task_w={RaplDomain.PACKAGE: (10, 30), RaplDomain.DRAM: (1, 4)}),
    # Two hours, package only: 4000 tasks per node, 16 at once, and a few
    # gap markers from failed reads.
    "dense-attribution": Shape(
        hours=2.0, domains=(RaplDomain.PACKAGE,),
        slots=16, task_s=(10.0, 47.0), pause_s=(0.0, 0.6),
        idle_w={RaplDomain.PACKAGE: (45, 65)},
        task_w={RaplDomain.PACKAGE: (4, 12)},
        gap_markers=4),
}


@dataclass(frozen=True)
class Generated:
    """Paths of the generated inputs plus the model behind them."""

    log_dir: str
    trace_path: str
    session_id: str
    window_s: tuple[float, float]     # workflow window, log-relative
    span_s: tuple[float, float]       # sampled span, log-relative
    profiles: dict                    # node -> domain -> PowerProfile
    tasks: int
    records: int

    def truth(self, window_s: tuple[float, float]) -> dict:
        """Analytic joules per node and domain over a log-relative window."""
        return {node: {domain.value: analytic_energy(profile, window_s)
                       for domain, profile in by_domain.items()}
                for node, by_domain in self.profiles.items()}


def _ms_to_ns(ms: int) -> int:
    return ms * 1_000_000


def _node_tasks(rng: random.Random, shape: Shape, node: str,
                window_ms: tuple[int, int]) -> list[dict]:
    """Tasks of one node: each slot runs tasks back to back with pauses."""
    tasks = []
    lo_ms, hi_ms = window_ms
    for _ in range(shape.slots):
        t = lo_ms + round(rng.uniform(*shape.pause_s) * 1000)
        while True:
            dur = round(rng.uniform(*shape.task_s) * 1000)
            if t + dur > hi_ms:
                break
            watts = {d: rng.randint(*shape.task_w[d]) for d in shape.domains}
            rate = round(rng.uniform(0.5, 4.0), 3)
            tasks.append({"start_ms": t, "end_ms": t + dur, "watts": watts,
                          "cpu_time_s": round(rate * dur / 1000, 3)})
            t += dur + round(rng.uniform(*shape.pause_s) * 1000)
    tasks.sort(key=lambda task: (task["start_ms"], task["end_ms"]))
    for i, task in enumerate(tasks):
        task["task_id"] = f"{node}-t{i:05d}"
    return tasks


def _raw_counts(idle_w: int, loads: list[tuple[int, int, int]],
                ticks_ns: range, modulus: int) -> list[int]:
    """Counter readings at every tick, from one sweep over load edges.

    ``loads`` holds (start_ns, end_ns, watts); a load draws on
    [start, end).  Energy accumulates in integer nanojoules, so every
    reading is exact.
    """
    edges: dict[int, int] = {}
    for start, end, watts in loads:
        edges[start] = edges.get(start, 0) + watts
        edges[end] = edges.get(end, 0) - watts
    events = sorted(edges.items())
    power, last, cum_nj, e = idle_w, ticks_ns[0], 0, 0
    raws = []
    for tick in ticks_ns:
        while e < len(events) and events[e][0] <= tick:
            at, delta = events[e]
            cum_nj += power * (at - last)
            last, power = at, power + delta
            e += 1
        cum_nj += power * (tick - last)
        last = tick
        raws.append((cum_nj // NJ_PER_COUNT) % modulus)
    return raws


def generate(workload: str, seed: int, out_dir: str,
             shape: Shape | None = None) -> Generated:
    """Write one run's session logs and trace into ``out_dir``.

    The same workload and seed give byte-identical files.  ``shape``
    defaults to the workload's own; tests pass a smaller one.
    """
    shape = shape or SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    interval_ns = _ms_to_ns(INTERVAL_MS)
    n_ticks = round(shape.hours * 3600 * 1000 / INTERVAL_MS)
    ticks_ns = range(0, (n_ticks + 1) * interval_ns, interval_ns)
    lead_ms = LEAD_TICKS * INTERVAL_MS
    window_ms = (lead_ms, n_ticks * INTERVAL_MS - lead_ms)
    specs = {d: CounterSpec(domain=d, bit_width=BIT_WIDTH,
                            energy_unit_joules=UNIT_J)
             for d in shape.domains}
    log_dir = os.path.join(out_dir, "logs")
    os.makedirs(log_dir, exist_ok=True)

    records = 0
    profiles: dict = {}
    trace_tasks: list[TaskRecord] = []
    for node in NODES:
        idle = {d: rng.randint(*shape.idle_w[d]) for d in shape.domains}
        tasks = _node_tasks(rng, shape, node, window_ms)
        gap_ticks = set(rng.sample(range(LEAD_TICKS + 2,
                                         n_ticks - LEAD_TICKS - 2),
                                   shape.gap_markers))
        profiles[node] = {
            d: PowerProfile(node_id=node, idle_watts=float(idle[d]),
                            task_loads=tuple(
                                TaskLoad(t["task_id"], t["start_ms"] / 1000,
                                         t["end_ms"] / 1000,
                                         float(t["watts"][d]))
                                for t in tasks))
            for d in shape.domains}
        raws = {d: _raw_counts(idle[d],
                               [(_ms_to_ns(t["start_ms"]),
                                 _ms_to_ns(t["end_ms"]), t["watts"][d])
                                for t in tasks],
                               ticks_ns, specs[d].modulus)
                for d in shape.domains}
        path = os.path.join(log_dir, log_filename(node, SESSION_ID))
        writer = LogWriter(path, node, specs, epoch_wall_ns=WALL_ORIGIN_NS)
        for k, t_ns in enumerate(ticks_ns):
            for d in shape.domains:
                if k in gap_ticks:
                    writer.gap(t_ns, d)
                else:
                    writer.record(t_ns, d, raws[d][k])
                    records += 1
        writer.close(LogStatus.CLOSED)
        for t in tasks:
            trace_tasks.append(TaskRecord(
                task_id=t["task_id"], name=f"proc_{t['task_id'][-1]}",
                node_id=node,
                start_wall_ns=WALL_ORIGIN_NS + _ms_to_ns(t["start_ms"]),
                end_wall_ns=WALL_ORIGIN_NS + _ms_to_ns(t["end_ms"]),
                cpu_time_s=t["cpu_time_s"], status=TaskStatus.COMPLETED))

    trace = WorkflowTrace(
        workflow_id=f"{workload}-{seed}",
        submitted_wall_ns=WALL_ORIGIN_NS + _ms_to_ns(window_ms[0]),
        finished_wall_ns=WALL_ORIGIN_NS + _ms_to_ns(window_ms[1]),
        tasks=tuple(trace_tasks))
    trace_path = os.path.join(out_dir, "trace.json")
    write_generic_trace(trace, trace_path)
    return Generated(
        log_dir=log_dir, trace_path=trace_path, session_id=SESSION_ID,
        window_s=(window_ms[0] / 1000, window_ms[1] / 1000),
        span_s=(0.0, n_ticks * INTERVAL_MS / 1000),
        profiles=profiles, tasks=len(trace_tasks), records=records)


def digest_tree(root: str) -> str:
    """sha256 over every file under ``root``, by relative path."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()
