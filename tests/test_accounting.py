"""Accounting tests: windows, attribution, estimators, coverage, reports."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wattflow.accounting import (
    FLAG_CLIPPED_WINDOW,
    FLAG_MISSING_LOG,
    FLAG_UNSAFE_GAP,
    NOTE_EQUAL_SPLIT,
    NOTE_IDLE_CLAMPED,
    NOTE_SHARED_WINDOW,
    AttributionPolicy,
    AttributionResult,
    EnergyReport,
    MeasurementMethod,
    NodeEnergyLog,
    PolicyKind,
    TaskEnergy,
    assemble_report,
    attribute_concurrent,
    countable_domains,
    countable_total,
    interval_estimate,
    log_flags,
    node_energies,
    node_window_energy,
    report_from_obj,
    report_to_json,
)
from wattflow.counter import CounterSpec, RaplDomain, RawSample, build_series
from wattflow.errors import (
    DegenerateSeriesError,
    InvalidArgumentError,
    SchemaViolationError,
    WattflowError,
    json_text,
)
from wattflow.logfile import LogStatus
from wattflow.trace import (
    FLAG_SUB_RESOLUTION,
    FLAG_UNKNOWN_NODE,
    TaskRecord,
    TaskStatus,
    WorkflowTrace,
)

PKG = RaplDomain.PACKAGE
DRAM = RaplDomain.DRAM
S = 1_000_000_000
EPOCH = 1_700_000_000 * S


def constant_power_series(node, watts, duration_s, domain=PKG,
                          interval_ms=500, epoch=EPOCH):
    """Counter under constant load, integer-exact counts at 1e-6 J/count."""
    spec = CounterSpec(domain=domain, bit_width=64, energy_unit_joules=1e-6)
    per_tick = watts * interval_ms * 1000
    ticks = int(duration_s * 1000 / interval_ms)
    samples = [RawSample(k * interval_ms * 1_000_000, k * per_tick)
               for k in range(ticks + 1)]
    return build_series(node, spec, samples, epoch_wall_ns=epoch)


def constant_log(node="n1", watts=100, duration_s=60, domains=(PKG,)):
    return NodeEnergyLog(node_id=node, series={
        d: constant_power_series(node, watts, duration_s, domain=d)
        for d in domains})


def task(task_id, start_s, end_s, cpu_time_s=None, node="n1"):
    return TaskRecord(
        task_id=task_id, name=task_id, node_id=node,
        start_wall_ns=EPOCH + int(start_s * S),
        end_wall_ns=EPOCH + int(end_s * S),
        cpu_time_s=cpu_time_s if cpu_time_s is not None
        else max(end_s - start_s, 0.0),
        status=TaskStatus.COMPLETED)


class TestNodeWindowEnergy:
    def test_constant_100w_60s(self):
        log = constant_log()
        out = node_window_energy(log, EPOCH, EPOCH + 60 * S)
        assert out == {PKG: pytest.approx(6000.0, rel=1e-12)}

    def test_empty_window_is_zero(self):
        log = constant_log()
        assert node_window_energy(log, EPOCH + S, EPOCH + S) == {PKG: 0.0}

    def test_domains_integrate_independently(self):
        log = NodeEnergyLog(node_id="n1", series={
            PKG: constant_power_series("n1", 100, 60),
            DRAM: constant_power_series("n1", 10, 60, domain=DRAM)})
        out = node_window_energy(log, EPOCH, EPOCH + 60 * S)
        assert out[PKG] == pytest.approx(6000.0)
        assert out[DRAM] == pytest.approx(600.0)

    def test_node_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            NodeEnergyLog(node_id="n2", series={
                PKG: constant_power_series("n1", 100, 10)})

    def test_domains_kept_and_integrated_in_name_order(self):
        psys = RaplDomain.PSYS
        given_order = (PKG, psys, DRAM)
        log = NodeEnergyLog(node_id="n1", series={
            d: constant_power_series("n1", 10, 10, domain=d)
            for d in given_order})
        assert list(log.series) == [DRAM, PKG, psys]
        out = node_window_energy(log, EPOCH, EPOCH + 10 * S)
        assert list(out) == [DRAM, PKG, psys]


EXCLUSIVE = AttributionPolicy(kind=PolicyKind.EXCLUSIVE_ONLY)


class TestExclusiveTaskEnergy:
    """EXCLUSIVE_ONLY attribution: a task alone gets its whole window."""

    def test_single_task_on_quiet_node(self):
        log = constant_log(watts=150, duration_s=120)
        result = attribute_concurrent([task("t1", 10, 110)], log, EXCLUSIVE)
        te, = result.task_energies
        assert te.joules_by_domain[PKG] == pytest.approx(15000.0, rel=1e-12)
        assert te.notes == frozenset()

    def test_sub_resolution_assumed_half_second(self):
        log = constant_log(watts=150, duration_s=120)
        result = attribute_concurrent(
            [task("t1", 60, 60, cpu_time_s=0.1)], log, EXCLUSIVE)
        te, = result.task_energies
        assert te.joules_by_domain[PKG] == pytest.approx(75.0, rel=1e-9)
        assert te.estimated is True
        assert FLAG_SUB_RESOLUTION in te.notes

    def test_task_window_equal_to_session_window(self):
        log = constant_log(watts=100, duration_s=60)
        result = attribute_concurrent([task("t1", 0, 60)], log, EXCLUSIVE)
        total = node_window_energy(log, EPOCH, EPOCH + 60 * S)
        assert result.task_energies[0].joules_by_domain == total
        assert result.unattributed_by_domain == {PKG: 0.0}

    def test_overlap_detected(self):
        log = constant_log(duration_s=120)
        result = attribute_concurrent(
            [task("t1", 10, 50), task("t2", 40, 80)], log, EXCLUSIVE)
        by_id = {te.task_id: te for te in result.task_energies}
        # The shared 10 s stay unattributed and both tasks say so.
        assert by_id["t1"].joules_by_domain[PKG] == pytest.approx(3000.0)
        assert by_id["t2"].joules_by_domain[PKG] == pytest.approx(3000.0)
        assert NOTE_SHARED_WINDOW in by_id["t1"].notes
        assert NOTE_SHARED_WINDOW in by_id["t2"].notes
        assert result.unattributed_joules == pytest.approx(
            12000.0 - 6000.0)
        # touching windows do not overlap
        result = attribute_concurrent(
            [task("t1", 10, 50), task("t2", 50, 80)], log, EXCLUSIVE)
        by_id = {te.task_id: te for te in result.task_energies}
        assert by_id["t1"].joules_by_domain[PKG] == pytest.approx(4000.0)
        assert by_id["t2"].joules_by_domain[PKG] == pytest.approx(3000.0)
        assert all(NOTE_SHARED_WINDOW not in te.notes
                   for te in result.task_energies)


def cpu_policy(**kw):
    return AttributionPolicy(kind=PolicyKind.CPU_TIME_SHARE, **kw)


class TestAttributeConcurrent:
    def test_proportional_split_by_cpu_rate(self):
        # One 10 s segment of 100 J total; rates 3.0 and 1.0 -> 75 / 25.
        log = constant_log(watts=10, duration_s=10)
        tasks = [task("a", 0, 10, cpu_time_s=30.0),
                 task("b", 0, 10, cpu_time_s=10.0)]
        result = attribute_concurrent(tasks, log, cpu_policy())
        by_id = {te.task_id: te for te in result.task_energies}
        assert by_id["a"].joules_by_domain[PKG] == pytest.approx(75.0)
        assert by_id["b"].joules_by_domain[PKG] == pytest.approx(25.0)
        assert NOTE_SHARED_WINDOW in by_id["a"].notes
        assert by_id["a"].estimated

    def test_overflowed_weight_raises(self):
        # A CPU rate past the float range makes the weights inf and the
        # shares NaN; the task's entry refuses them instead of reporting
        # NaN.
        log = constant_log(watts=50, duration_s=30)
        tasks = [task("a", 5, 25, cpu_time_s=3.0),
                 task("b", 10, 10.5, cpu_time_s=1e308)]
        with pytest.raises(InvalidArgumentError,
                           match="task b: package energy must be >= 0, "
                                 "got nan"):
            attribute_concurrent(tasks, log, cpu_policy())

    def test_solo_task_gets_full_segment_every_policy(self):
        log = constant_log(watts=50, duration_s=30)
        tasks = [task("a", 5, 25, cpu_time_s=3.0)]
        for kind in PolicyKind:
            result = attribute_concurrent(
                tasks, log, AttributionPolicy(kind=kind))
            te = result.task_energies[0]
            assert te.joules_by_domain[PKG] == pytest.approx(1000.0)
            assert NOTE_SHARED_WINDOW not in te.notes

    def test_conservation_staggered_random(self):
        rng = random.Random(42)
        spec = CounterSpec(domain=PKG, bit_width=64, energy_unit_joules=1e-6)
        t, raw, samples = 0, 0, []
        for _ in range(240):
            samples.append(RawSample(t, raw))
            t += 250_000_000
            raw += rng.randrange(0, 60_000_000)
        log = NodeEnergyLog(node_id="n1", series={
            PKG: build_series("n1", spec, samples, epoch_wall_ns=EPOCH)})
        tasks = [task("a", 3, 31, cpu_time_s=rng.uniform(0, 90)),
                 task("b", 10, 45, cpu_time_s=rng.uniform(0, 90)),
                 task("c", 20, 58, cpu_time_s=rng.uniform(0, 90))]
        for kind in (PolicyKind.CPU_TIME_SHARE, PolicyKind.WALL_TIME_SHARE):
            result = attribute_concurrent(
                tasks, log, AttributionPolicy(kind=kind))
            attributed = sum(te.joules_by_domain[PKG]
                             for te in result.task_energies)
            window_total = node_window_energy(
                log, *log.wall_span())[PKG]
            assert attributed + result.unattributed_by_domain[PKG] \
                == pytest.approx(window_total, rel=1e-9)

    def test_zero_weight_segment_splits_equally(self):
        log = constant_log(watts=10, duration_s=10)
        tasks = [task("a", 0, 10, cpu_time_s=0.0),
                 task("b", 0, 10, cpu_time_s=0.0)]
        result = attribute_concurrent(tasks, log, cpu_policy())
        for te in result.task_energies:
            assert te.joules_by_domain[PKG] == pytest.approx(50.0)
            assert NOTE_EQUAL_SPLIT in te.notes

    def test_idle_baseline_subtracted_from_package(self):
        # 100 W node, 40 W baseline: a solo 10 s task gets 600 J, the 400 J
        # baseline stays unattributed.
        log = constant_log(watts=100, duration_s=10)
        result = attribute_concurrent(
            [task("a", 0, 10, cpu_time_s=5.0)], log,
            cpu_policy(idle_baseline_watts=40.0))
        te = result.task_energies[0]
        assert te.joules_by_domain[PKG] == pytest.approx(600.0)
        assert result.unattributed_by_domain[PKG] == pytest.approx(400.0)

    def test_idle_baseline_clamps_at_zero(self):
        log = constant_log(watts=10, duration_s=10)
        result = attribute_concurrent(
            [task("a", 0, 10, cpu_time_s=5.0)], log,
            cpu_policy(idle_baseline_watts=50.0))
        te = result.task_energies[0]
        assert te.joules_by_domain[PKG] == 0.0
        assert NOTE_IDLE_CLAMPED in te.notes
        assert result.unattributed_by_domain[PKG] == pytest.approx(100.0)

    def test_exclusive_only_drops_shared_segments(self):
        # a alone in [0,10), shared in [10,20), b alone in [20,30).
        log = constant_log(watts=10, duration_s=30)
        tasks = [task("a", 0, 20, cpu_time_s=10.0),
                 task("b", 10, 30, cpu_time_s=10.0)]
        result = attribute_concurrent(
            tasks, log, AttributionPolicy(kind=PolicyKind.EXCLUSIVE_ONLY))
        by_id = {te.task_id: te for te in result.task_energies}
        assert by_id["a"].joules_by_domain[PKG] == pytest.approx(100.0)
        assert by_id["b"].joules_by_domain[PKG] == pytest.approx(100.0)
        assert result.unattributed_by_domain[PKG] == pytest.approx(100.0)
        assert NOTE_SHARED_WINDOW in by_id["a"].notes

    def test_baseline_with_exclusive_policy_rejected(self):
        with pytest.raises(InvalidArgumentError):
            AttributionPolicy(kind=PolicyKind.EXCLUSIVE_ONLY,
                              idle_baseline_watts=10.0)

    def test_task_outside_window_clipped_to_nothing(self):
        log = constant_log(watts=10, duration_s=10)
        result = attribute_concurrent(
            [task("a", 2, 8), task("late", 100, 200)], log, cpu_policy())
        by_id = {te.task_id: te for te in result.task_energies}
        assert by_id["late"].joules_by_domain[PKG] == 0.0


def scan_attribution(tasks, log, policy, window=None):
    """Reference attribution: scans every task for each segment.

    This is the O(segments x tasks) form the event sweep replaced, kept
    here so the sweep can be held to it exactly, float for float.  Its
    sums are left folds from 0.0, as the sweep's are, so neither depends
    on the compensated ``sum()`` of Python 3.12 and later.
    """
    if window is None:
        window = log.wall_span()
    win_lo, win_hi = window
    clipped, weights, notes = {}, {}, {}
    for t in tasks:
        lo, hi = t.window()
        lo, hi = max(lo, win_lo), min(hi, win_hi)
        notes[t.task_id] = set(
            {FLAG_SUB_RESOLUTION} if t.sub_resolution else set())
        if lo >= hi:
            clipped[t.task_id] = (win_lo, win_lo)
            weights[t.task_id] = 0.0
            notes[t.task_id].add(FLAG_CLIPPED_WINDOW)
            continue
        if (lo, hi) != t.window():
            notes[t.task_id].add(FLAG_CLIPPED_WINDOW)
        clipped[t.task_id] = (lo, hi)
        if policy.kind is PolicyKind.CPU_TIME_SHARE:
            weights[t.task_id] = t.cpu_time_s / ((hi - lo) / 1e9)
        else:
            weights[t.task_id] = 1.0
    boundaries = sorted({win_lo, win_hi}
                        | {b for w in clipped.values() for b in w
                           if win_lo <= b <= win_hi})
    task_joules = {t.task_id: {} for t in tasks}
    unattributed = {}
    for seg_lo, seg_hi in zip(boundaries, boundaries[1:]):
        seg_energy = node_window_energy(log, seg_lo, seg_hi)
        active = [t for t in tasks
                  if clipped[t.task_id][0] <= seg_lo
                  and clipped[t.task_id][1] >= seg_hi
                  and clipped[t.task_id][0] < clipped[t.task_id][1]]
        shared = len(active) > 1
        if shared:
            for t in active:
                notes[t.task_id].add(NOTE_SHARED_WINDOW)
        if policy.kind is PolicyKind.EXCLUSIVE_ONLY and shared:
            active = []
        dur_s = (seg_hi - seg_lo) / 1e9
        for domain, joules in seg_energy.items():
            shares = []
            if active:
                available = joules
                if (policy.idle_baseline_watts is not None
                        and domain is RaplDomain.PACKAGE):
                    baseline_j = policy.idle_baseline_watts * dur_s
                    if baseline_j > available:
                        for t in active:
                            notes[t.task_id].add(NOTE_IDLE_CLAMPED)
                    available = max(available - baseline_j, 0.0)
                total_weight = 0.0
                for t in active:
                    total_weight += weights[t.task_id]
                if total_weight > 0:
                    shares = [(t.task_id,
                               available * (weights[t.task_id] / total_weight))
                              for t in active]
                else:
                    for t in active:
                        notes[t.task_id].add(NOTE_EQUAL_SPLIT)
                    shares = [(t.task_id, available / len(active))
                              for t in active]
            attributed = 0.0
            for task_id, share in shares:
                dom = task_joules[task_id]
                dom[domain] = dom.get(domain, 0.0) + share
                attributed += share
            leftover = joules - attributed
            unattributed[domain] = unattributed.get(domain, 0.0) + leftover
    energies = []
    for t in tasks:
        if log.has_unsafe_gap(*clipped[t.task_id]) \
                and clipped[t.task_id][0] < clipped[t.task_id][1]:
            notes[t.task_id].add(FLAG_UNSAFE_GAP)
        joules = task_joules[t.task_id]
        for domain in log.series:
            joules.setdefault(domain, 0.0)
        energies.append(TaskEnergy(
            task_id=t.task_id, joules_by_domain=joules, estimated=True,
            notes=frozenset(notes[t.task_id])))
    return AttributionResult(task_energies=tuple(energies),
                             unattributed_by_domain=unattributed)


TICK = 500_000_000


@st.composite
def random_node_logs(draw):
    """One node, package or package+dram, on irregular sample times with
    wrapping 32-bit counters, optional gap markers and wrap horizon."""
    steps = draw(st.lists(st.sampled_from([TICK, TICK, 3 * TICK]),
                          min_size=1, max_size=24))
    times = [0]
    for step in steps:
        times.append(times[-1] + step)
    horizon = draw(st.sampled_from([None, 4 * TICK, TICK]))
    domains = draw(st.sampled_from([(PKG,), (PKG, DRAM)]))
    series = {}
    for domain in domains:
        spec = CounterSpec(domain=domain, bit_width=32,
                           energy_unit_joules=1e-6)
        raw = draw(st.integers(0, 2**32 - 1))
        samples = []
        for t in times:
            samples.append(RawSample(t, raw))
            raw = (raw + draw(st.integers(0, 90_000_000))) % 2**32
        markers = draw(st.lists(st.integers(0, times[-1]), max_size=2,
                                unique=True))
        series[domain] = build_series(
            "n1", spec, samples, epoch_wall_ns=EPOCH,
            gap_markers=sorted(markers), wrap_horizon_ns=horizon)
    return NodeEnergyLog(node_id="n1", series=series)


@st.composite
def attribution_cases(draw):
    log = draw(random_node_logs())
    span = log.wall_span()[1] - EPOCH
    # Instants on a quarter-tick grid make equal and touching boundaries
    # common; arbitrary nanoseconds make them distinct.  Both reach past
    # the sampled span so that tasks get clipped.
    instant = st.one_of(
        st.integers(-4, span * 4 // TICK + 4).map(lambda q: q * TICK // 4),
        st.integers(-TICK, span + TICK))
    cpu = st.one_of(st.just(0.0),
                    st.floats(0.0, 64.0, allow_nan=False))
    raw_tasks = draw(st.lists(
        st.tuples(instant, st.one_of(st.just(0), instant), cpu),
        max_size=14))
    tasks = []
    for i, (start, length, cpu_s) in enumerate(raw_tasks):
        length = max(length, 0)
        tasks.append(TaskRecord(
            task_id=f"t{i}", name="p", node_id="n1",
            start_wall_ns=EPOCH + start,
            end_wall_ns=EPOCH + start + length,
            cpu_time_s=cpu_s, status=TaskStatus.COMPLETED))
    window = None
    if draw(st.booleans()):
        lo, hi = sorted(draw(st.lists(st.integers(0, span), min_size=2,
                                      max_size=2, unique=True)))
        window = (EPOCH + lo, EPOCH + hi)
    kind = draw(st.sampled_from(list(PolicyKind)))
    baseline = None
    if kind is not PolicyKind.EXCLUSIVE_ONLY and draw(st.booleans()):
        baseline = draw(st.floats(0.0, 200.0, allow_nan=False))
    policy = AttributionPolicy(kind=kind, idle_baseline_watts=baseline)
    return tasks, log, policy, window


def scanned_unsafe_spans(log: NodeEnergyLog) -> list[tuple[int, int]]:
    """Every unsafe span of a log in wall time, by a scan of each series:
    each gap marker, and each step longer than half the wrap horizon."""
    spans = []
    for series in log.series.values():
        steps = []
        if series.wrap_horizon_ns is not None:
            times = list(series.times)
            steps = [(a, b) for a, b in zip(times, times[1:])
                     if b - a > series.wrap_horizon_ns // 2]
        spans += [(series.epoch_wall_ns + a, series.epoch_wall_ns + b)
                  for a, b in steps + [(t, t) for t in series.gap_markers]]
    return spans


class TestUnsafeGapsMatchScan:
    @settings(max_examples=300, deadline=None)
    @given(attribution_cases())
    def test_notes_and_flags_equal_a_scan(self, case):
        tasks, log, policy, window = case
        spans = scanned_unsafe_spans(log)
        got = attribute_concurrent(tasks, log, policy, window=window)
        win_lo, win_hi = window or log.wall_span()
        for task, te in zip(tasks, got.task_energies):
            lo = max(task.window()[0], win_lo)
            hi = min(task.window()[1], win_hi)
            want = lo < hi and any(g0 <= hi and g1 >= lo for g0, g1 in spans)
            assert (FLAG_UNSAFE_GAP in te.notes) == want, te.task_id
        flags = node_energies({"n1": log}, window)[2]
        assert (FLAG_UNSAFE_GAP in flags) == bool(spans)


class TestSweepMatchesScan:
    """The event sweep equals the per-segment scan exactly (``==``)."""

    @settings(max_examples=300, deadline=None)
    @given(attribution_cases())
    def test_sweep_equals_scan(self, case):
        tasks, log, policy, window = case
        got = attribute_concurrent(tasks, log, policy, window=window)
        want = scan_attribution(tasks, log, policy, window=window)
        assert [(te.task_id, te.joules_by_domain, te.notes)
                for te in got.task_energies] \
            == [(te.task_id, te.joules_by_domain, te.notes)
                for te in want.task_energies]
        assert got.unattributed_by_domain == want.unattributed_by_domain

    def test_touching_equal_and_nested_windows(self):
        # b starts where a ends, c shares a's start and end, d is inside,
        # e is sub-resolution on a boundary, f lies outside the span.
        log = constant_log(watts=37, duration_s=20, domains=(PKG, DRAM))
        tasks = [task("a", 2, 8, 5.0), task("b", 8, 14, 2.0),
                 task("c", 2, 8, 0.5), task("d", 4, 6, 1.5),
                 task("e", 8, 8, 0.1), task("f", 30, 40, 3.0)]
        for kind in PolicyKind:
            policy = AttributionPolicy(kind=kind)
            got = attribute_concurrent(tasks, log, policy)
            want = scan_attribution(tasks, log, policy)
            assert got == want
            by_id = {te.task_id: te for te in got.task_energies}
            assert FLAG_CLIPPED_WINDOW in by_id["f"].notes
            assert FLAG_SUB_RESOLUTION in by_id["e"].notes

    def test_node_without_tasks_leaves_all_unattributed(self):
        log = constant_log(watts=25, duration_s=10)
        got = attribute_concurrent([], log, cpu_policy())
        assert got.task_energies == ()
        assert got.unattributed_by_domain \
            == scan_attribution([], log, cpu_policy()).unattributed_by_domain


@st.composite
def energies_log(draw, node):
    """One node's log, and the nominal wall span its samples were drawn
    on: plain, short (a domain with one record), multi-domain with
    disjoint spans, gap-marked, or truncated."""
    kind = draw(st.sampled_from(
        ["plain", "short", "disjoint", "gapped", "truncated"]))
    start = draw(st.integers(0, 16)) * TICK
    count = draw(st.integers(2, 16))
    domains = (PKG, DRAM) if kind == "disjoint" \
        else draw(st.sampled_from([(PKG,), (PKG, DRAM)]))
    series = {}
    for n, domain in enumerate(domains):
        first, samples_in = start, count
        if kind == "disjoint" and n == 1:
            first = start + (count + draw(st.integers(0, 4))) * TICK
        if kind == "short" and n == len(domains) - 1:
            samples_in = 1
        times = [first + k * TICK for k in range(samples_in)]
        raw = draw(st.integers(0, 2**32 - 1))
        samples = []
        for t in times:
            samples.append(RawSample(t, raw))
            raw = (raw + draw(st.integers(0, 90_000_000))) % 2**32
        markers = [draw(st.sampled_from(times))] if kind == "gapped" else []
        series[domain] = build_series(
            node, CounterSpec(domain=domain, bit_width=32,
                              energy_unit_joules=1e-6),
            samples, epoch_wall_ns=EPOCH, gap_markers=markers)
    status = LogStatus.TRUNCATED if kind == "truncated" else LogStatus.CLOSED
    log = NodeEnergyLog(node_id=node, series=series, status=status)
    return log, (EPOCH + start, EPOCH + start + (count - 1) * TICK)


@st.composite
def energies_cases(draw):
    """Logs for one to three nodes and a window placed against the first
    node's nominal span: inside it, across its head or tail, outside it,
    of zero length, or None."""
    nodes = [f"n{i}" for i in range(draw(st.integers(1, 3)))]
    drawn = [draw(energies_log(node)) for node in nodes]
    lo, hi = drawn[0][1]
    at = st.integers
    kind = draw(st.sampled_from(
        ["inside", "head", "tail", "outside", "zero", "none"]))
    if kind == "inside":
        a, b = sorted(draw(st.lists(at(lo, hi), min_size=2, max_size=2,
                                    unique=True)))
        window = (a, b)
    elif kind == "head":
        window = (draw(at(lo - 8 * TICK, lo - 1)), draw(at(lo + 1, hi)))
    elif kind == "tail":
        window = (draw(at(lo, hi - 1)), draw(at(hi + 1, hi + 8 * TICK)))
    elif kind == "outside":
        length = draw(at(1, 4 * TICK))
        if draw(st.booleans()):
            end = draw(at(lo - 8 * TICK, lo))
            window = (end - length, end)
        else:
            start = draw(at(hi, hi + 8 * TICK))
            window = (start, start + length)
    elif kind == "zero":
        a = draw(at(lo - 4 * TICK, hi + 4 * TICK))
        window = (a, a)
    else:
        window = None
    return {node: log for node, (log, _) in zip(nodes, drawn)}, window


def _span_or_none(log):
    try:
        return log.wall_span()
    except (DegenerateSeriesError, InvalidArgumentError):
        return None


class TestNodeEnergies:
    """``node_energies`` is the one place that windows logs per node."""

    @settings(max_examples=300, deadline=None)
    @given(energies_cases())
    def test_each_node_measured_or_missing(self, case):
        logs, window = case
        per_node, windows, flags = node_energies(logs, window)
        assert list(per_node) == sorted(per_node)
        assert set(windows) == set(per_node)
        want_flags = set()
        for node, log in logs.items():
            missing = f"{FLAG_MISSING_LOG}:{node}" in flags
            assert (node in per_node) != missing
            span = _span_or_none(log)
            if span is None:
                assert missing
                continue
            want = span if window is None else \
                (max(window[0], span[0]), min(window[1], span[1]))
            covers = window is None or want[0] < want[1] or want == window
            assert missing == (not covers)
            if missing:
                continue
            assert windows[node] == want
            assert per_node[node] == node_window_energy(log, *windows[node])
            want_flags |= log_flags(log)
            if window is not None and want != window:
                want_flags.add(FLAG_CLIPPED_WINDOW)
        want_flags |= {f"{FLAG_MISSING_LOG}:{node}" for node in logs
                       if node not in per_node}
        assert flags == want_flags

    def test_no_window_takes_each_whole_span(self):
        logs = {"n1": constant_log("n1", watts=10, duration_s=20),
                "n2": constant_log("n2", watts=30, duration_s=10)}
        per_node, windows, flags = node_energies(logs)
        assert windows == {"n1": (EPOCH, EPOCH + 20 * S),
                           "n2": (EPOCH, EPOCH + 10 * S)}
        assert per_node["n2"][PKG] == pytest.approx(300.0)
        assert flags == set()


class TestWorkflowTotal:
    WINDOW = (EPOCH, EPOCH + 60 * S)

    def per_node(self, logs):
        return {node: node_window_energy(log, *self.WINDOW)
                for node, log in logs.items()}

    def test_two_nodes_add(self):
        logs = {"n1": constant_log("n1"), "n2": constant_log("n2")}
        total = countable_total(self.per_node(logs))
        assert total == pytest.approx(12000.0, rel=1e-12)

    def test_idle_node_contributes_zero(self):
        logs = {"n1": constant_log("n1", watts=100),
                "n2": constant_log("n2", watts=0)}
        assert countable_total(self.per_node(logs)) == pytest.approx(6000.0)

    def test_only_countable_domains_add(self):
        # core is inside package and psys contains it: package counts once.
        logs = {"n1": constant_log("n1", domains=(PKG, DRAM)),
                "n2": constant_log("n2", domains=(PKG, RaplDomain.CORE,
                                                  RaplDomain.PSYS))}
        assert countable_total(self.per_node(logs)) \
            == pytest.approx(3 * 6000.0, rel=1e-12)

    def test_nodes_add_in_sorted_order(self):
        # Float addition does not associate: 1 + 1 + 1e16 is exact, while
        # 1e16 + 1 rounds back to 1e16.  Mapping order must not matter.
        per_node = {"c": {PKG: 1e16}, "a": {PKG: 1.0}, "b": {PKG: 1.0}}
        assert countable_total(per_node) == 1e16 + 2.0
        assert countable_total(dict(reversed(per_node.items()))) \
            == 1e16 + 2.0


class TestIntervalEstimate:
    END = EPOCH + 10_000 * S

    def grid(self, offset_s=0.0, watts=100.0, count=400, interval_s=30.0):
        return [(self.END - int((offset_s + interval_s * k) * S), watts)
                for k in range(count)]

    def test_end_aligned_grid_counts_50_points(self):
        # Oracle: duration 1476 s, 30 s grid with a point at window end ->
        # 50 points -> 150000 J (exact 147600 J).
        window = (self.END - 1476 * S, self.END)
        est = interval_estimate(self.grid(), window, 30.0)
        assert est.joules == pytest.approx(150000.0, rel=1e-12)

    def test_offset_grid_counts_49_points(self):
        # Oracle: same window, grid shifted 15 s -> 49 points -> 147000 J.
        window = (self.END - 1476 * S, self.END)
        est = interval_estimate(self.grid(offset_s=15.0), window, 30.0)
        assert est.joules == pytest.approx(147000.0, rel=1e-12)

    def test_aligned_divisible_window_equals_exact_integral(self):
        # Oracle: 1470 s window, end-aligned grid, constant 100 W ->
        # estimate equals the exact integral.
        window = (self.END - 1470 * S, self.END)
        est = interval_estimate(self.grid(), window, 30.0)
        assert est.joules == pytest.approx(147000.0, rel=1e-9)

    def test_no_points_in_window(self):
        window = (self.END - 10 * S, self.END - 5 * S)
        with pytest.raises(WattflowError,
                           match="no average-watt points in") as exc:
            interval_estimate(self.grid(), window, 30.0)
        assert type(exc.value) is WattflowError

    def test_short_window_boundary_absorption_overestimates(self):
        # Query evaluated at a scrape instant over a short 130 s window in
        # high-idle surroundings (node draws ~100 W throughout): the five
        # covered points stand for 150 s of power, overestimating by ~15%.
        points = self.grid(watts=100.0)
        window = (self.END - 130 * S, self.END)
        est = interval_estimate(points, window, 30.0)
        exact = 130 * 100.0
        assert est.joules == pytest.approx(5 * 30 * 100.0)
        assert est.joules / exact > 1.10

    def test_rejects_bad_interval_and_window(self):
        with pytest.raises(InvalidArgumentError):
            interval_estimate([(0, 1.0)], (0, 10), 0.0)
        with pytest.raises(InvalidArgumentError):
            interval_estimate([(0, 1.0)], (10, 10), 30.0)


def fixture_trace_and_logs():
    tasks = [task("t1", 5, 20, cpu_time_s=30.0),
             task("t2", 25, 40, cpu_time_s=7.5),
             task("t3", 10, 35, cpu_time_s=12.0, node="n2")]
    trace = WorkflowTrace(workflow_id="wf1", submitted_wall_ns=EPOCH,
                          finished_wall_ns=EPOCH + 50 * S,
                          tasks=tuple(tasks))
    logs = {"n1": constant_log("n1", watts=80, duration_s=50),
            "n2": constant_log("n2", watts=40, duration_s=50)}
    return trace, logs


class TestAssembleReport:
    def test_conservation_links_total_tasks_unattributed(self):
        trace, logs = fixture_trace_and_logs()
        report = assemble_report(trace, logs, cpu_policy())
        attributed = sum(
            joules for te in report.per_task
            for domain, joules in te.joules_by_domain.items()
            if domain in countable_domains(te.joules_by_domain))
        assert attributed + report.unattributed_joules \
            == pytest.approx(report.total_joules, rel=1e-9)
        assert report.total_joules == pytest.approx(80 * 50 + 40 * 50,
                                                    rel=1e-9)
        assert len(report.per_task) == 3
        assert [te.task_id for te in report.per_task] == ["t1", "t2", "t3"]

    def test_shuffled_trace_rows_give_identical_report(self):
        # Overlapping tasks with uneven weights, ties on start and on
        # (start, end), a cached and an unknown-node row: each node's
        # group is ordered by (start, end, task_id), never by row order.
        tasks = [task("k", 2, 33, cpu_time_s=9.7),
                 task("a", 5, 20, cpu_time_s=6.9),
                 task("b", 5, 20, cpu_time_s=11.9),
                 task("c", 5, 31, cpu_time_s=3.7),
                 task("d", 12, 44, cpu_time_s=5.1),
                 task("e", 17, 29, cpu_time_s=0.7),
                 task("f", 3, 40, cpu_time_s=2.9, node="n2"),
                 task("g", 3, 22, cpu_time_s=13.1, node="n2"),
                 task("h", 9, 22, cpu_time_s=1.3, node="n2"),
                 dataclasses.replace(task("i", 6, 9),
                                     status=TaskStatus.CACHED),
                 dataclasses.replace(task("j", 6, 9, node="unknown"),
                                     flags=frozenset({FLAG_UNKNOWN_NODE}))]
        logs = {"n1": constant_log("n1", watts=97, duration_s=50),
                "n2": constant_log("n2", watts=41, duration_s=50)}
        rng = random.Random(7)
        for kind in PolicyKind:
            policy = AttributionPolicy(kind=kind)
            texts = set()
            for _ in range(8):
                rng.shuffle(tasks)
                trace = WorkflowTrace(workflow_id="wf1",
                                      submitted_wall_ns=EPOCH,
                                      finished_wall_ns=EPOCH + 50 * S,
                                      tasks=tuple(tasks))
                texts.add(report_to_json(
                    assemble_report(trace, logs, policy)))
            assert len(texts) == 1, kind

    def test_missing_node_named(self):
        trace, logs = fixture_trace_and_logs()
        del logs["n2"]
        with pytest.raises(WattflowError,
                           match="no usable sample log for node.*: n2$"
                           ) as exc:
            assemble_report(trace, logs, cpu_policy())
        assert type(exc.value) is WattflowError

    def test_horizon_gap_flags_report_and_task(self):
        # No gap marker: a 3 s hole between samples is over half the 4 s
        # wrap horizon, so a wrap could hide in it.
        spec = CounterSpec(domain=PKG, bit_width=64, energy_unit_joules=1e-6)
        times = [k * S // 2 for k in range(21)] + \
            [k * S // 2 for k in range(27, 41)]
        series = build_series("n1", spec,
                              [RawSample(t, t // 10) for t in times],
                              epoch_wall_ns=EPOCH, wrap_horizon_ns=4 * S)
        log = NodeEnergyLog(node_id="n1", series={PKG: series})
        trace = WorkflowTrace(workflow_id="wf-h", submitted_wall_ns=EPOCH,
                              finished_wall_ns=EPOCH + 20 * S,
                              tasks=(task("t1", 5, 15),))
        report = assemble_report(trace, {"n1": log}, cpu_policy())
        assert report.flags == {FLAG_UNSAFE_GAP}
        assert FLAG_UNSAFE_GAP in report.per_task[0].notes
        assert report.total_joules == pytest.approx(2000.0)

    def test_policy_neutral_on_exclusive_trace(self):
        trace, logs = fixture_trace_and_logs()
        per_policy = []
        for kind in (PolicyKind.CPU_TIME_SHARE, PolicyKind.WALL_TIME_SHARE,
                     PolicyKind.EXCLUSIVE_ONLY):
            report = assemble_report(trace, logs,
                                     AttributionPolicy(kind=kind))
            per_policy.append({te.task_id: te.joules_by_domain[PKG]
                               for te in report.per_task})
        assert per_policy[0] == pytest.approx(per_policy[1])
        assert per_policy[0] == pytest.approx(per_policy[2])


class TestReportSerialization:
    def test_json_round_trip(self):
        trace, logs = fixture_trace_and_logs()
        report = dataclasses.replace(
            assemble_report(trace, logs, cpu_policy(),
                            method=MeasurementMethod.SHELL_WRAP),
            coverage_fraction=1.0)
        obj = json.loads(report_to_json(report))
        assert obj["report_version"] == 1
        assert obj["method"] == "shell-wrap"
        assert obj["coverage_fraction"] == 1.0
        restored = report_from_obj(obj)
        assert restored == report

    def test_serialization_is_deterministic(self):
        trace, logs = fixture_trace_and_logs()
        a = report_to_json(assemble_report(trace, logs, cpu_policy()))
        b = report_to_json(assemble_report(trace, logs, cpu_policy()))
        assert a == b

    def test_coverage_fraction_bounds(self):
        with pytest.raises(InvalidArgumentError):
            EnergyReport(workflow_id="w", method=MeasurementMethod.SHELL_WRAP,
                         total_joules=1.0, per_node={},
                         coverage_fraction=1.5)

    def test_bad_document_is_schema_violation(self):
        with pytest.raises(SchemaViolationError):
            report_from_obj({"report_version": 2})
        with pytest.raises(SchemaViolationError):
            report_from_obj([1, 2])

    def test_omitted_coverage_stays_none(self):
        trace, logs = fixture_trace_and_logs()
        report = assemble_report(trace, logs, cpu_policy())
        obj = json.loads(report_to_json(report))
        assert "coverage_fraction" not in obj
        assert report_from_obj(obj).coverage_fraction is None


# Ids mix ASCII, non-ASCII, control characters and lone surrogates, all of
# which json escapes; the floats include the values whose text is easiest
# to get wrong.
ids = st.text(st.characters(exclude_categories=()), max_size=6)
EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e300, 3.0, 1.0, 0.1)
joules = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(0.0, allow_infinity=False))
any_float = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
domain_joules = st.dictionaries(st.sampled_from(list(RaplDomain)), joules,
                                max_size=3)


@st.composite
def energy_reports(draw):
    notes = st.frozensets(st.one_of(
        st.sampled_from([NOTE_SHARED_WINDOW, NOTE_EQUAL_SPLIT,
                         FLAG_CLIPPED_WINDOW, "cached", "unknown_node"]),
        ids), max_size=3)
    tasks = draw(st.lists(st.builds(
        TaskEnergy, task_id=ids, joules_by_domain=domain_joules,
        estimated=st.booleans(), notes=notes), max_size=5))
    return EnergyReport(
        workflow_id=draw(ids),
        method=draw(st.sampled_from(list(MeasurementMethod))),
        total_joules=draw(any_float),
        per_node=draw(st.dictionaries(ids, domain_joules, max_size=3)),
        per_task=tuple(tasks),
        coverage_fraction=draw(st.one_of(
            st.none(), st.sampled_from([0.0, -0.0, 5e-324, 1.0]),
            st.floats(0.0, 1.0))),
        unattributed_joules=draw(any_float),
        status=draw(st.sampled_from(["ok", "failed"])),
        flags=draw(st.frozensets(ids, max_size=3)))


def reference(report: EnergyReport) -> dict:
    """The report's JSON document, built as a dict: ``json_text`` of it is
    the text ``report_to_json`` must write."""
    obj = {
        "report_version": 1,
        "workflow_id": report.workflow_id,
        "method": report.method.value,
        "status": report.status,
        "total_joules": report.total_joules,
        "unattributed_joules": report.unattributed_joules,
        "per_node": {node: {d.value: j for d, j in domains.items()}
                     for node, domains in report.per_node.items()},
        "per_task": [
            {
                "task_id": te.task_id,
                "joules_by_domain": {d.value: j for d, j in
                                     te.joules_by_domain.items()},
                "estimated": te.estimated,
                "notes": sorted(te.notes),
            }
            for te in report.per_task],
    }
    if report.coverage_fraction is not None:
        obj["coverage_fraction"] = report.coverage_fraction
    if report.flags:
        obj["flags"] = sorted(report.flags)
    return obj


class TestReportWriter:
    """``report_to_json`` writes the bytes ``json_text`` writes for the
    report's document as :func:`reference` builds it."""

    @settings(max_examples=500, deadline=None)
    @given(energy_reports())
    def test_equals_json_text_of_reference(self, report):
        assert report_to_json(report) == json_text(reference(report))

    def test_every_edge_at_once(self):
        report = EnergyReport(
            workflow_id="wf-\u00e9\u4e2d\x00\n\"\\\ud800",
            method=MeasurementMethod.SIGNAL_PLUGIN,
            total_joules=1e300,
            per_node={"n\u00e9": {PKG: 3.0, DRAM: -0.0,
                                  RaplDomain.PSYS: 5e-324},
                      "n0": {}, "n1\t": {PKG: 0.0}},
            per_task=(
                TaskEnergy("t\u2603", {DRAM: 0.1, PKG: 2.5}, True,
                           {NOTE_SHARED_WINDOW, NOTE_EQUAL_SPLIT}),
                TaskEnergy("cached\x7f", {}, True, {"cached"}),
                TaskEnergy("solo", {PKG: 7.0}, False, ())),
            coverage_fraction=0.0,
            unattributed_joules=float("nan"),
            flags={FLAG_UNSAFE_GAP, "flagged_log:n\u00e9"})
        assert report_to_json(report) == json_text(reference(report))
        empty = dataclasses.replace(report, per_node={}, per_task=(),
                                    coverage_fraction=None, flags=())
        assert report_to_json(empty) == json_text(reference(empty))


class TestCountableDomains:
    def test_package_present_excludes_subsets(self):
        assert countable_domains(
            {PKG, RaplDomain.CORE, DRAM, RaplDomain.PSYS}) == {PKG, DRAM}

    def test_no_package_counts_rest(self):
        assert countable_domains({RaplDomain.CORE, DRAM}) \
            == {RaplDomain.CORE, DRAM}

    def test_psys_only_counts_itself(self):
        assert countable_domains({RaplDomain.PSYS}) == {RaplDomain.PSYS}
