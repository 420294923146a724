"""The streaming report path: counts read without keeping samples.

``read_counts`` feeds each domain's samples to a ``CountWalker`` as the
log is read, and reads a log a second time when the first read lacks a
count the report needs.  It must give, bit for bit, what ``parse_log``
plus ``counts_at`` give, and reports built on its logs must be
byte-identical to reports built on parsed series.
"""

from __future__ import annotations

import bisect
import itertools
import json
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wattflow import accounting, logfile
from wattflow.accounting import (
    AttributionPolicy,
    PolicyKind,
    ReportPlan,
    assemble_report,
    report_to_json,
)
from wattflow.cli import main
from wattflow.counter import RaplDomain, counts_at
from wattflow.errors import WattflowError
from wattflow.logfile import (
    END_PREFIX,
    GAP_PREFIX,
    HEADER_PREFIX,
    log_filename,
    parse_log,
    read_counts,
)
from wattflow.orchestrate import _span_edges
from wattflow.trace import (
    TaskRecord,
    TaskStatus,
    WorkflowTrace,
    write_generic_trace,
)

from test_orchestrate import count_log_reads

PKG, DRAM = RaplDomain.PACKAGE, RaplDomain.DRAM
S = 1_000_000_000
EPOCH = 1_700_000_000_000_000_000
_UNIQUE = itertools.count()
# Block sizes: a few lines, a few dozen lines, the default.
BLOCK_SIZES = (64, 1000, logfile._PARSE_BLOCK)


def reference_counts(series, edges_ns) -> list[float]:
    """Counts as ``counts_at`` computed them before the walker: a wrap-count
    prefix over the whole series and one bisection per edge."""
    times, raws = list(series.times), list(series.raws)
    wraps = list(itertools.accumulate(
        (b < a for a, b in zip(raws, raws[1:])), initial=0))
    modulus, counts = series.spec.modulus, []
    for t_ns in edges_ns:
        i = bisect.bisect_right(times, t_ns) - 1
        c0 = raws[i] - raws[0] + modulus * wraps[i]
        if i == len(times) - 1:
            counts.append(float(c0))
            continue
        c1 = raws[i + 1] - raws[0] + modulus * wraps[i + 1]
        counts.append(c0 + (c1 - c0)
                      * ((t_ns - times[i]) / (times[i + 1] - times[i])))
    return counts


@st.composite
def sampled_logs(draw) -> tuple[str, list[int]]:
    """Text of a valid log and wall-ns edges around its samples.

    One or two domains, 8-bit counters that wrap every few samples,
    gap markers, a domain that sometimes skips a tick, an optional
    trailer and an optional torn last line.  The edges fall on samples,
    between them, and before and after the sampled span.
    """
    domains = draw(st.sampled_from(((PKG,), (PKG, DRAM), (DRAM, PKG))))
    width = {d: draw(st.sampled_from((8, 32))) for d in domains}
    lines = [f"{HEADER_PREFIX}node=n1 domain={d} bit_width={width[d]} "
             f"unit_j=1e-06 epoch_wall_ns={EPOCH}" for d in domains]
    raw = {d: draw(st.integers(0, 2**width[d] - 1)) for d in domains}
    times = []
    t = draw(st.integers(0, 10**12))
    for _ in range(draw(st.integers(0, 300))):
        t += draw(st.integers(1, 10**9))
        times.append(t)
        for d in domains:
            kind = draw(st.sampled_from(("rec",) * 12 + ("gap", "skip")))
            if kind == "gap":
                lines.append(f"{GAP_PREFIX}t_ns={t} domain={d}")
            elif kind == "rec":
                raw[d] = (raw[d] + draw(st.integers(0, 2**width[d] - 1))) \
                    % 2**width[d]
                lines.append(f"{t},{d},{raw[d]}")
    if draw(st.booleans()):
        lines.append(f"{END_PREFIX}status=closed")
    text = "".join(line + "\n" for line in lines)
    if draw(st.booleans()) and times:
        text += f"{t + 1},{domains[0]},1"[:draw(st.integers(1, 12))]

    candidates = times + [a + draw(st.integers(1, 10**9 - 1)) // 2
                          for a in times] + [-5, t + 10**10]
    picked = draw(st.lists(st.sampled_from(candidates), max_size=60)) \
        if times else []
    return text, [EPOCH + e for e in sorted(set(picked))]


def _write(tmp_path, text: str) -> str:
    path = tmp_path / log_filename("n1", f"s{next(_UNIQUE)}")
    path.write_text(text, encoding="ascii")
    return str(path)


class TestStreamedCounts:
    @given(log=sampled_logs())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_counts_equal_parse_log_and_counts_at(self, tmp_path,
                                                  monkeypatch, log):
        text, edges = log
        path = _write(tmp_path, text)
        parsed = parse_log(path)
        for size in BLOCK_SIZES:
            monkeypatch.setattr(logfile, "_PARSE_BLOCK", size)
            streamed = read_counts(path, lambda node, span: edges)
            assert (streamed.node_id, streamed.session_id, streamed.status) \
                == (parsed.node_id, parsed.session_id, parsed.status)
            assert streamed.series.keys() == parsed.series.keys()
            for domain, series in parsed.series.items():
                counted = streamed.series[domain]
                assert len(counted) == len(series)
                assert counted.gap_markers == series.gap_markers
                assert counted.unsafe_gaps() == series.unsafe_gaps()
                if len(series) < 2:
                    continue
                assert counted.span_ns == series.span_ns
                first, last = series.span_ns
                # Every edge inside the span, plus the two end samples,
                # which a read always holds.
                inside = sorted({first, last, *(
                    e - EPOCH for e in edges if first <= e - EPOCH <= last)})
                want = counts_at(series, inside)
                assert want == reference_counts(series, inside)
                got = counts_at(counted, inside)
                assert [c.hex() for c in got] == [c.hex() for c in want]

    def test_edge_outside_the_read_edges_raises(self, tmp_path):
        path = _write(tmp_path, f"{HEADER_PREFIX}node=n1 domain=package "
                      f"bit_width=8 unit_j=1e-06 epoch_wall_ns={EPOCH}\n"
                      "0,package,250\n10,package,5\n20,package,9\n")
        counted = read_counts(
            path, lambda node, span: [EPOCH + 5]).series[PKG]
        assert counts_at(counted, [0, 5, 20]) == [0.0, 5.5, 15.0]
        with pytest.raises(WattflowError, match="no count read"):
            counts_at(counted, [0, 6])


def two_domain_log(tmp_path, dram_from_s: int, ticks: int = 400,
                   trailer: bool = True) -> str:
    """package sampled every second from 0; dram from ``dram_from_s``."""
    lines = [f"{HEADER_PREFIX}node=n1 domain={d} bit_width=16 unit_j=1e-06 "
             f"epoch_wall_ns={EPOCH}" for d in ("package", "dram")]
    for k in range(ticks):
        lines.append(f"{k * S},package,{(k * 40_000) % 2**16}")
        if k >= dram_from_s:
            lines.append(f"{k * S},dram,{(k * 7_000) % 2**16}")
    if trailer:
        lines.append(f"{END_PREFIX}status=closed")
    path = tmp_path / log_filename("n1", "two")
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    return str(path)


def trace_over(start_s: float, end_s: float, tasks) -> WorkflowTrace:
    return WorkflowTrace(
        workflow_id="wf", submitted_wall_ns=EPOCH + int(start_s * S),
        finished_wall_ns=EPOCH + int(end_s * S),
        tasks=tuple(TaskRecord(
            task_id=f"t{i}", name="p", node_id="n1",
            start_wall_ns=EPOCH + int(a * S), end_wall_ns=EPOCH + int(b * S),
            cpu_time_s=c, status=TaskStatus.COMPLETED)
            for i, (a, b, c) in enumerate(tasks)))


def _report_text(trace, log) -> str:
    policy = AttributionPolicy(kind=PolicyKind.CPU_TIME_SHARE)
    try:
        return report_to_json(assemble_report(trace, {"n1": log}, policy))
    except WattflowError as exc:
        return f"raised {type(exc).__name__}: {exc}"


class TestReadLogCounts:
    """``read_counts`` over a report's edge plan reads a log again only
    when the first read lacks a count the report needs."""

    @pytest.mark.parametrize("dram_from_s, window_s, reads", [
        (0, (10.5, 300.25), 1),      # window inside both spans
        (0, (-20.0, 300.25), 1),     # clipped by the span both share
        (30, (10.5, 300.25), 2),     # clipped by dram's later start
        (30, (40.0, 300.25), 1),     # dram starts before the window
        (30, (-20.0, 500.0), 2),     # clipped at both ends
        (30, (500.0, 600.0), 1),     # no overlap: the node is missing
    ])
    def test_report_equals_parsed_report(self, tmp_path, monkeypatch,
                                         dram_from_s, window_s, reads):
        path = two_domain_log(tmp_path, dram_from_s)
        trace = trace_over(*window_s, [(5.0, 50.5, 20.0), (20.25, 90.0, 3.0),
                                       (60.0, 320.0, 100.0)])
        want = _report_text(trace, parse_log(path))
        seen = count_log_reads(monkeypatch)
        log = read_counts(path, ReportPlan(trace).edges)
        assert _report_text(trace, log) == want
        assert len(seen) == reads

    @given(data=st.data())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_trace_gives_the_parsed_report(self, tmp_path, data):
        path = two_domain_log(tmp_path, data.draw(st.sampled_from((0, 30))),
                              ticks=120)
        times = st.floats(-30.0, 150.0, allow_nan=False).map(
            lambda x: round(x, 3))
        lo, hi = sorted(data.draw(st.lists(times, min_size=2, max_size=2,
                                           unique=True)))
        tasks = []
        for _ in range(data.draw(st.integers(0, 6))):
            a, b = sorted(data.draw(st.lists(times, min_size=2, max_size=2,
                                             unique=True)))
            tasks.append((a, b, data.draw(st.floats(0.0, 500.0))))
        trace = trace_over(lo, hi, tasks)
        want = _report_text(trace, parse_log(path))
        log = read_counts(path, ReportPlan(trace).edges)
        assert _report_text(trace, log) == want

    @pytest.mark.parametrize("dram_from_s, reads", [(0, 1), (30, 2)])
    def test_whole_span_totals_equal_parsed_totals(self, tmp_path,
                                                   monkeypatch, dram_from_s,
                                                   reads):
        # run and resume report each node over its domains' shared span.
        path = two_domain_log(tmp_path, dram_from_s)
        want = accounting.node_energies({"n1": parse_log(path)})
        seen = count_log_reads(monkeypatch)
        got = accounting.node_energies({"n1": read_counts(path,
                                                          _span_edges)})
        assert got == want
        assert len(seen) == reads

    def test_log_grown_between_reads_keeps_the_first_read(self, tmp_path,
                                                          monkeypatch):
        # An open log that its agent extends between the two reads: the
        # report is that of the log as first read.
        path = two_domain_log(tmp_path, 30, trailer=False)
        trace = trace_over(10.5, 500.0, [(20.25, 90.0, 3.0)])
        want = _report_text(trace, parse_log(path))
        reads = count_log_reads(monkeypatch)
        read_log = logfile._read_log

        def grow_after_first_read(path_, new_sink):
            read = read_log(path_, new_sink)
            if len(reads) == 1:
                with open(path_, "a", encoding="ascii") as fh:
                    fh.write(f"{400 * S},package,5\n{400 * S},dram,5\n")
            return read
        monkeypatch.setattr(logfile, "_read_log", grow_after_first_read)
        log = read_counts(path, ReportPlan(trace).edges)
        assert len(reads) == 2
        grown = parse_log(path).series[PKG].span_ns
        assert grown != log.series[PKG].span_ns
        assert _report_text(trace, log) == want


def _write_report_inputs(tmp_path, ticks: int, name: str) -> tuple[str, str]:
    """One node's two-domain log of ``ticks`` ticks and a trace of ten
    tasks inside its first 1000 ticks."""
    logs = tmp_path / name
    logs.mkdir()
    lines = [f"{HEADER_PREFIX}node=n1 domain={d} bit_width=32 unit_j=1e-06 "
             f"epoch_wall_ns={EPOCH}" for d in ("package", "dram")]
    for k in range(ticks):
        t = k * 500_000_000
        lines.append(f"{t},package,{(k * 40_000_000) % 2**32}")
        lines.append(f"{t},dram,{(k * 6_000_000) % 2**32}")
    lines.append(f"{END_PREFIX}status=closed")
    (logs / log_filename("n1", "mem")).write_text(
        "".join(line + "\n" for line in lines), encoding="ascii")
    trace = trace_over(10.0, 490.0, [(10.0 + 45 * i, 50.0 + 45 * i, 30.0)
                                     for i in range(10)])
    trace_path = str(tmp_path / f"{name}.json")
    write_generic_trace(trace, trace_path)
    return str(logs), trace_path


class TestStreamingMemory:
    def test_report_peak_does_not_grow_with_the_log(self, tmp_path):
        # 8x the samples, the same edges: parsing into series would hold
        # 16 bytes more per extra sample, about 3.8 MB here.
        peaks = []
        for ticks in (20_000, 160_000):
            logs, trace = _write_report_inputs(tmp_path, ticks, f"t{ticks}")
            out = str(tmp_path / f"report{ticks}.json")
            argv = ["report", "--logs", logs, "--trace", trace,
                    "--out", out]
            assert main(argv) == 0     # imports everything first
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            with open(out, encoding="utf-8") as fh:
                assert json.load(fh)["per_node"]["n1"]["package"] > 0
        assert abs(peaks[1] - peaks[0]) < 4 * logfile._PARSE_BLOCK, peaks

    def test_report_peak_per_task_is_bounded(self, tmp_path):
        # A report's peak grows with its trace by what each task holds:
        # its record, its cuts and counts, its energy entry.  Tasks run 16
        # at once, as in the dense benchmark workload, over a 200 s log,
        # 8k and then 64k of them; the slope between the two peaks is the
        # cost per task.  Measured at 541-551 B a task on CPython 3.10 to
        # 3.13; with the decoded trace document held whole, a dict of
        # joules per entry and per-boundary lists in the sweep, 739-851;
        # with a flag set per task and the report text built whole before
        # it is written, 1,805-1,950.
        logs = tmp_path / "logs"
        logs.mkdir()
        lines = [f"{HEADER_PREFIX}node=n1 domain=package bit_width=32 "
                 f"unit_j=1e-06 epoch_wall_ns={EPOCH}"]
        lines += [f"{k * S // 2},package,{k * 40_000_000 % 2**32}"
                  for k in range(401)]
        lines.append(f"{END_PREFIX}status=closed")
        (logs / log_filename("n1", "mem")).write_text(
            "".join(line + "\n" for line in lines), encoding="ascii")
        argvs = {}
        for n in (8_000, 64_000):
            step = 16 * 200 * S // n
            trace = str(tmp_path / f"trace{n}.json")
            write_generic_trace(WorkflowTrace(
                workflow_id="wf", submitted_wall_ns=EPOCH,
                finished_wall_ns=EPOCH + n // 16 * step,
                tasks=tuple(TaskRecord(
                    task_id=f"t{k}", name="p", node_id="n1",
                    start_wall_ns=EPOCH + k // 16 * step,
                    end_wall_ns=EPOCH + (k // 16 + 1) * step, cpu_time_s=0.01,
                    status=TaskStatus.COMPLETED) for k in range(n))), trace)
            argvs[n] = ["report", "--logs", str(logs), "--trace", trace,
                        "--out", str(tmp_path / f"report{n}.json")]
        # The warm-up imports what report needs.  It runs under a profile
        # function, which gives each code object it runs a table of line
        # numbers; without one, Python 3.11 finds the line of each
        # allocation tracemalloc traces by scanning the code's line table,
        # and the traced calls take tens of seconds instead of seconds.
        sys.setprofile(lambda *args: None)
        try:
            assert main(argvs[8_000]) == 0
        finally:
            sys.setprofile(None)
        peaks = {}
        for n, argv in argvs.items():
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        per_task = (peaks[64_000] - peaks[8_000]) / 56_000
        assert per_task < 680, peaks
