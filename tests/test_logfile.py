"""Round-trip and error-path tests for the session log format."""

from __future__ import annotations

import itertools
import os
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

_UNIQUE = itertools.count()

from wattflow import logfile
from wattflow.accounting import log_flags
from wattflow.counter import (
    CounterSpec,
    RaplDomain,
    RawSample,
    build_series,
    counts_at,
)
from wattflow.errors import (
    AlreadyActiveError,
    InvalidArgumentError,
    ParseError,
)
from wattflow.logfile import (
    END_PREFIX,
    GAP_PREFIX,
    HEADER_PREFIX,
    LogStatus,
    LogWriter,
    NodeEnergyLog,
    format_record,
    has_record,
    log_filename,
    parse_log,
    read_status,
    session_from_filename,
)
from wattflow.orchestrate import _span_edges

PKG_SPEC = CounterSpec(domain=RaplDomain.PACKAGE, bit_width=32,
                       energy_unit_joules=1e-6)
DRAM_SPEC = CounterSpec(domain=RaplDomain.DRAM, bit_width=32,
                        energy_unit_joules=6.103515625e-05)


def write_simple_log(tmp_path, records, node="n1", session="s1",
                     specs=None, status=LogStatus.CLOSED, epoch=1_000):
    path = str(tmp_path / log_filename(node, session))
    specs = specs or {RaplDomain.PACKAGE: PKG_SPEC}
    w = LogWriter(path, node, specs, epoch_wall_ns=epoch)
    for t_ns, domain, raw in records:
        w.record(t_ns, domain, raw)
    w.close(status)
    return path


class TestRoundTrip:
    def test_simple_round_trip(self, tmp_path):
        recs = [(10, RaplDomain.PACKAGE, 100), (20, RaplDomain.PACKAGE, 200)]
        parsed = parse_log(write_simple_log(tmp_path, recs))
        assert parsed.node_id == "n1"
        assert parsed.session_id == "s1"
        assert parsed.status is LogStatus.CLOSED
        series = parsed.series[RaplDomain.PACKAGE]
        assert series.epoch_wall_ns == 1_000
        assert tuple(series.samples) == (RawSample(10, 100), RawSample(20, 200))
        assert series.spec == PKG_SPEC

    def test_interleaved_domains(self, tmp_path):
        specs = {RaplDomain.PACKAGE: PKG_SPEC, RaplDomain.DRAM: DRAM_SPEC}
        recs = [(10, RaplDomain.PACKAGE, 1), (11, RaplDomain.DRAM, 2),
                (20, RaplDomain.PACKAGE, 3), (21, RaplDomain.DRAM, 4)]
        parsed = parse_log(write_simple_log(tmp_path, recs, specs=specs))
        assert [s.raw for s in parsed.series[RaplDomain.PACKAGE].samples] \
            == [1, 3]
        assert [s.raw for s in parsed.series[RaplDomain.DRAM].samples] == [2, 4]
        assert parsed.series[RaplDomain.DRAM].spec.energy_unit_joules \
            == 6.103515625e-05

    def test_both_readers_give_one_log_type_in_name_order(self, tmp_path):
        # The headers list package before dram; both readers keep the
        # domains in name order, the order accounting returns them in.
        specs = {RaplDomain.PACKAGE: PKG_SPEC, RaplDomain.DRAM: DRAM_SPEC}
        recs = [(10, RaplDomain.PACKAGE, 1), (10, RaplDomain.DRAM, 2),
                (20, RaplDomain.PACKAGE, 3), (20, RaplDomain.DRAM, 4)]
        path = write_simple_log(tmp_path, recs, specs=specs,
                                status=LogStatus.REAPED)
        with open(path, encoding="ascii") as fh:
            heads = [fh.readline().split()[2] for _ in range(2)]
        assert heads == ["domain=package", "domain=dram"]
        parsed = parse_log(path)
        counted = logfile.read_counts(path, _span_edges)
        for log in (parsed, counted):
            assert type(log) is NodeEnergyLog
            assert (log.node_id, log.session_id, log.status) == \
                ("n1", "s1", LogStatus.REAPED)
            assert list(log.series) == [RaplDomain.DRAM,
                                        RaplDomain.PACKAGE]
        assert counted.wall_span() == parsed.wall_span() == (1_010, 1_020)

    @given(steps=st.lists(
               st.tuples(st.integers(min_value=1, max_value=10**6),
                         st.integers(min_value=0, max_value=2**32 - 1)),
               min_size=0, max_size=50),
           unit=st.floats(min_value=1e-9, max_value=1.0, allow_nan=False))
    @settings(max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_generated_series_round_trips(self, tmp_path, steps, unit):
        # Raw values and timestamps must come back bit for bit; the unit
        # survives via shortest-repr text.
        name = f"rt{next(_UNIQUE)}"
        path = str(tmp_path / log_filename("nodeA", name))
        spec = CounterSpec(domain=RaplDomain.PACKAGE, bit_width=32,
                           energy_unit_joules=unit)
        w = LogWriter(path, "nodeA", {RaplDomain.PACKAGE: spec},
                      epoch_wall_ns=42)
        t = 0
        expected = []
        for dt, raw in steps:
            t += dt
            w.record(t, RaplDomain.PACKAGE, raw)
            expected.append(RawSample(t, raw))
        w.close()
        series = parse_log(path).series[RaplDomain.PACKAGE]
        assert tuple(series.samples) == tuple(expected)
        assert series.spec.energy_unit_joules == unit

    def test_series_equal_after_round_trip(self, tmp_path):
        original = build_series(
            "n1", PKG_SPEC,
            [RawSample(10, 2**32 - 5), RawSample(20, 3), RawSample(35, 90)],
            epoch_wall_ns=1_000, gap_markers=(25,))
        path = str(tmp_path / log_filename("n1", "eq"))
        w = LogWriter(path, "n1", {RaplDomain.PACKAGE: PKG_SPEC}, 1_000)
        w.record(10, RaplDomain.PACKAGE, 2**32 - 5)
        w.record(20, RaplDomain.PACKAGE, 3)
        w.gap(25, RaplDomain.PACKAGE)
        w.record(35, RaplDomain.PACKAGE, 90)
        w.close()
        parsed = parse_log(path).series[RaplDomain.PACKAGE]
        assert parsed == original
        assert all(type(s) is RawSample for s in parsed.samples)

    def test_node_with_underscore_in_name(self, tmp_path):
        path = write_simple_log(tmp_path, [(1, RaplDomain.PACKAGE, 0)],
                                node="rack_3_node_7", session="wf_42")
        parsed = parse_log(path)
        assert parsed.node_id == "rack_3_node_7"
        assert parsed.session_id == "wf_42"


class TestWriterValidation:
    def test_refuses_existing_file(self, tmp_path):
        path = write_simple_log(tmp_path, [])
        with pytest.raises(AlreadyActiveError):
            LogWriter(path, "n1", {RaplDomain.PACKAGE: PKG_SPEC}, 0)

    def test_refuses_non_monotonic_write(self, tmp_path):
        path = str(tmp_path / log_filename("n1", "x"))
        w = LogWriter(path, "n1", {RaplDomain.PACKAGE: PKG_SPEC}, 0)
        w.record(10, RaplDomain.PACKAGE, 0)
        with pytest.raises(InvalidArgumentError):
            w.record(10, RaplDomain.PACKAGE, 1)
        w.close()

    def test_refuses_unknown_domain(self, tmp_path):
        path = str(tmp_path / log_filename("n1", "y"))
        w = LogWriter(path, "n1", {RaplDomain.PACKAGE: PKG_SPEC}, 0)
        with pytest.raises(InvalidArgumentError):
            w.record(1, RaplDomain.DRAM, 0)
        w.close()


class TestParserErrors:
    def test_shuffled_lines_rejected(self, tmp_path):
        recs = [(t * 10, RaplDomain.PACKAGE, t) for t in range(1, 9)]
        path = write_simple_log(tmp_path, recs)
        lines = Path(path).read_text().splitlines()
        body = [ln for ln in lines if not ln.startswith("#")]
        head = [ln for ln in lines if ln.startswith("#wattflow-v1")]
        tail = [ln for ln in lines if ln.startswith("#wattflow-end")]
        rng = random.Random(7)
        shuffled = body[:]
        while shuffled == body:
            rng.shuffle(shuffled)
        mangled = tmp_path / log_filename("n1", "s2")
        mangled.write_text("\n".join(head + shuffled + tail) + "\n")
        with pytest.raises(ParseError, match="non-monotonic timestamp"):
            parse_log(str(mangled))

    def test_record_before_header(self, tmp_path):
        p = tmp_path / log_filename("n1", "s3")
        p.write_text("5,package,1\n")
        with pytest.raises(ParseError,
                           match=":1: record for package before its header"
                           ) as exc:
            parse_log(str(p))
        assert type(exc.value) is ParseError

    def test_missing_header_entirely(self, tmp_path):
        p = tmp_path / log_filename("n1", "s4")
        p.write_text("")
        with pytest.raises(ParseError, match="no header line found") as exc:
            parse_log(str(p))
        assert type(exc.value) is ParseError

    def test_malformed_record_carries_line_number(self, tmp_path):
        path = write_simple_log(tmp_path, [(1, RaplDomain.PACKAGE, 0)])
        text = Path(path).read_text().replace("1,package,0", "1;package;0")
        p = tmp_path / log_filename("n1", "s5")
        p.write_text(text)
        with pytest.raises(ParseError, match=r":2:"):
            parse_log(str(p))

    def test_raw_out_of_register_range(self, tmp_path):
        path = write_simple_log(tmp_path, [(1, RaplDomain.PACKAGE, 0)])
        text = Path(path).read_text().replace("1,package,0",
                                         f"1,package,{2**32}")
        p = tmp_path / log_filename("n1", "s6")
        p.write_text(text)
        with pytest.raises(ParseError, match="outside"):
            parse_log(str(p))

    def test_content_after_trailer(self, tmp_path):
        path = write_simple_log(tmp_path, [(1, RaplDomain.PACKAGE, 0)])
        with open(path, "a") as fh:
            fh.write("2,package,1\n")
        with pytest.raises(ParseError, match="after end trailer"):
            parse_log(path)

    def test_non_ascii_byte_names_path_and_line(self, tmp_path):
        path = write_simple_log(tmp_path, [(1, RaplDomain.PACKAGE, 0),
                                           (2, RaplDomain.PACKAGE, 5)])
        data = Path(path).read_bytes().replace(b"2,package,5",
                                               b"2,package,\xe95")
        p = tmp_path / log_filename("n1", "s8")
        p.write_bytes(data)
        with pytest.raises(ParseError) as exc:
            parse_log(str(p))
        assert exc.value.line == 3
        assert str(exc.value) == f"{p}:3: non-ASCII byte 0xe9"

    def test_non_ascii_byte_in_header(self, tmp_path):
        p = tmp_path / log_filename("n1", "s9")
        p.write_bytes(b"#wattflow-v1 node=n\xc3\xa9 domain=package "
                      b"bit_width=32 unit_j=1e-06 epoch_wall_ns=0\n")
        with pytest.raises(ParseError, match=r":1: non-ASCII byte 0xc3$"):
            parse_log(str(p))

    def test_bad_line_before_bad_byte_wins(self, tmp_path):
        # The file is read line by line, so the first bad line is reported
        # even when a later line holds a byte outside ASCII.
        path = write_simple_log(tmp_path, [(1, RaplDomain.PACKAGE, 0)])
        text = Path(path).read_bytes().replace(
            b"1,package,0\n", b"1;package;0\n2,package,\xff\n")
        p = tmp_path / log_filename("n1", "s10")
        p.write_bytes(text)
        with pytest.raises(ParseError, match=r":2: expected t_ns,domain,raw"):
            parse_log(str(p))

    def test_non_ascii_byte_in_torn_tail_is_dropped(self, tmp_path):
        path = write_simple_log(tmp_path, [(1, RaplDomain.PACKAGE, 0)])
        data = Path(path).read_bytes().replace(
            b"#wattflow-end status=closed\n", b"2,pack\xe9")
        p = tmp_path / log_filename("n1", "s11")
        p.write_bytes(data)
        parsed = parse_log(str(p))
        assert parsed.status is LogStatus.TRUNCATED
        assert len(parsed.series[RaplDomain.PACKAGE]) == 1

    def test_carriage_return_ends_a_line(self, tmp_path):
        # Universal newlines: "\r\n" and a lone "\r" end a line as "\n"
        # does, and count as one line each.
        head = (f"{HEADER_PREFIX}node=n1 domain=package bit_width=32 "
                f"unit_j=1e-06 epoch_wall_ns=7\n")
        p = tmp_path / log_filename("n1", "cr")
        p.write_bytes((head + "1,package,5\r\n2,package,6\r"
                       f"{END_PREFIX}status=closed\r\n").encode())
        parsed = parse_log(str(p))
        assert tuple(parsed.series[RaplDomain.PACKAGE].samples) == \
            (RawSample(1, 5), RawSample(2, 6))
        assert parsed.status is LogStatus.CLOSED
        p.write_bytes((head + "1,package,5\r\n2,pack\rage,6\n").encode())
        with pytest.raises(ParseError,
                           match=":3: expected t_ns,domain,raw got '2,pack'"):
            parse_log(str(p))

    def test_header_disagreement(self, tmp_path):
        p = tmp_path / log_filename("n1", "s7")
        p.write_text(
            "#wattflow-v1 node=n1 domain=package bit_width=32 unit_j=1e-06 "
            "epoch_wall_ns=0\n"
            "#wattflow-v1 node=OTHER domain=dram bit_width=32 unit_j=1e-06 "
            "epoch_wall_ns=0\n")
        with pytest.raises(ParseError,
                           match=":2: header disagrees with earlier header"
                           ) as exc:
            parse_log(str(p))
        assert type(exc.value) is ParseError


class TestGapAndStatus:
    def test_gap_marker_sets_unsafe_flag(self, tmp_path):
        path = str(tmp_path / log_filename("n1", "g1"))
        w = LogWriter(path, "n1", {RaplDomain.PACKAGE: PKG_SPEC}, 0)
        w.record(10, RaplDomain.PACKAGE, 0)
        w.gap(15, RaplDomain.PACKAGE)
        w.record(20, RaplDomain.PACKAGE, 5)
        w.close()
        parsed = parse_log(path)
        series = parsed.series[RaplDomain.PACKAGE]
        assert series.gap_markers == (15,)
        assert parsed.has_unsafe_gap(10, 20)
        assert log_flags(parsed) == {"unsafe_gap"}

    def test_clean_log_not_flagged(self, tmp_path):
        parsed = parse_log(write_simple_log(
            tmp_path, [(1, RaplDomain.PACKAGE, 0)]))
        assert log_flags(parsed) == set()

    def test_reaped_status_round_trips(self, tmp_path):
        parsed = parse_log(write_simple_log(
            tmp_path, [(1, RaplDomain.PACKAGE, 0)], status=LogStatus.REAPED))
        assert parsed.status is LogStatus.REAPED
        assert log_flags(parsed) == {"flagged_log:n1"}

    def test_missing_trailer_reads_as_open(self, tmp_path):
        path = str(tmp_path / log_filename("n1", "g2"))
        w = LogWriter(path, "n1", {RaplDomain.PACKAGE: PKG_SPEC}, 0)
        w.record(10, RaplDomain.PACKAGE, 0)
        w.abandon()
        parsed = parse_log(path)
        assert parsed.status is LogStatus.OPEN
        assert log_flags(parsed) == {"flagged_log:n1"}

    def test_torn_final_line_dropped_and_truncated(self, tmp_path):
        path = write_simple_log(tmp_path, [(1, RaplDomain.PACKAGE, 0),
                                           (2, RaplDomain.PACKAGE, 1)])
        text = Path(path).read_text()
        torn = text.replace("#wattflow-end status=closed\n", "3,packa")
        p = tmp_path / log_filename("n1", "g3")
        p.write_text(torn)
        parsed = parse_log(str(p))
        assert parsed.status is LogStatus.TRUNCATED
        assert len(parsed.series[RaplDomain.PACKAGE].samples) == 2


class TestParseMemory:
    def test_peak_is_the_columns_plus_a_few_blocks(self, tmp_path):
        # A log of about 80 blocks: what parse_log holds beyond the series
        # it returns must not grow with the log, only with the block.
        rng = random.Random(3)
        lines = [f"{HEADER_PREFIX}node=n1 domain={d} bit_width=32 "
                 f"unit_j=1e-06 epoch_wall_ns=7" for d in ("package", "dram")]
        for k in range(40_000):
            t = 10**12 + k * 500_000_000
            lines.append(f"{t},package,{rng.randrange(2**32)}")
            lines.append(f"{t},dram,{rng.randrange(2**32)}")
        lines.append(f"{END_PREFIX}status=closed")
        path = tmp_path / log_filename("n1", "mem")
        path.write_text("".join(line + "\n" for line in lines),
                        encoding="ascii")
        assert path.stat().st_size > 64 * logfile._PARSE_BLOCK
        tracemalloc.start()
        try:
            parsed = parse_log(str(path))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(parsed.series[DRAM]) == 40_000
        assert peak - held <= 16 * logfile._PARSE_BLOCK


class TestNaming:
    def test_filename_shape(self):
        assert log_filename("n1", "wf42") == "rapl_n1_wf42.csv"

    def test_session_recovery_requires_node_prefix(self):
        assert session_from_filename("rapl_n1_wf42.csv", "n1") == "wf42"
        with pytest.raises(InvalidArgumentError):
            session_from_filename("rapl_n1_wf42.csv", "n2")
        with pytest.raises(InvalidArgumentError):
            session_from_filename("notalog.txt", "n1")

    def test_format_record_is_plain_decimal(self):
        assert format_record(123, RaplDomain.PACKAGE, 456) == "123,package,456"


class TestReadStatus:
    @pytest.mark.parametrize("status", [LogStatus.CLOSED, LogStatus.REAPED,
                                        LogStatus.TRUNCATED])
    def test_trailer_status(self, tmp_path, status):
        path = write_simple_log(tmp_path, [(1, RaplDomain.PACKAGE, 0)],
                                status=status)
        assert read_status(path) is status
        assert parse_log(path).status is status

    def test_torn_tail_is_truncated(self, tmp_path):
        path = write_simple_log(tmp_path, [(1, RaplDomain.PACKAGE, 0)])
        p = tmp_path / log_filename("n1", "torn")
        p.write_text(Path(path).read_text() + "2,pack")
        assert read_status(str(p)) is LogStatus.TRUNCATED
        assert parse_log(str(p)).status is LogStatus.TRUNCATED

    def test_open_log(self, tmp_path):
        path = str(tmp_path / log_filename("n1", "open"))
        w = LogWriter(path, "n1", {RaplDomain.PACKAGE: PKG_SPEC}, 0)
        assert read_status(path) is LogStatus.OPEN
        w.record(10, RaplDomain.PACKAGE, 0)
        assert read_status(path) is LogStatus.OPEN
        w.close()
        assert read_status(path) is LogStatus.CLOSED

    def test_empty_file_is_open(self, tmp_path):
        p = tmp_path / log_filename("n1", "empty")
        p.write_text("")
        assert read_status(str(p)) is LogStatus.OPEN

    def test_missing_log_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_status(str(tmp_path / log_filename("n1", "absent")))

    def test_content_after_trailer_is_pending(self, tmp_path):
        path = write_simple_log(tmp_path, [(1, RaplDomain.PACKAGE, 0)])
        with open(path, "a") as fh:
            fh.write("2,package,1\n")
        assert read_status(path) is LogStatus.OPEN

    def test_long_last_line_read_whole(self, tmp_path):
        # The last line is longer than one tail block and only its start
        # says whether it is a trailer.
        head = write_simple_log(tmp_path, [], status=LogStatus.REAPED)
        text = Path(head).read_text()
        p = tmp_path / log_filename("n1", "long")
        p.write_text(text.replace("status=reaped",
                                  "status=reaped " + "x=y " * 400))
        assert read_status(str(p)) is LogStatus.REAPED
        p.write_text(text + "1,package," + "0" * 2000 + "\n")
        assert read_status(str(p)) is LogStatus.OPEN

    def test_trailer_only_file(self, tmp_path):
        p = tmp_path / log_filename("n1", "bare")
        p.write_text(f"{END_PREFIX}status=closed\n")
        assert read_status(str(p)) is LogStatus.CLOSED

    def test_malformed_trailer_raises(self, tmp_path):
        p = tmp_path / log_filename("n1", "bad")
        p.write_text(f"{END_PREFIX}status=open\n")
        with pytest.raises(ParseError, match="may not declare status open"):
            read_status(str(p))
        p.write_text(f"{END_PREFIX}status=done\n")
        with pytest.raises(ParseError, match="bad end trailer"):
            read_status(str(p))


class TestHasRecord:
    @pytest.fixture
    def open_log(self, tmp_path):
        """A log a live writer holds open, released without a trailer
        once the test is done."""
        path = str(tmp_path / log_filename("n1", "head"))
        writer = LogWriter(path, "n1", {RaplDomain.PACKAGE: PKG_SPEC,
                                        RaplDomain.DRAM: DRAM_SPEC}, 0)
        yield path, writer
        writer.abandon()

    def test_headers_only(self, open_log):
        path, _ = open_log
        assert not has_record(path)

    def test_headers_and_gap_marker(self, open_log):
        path, writer = open_log
        writer.gap(10, RaplDomain.PACKAGE)
        assert not has_record(path)

    def test_torn_first_record(self, open_log):
        path, _ = open_log
        with open(path, "a", encoding="ascii") as fh:
            fh.write("10,package,12")
        assert not has_record(path)

    def test_complete_record(self, open_log):
        path, writer = open_log
        writer.gap(10, RaplDomain.PACKAGE)
        writer.record(20, RaplDomain.DRAM, 7)
        assert has_record(path)

    def test_empty_file(self, tmp_path):
        p = tmp_path / log_filename("n1", "empty")
        p.write_text("")
        assert not has_record(str(p))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            has_record(str(tmp_path / log_filename("n1", "absent")))


# ------------------------------------------------- differential parse test

def _reference_kv(body: str, path: str, lineno: int) -> dict[str, str]:
    out: dict[str, str] = {}
    for token in body.split():
        key, sep, value = token.partition("=")
        if not sep or not key:
            raise ParseError("malformed key=value token " + repr(token),
                             path=path, line=lineno)
        out[key] = value
    return out


def reference_parse_log(path: str) -> NodeEnergyLog:
    """The parser before the one-pass record branch, kept as the reference.

    Each record line is matched after the three directive prefixes, its
    domain goes through ``RaplDomain.parse`` and each sample is built as it
    is read.
    """
    with open(path, "r", encoding="ascii") as fh:
        content = fh.read()
    torn_tail = bool(content) and not content.endswith("\n")
    lines = content.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if torn_tail and lines:
        lines.pop()

    node_id: str | None = None
    epoch_wall_ns: int | None = None
    specs: dict[RaplDomain, CounterSpec] = {}
    samples: dict[RaplDomain, list[RawSample]] = {}
    gaps: dict[RaplDomain, list[int]] = {}
    status = LogStatus.OPEN
    saw_trailer = False

    for lineno, line in enumerate(lines, start=1):
        if saw_trailer:
            raise ParseError("content after end trailer", path=path,
                             line=lineno)
        if line.startswith(HEADER_PREFIX):
            kv = _reference_kv(line[len(HEADER_PREFIX):], path, lineno)
            try:
                domain = RaplDomain.parse(kv["domain"])
                spec = CounterSpec(domain=domain,
                                   bit_width=int(kv["bit_width"]),
                                   energy_unit_joules=float(kv["unit_j"]))
                node = kv["node"]
                epoch = int(kv["epoch_wall_ns"])
            except (KeyError, ValueError, InvalidArgumentError) as exc:
                raise ParseError(f"bad header: {exc}", path=path,
                                 line=lineno) from None
            if node_id is None:
                node_id, epoch_wall_ns = node, epoch
            elif node != node_id or epoch != epoch_wall_ns:
                raise ParseError(
                    f"{path}:{lineno}: header disagrees with earlier header "
                    f"(node {node!r} vs {node_id!r})")
            if domain in specs:
                raise ParseError(f"duplicate header for domain {domain}",
                                 path=path, line=lineno)
            specs[domain] = spec
            samples[domain] = []
            gaps[domain] = []
        elif line.startswith(GAP_PREFIX):
            kv = _reference_kv(line[len(GAP_PREFIX):], path, lineno)
            try:
                domain = RaplDomain.parse(kv["domain"])
                t_ns = int(kv["t_ns"])
            except (KeyError, ValueError, InvalidArgumentError) as exc:
                raise ParseError(f"bad gap marker: {exc}", path=path,
                                 line=lineno) from None
            if domain not in specs:
                raise ParseError(
                    f"{path}:{lineno}: gap for {domain} before its header")
            gaps[domain].append(t_ns)
        elif line.startswith(END_PREFIX):
            kv = _reference_kv(line[len(END_PREFIX):], path, lineno)
            try:
                status = LogStatus(kv["status"])
            except (KeyError, ValueError) as exc:
                raise ParseError(f"bad end trailer: {exc}", path=path,
                                 line=lineno) from None
            if status is LogStatus.OPEN:
                raise ParseError("trailer may not declare status open",
                                 path=path, line=lineno)
            saw_trailer = True
        elif line.startswith("#"):
            raise ParseError(f"unknown directive {line.split()[0]!r}",
                             path=path, line=lineno)
        else:
            parts = line.split(",")
            if len(parts) != 3:
                raise ParseError(f"expected t_ns,domain,raw got {line!r}",
                                 path=path, line=lineno)
            try:
                t_ns = int(parts[0])
                domain = RaplDomain.parse(parts[1])
                raw = int(parts[2])
            except (ValueError, InvalidArgumentError) as exc:
                raise ParseError(str(exc), path=path, line=lineno) from None
            if domain not in specs:
                raise ParseError(
                    f"{path}:{lineno}: record for {domain} before its header")
            if not 0 <= raw < specs[domain].modulus:
                raise ParseError(
                    f"raw {raw} outside [0, {specs[domain].modulus})",
                    path=path, line=lineno)
            dom_samples = samples[domain]
            if dom_samples and t_ns <= dom_samples[-1].t_ns:
                raise ParseError(
                    f"non-monotonic timestamp {t_ns} after "
                    f"{dom_samples[-1].t_ns}", path=path, line=lineno)
            dom_samples.append(RawSample(t_ns, raw))

    if node_id is None or epoch_wall_ns is None:
        raise ParseError(f"{path}: no header line found")
    if torn_tail:
        status = LogStatus.TRUNCATED

    series = {
        domain: build_series(node_id, specs[domain], samples[domain],
                             epoch_wall_ns=epoch_wall_ns,
                             gap_markers=gaps[domain])
        for domain in specs
    }
    return NodeEnergyLog(node_id=node_id,
                         session_id=session_from_filename(path, node_id),
                         status=status, series=series)


PKG, DRAM = RaplDomain.PACKAGE, RaplDomain.DRAM
SPELLINGS = {PKG: ("package", "package", "Package", "PACKAGE"),
             DRAM: ("dram", "dram", "DRAM")}
LINE_FAULTS = (None, None, "fields", "empty", "before_header", "append",
               "cr")
T_FAULTS = (None, "underscore", "back")
DOMAIN_FAULTS = (None, "upper", "pad", "canonical", "unknown", "undeclared")
RAW_FAULTS = (None, "underscore", "range")


def _underscored(draw, text: str) -> str:
    """``text`` with underscores added: ``1_000`` is an int, ``1__0`` not."""
    if len(text) < 2:
        return text + draw(st.sampled_from(("", "_")))
    cut = draw(st.integers(1, len(text) - 1))
    return text[:cut] + draw(st.sampled_from(("_", "__"))) + text[cut:]


def _mutate(draw, line: str, modulus: int,
            first_t: str) -> tuple[str | None, str]:
    """A record line with zero or more faults, and where it goes.

    Each field draws its fault independently, so one line often breaks
    two checks at once and only the order of the checks decides which
    error is reported.
    """
    t, dom, raw = line.split(",")
    line_fault = draw(st.sampled_from(LINE_FAULTS))
    if line_fault == "fields":
        return line_fault, draw(st.sampled_from((
            f"{t},{dom}", f"{t},{dom},{raw},1", f"{t};{dom};{raw}", t)))
    if line_fault == "empty":
        return line_fault, ""
    if line_fault == "cr":
        cut = draw(st.integers(0, len(line)))
        return line_fault, line[:cut] + "\r" + line[cut:]
    t_fault = draw(st.sampled_from(T_FAULTS))
    if t_fault == "underscore":
        t = _underscored(draw, t)
    elif t_fault == "back":
        t = draw(st.sampled_from((first_t, "0", "-5")))
    dom_fault = draw(st.sampled_from(DOMAIN_FAULTS))
    if dom_fault == "upper":
        dom = dom.upper()
    elif dom_fault == "pad":
        dom = draw(st.sampled_from((" " + dom, "  " + dom, dom + " ")))
    elif dom_fault == "canonical":
        dom = dom.lower()
    elif dom_fault == "unknown":
        dom = draw(st.sampled_from(("gpu", "pkg", "", "package0")))
    elif dom_fault == "undeclared":
        dom = draw(st.sampled_from(("core", "psys", "dram")))
    raw_fault = draw(st.sampled_from(RAW_FAULTS))
    if raw_fault == "underscore":
        raw = _underscored(draw, raw)
    elif raw_fault == "range":
        raw = str(draw(st.sampled_from((modulus, modulus + 7, -1))))
    return line_fault, f"{t},{dom},{raw}"


@st.composite
def mutated_logs(draw) -> tuple[str, bool]:
    """Text of a valid log with faults in a few record lines."""
    domains = draw(st.sampled_from(((PKG,), (PKG, DRAM), (DRAM, PKG))))
    spelling = {d: draw(st.sampled_from(SPELLINGS[d])) for d in domains}
    width = {d: draw(st.sampled_from((8, 32))) for d in domains}
    lines = [f"{HEADER_PREFIX}node=n1 domain={spelling[d]} "
             f"bit_width={width[d]} unit_j=1e-06 epoch_wall_ns=7"
             for d in domains]
    t = 0
    for _ in range(draw(st.integers(0, 8))):
        t += draw(st.integers(1, 10**9))
        for d in domains:
            if draw(st.integers(0, 9)) == 0:
                lines.append(f"{GAP_PREFIX}t_ns={t} domain={d.value}")
            else:
                raw = draw(st.integers(0, 2**width[d] - 1))
                lines.append(f"{t},{spelling[d]},{raw}")
    status = draw(st.sampled_from((None, "closed", "truncated", "reaped")))
    if status is not None:
        lines.append(f"{END_PREFIX}status={status}")

    records = [i for i, ln in enumerate(lines) if ln[:1] != "#"]
    if records:
        first_t = lines[records[0]].split(",")[0]
        modulus = 2 ** max(width.values())
        head, tail = [], []
        for i in draw(st.lists(st.sampled_from(records), min_size=1,
                               max_size=2, unique=True)):
            where, line = _mutate(draw, lines[i], modulus, first_t)
            if where == "before_header":
                head.append(line)
            elif where == "append":
                tail.append(line)
            else:
                lines[i] = line
        lines = head + lines + tail
    if status is not None:
        # A "\r" ending the trailer, or on a line of its own after it.
        trailer = next(i for i, ln in enumerate(lines)
                       if ln.startswith(END_PREFIX))
        after = draw(st.sampled_from((None, None, "in", "line")))
        if after == "in":
            lines[trailer] += "\r"
        elif after == "line":
            lines.insert(trailer + 1, "\r")
    text = "".join(line + "\n" for line in lines)
    torn = draw(st.booleans()) and draw(st.booleans())
    if torn and text:
        text = text[:-1 - draw(st.integers(0, min(6, len(lines[-1]))))]
    return text, torn


def _outcome(parse, path: str):
    try:
        return ("parsed", parse(path))
    except ParseError as exc:
        return ("raised", type(exc), str(exc), exc.line)


# Block sizes for parse_log: one character, a few, a few lines, default.
BLOCK_SIZES = (1, 7, 64, logfile._PARSE_BLOCK)


_HEAD = (f"{HEADER_PREFIX}node=n1 domain=package bit_width=32 "
         f"unit_j=1e-06 epoch_wall_ns=7\n")
# Lines that break two neighbouring checks at once, so swapping any two
# checks changes the reported error on at least one of them.
TWO_FAULT_LOGS = (
    "5,package\n" + _HEAD,                       # field count, header
    _HEAD + "1__0,gpu,5\n",                      # int(t), domain
    _HEAD + "10,gpu,5__5\n",                     # domain, int(raw)
    _HEAD + "1__0,core,5\n",                     # int(t), header present
    _HEAD + "10,core,5__5\n",                    # int(raw), header present
    _HEAD + f"10,core,{2**32}\n",                 # header present, range
    _HEAD + f"10,package,1\n5,package,{2**32}\n",  # range, monotonic
    _HEAD + "10,package,1\n10,PACKAGE,2\n",      # monotonic, other spelling
)
_HEAD2 = _HEAD + (f"{HEADER_PREFIX}node=n1 domain=dram bit_width=32 "
                  f"unit_j=1e-06 epoch_wall_ns=7\n")
# One run per check of the block step, each failing only that check,
# and one run that starts on its second domain, which the step takes.
BLOCK_STEP_LOGS = (
    _HEAD + "10,package,1\n20 5\n",              # skeleton line
    _HEAD + "10,package,1\n20,package,\n",       # two integers a line
    _HEAD + f"10,package,1\n20,package,{2**32}\n",  # range
    _HEAD + "10,package,1\n10,package,2\n",      # order within the run
    _HEAD + f"10,package,1\n{GAP_PREFIX}t_ns=12 domain=package\n"
    "5,package,2\n",                             # order after the column
    _HEAD + "10,package,1\n" + "9" * 5000 + ",package,2\n",  # int() limit
    _HEAD + "10,package,1\n020,package,2\n",     # leading zero, parses
    _HEAD + "10,package,1\n2#0,package,2\n",     # "#" inside a record
    _HEAD + "10,package,1\n20,package,2#\n",     # "#" ending a record
    _HEAD2 + "10,dram,1\n10,package,1\n"
    "20,dram,2\n20,package,2\n",                 # cycle from the 2nd header
    _HEAD2 + "10,package,1\n10,dram,1\n20,dram,2\n20,package,2\n"
    "30,package,3\n30,dram,3\n",                 # cycle broken mid-run
    _HEAD + "10,package,1\n20,PACKAGE,2\n",      # header's case only
    _HEAD + "10,package,1\n20,pack7age,30\n",    # digit inside a spelling
)
# Block edges at each block size: a record whose "\r\n" straddles the
# edge of a 64-character block (the block starts with that record), a
# lone "\r" there, and a torn last line longer than the default block.
_EDGE_RECORD = "0" * 51 + "10,package,1"
EDGE_LOGS = (
    _HEAD + _EDGE_RECORD + "\r\n20,package,2\r\n"
    + f"{END_PREFIX}status=closed\r\n",
    _HEAD + _EDGE_RECORD + "\r20,package,2\r",
    _HEAD + "10,package,1\n" + "2" * (logfile._PARSE_BLOCK + 5),
)


class TestDifferentialParse:
    @given(log=mutated_logs())
    @example(log=(TWO_FAULT_LOGS[0], False))
    @example(log=(TWO_FAULT_LOGS[1], False))
    @example(log=(TWO_FAULT_LOGS[2], False))
    @example(log=(TWO_FAULT_LOGS[3], False))
    @example(log=(TWO_FAULT_LOGS[4], False))
    @example(log=(TWO_FAULT_LOGS[5], False))
    @example(log=(TWO_FAULT_LOGS[6], False))
    @example(log=(TWO_FAULT_LOGS[7], False))
    @example(log=(BLOCK_STEP_LOGS[0], False))
    @example(log=(BLOCK_STEP_LOGS[1], False))
    @example(log=(BLOCK_STEP_LOGS[2], False))
    @example(log=(BLOCK_STEP_LOGS[3], False))
    @example(log=(BLOCK_STEP_LOGS[4], False))
    @example(log=(BLOCK_STEP_LOGS[5], False))
    @example(log=(BLOCK_STEP_LOGS[6], False))
    @example(log=(BLOCK_STEP_LOGS[7], False))
    @example(log=(BLOCK_STEP_LOGS[8], False))
    @example(log=(BLOCK_STEP_LOGS[9], False))
    @example(log=(BLOCK_STEP_LOGS[10], False))
    @example(log=(BLOCK_STEP_LOGS[11], False))
    @example(log=(BLOCK_STEP_LOGS[12], False))
    @example(log=(EDGE_LOGS[0], False))
    @example(log=(EDGE_LOGS[1], False))
    @example(log=(EDGE_LOGS[2], True))
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_parse_matches_reference(self, tmp_path, monkeypatch, log):
        # At every block size, so that block cuts land inside runs of
        # records, next to directives and on the torn tail.
        text, _ = log
        path = tmp_path / log_filename("n1", f"d{next(_UNIQUE)}")
        path.write_text(text, encoding="ascii")
        expected = _outcome(reference_parse_log, str(path))
        for size in BLOCK_SIZES:
            monkeypatch.setattr(logfile, "_PARSE_BLOCK", size)
            assert _outcome(parse_log, str(path)) == expected, size

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    def test_timestamp_past_signed_64_bits(self, tmp_path, monkeypatch,
                                           size):
        # Not differential: the reference finds this only when it builds
        # the series, without a line number.
        monkeypatch.setattr(logfile, "_PARSE_BLOCK", size)
        path = tmp_path / log_filename("n1", f"t64{size}")
        path.write_text(_HEAD + f"10,package,1\n{2**63 - 1},package,2\n",
                        encoding="ascii")
        assert list(parse_log(str(path)).series[PKG].times) == [10, 2**63 - 1]
        path.write_text(_HEAD + f"10,package,1\n{2**63},package,2\n",
                        encoding="ascii")
        with pytest.raises(ParseError) as exc:
            parse_log(str(path))
        assert exc.value.line == 3
        assert str(exc.value).endswith(
            f"timestamp {2**63} outside the signed 64-bit range")

    def test_irregular_multi_block_log(self, tmp_path, monkeypatch):
        # A clean log over many blocks whose lines do not cycle through
        # the domains in one order: gap markers, a domain skipping a tick,
        # ticks in another order.  The block step leaves such runs to the
        # checked path.
        path = tmp_path / log_filename("n1", "irregular")
        path.write_text(irregular_log(random.Random(12), ticks=3000),
                        encoding="ascii")
        expected = _outcome(reference_parse_log, str(path))
        assert expected[0] == "parsed"
        assert len(expected[1].series[DRAM].gap_markers) > 0
        for size in (64, 1000, logfile._PARSE_BLOCK):
            monkeypatch.setattr(logfile, "_PARSE_BLOCK", size)
            assert _outcome(parse_log, str(path)) == expected, size

    @pytest.mark.parametrize("size", (1024, logfile._PARSE_BLOCK))
    @pytest.mark.parametrize("gaps", (False, True))
    def test_block_step_takes_every_writer_run(self, tmp_path, monkeypatch,
                                               size, gaps):
        # A clean LogWriter log over many blocks, its runs cut by blocks
        # and by gap markers, never reaches the checked path.  Refusing
        # such runs would keep every result right and only cost time.
        rng = random.Random(19)
        path = str(tmp_path / log_filename("n1", "fast"))
        specs = {PKG: PKG_SPEC, DRAM: DRAM_SPEC}
        w = LogWriter(path, "n1", specs, epoch_wall_ns=1_000)
        written: dict = {PKG: [], DRAM: []}
        t = 0
        for _ in range(8000):
            t += rng.randint(1, 10**9)
            for d in specs:
                if gaps and rng.random() < 0.01:
                    w.gap(t, d)
                else:
                    raw = rng.randrange(2**32)
                    w.record(t, d, raw)
                    written[d].append((t, raw))
        w.close()
        assert os.path.getsize(path) > 8 * size

        def refuse(*args):
            raise AssertionError("block step refused a writer run")

        monkeypatch.setattr(logfile, "_PARSE_BLOCK", size)
        monkeypatch.setattr(logfile, "_append_record", refuse)
        parsed = parse_log(path)
        for d, samples in written.items():
            series = parsed.series[d]
            assert list(zip(series.times, series.raws)) == samples
            assert bool(series.gap_markers) == gaps
        inside = [t // 3, t // 2]
        counted = logfile.read_counts(
            path, lambda node, span: [1_000 + e for e in inside])
        for d, samples in written.items():
            assert len(counted.series[d]) == len(samples)
            assert counts_at(counted.series[d], inside) == \
                counts_at(parsed.series[d], inside)

    def test_generator_reaches_each_outcome(self, tmp_path):
        # The property above is only as strong as the cases it sees: valid
        # logs, records in another spelling than their header, and every
        # check must all occur.  A fixed seed keeps this count stable.
        seen: set[str] = set()

        @given(log=mutated_logs())
        @settings(max_examples=400, deadline=None, derandomize=True)
        def collect(log):
            text, torn = log
            path = tmp_path / log_filename("n1", f"c{next(_UNIQUE)}")
            path.write_text(text, encoding="ascii")
            outcome = _outcome(reference_parse_log, str(path))
            if outcome[0] == "raised":
                seen.update(n for n in NEEDLES if n in outcome[2])
                return
            seen.add("parsed-torn" if torn else "parsed")
            lines = text.splitlines()
            headers = {ln.split("domain=")[1].split()[0] for ln in lines
                       if ln.startswith(HEADER_PREFIX)}
            if any(ln.split(",")[1] not in headers for ln in lines
                   if ln.count(",") == 2):
                seen.add("parsed-other-spelling")

        collect()
        assert seen == set(NEEDLES) | {"parsed", "parsed-torn",
                                       "parsed-other-spelling"}


def irregular_log(rng: random.Random, ticks: int) -> str:
    """A valid three-domain log in which about one reading in eleven is
    missing, one in a hundred is a gap marker instead, and one tick in ten
    lists its domains in a shuffled order."""
    domains = [PKG, DRAM, RaplDomain.CORE]
    lines = [f"{HEADER_PREFIX}node=n1 domain={d.value} bit_width=32 "
             f"unit_j=1e-06 epoch_wall_ns=7" for d in domains]
    t = 0
    raws = dict.fromkeys(domains, 0)
    for _ in range(ticks):
        t += rng.randint(1, 10**9)
        order = list(domains)
        if rng.random() < 0.1:
            rng.shuffle(order)
        for d in order:
            roll = rng.random()
            if roll < 0.01:
                lines.append(f"{GAP_PREFIX}t_ns={t} domain={d.value}")
            elif roll > 0.1:
                raws[d] = (raws[d] + rng.randint(0, 10**6)) % 2**32
                lines.append(f"{t},{d.value},{raws[d]}")
    lines.append(f"{END_PREFIX}status=closed")
    return "".join(line + "\n" for line in lines)


NEEDLES = ("expected t_ns,domain,raw", "invalid literal",
           "unknown counter domain", "before its header", "outside",
           "non-monotonic", "after end trailer")


# ------------------------------------- tail and head readers vs parse_log

ENDINGS = ("\n", "\r\n", "\r")


@st.composite
def ended_logs(draw) -> str:
    """A valid log whose lines end in any of the three line breaks.

    The trailer may be padded past the tail reader's block, and the text
    may be cut anywhere in its last few bytes, half of a ``\\r\\n``
    included.
    """
    domains = draw(st.sampled_from(((PKG,), (PKG, DRAM))))
    lines = [f"{HEADER_PREFIX}node=n1 domain={d.value} bit_width=32 "
             f"unit_j=1e-06 epoch_wall_ns=7" for d in domains]
    t = 0
    for _ in range(draw(st.integers(0, 4))):
        t += draw(st.integers(1, 10**9))
        for d in domains:
            if draw(st.booleans()):
                lines.append(f"{GAP_PREFIX}t_ns={t} domain={d.value}")
            else:
                lines.append(f"{t},{d.value},{draw(st.integers(0, 99))}")
    status = draw(st.sampled_from((None, "closed", "truncated", "reaped")))
    if status is not None:
        pad = " " * draw(st.sampled_from((1, 1, 300)))
        lines.append(f"{END_PREFIX}{pad}status={status}")
    text = "".join(line + draw(st.sampled_from(ENDINGS)) for line in lines)
    if draw(st.booleans()):
        text = text[:len(text) - draw(st.integers(0, 4))]
    return text


class TestReadersAgreeWithParse:
    """Wherever ``parse_log`` reads a log, ``read_status`` gives its status
    and ``has_record`` says whether some series holds a sample."""

    @given(text=ended_logs())
    @example(text=_HEAD + f"{END_PREFIX}status=closed\r")
    @example(text=_HEAD.replace("\n", "\r") + "10,package,5\r")
    @example(text=_HEAD + "10,package,5\r\n" + f"{END_PREFIX}status=reaped\r")
    @example(text=_HEAD + f"{END_PREFIX}status=closed\r\n"[:-1])
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_tail_and_head_readers_match_parse(self, tmp_path, text):
        path = str(tmp_path / log_filename("n1", f"e{next(_UNIQUE)}"))
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        try:
            parsed = parse_log(path)
        except ParseError:
            return
        assert read_status(path) is parsed.status
        assert has_record(path) == any(
            len(s.samples) for s in parsed.series.values())

    def test_trailer_ending_in_carriage_return_is_closed(self, tmp_path):
        p = tmp_path / log_filename("n1", "cr")
        p.write_bytes((_HEAD + f"{END_PREFIX}status=closed\r").encode())
        assert parse_log(str(p)).status is LogStatus.CLOSED
        assert read_status(str(p)) is LogStatus.CLOSED

    def test_record_ending_in_carriage_return_counts(self, tmp_path):
        p = tmp_path / log_filename("n1", "crs")
        p.write_bytes((_HEAD.replace("\n", "\r") + "10,package,5\r").encode())
        assert len(parse_log(str(p)).series[PKG].samples) == 1
        assert has_record(str(p))
