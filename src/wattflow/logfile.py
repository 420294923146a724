"""Text log format for counter samples.

One log file per node and session, shared-storage friendly: plain lines,
appended by a single writer, readable at any time by any number of readers.
A file starts with one header line per recorded domain, followed by sample
records interleaved across domains, and normally ends with a trailer giving
the close status.

Line grammar::

    #wattflow-v1 node=<id> domain=<name> bit_width=<n> unit_j=<real> epoch_wall_ns=<int>
    <t_ns>,<domain>,<raw>
    #wattflow-gap t_ns=<int> domain=<name>
    #wattflow-end status=<closed|truncated|reaped>

Record lines make up nearly all of a long log, so the reader reads the
file in blocks of about 32 KiB and handles each run of record lines
between two lines holding ``#`` in one block step of a few passes at C
speed.  With its digits deleted, the run must equal one cycle of
``,<header spelling>,`` lines repeated, which one comparison checks; with
its letters deleted instead, ``json``'s scanner decodes all its numbers
in one pass.  The values are split by domain, each domain's range and
order are checked, and only then are each domain's samples fed to its
sink.  A run that fails any check feeds nothing and is read again line
by line on the checked path, which names the first failing line and its
number; directive lines are always read one at a time.  Two readers
share that front end and differ only in the sink.  :func:`parse_log`
grows each domain's columns, an ``array('q')`` of times and an
``array('Q')`` of raw counts, which become the :class:`SampleSeries` as
they are.  :func:`read_counts` feeds a :class:`CountWalker` at edges the
caller plans and keeps only the counts, so its memory does not grow with
the log; it reads the log a second time only when the first read lacks a
count at the final edges.  Both return a :class:`NodeEnergyLog`, the one
type accounting takes.
:func:`read_status` answers "has this log closed?" from the file's tail
alone, and :func:`has_record` answers "has this log a record yet?" from
its head, for callers that poll a growing log.

The sampling agent appends the same lines to every open session log each
tick, so :func:`format_tick` formats a tick once, making the checks that
do not depend on a log's history, and :meth:`LogWriter.append_tick` adds
each log's own timestamp check and appends the block in one write.
"""

from __future__ import annotations

import bisect
import json
import logging
import operator
import os
import re
import string
from array import array
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import accumulate, islice
from typing import Callable, Mapping, Sequence

from .counter import (
    CounterSpec,
    CountWalker,
    RaplDomain,
    RawSample,
    SampleSeries,
    SeriesCounts,
)
from .errors import (
    AlreadyActiveError,
    DegenerateSeriesError,
    InvalidArgumentError,
    ParseError,
)

log = logging.getLogger(__name__)

HEADER_PREFIX = "#wattflow-v1 "
GAP_PREFIX = "#wattflow-gap "
END_PREFIX = "#wattflow-end "
_END_PREFIX_BYTES = END_PREFIX.encode("ascii")
_TAIL_BLOCK = 256

_FILENAME_RE = re.compile(r"^rapl_(?P<rest>.+)\.csv$")

# parse_log reads a log in blocks of this many characters.
_PARSE_BLOCK = 32 * 1024
_DIGITS = string.digits.encode("ascii")
_LETTERS = string.ascii_letters.encode("ascii")
_NEWLINE_TO_COMMA = bytes.maketrans(b"\n", b",")
_T_END = 2 ** 63


class LogStatus(Enum):
    """How a session log ended.

    OPEN means no trailer was found: the writer is still running or died
    without closing.
    """

    CLOSED = "closed"
    TRUNCATED = "truncated"
    REAPED = "reaped"
    OPEN = "open"


def log_filename(node_id: str, session_id: str) -> str:
    return f"rapl_{node_id}_{session_id}.csv"


def session_from_filename(filename: str, node_id: str) -> str:
    """Recover the session id from a log file name, given the node id.

    Node ids may contain underscores, so the split needs the node id (which
    the file header provides).
    """
    m = _FILENAME_RE.match(os.path.basename(filename))
    if not m:
        raise InvalidArgumentError(f"not a session log name: {filename!r}")
    rest = m.group("rest")
    prefix = node_id + "_"
    if not rest.startswith(prefix):
        raise InvalidArgumentError(
            f"log name {filename!r} does not embed node {node_id!r}")
    return rest[len(prefix):]


def format_header(node_id: str, spec: CounterSpec, epoch_wall_ns: int) -> str:
    return (f"{HEADER_PREFIX}node={node_id} domain={spec.domain} "
            f"bit_width={spec.bit_width} unit_j={spec.energy_unit_joules!r} "
            f"epoch_wall_ns={epoch_wall_ns}")


def format_record(t_ns: int, domain: RaplDomain, raw: int) -> str:
    return f"{t_ns},{domain},{raw}"


@dataclass(frozen=True)
class TickBlock:
    """One sampling tick's lines, formatted once for every log it goes to.

    ``data`` holds the tick's encoded record and gap lines, up to the first
    reading the logs refuse whatever their history: a domain without a
    header, or a raw count outside the counter's modulus.  ``refusal`` is
    that refusal's message, or None when every reading was taken.
    ``stamps`` holds, for each record line, the offset in ``data`` where
    it starts, its domain's name and its timestamp, for each log to check
    against its own last timestamp.
    """

    data: bytes
    stamps: tuple[tuple[int, str, int], ...]
    refusal: str | None


def format_tick(specs: Mapping[RaplDomain, CounterSpec],
                readings: Mapping[RaplDomain, RawSample | None],
                gap_t_ns: int) -> TickBlock:
    """Format one tick's readings, in the mapping's order, for logs whose
    headers are ``specs``.

    A reading of None becomes a gap marker at ``gap_t_ns``, as
    :meth:`LogWriter.gap` writes it; any other becomes a record line, as
    :meth:`LogWriter.record` writes it, once its domain has a header and
    its raw count lies inside the modulus.  The first reading that fails
    either check ends the block (see :class:`TickBlock`).
    """
    data = b""
    stamps: list[tuple[int, str, int]] = []
    refusal = None
    for domain, sample in readings.items():
        spec = specs.get(domain)
        if spec is None:
            refusal = f"domain {domain} has no header in this log"
            break
        if sample is None:
            data += _gap_line(gap_t_ns, domain)
            continue
        t_ns, raw = sample
        modulus = spec.modulus
        if not 0 <= raw < modulus:
            refusal = f"raw {raw} outside [0, {modulus}) for {domain}"
            break
        stamps.append((len(data), str(domain), t_ns))
        data += _record_line(t_ns, domain, raw)
    return TickBlock(data=data, stamps=tuple(stamps), refusal=refusal)


def _record_line(t_ns: int, domain: RaplDomain, raw: int) -> bytes:
    return (format_record(t_ns, domain, raw) + "\n").encode("ascii")


def _gap_line(t_ns: int, domain: RaplDomain) -> bytes:
    return f"{GAP_PREFIX}t_ns={t_ns} domain={domain}\n".encode("ascii")


class LogWriter:
    """Single-writer appender for one session log.

    Creates the file exclusively, writes all domain headers up front, then
    appends each record, gap marker or tick block with one unbuffered
    write, so concurrent readers on shared storage never see torn lines
    held in a userspace buffer.  Timestamps are checked per domain, keyed
    by the domain's name as the log spells it.
    """

    def __init__(self, path: str, node_id: str,
                 specs: Mapping[RaplDomain, CounterSpec],
                 epoch_wall_ns: int) -> None:
        if not specs:
            raise InvalidArgumentError("at least one domain spec required")
        self.specs = dict(specs)
        self._last_t: dict[str, int] = {}
        self._closed = False
        try:
            self._fh = open(path, "xb", buffering=0)
        except FileExistsError:
            raise AlreadyActiveError(
                f"session log {path} already exists") from None
        self._write("".join(
            format_header(node_id, spec, epoch_wall_ns) + "\n"
            for spec in self.specs.values()).encode("ascii"))

    def record(self, t_ns: int, domain: RaplDomain, raw: int) -> None:
        spec = self._spec_for(domain)
        if not 0 <= raw < spec.modulus:
            raise InvalidArgumentError(
                f"raw {raw} outside [0, {spec.modulus}) for {domain}")
        name = str(domain)
        last = self._last_t.get(name)
        if last is not None and t_ns <= last:
            raise InvalidArgumentError(
                f"non-monotonic timestamp {t_ns} after {last} for {domain}")
        self._last_t[name] = t_ns
        self._write(_record_line(t_ns, domain, raw))

    def gap(self, t_ns: int, domain: RaplDomain) -> None:
        self._spec_for(domain)
        self._write(_gap_line(t_ns, domain))

    def append_tick(self, block: TickBlock) -> None:
        """Append a tick that :func:`format_tick` formatted for this log's
        headers, in one write.

        Ends as the same calls of :meth:`record` and :meth:`gap` would:
        a record whose timestamp is not after its domain's last one, or the
        block's refusal, raises :class:`InvalidArgumentError` once the
        lines before it are written.
        """
        last_t = self._last_t
        data, refusal = block.data, block.refusal
        for start, name, t_ns in block.stamps:
            last = last_t.get(name)
            if last is not None and t_ns <= last:
                data = data[:start]
                refusal = (f"non-monotonic timestamp {t_ns} after {last} "
                           f"for {name}")
                break
            last_t[name] = t_ns
        if data:
            self._write(data)
        if refusal is not None:
            raise InvalidArgumentError(refusal)

    def close(self, status: LogStatus = LogStatus.CLOSED) -> None:
        if self._closed:
            return
        if status is LogStatus.OPEN:
            raise InvalidArgumentError("cannot close a log with status open")
        try:
            self._write(f"{END_PREFIX}status={status.value}\n"
                        .encode("ascii"))
        finally:
            self._fh.close()
            self._closed = True

    def abandon(self) -> None:
        """Release the handle without a trailer (simulates a writer crash)."""
        if not self._closed:
            self._fh.close()
            self._closed = True

    def _write(self, data: bytes) -> None:
        """One write of ``data``, repeated only for what a short write
        left."""
        written = self._fh.write(data)
        while written < len(data):
            data = data[written:]
            written = self._fh.write(data)

    def _spec_for(self, domain: RaplDomain) -> CounterSpec:
        try:
            return self.specs[domain]
        except KeyError:
            raise InvalidArgumentError(
                f"domain {domain} has no header in this log") from None


@dataclass(frozen=True)
class NodeEnergyLog:
    """One node's session log read back, and how it ended.

    Each recorded domain is a :class:`SampleSeries` (:func:`parse_log`) or
    the :class:`SeriesCounts` at chosen edges (:func:`read_counts`); every
    accounting function takes either.  Domains are kept in name order, the
    order accounting returns them in.  ``session_id`` is the one the log's
    file name carries, None for a log built by hand.
    """

    node_id: str
    series: Mapping[RaplDomain, SampleSeries | SeriesCounts]
    status: LogStatus = LogStatus.CLOSED
    session_id: str | None = None
    _unsafe: tuple[list[int], list[int]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.series:
            raise InvalidArgumentError(
                f"node {self.node_id}: no recorded domains")
        object.__setattr__(self, "series", dict(sorted(
            self.series.items(), key=lambda kv: kv[0].value)))
        for domain, series in self.series.items():
            if series.node_id != self.node_id:
                raise InvalidArgumentError(
                    f"series for {domain} belongs to {series.node_id!r}, "
                    f"not {self.node_id!r}")
            if series.spec.domain is not domain:
                raise InvalidArgumentError(
                    f"series keyed {domain} but carries "
                    f"{series.spec.domain}")

    def wall_span(self) -> tuple[int, int]:
        """Intersection of all domains' sampled spans, in wall time."""
        starts, ends = [], []
        for series in self.series.values():
            first, last = series.span_ns
            starts.append(first + series.epoch_wall_ns)
            ends.append(last + series.epoch_wall_ns)
        lo, hi = max(starts), min(ends)
        if hi <= lo:
            raise InvalidArgumentError(
                f"node {self.node_id}: recorded domains share no time span")
        return lo, hi

    def has_unsafe_gap(self, start_wall_ns: int, end_wall_ns: int) -> bool:
        """Whether an unsafe gap of any domain touches ``[start_wall_ns,
        end_wall_ns]``: some span starting by the end ends at or after
        the start.  The spans of every domain, in wall time, are merged
        into one sorted index on first use, so each call is one
        bisection."""
        if self._unsafe is None:
            spans = sorted((g0 + s.epoch_wall_ns, g1 + s.epoch_wall_ns)
                           for s in self.series.values()
                           for g0, g1 in s.unsafe_gaps())
            object.__setattr__(self, "_unsafe", (
                [g0 for g0, _ in spans],
                list(accumulate((g1 for _, g1 in spans), max))))
        starts, max_ends = self._unsafe
        k = bisect.bisect_right(starts, end_wall_ns)
        return k > 0 and max_ends[k - 1] >= start_wall_ns


class _Columns:
    """:func:`parse_log`'s sink for one domain: growing columns of times
    and raw counts."""

    __slots__ = ("modulus", "times", "raws", "last_t")

    def __init__(self, modulus: int) -> None:
        self.modulus = modulus
        self.times = array("q")
        self.raws = array("Q")
        self.last_t: int | None = None

    def feed(self, times: list[int], raws: list[int]) -> None:
        self.times.fromlist(times)
        self.raws.fromlist(raws)
        self.last_t = times[-1]


# One domain's sink while a log is read: a _Columns or a CountWalker.  The
# front end checks each sample against the sink's ``modulus`` and
# ``last_t``, then hands it over with ``feed(times, raws)``.
_Sink = _Columns | CountWalker


def _parse_kv(body: str, path: str,
              lineno: int | None) -> dict[str, str]:
    out: dict[str, str] = {}
    for token in body.split():
        key, sep, value = token.partition("=")
        if not sep or not key:
            raise ParseError("malformed key=value token " + repr(token),
                             path=path, line=lineno)
        out[key] = value
    return out


def _parse_trailer(line: str, path: str,
                   lineno: int | None) -> LogStatus:
    kv = _parse_kv(line[len(END_PREFIX):], path, lineno)
    try:
        status = LogStatus(kv["status"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad end trailer: {exc}", path=path,
                         line=lineno) from None
    if status is LogStatus.OPEN:
        raise ParseError("trailer may not declare status open",
                         path=path, line=lineno)
    return status


def _non_ascii(line: str, path: str, lineno: int) -> ParseError | None:
    """The error for a line holding a byte the ASCII format forbids.

    The file is decoded with ``surrogateescape``, so each such byte is a
    lone surrogate that names it.
    """
    if line.isascii():
        return None
    byte = next(ord(c) for c in line if not c.isascii()) - 0xDC00
    return ParseError(f"non-ASCII byte 0x{byte:02x}", path=path, line=lineno)


def _append_record(line: str, lineno: int, path: str,
                   by_spelling: Mapping[str, _Sink],
                   sinks: Mapping[RaplDomain, _Sink]) -> None:
    """Check one record line in full and feed it to its domain's sink.

    The checked path of the log reader: it runs, line by line, for a run
    of records the block step did not take, and reports the first failing
    check in the reader's fixed order.
    """
    error = _non_ascii(line, path, lineno)
    if error is not None:
        raise error
    fields = line.split(",")
    if len(fields) != 3:
        raise ParseError(f"expected t_ns,domain,raw got {line!r}",
                         path=path, line=lineno)
    t_text, domain_text, raw_text = fields
    sink = by_spelling.get(domain_text)
    try:
        t_ns = int(t_text)
        if sink is None:
            domain = RaplDomain.parse(domain_text)
        raw = int(raw_text)
    except (ValueError, InvalidArgumentError) as exc:
        raise ParseError(str(exc), path=path, line=lineno) from None
    if sink is None:
        sink = sinks.get(domain)
        if sink is None:
            raise ParseError(
                f"{path}:{lineno}: record for {domain} before its header")
    if not 0 <= raw < sink.modulus:
        raise ParseError(f"raw {raw} outside [0, {sink.modulus})",
                         path=path, line=lineno)
    last = sink.last_t
    if last is not None and t_ns <= last:
        raise ParseError(f"non-monotonic timestamp {t_ns} after {last}",
                         path=path, line=lineno)
    if not -_T_END <= t_ns < _T_END:
        raise ParseError(f"timestamp {t_ns} outside the signed 64-bit range",
                         path=path, line=lineno)
    sink.feed([t_ns], [raw])


def _take_run(run: str, by_line: Mapping[bytes, _Sink]) -> int:
    """Feed a run of record lines to their sinks in one block step, and
    return its line count, or 0 when it feeds nothing.

    ``run`` is whole lines, each ending in ``\\n``; ``by_line`` maps each
    header's ``,<spelling>,\\n`` to its domain's sink.  The step is all or
    nothing: it feeds only when every line is ``<digits>,<header
    spelling>,<digits>`` with no leading zero, the lines cycle through
    their domains in one order, and each domain's raw counts lie inside its
    modulus and its timestamps increase from its sink's last one and stay
    inside the signed 64-bit range.

    With its digits deleted, a passing run is its skeleton: one cycle of
    ``,<spelling>,\\n`` lines, the lines up to the first repeat, repeated
    and cut after a whole line, so one comparison checks every line's
    shape and domain and the cycle gives the line count.  With its
    letters deleted instead, each line reads ``<t>,,<raw>``; collapsing
    ``,,`` and joining the lines with ``,`` leaves the run's numbers as
    one JSON array, which ``json``'s C scanner decodes in one pass into
    the ints ``int()`` gives.  The scanner refuses an empty field, a
    leading zero (which ``int()`` reads) and more digits than the
    interpreter converts, and each refusal leaves the run to the checked
    path.
    """
    try:
        data = run.encode("ascii")
    except UnicodeEncodeError:
        return 0
    skeleton = data.translate(None, _DIGITS)
    cycle: dict[bytes, _Sink] = {}
    end = 0
    while end < len(skeleton):
        stop = skeleton.index(b"\n", end) + 1
        line = skeleton[end:stop]
        if line in cycle:
            break
        sink = by_line.get(line)
        if sink is None:
            return 0
        cycle[line] = sink
        end = stop
    reps, rem = divmod(len(skeleton), end)
    pattern = skeleton[:end]
    if skeleton != pattern * reps + pattern[:rem]:
        return 0
    width = len(cycle)
    n = reps * width + pattern.count(b"\n", 0, rem)

    pairs = data.translate(None, _LETTERS)
    numbers = pairs.replace(b",,", b",")
    # Each line's two commas are adjacent once its letters are gone,
    # unless a digit sits inside its spelling.
    if len(pairs) - len(numbers) != n:
        return 0
    try:
        values = json.loads(b"[" + numbers.translate(_NEWLINE_TO_COMMA)[:-1]
                            + b"]")
    except ValueError:
        return 0

    # A LogWriter log cycles through its domains in one order, so each
    # domain's values are a stride slice.
    parts = [(sink, values[2 * j::2 * width], values[2 * j + 1::2 * width])
             for j, sink in enumerate(cycle.values())]
    for sink, times, raws in parts:
        last = sink.last_t
        if max(raws) >= sink.modulus or times[-1] >= _T_END or \
                (last is not None and times[0] <= last) or \
                not all(map(operator.lt, times, islice(times, 1, None))):
            return 0
    for sink, times, raws in parts:
        sink.feed(times, raws)
    return n


# Per domain, as the log reader returns it: spec, sink, gap marker times.
_Domain = tuple[CounterSpec, _Sink, list[int]]


def _read_log(path: str, new_sink: Callable[[CounterSpec, str, int], _Sink]
              ) -> tuple[str, int, LogStatus, dict[RaplDomain, _Domain]]:
    """The one log reader behind :func:`parse_log` and :func:`read_counts`.

    Reads the file in text mode with universal newlines, so ``\\r`` and
    ``\\r\\n`` end a line as ``\\n`` does, in blocks of about 32 KiB, each
    finished with one ``readline`` so that it ends on a line break; only a
    torn tail at the end of the file does not.  Each ``#`` directive line
    is handled on its own; a header asks ``new_sink(spec, node_id,
    epoch_wall_ns)`` for its domain's sink.  A run of record lines ends
    before the next line holding ``#``, found with one ``find`` and backed
    up to its line's start; a ``#`` inside a record line sends that line
    alone to the checked path, which names it.  Each run goes to its
    domains' sinks in one block step (:func:`_take_run`) that checks the
    whole run at C speed, feeds all of it or nothing, and gives its line
    count; a run it refuses, including one whose lines do not cycle
    through their domains in one order, is read again line by line,
    which feeds what is valid and names the first failing line.  A final
    line without a terminating newline is treated as torn by a crashed
    writer: it is dropped and the log is marked truncated.

    Returns the node id, the epoch, the status and, per domain in header
    order, its spec, its sink and its gap markers.
    """
    node_id: str | None = None
    epoch_wall_ns: int | None = None
    domains: dict[RaplDomain, _Domain] = {}
    # Per domain, its sink, also reachable by the domain's header spelling
    # for the checked path, and by ``,<spelling>,\n`` for the block step.
    sinks: dict[RaplDomain, _Sink] = {}
    by_spelling: dict[str, _Sink] = {}
    by_line: dict[bytes, _Sink] = {}
    status = LogStatus.OPEN
    saw_trailer = False
    lineno = 0
    tail = ""

    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        while text := fh.read(_PARSE_BLOCK):
            if text[-1] != "\n":
                text += fh.readline()
            cut = text.rfind("\n") + 1
            tail = text[cut:]
            start = 0
            while start < cut:
                if saw_trailer:
                    raise ParseError("content after end trailer", path=path,
                                     line=lineno + 1)
                if text[start] != "#":
                    # The run ends before the line holding the next "#", a
                    # directive's or one inside a record, or at the cut.
                    mark = text.find("#", start, cut)
                    stop = cut if mark < 0 else \
                        text.rfind("\n", start, mark) + 1
                    if stop > start:
                        n = _take_run(text[start:stop], by_line)
                    else:
                        # A "#" inside this line: the checked path names it.
                        stop = text.index("\n", mark) + 1
                        n = 0
                    if not n:
                        lines = text[start:stop - 1].split("\n")
                        for i, line in enumerate(lines, start=lineno + 1):
                            _append_record(line, i, path, by_spelling, sinks)
                        n = len(lines)
                    lineno += n
                    start = stop
                    continue
                stop = text.index("\n", start) + 1
                line = text[start:stop - 1]
                start = stop
                lineno += 1
                error = _non_ascii(line, path, lineno)
                if error is not None:
                    raise error
                if line.startswith(HEADER_PREFIX):
                    kv = _parse_kv(line[len(HEADER_PREFIX):], path, lineno)
                    try:
                        domain = RaplDomain.parse(kv["domain"])
                        spec = CounterSpec(
                            domain=domain, bit_width=int(kv["bit_width"]),
                            energy_unit_joules=float(kv["unit_j"]))
                        node = kv["node"]
                        epoch = int(kv["epoch_wall_ns"])
                    except (KeyError, ValueError,
                            InvalidArgumentError) as exc:
                        raise ParseError(f"bad header: {exc}", path=path,
                                         line=lineno) from None
                    if node_id is None:
                        node_id, epoch_wall_ns = node, epoch
                    elif node != node_id or epoch != epoch_wall_ns:
                        raise ParseError(
                            f"{path}:{lineno}: header disagrees with earlier "
                            f"header (node {node!r} vs {node_id!r})")
                    if domain in domains:
                        raise ParseError(
                            f"duplicate header for domain {domain}",
                            path=path, line=lineno)
                    sink = new_sink(spec, node_id, epoch_wall_ns)
                    domains[domain] = (spec, sink, [])
                    sinks[domain] = by_spelling[kv["domain"]] = sink
                    by_line[f",{kv['domain']},\n".encode("ascii")] = sink
                elif line.startswith(GAP_PREFIX):
                    kv = _parse_kv(line[len(GAP_PREFIX):], path, lineno)
                    try:
                        domain = RaplDomain.parse(kv["domain"])
                        t_ns = int(kv["t_ns"])
                    except (KeyError, ValueError,
                            InvalidArgumentError) as exc:
                        raise ParseError(f"bad gap marker: {exc}", path=path,
                                         line=lineno) from None
                    if domain not in domains:
                        raise ParseError(
                            f"{path}:{lineno}: gap for {domain} before its "
                            f"header")
                    domains[domain][2].append(t_ns)
                elif line.startswith(END_PREFIX):
                    status = _parse_trailer(line, path, lineno)
                    saw_trailer = True
                else:
                    raise ParseError(f"unknown directive {line.split()[0]!r}",
                                     path=path, line=lineno)

    if tail:
        log.warning("%s: dropping unterminated final line %r", path, tail)
        status = LogStatus.TRUNCATED
    if node_id is None or epoch_wall_ns is None:
        raise ParseError(f"{path}: no header line found")
    return node_id, epoch_wall_ns, status, domains


def parse_log(path: str) -> NodeEnergyLog:
    """Read a session log back into immutable sample series.

    Round-trips exactly what :class:`LogWriter` wrote: integer timestamps
    and raw counts are preserved bit for bit, the energy unit through its
    shortest decimal representation.  Each domain's samples grow an
    ``array('q')`` of times and an ``array('Q')`` of raw counts, which
    become its :class:`SampleSeries` as they are; nothing else grows with
    the log.

    Raises:
        ParseError: Malformed line, unknown domain, non-monotonic timestamp,
            out-of-range raw value, a byte outside ASCII (message carries
            path and line number), a record or gap before its domain
            header, no header at all, or headers disagreeing on node or
            epoch.
    """
    node_id, epoch, status, domains = _read_log(
        path, lambda spec, _node, _epoch: _Columns(spec.modulus))
    return NodeEnergyLog(
        node_id=node_id, status=status,
        session_id=session_from_filename(path, node_id), series={
            domain: SampleSeries(node_id=node_id, spec=spec,
                                 times=columns.times, raws=columns.raws,
                                 epoch_wall_ns=epoch,
                                 gap_markers=tuple(gaps))
            for domain, (spec, columns, gaps) in domains.items()})


def _read_counts_at(path: str, edges_for: Callable[[str], Sequence[int]]
                    ) -> NodeEnergyLog:
    """One read of a log into each domain's counts at
    ``edges_for(node_id)``, asked once the first header is read."""
    planned: list[array] = []

    def walker(spec: CounterSpec, node_id: str, epoch: int) -> CountWalker:
        if not planned:
            planned.append(array("q", [
                t for t in (t - epoch for t in edges_for(node_id))
                if -_T_END <= t < _T_END]))
        return CountWalker(spec.modulus, planned[0])

    node_id, epoch, status, domains = _read_log(path, walker)
    return NodeEnergyLog(
        node_id=node_id, status=status,
        session_id=session_from_filename(path, node_id), series={
            domain: SeriesCounts.from_walker(node_id, spec, walker,
                                             epoch_wall_ns=epoch,
                                             gap_markers=tuple(gaps))
            for domain, (spec, walker, gaps) in domains.items()})


# Edges a log is read at: ``edges(node_id, span)`` gives the wall-ns
# edges for the log's node, with ``span`` None before the log is read and
# the log's sampled wall span after.
EdgePlan = Callable[[str, "tuple[int, int] | None"], Sequence[int]]


def read_counts(path: str, edges: EdgePlan) -> NodeEnergyLog:
    """Read a session log into each domain's counts at the edges a report
    needs, keeping none of its samples.

    Every domain's samples go, block by block, to a :class:`CountWalker`
    at ``edges(node_id, None)``, asked once the first header is read, so
    memory is bounded by the block size and the edges, not by the log's
    length.  Each series is a :class:`SeriesCounts`: the counts at the
    edges inside its sampled span and at its two end samples, its sample
    count and span, and its gap markers.  An edge outside the signed
    64-bit range of the log's monotonic time lies outside every sampled
    span, and is dropped.

    When that read holds no count at one of ``edges(node_id, span)``, with
    ``span`` the log's sampled wall span (:meth:`NodeEnergyLog.wall_span`),
    the log is read a second time at those edges: the span clipped the
    planned window, or the domains' spans differ.  Only the counts of the
    second read are kept; span, gaps and status stay those of the first,
    so a log that grew between the reads gives the counts of the log as
    first read.  A log with no usable span is returned as first read,
    since no count of it is used.

    Raises:
        ParseError: As :func:`parse_log`, which reads the file with the
            same code, or the log's node or domains changed between the
            two reads.
    """
    planned: list[Sequence[int]] = []

    def first_edges(node_id: str) -> Sequence[int]:
        planned.append(edges(node_id, None))
        return planned[0]

    log = _read_counts_at(path, first_edges)
    try:
        span = log.wall_span()
    except (DegenerateSeriesError, InvalidArgumentError):
        return log
    final = edges(log.node_id, span)
    # Planned edges inside the span have counts in every domain.
    if final == planned[0] or all(
            s.has_counts([t - s.epoch_wall_ns for t in final])
            for s in log.series.values()):
        return log
    again = _read_counts_at(path, lambda _node: final)
    if again.node_id != log.node_id or \
            again.series.keys() != log.series.keys():
        raise ParseError(f"{path}: log changed between reads")
    return replace(log, series={
        domain: replace(s, edges_ns=again.series[domain].edges_ns,
                        counts=again.series[domain].counts)
        for domain, s in log.series.items()})


def has_record(path: str) -> bool:
    """Whether a log holds a complete record line, read from its head.

    Reads lines as :func:`parse_log` does, with universal newlines, until
    the first complete one that is not a ``#`` directive; a torn last line
    does not count.  Costs the header lines and one record however long
    the log is.

    Raises:
        OSError: The file cannot be opened or read.
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for line in fh:
            if line[-1] != "\n":
                return False
            if line[0] != "#":
                return True
    return False


def read_status(path: str) -> LogStatus:
    """How a log has ended so far, read from the file's tail only.

    Returns the trailer's status when the last complete line is a trailer,
    ``TRUNCATED`` when the file ends inside a line (a torn tail, as
    :func:`parse_log` reads it), and ``OPEN`` otherwise, including when
    content follows a trailer.  Lines end as :func:`parse_log` ends them:
    at ``\n``, ``\r\n`` or ``\r``.  Costs a few small reads however long
    the log is, so a caller can poll it while the writer finishes.

    Raises:
        OSError: The file cannot be opened or read.
        ParseError: The last line is a malformed trailer.
    """
    with open(path, "rb") as fh:
        end = fh.seek(0, os.SEEK_END)
        if end == 0:
            return LogStatus.OPEN
        fh.seek(end - 1)
        if fh.read(1) not in (b"\n", b"\r"):
            return LogStatus.TRUNCATED
        # Read backwards until the line break before the last line, if any.
        pos, tail, start = end, b"", -1
        while pos > 0 and start < 0:
            step = min(_TAIL_BLOCK, pos)
            pos -= step
            fh.seek(pos)
            tail = fh.read(step) + tail
            body = tail[:-2] if tail.endswith(b"\r\n") else tail[:-1]
            start = max(body.rfind(b"\n"), body.rfind(b"\r"))
    last = body[start + 1:]
    if not last.startswith(_END_PREFIX_BYTES):
        return LogStatus.OPEN
    return _parse_trailer(last.decode("ascii", "replace"), path, None)
