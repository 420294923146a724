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

Record lines make up nearly all of a long log, so :func:`parse_log` reads
the file line by line, tests for records first and handles each in one
pass: one split, one dict lookup of the domain by the spelling its header
used, and two appends to that domain's columns, an ``array('q')`` of
times and an ``array('Q')`` of raw counts, which become the
:class:`SampleSeries` as they are.  Any other spelling, and any line that
fails a check, takes a slow path that checks it in full and names the
first failure.  Nothing but the columns grows with the log.
:func:`read_status` answers "has this log closed?" from the file's tail
alone, and :func:`has_record` answers "has this log a record yet?" from
its head, for callers that poll a growing log.

The sampling agent appends the same lines to every open session log each
tick, so :func:`format_tick` formats a tick once, making the checks that
do not depend on a log's history, and :meth:`LogWriter.append_tick` adds
each log's own timestamp check and appends the block in one write.
"""

from __future__ import annotations

import logging
import os
import re
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .counter import CounterSpec, RaplDomain, RawSample, SampleSeries
from .errors import (
    AlreadyActiveError,
    HeaderMismatchError,
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

# One domain's columns while a log is read: modulus, times, raw counts.
_Column = tuple[int, array, array]


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
        self.path = path
        self.node_id = node_id
        self.specs = dict(specs)
        self.epoch_wall_ns = epoch_wall_ns
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

    def __enter__(self) -> "LogWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close(LogStatus.CLOSED)
        else:
            self.close(LogStatus.TRUNCATED)


@dataclass(frozen=True)
class ParsedLog:
    """One session log read back into per-domain sample series."""

    path: str
    node_id: str
    session_id: str
    epoch_wall_ns: int
    status: LogStatus
    series: Mapping[RaplDomain, SampleSeries]

    @property
    def flagged(self) -> bool:
        """True when the log needs attention before its numbers are trusted."""
        return (self.status is not LogStatus.CLOSED
                or any(s.gap_markers for s in self.series.values()))


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
                   by_spelling: Mapping[str, _Column],
                   columns: Mapping[RaplDomain, _Column]) -> None:
    """Check one record line in full and append it to its domain's columns.

    The slow path of :func:`parse_log`: it runs for a record the fast path
    did not take (another domain spelling, or a line that fails a check)
    and reports the first failing check in the parser's fixed order.
    """
    error = _non_ascii(line, path, lineno)
    if error is not None:
        raise error
    fields = line.split(",")
    if len(fields) != 3:
        raise ParseError(f"expected t_ns,domain,raw got {line!r}",
                         path=path, line=lineno)
    t_text, domain_text, raw_text = fields
    column = by_spelling.get(domain_text)
    try:
        t_ns = int(t_text)
        if column is None:
            domain = RaplDomain.parse(domain_text)
        raw = int(raw_text)
    except (ValueError, InvalidArgumentError) as exc:
        raise ParseError(str(exc), path=path, line=lineno) from None
    if column is None:
        column = columns.get(domain)
        if column is None:
            raise HeaderMismatchError(
                f"{path}:{lineno}: record for {domain} before its header")
    modulus, times, raws = column
    if not 0 <= raw < modulus:
        raise ParseError(f"raw {raw} outside [0, {modulus})",
                         path=path, line=lineno)
    if times and t_ns <= times[-1]:
        raise ParseError(f"non-monotonic timestamp {t_ns} after {times[-1]}",
                         path=path, line=lineno)
    try:
        times.append(t_ns)
    except OverflowError:
        raise ParseError(f"timestamp {t_ns} outside the signed 64-bit range",
                         path=path, line=lineno) from None
    raws.append(raw)


def parse_log(path: str) -> ParsedLog:
    """Read a session log back into immutable sample series.

    Round-trips exactly what :class:`LogWriter` wrote: integer timestamps
    and raw counts are preserved bit for bit, the energy unit through its
    shortest decimal representation.

    The file is read line by line with universal newlines, so ``\\r`` and
    ``\\r\\n`` end a line as ``\\n`` does.  Each record is appended
    straight to its domain's two columns.  A final line without a
    terminating newline is treated as torn by a crashed writer: it is
    dropped and the log is marked truncated.

    Raises:
        ParseError: Malformed line, unknown domain, non-monotonic timestamp,
            out-of-range raw value, or a byte outside ASCII (message carries
            path and line number).
        HeaderMismatchError: Record or gap before its domain header, no
            header at all, or headers disagreeing on node or epoch.
    """
    node_id: str | None = None
    epoch_wall_ns: int | None = None
    specs: dict[RaplDomain, CounterSpec] = {}
    gaps: dict[RaplDomain, list[int]] = {}
    # Per domain: (modulus, times, raws), also reachable by the domain's
    # header spelling so a record line costs one dict lookup.
    columns: dict[RaplDomain, _Column] = {}
    by_spelling: dict[str, _Column] = {}
    status = LogStatus.OPEN
    saw_trailer = torn_tail = False

    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line[-1] != "\n":
                log.warning("%s: dropping unterminated final line %r",
                            path, line)
                torn_tail = True
                break
            if saw_trailer:
                raise ParseError("content after end trailer", path=path,
                                 line=lineno)
            if line[0] != "#":
                # Fast path: the header's spelling, valid ints, in range
                # and in order.  ``int`` ignores the raw field's newline.
                try:
                    t_text, domain_text, raw_text = line.split(",")
                    modulus, times, raws = by_spelling[domain_text]
                    t_ns = int(t_text)
                    raw = int(raw_text)
                    if 0 <= raw < modulus and \
                            (not times or t_ns > times[-1]):
                        times.append(t_ns)
                        raws.append(raw)
                        continue
                except (ValueError, KeyError, OverflowError):
                    pass
                _append_record(line[:-1], lineno, path, by_spelling, columns)
                continue
            line = line[:-1]
            error = _non_ascii(line, path, lineno)
            if error is not None:
                raise error
            if line.startswith(HEADER_PREFIX):
                kv = _parse_kv(line[len(HEADER_PREFIX):], path, lineno)
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
                    raise HeaderMismatchError(
                        f"{path}:{lineno}: header disagrees with earlier "
                        f"header (node {node!r} vs {node_id!r})")
                if domain in specs:
                    raise ParseError(f"duplicate header for domain {domain}",
                                     path=path, line=lineno)
                specs[domain] = spec
                gaps[domain] = []
                column = (spec.modulus, array("q"), array("Q"))
                columns[domain] = by_spelling[kv["domain"]] = column
            elif line.startswith(GAP_PREFIX):
                kv = _parse_kv(line[len(GAP_PREFIX):], path, lineno)
                try:
                    domain = RaplDomain.parse(kv["domain"])
                    t_ns = int(kv["t_ns"])
                except (KeyError, ValueError, InvalidArgumentError) as exc:
                    raise ParseError(f"bad gap marker: {exc}", path=path,
                                     line=lineno) from None
                if domain not in specs:
                    raise HeaderMismatchError(
                        f"{path}:{lineno}: gap for {domain} before its "
                        f"header")
                gaps[domain].append(t_ns)
            elif line.startswith(END_PREFIX):
                status = _parse_trailer(line, path, lineno)
                saw_trailer = True
            else:
                raise ParseError(f"unknown directive {line.split()[0]!r}",
                                 path=path, line=lineno)

    if node_id is None or epoch_wall_ns is None:
        raise HeaderMismatchError(f"{path}: no header line found")
    if torn_tail:
        status = LogStatus.TRUNCATED

    series = {
        domain: SampleSeries(node_id=node_id, spec=specs[domain],
                             times=times, raws=raws,
                             epoch_wall_ns=epoch_wall_ns,
                             gap_markers=tuple(gaps[domain]))
        for domain, (_, times, raws) in columns.items()
    }
    return ParsedLog(path=path, node_id=node_id,
                     session_id=session_from_filename(path, node_id),
                     epoch_wall_ns=epoch_wall_ns, status=status,
                     series=series)


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
