"""Wrap-aware arithmetic over raw energy counters.

Hardware energy counters are unsigned registers that count fixed-size energy
units and silently roll over to zero when they exceed their bit width.  This
module turns sequences of raw readings into joules: single-wrap deltas and
windowed integration of a timestamped sample series.

A :class:`SampleSeries` is columnar: its timestamps are one ``array('q')``
and its raw readings one ``array('Q')``, so a day-long log costs 16 bytes
per sample and no tracked object.  :attr:`SampleSeries.samples` presents
the columns as a read-only sequence of :class:`RawSample`.  Unwrapped
cumulative counts are not stored: a :class:`CountWalker` is fed the
samples in order, keeps the first raw reading, the number of readings
that fell below their predecessor (wraps) and the last sample, and gives
the count at each of a fixed list of edges, an exact Python int for any
modulus before it is interpolated.  :func:`counts_at` feeds it a series'
columns; :func:`wattflow.logfile.read_counts` feeds it blocks of samples
as it reads a log, and keeps only the counts, as a :class:`SeriesCounts`.

All functions are pure and operate on immutable inputs; they are safe to call
from any number of threads.
"""

from __future__ import annotations

import bisect
import math
import operator
from array import array
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, islice
from typing import Any, Iterable, NamedTuple, Sequence

from .errors import (
    DegenerateSeriesError,
    InvalidArgumentError,
    WattflowError,
)

__all__ = [
    "RaplDomain",
    "CounterSpec",
    "RawSample",
    "SampleView",
    "SampleSeries",
    "CountWalker",
    "SeriesCounts",
    "EnergyQuantity",
    "raw_delta",
    "counts_at",
    "integrate_window",
    "series_total",
    "wrap_horizon_s",
]


class RaplDomain(Enum):
    """Power-accounting scope of an energy counter."""

    PACKAGE = "package"
    CORE = "core"
    GRAPHICS = "graphics"
    DRAM = "dram"
    PSYS = "psys"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, name: str) -> "RaplDomain":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise InvalidArgumentError(f"unknown counter domain {name!r}") from None


@dataclass(frozen=True)
class CounterSpec:
    """Geometry of one energy counter.

    Attributes:
        domain: Power domain the counter accounts for.
        bit_width: Register width in bits, 1..64.  The counter wraps at
            ``wrap_modulus`` which defaults to ``2**bit_width``.
        energy_unit_joules: Joules represented by one raw count.
        wrap_modulus: Optional override for counters that wrap at an
            advertised maximum range rather than a power of two (the
            powercap sysfs backend reads this range at startup).  Must not
            exceed ``2**bit_width``.
    """

    domain: RaplDomain
    bit_width: int
    energy_unit_joules: float
    wrap_modulus: int | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.bit_width <= 64:
            raise InvalidArgumentError(
                f"bit_width must be in [1, 64], got {self.bit_width}")
        if not (math.isfinite(self.energy_unit_joules)
                and self.energy_unit_joules > 0):
            raise InvalidArgumentError(
                f"energy_unit_joules must be finite and positive, "
                f"got {self.energy_unit_joules}")
        if self.wrap_modulus is not None:
            if not 0 < self.wrap_modulus <= (1 << self.bit_width):
                raise InvalidArgumentError(
                    f"wrap_modulus {self.wrap_modulus} outside "
                    f"(0, 2**{self.bit_width}]")

    @classmethod
    def from_obj(cls, obj: Any) -> "CounterSpec":
        """The spec a config document spells as ``domain``, ``bit_width``
        and ``unit_j``; an absent key means ``package``, 32 or 1e-6."""
        if not isinstance(obj, dict):
            raise InvalidArgumentError(
                f"counter spec must be an object, got {obj!r}")
        return cls(domain=RaplDomain.parse(obj.get("domain", "package")),
                   bit_width=int(obj.get("bit_width", 32)),
                   energy_unit_joules=float(obj.get("unit_j", 1e-6)))

    @property
    def modulus(self) -> int:
        """Value at which the counter wraps to zero."""
        return self.wrap_modulus if self.wrap_modulus is not None \
            else 1 << self.bit_width


class RawSample(NamedTuple):
    """One raw counter reading: monotonic nanoseconds and counts.

    A tuple subclass: it unpacks and equals the plain tuple
    ``(t_ns, raw)``.
    """

    t_ns: int
    raw: int


@dataclass(frozen=True)
class EnergyQuantity:
    """A non-negative, finite amount of energy in joules."""

    joules: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.joules):
            raise WattflowError(
                f"energy is not a finite real: {self.joules}")
        if self.joules < 0:
            raise InvalidArgumentError(f"energy must be >= 0, got {self.joules}")

    def __float__(self) -> float:
        return self.joules


class SampleView(SequenceABC):
    """Read-only sequence of :class:`RawSample` over a series' columns."""

    __slots__ = ("_times", "_raws")

    def __init__(self, times: array, raws: array) -> None:
        self._times = times
        self._raws = raws

    def __len__(self) -> int:
        return len(self._times)

    def __getitem__(self, index: int) -> RawSample:
        index = operator.index(index)  # a slice is refused, not mis-paired
        return RawSample(self._times[index], self._raws[index])


def _first_offender(times: Sequence[int], raws: Sequence[int],
                    modulus: int) -> InvalidArgumentError:
    """The error naming the first sample that fails validation.

    Checks each sample in order as ``SampleSeries`` always has: raw range,
    then strictly increasing time; then that the time fits the signed
    64-bit column.
    """
    prev_t = None
    for t_ns, raw in zip(times, raws):
        if not 0 <= raw < modulus:
            return InvalidArgumentError(
                f"raw value {raw} outside [0, {modulus}) at t={t_ns}")
        if prev_t is not None and t_ns <= prev_t:
            return InvalidArgumentError(
                f"non-monotonic timestamp {t_ns} after {prev_t}")
        if not -(1 << 63) <= t_ns < 1 << 63:
            return InvalidArgumentError(
                f"timestamp {t_ns} outside the signed 64-bit range")
        prev_t = t_ns
    return InvalidArgumentError(
        f"{len(times)} timestamps for {len(raws)} raw values")


class CountWalker:
    """Unwrapped counts of one counter at fixed edges, from its samples fed
    in order.

    ``edges_ns`` are strictly increasing monotonic times.  The walker keeps
    the first raw reading, the wrap count (readings below their
    predecessor so far) and the last sample, so its memory is the edges
    and their counts however many samples it is fed.  The count at sample
    ``i`` is ``raws[i] - raws[0] + modulus * wraps[i]``, an exact int.  An
    edge between two samples takes the count interpolated between them,
    ``c0 + (c1 - c0) * ((t - t0) / (t1 - t0))``; an edge at the last
    sample takes ``float(c)`` of that sample's count.  An edge before the
    first sample or after the last one gets no count.

    A block of samples that holds edges builds its own wrap-count prefix,
    so each of its edges costs one bisection; a block without edges only
    adds its wraps to the count.
    """

    __slots__ = ("modulus", "edges", "counts", "first_t", "last_t",
                 "samples", "first_edge", "_next", "_raw0", "_last_raw",
                 "_wraps")

    def __init__(self, modulus: int, edges_ns: Sequence[int]) -> None:
        self.modulus = modulus
        self.edges = edges_ns
        # The counts of edges[first_edge:], one per edge resolved so far.
        self.counts: list[float] = []
        self.first_t: int | None = None
        self.last_t: int | None = None
        self.samples = 0
        self.first_edge = 0
        self._next = 0
        self._raw0 = self._last_raw = self._wraps = 0

    def feed(self, times: Sequence[int], raws: Sequence[int]) -> None:
        """Take the next samples, already checked: at least one, times
        increasing from :attr:`last_t`, raws inside ``[0, modulus)``."""
        edges, k = self.edges, self._next
        self.samples += len(times)
        if self.last_t is None:
            self.first_t, self._raw0 = times[0], raws[0]
            k = self.first_edge = bisect.bisect_left(edges, times[0])
        # Edges before this block's last sample are resolved now; one at
        # that sample waits for the next sample, or for the end.
        stop = bisect.bisect_left(edges, times[-1], k)
        if stop > k:
            if self.last_t is not None:
                # An edge before the block's first sample lies after the
                # previous block's last one.
                times = [self.last_t, *times]
                raws = [self._last_raw, *raws]
            wraps = array("q", accumulate(
                map(operator.lt, islice(raws, 1, None), raws),
                initial=self._wraps))
            raw0, modulus = self._raw0, self.modulus
            append, bisect_right = self.counts.append, bisect.bisect_right
            i = 0
            for t_ns in edges[k:stop]:
                i = bisect_right(times, t_ns, i) - 1
                t0 = times[i]
                c0 = raws[i] - raw0 + modulus * wraps[i]
                c1 = raws[i + 1] - raw0 + modulus * wraps[i + 1]
                append(c0 + (c1 - c0) * ((t_ns - t0) / (times[i + 1] - t0)))
            self._wraps = wraps[-1]
        else:
            self._wraps += sum(map(operator.lt, islice(raws, 1, None), raws))
            if self.last_t is not None and raws[0] < self._last_raw:
                self._wraps += 1
        self._next = stop
        self.last_t, self._last_raw = times[-1], raws[-1]

    def last_count(self) -> int:
        """The unwrapped count at the last sample fed."""
        return self._last_raw - self._raw0 + self.modulus * self._wraps

    def finish(self) -> list[float]:
        """The counts of ``edges[first_edge:]`` through the last sample,
        once every sample has been fed."""
        k = self._next
        if k < len(self.edges) and self.edges[k] == self.last_t:
            self.counts.append(float(self.last_count()))
            self._next = k + 1
        return self.counts


def _degenerate(node_id: str, spec: CounterSpec,
                samples: int) -> DegenerateSeriesError:
    return DegenerateSeriesError(
        f"series for {node_id}/{spec.domain} has {samples} sample(s); "
        f"need >= 2")


@dataclass(frozen=True)
class SampleSeries:
    """Ordered raw readings of one counter on one node.

    ``times`` and ``raws`` are the columns: integer nanoseconds on the
    node's monotonic clock, strictly increasing, and raw counts in
    ``[0, spec.modulus)``.  Any integer sequences are accepted and stored
    as ``array('q')`` and ``array('Q')``; ``samples`` shows them as a
    read-only sequence of :class:`RawSample`.  ``epoch_wall_ns`` maps
    monotonic zero to wall time so traces recorded in wall time can be
    correlated (wall = epoch_wall_ns + t_ns).

    ``gap_markers`` lists timestamps where the producing agent recorded a
    failed read; ``wrap_horizon_ns`` is the configured minimum wrap period
    (see :func:`wrap_horizon_s`) used to flag gaps long enough that a wrap
    could have been missed.
    """

    node_id: str
    spec: CounterSpec
    times: array
    raws: array
    epoch_wall_ns: int = 0
    gap_markers: tuple[int, ...] = ()
    wrap_horizon_ns: int | None = None
    samples: SampleView = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        modulus = self.spec.modulus
        times, raws = self.times, self.raws
        try:
            if not (isinstance(times, array) and times.typecode == "q"):
                times = array("q", times)
            if not (isinstance(raws, array) and raws.typecode == "Q"):
                raws = array("Q", raws)
        except OverflowError:
            raise _first_offender(self.times, self.raws, modulus) from None
        if len(times) != len(raws) or (raws and max(raws) >= modulus) or \
                not all(map(operator.lt, times, islice(times, 1, None))):
            raise _first_offender(times, raws, modulus)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "raws", raws)
        object.__setattr__(self, "samples", SampleView(times, raws))

    def __len__(self) -> int:
        return len(self.times)

    @property
    def span_ns(self) -> tuple[int, int]:
        if len(self.times) < 2:
            raise _degenerate(self.node_id, self.spec, len(self.times))
        return self.times[0], self.times[-1]

    def _counts(self, edges_ns: Sequence[int]) -> list[float]:
        walker = CountWalker(self.spec.modulus, edges_ns)
        walker.feed(self.times, self.raws)
        return walker.finish()

    def unsafe_gaps(self) -> list[tuple[int, int]]:
        """Sample gaps wide enough that an undetected wrap was possible,
        sorted.

        A gap is unsafe when it exceeds half the wrap horizon (the shortest
        time the counter could take to wrap at the configured maximum power).
        Explicit gap markers recorded by the agent are always unsafe.
        """
        gaps = {(t, t) for t in self.gap_markers}
        if self.wrap_horizon_ns is not None:
            limit = self.wrap_horizon_ns // 2
            times = self.times
            gaps.update((a, b) for a, b in zip(times, islice(times, 1, None))
                        if b - a > limit)
        return sorted(gaps)


@dataclass(frozen=True)
class SeriesCounts:
    """One counter's counts at chosen edges, read from its samples without
    keeping them.

    What a report needs of a :class:`SampleSeries` when the edges it
    integrates between are known before the samples are read: the number
    of samples, the first and last sample's times (``ends``, None with no
    sample), the gap markers, and the unwrapped count at each edge a
    :class:`CountWalker` resolved and at the two end samples: ``counts``
    at the increasing monotonic times ``edges_ns``.  :func:`counts_at`
    answers from them and raises for an edge they do not hold.  A log
    carries no wrap horizon, so the unsafe spans are the gap markers.
    """

    node_id: str
    spec: CounterSpec
    length: int
    ends: tuple[int, int] | None
    edges_ns: array
    counts: array
    epoch_wall_ns: int = 0
    gap_markers: tuple[int, ...] = ()

    @classmethod
    def from_walker(cls, node_id: str, spec: CounterSpec,
                    walker: CountWalker, epoch_wall_ns: int = 0,
                    gap_markers: tuple[int, ...] = ()) -> "SeriesCounts":
        """The counts a walker fed every sample of a series resolved."""
        counts = array("d", walker.finish())
        k = walker.first_edge
        edges = array("q", walker.edges[k:k + len(counts)])
        ends = None
        if walker.samples:
            # What an edge at either end sample takes.
            ends = (walker.first_t, walker.last_t)
            if not edges or edges[0] != walker.first_t:
                edges.insert(0, walker.first_t)
                counts.insert(0, 0.0)
            if edges[-1] != walker.last_t:
                edges.append(walker.last_t)
                counts.append(float(walker.last_count()))
        return cls(node_id=node_id, spec=spec, length=walker.samples,
                   ends=ends, edges_ns=edges, counts=counts,
                   epoch_wall_ns=epoch_wall_ns, gap_markers=gap_markers)

    def __len__(self) -> int:
        return self.length

    @property
    def span_ns(self) -> tuple[int, int]:
        if self.length < 2:
            raise _degenerate(self.node_id, self.spec, self.length)
        return self.ends

    def _positions(self, edges_ns: Iterable[int]) -> list[int] | None:
        """Where each of increasing ``edges_ns`` sits in ``edges_ns`` of
        this series, or None when one has no count here."""
        edges, found, i = self.edges_ns, [], 0
        for t_ns in edges_ns:
            i = bisect.bisect_left(edges, t_ns, i)
            if i == len(edges) or edges[i] != t_ns:
                return None
            found.append(i)
        return found

    def has_counts(self, edges_ns: Iterable[int]) -> bool:
        """Whether every one of increasing ``edges_ns`` has a count here."""
        return self._positions(edges_ns) is not None

    def _counts(self, edges_ns: Sequence[int]) -> list[float]:
        # A report asks at the edges it read at, a run of edges_ns; they
        # lie in the sampled span (counts_at checks), so in the array's range.
        edges, n = self.edges_ns, len(edges_ns)
        i = bisect.bisect_left(edges, edges_ns[0])
        if edges[i:i + n] == array("q", edges_ns):
            return self.counts[i:i + n].tolist()
        found = self._positions(edges_ns)
        if found is None:
            missing = next(t for t in edges_ns if t not in self.edges_ns)
            raise WattflowError(
                f"no count read for {self.node_id}/{self.spec.domain} at "
                f"{missing} ns")
        counts = self.counts
        return [counts[i] for i in found]

    def unsafe_gaps(self) -> list[tuple[int, int]]:
        """The gap markers, each a span of no width, sorted."""
        return sorted({(t, t) for t in self.gap_markers})


def raw_delta(prev: int, curr: int, bit_width: int) -> int:
    """Counter increment between two raw readings, assuming at most one wrap.

    Args:
        prev: Earlier raw reading, ``0 <= prev < 2**bit_width``.
        curr: Later raw reading, same range.
        bit_width: Register width in bits, 1..64.

    Returns:
        ``curr - prev`` if no wrap occurred, otherwise
        ``curr + 2**bit_width - prev``.  Always in ``[0, 2**bit_width)``.

    Raises:
        InvalidArgumentError: If either reading is outside the register range.
    """
    if not 1 <= bit_width <= 64:
        raise InvalidArgumentError(f"bit_width must be in [1, 64], got {bit_width}")
    modulus = 1 << bit_width
    if not (0 <= prev < modulus and 0 <= curr < modulus):
        raise InvalidArgumentError(
            f"raw values must lie in [0, {modulus}), got prev={prev} curr={curr}")
    return (curr - prev) % modulus


def counts_at(series: SampleSeries | SeriesCounts,
              edges_ns: Sequence[int]) -> list[float]:
    """Unwrapped cumulative counts at each of increasing window edges.

    Counters refresh far more often than they are sampled, so cumulative
    energy is modeled as linear between consecutive samples: the count at
    an edge is interpolated between the two samples around it (the count
    at the last sample is that sample's).  A :class:`CountWalker` fed the
    series' columns gives them all in one forward walk; a
    :class:`SeriesCounts` gives the counts it read.  The energy between
    two edges is ``max(c_hi - c_lo, 0.0)`` times the counter's energy
    unit, exactly what :func:`integrate_window` gives for that window.

    Args:
        series: Sample series, or counts read from one, with at least two
            samples.
        edges_ns: Two or more strictly increasing monotonic nanosecond
            times inside the sampled span.

    Returns:
        One count per edge, as a float.

    Raises:
        DegenerateSeriesError: Fewer than two samples.
        InvalidArgumentError: Fewer than two edges, or edges that do not
            increase.
        WattflowError: An edge beyond the sampled span, an edge a
            :class:`SeriesCounts` holds no count for, or energy between
            the first and last edge that is not a finite real.
    """
    first, last = series.span_ns
    if len(edges_ns) < 2:
        raise InvalidArgumentError(
            f"need two or more window edges, got {len(edges_ns)}")
    if not all(map(operator.lt, edges_ns, islice(edges_ns, 1, None))):
        lo, hi = next((a, b) for a, b in zip(edges_ns, edges_ns[1:])
                      if a >= b)
        raise InvalidArgumentError(f"window start {lo} must precede end {hi}")
    if edges_ns[0] < first:
        raise WattflowError(
            f"window starts {first - edges_ns[0]} ns before first sample")
    if edges_ns[-1] > last:
        raise WattflowError(
            f"window ends {edges_ns[-1] - last} ns after last sample")
    counts = series._counts(edges_ns)
    if not math.isfinite((counts[-1] - counts[0])
                         * series.spec.energy_unit_joules):
        raise WattflowError(
            f"energy over [{edges_ns[0]}, {edges_ns[-1]}] is not a finite "
            f"real")
    return counts


def integrate_window(series: SampleSeries | SeriesCounts,
                     window_start_ns: int,
                     window_end_ns: int) -> EnergyQuantity:
    """Energy accumulated by the counter inside a time window.

    The two-edge case of :func:`counts_at`: the unwrapped count at each
    window edge is linearly interpolated between the two samples around
    the edge; the energy is
    the difference of the two counts times the counter's energy unit.
    ``series_total`` is this over the whole sampled span, so every report,
    resume and simulation shares one path from raw counts to joules.

    Args:
        series: Sample series with at least two samples.
        window_start_ns: Window start, monotonic nanoseconds.
        window_end_ns: Window end; must be greater than the start.

    Returns:
        Energy in joules.

    Raises:
        DegenerateSeriesError: Fewer than two samples.
        InvalidArgumentError: Empty or inverted window.
        WattflowError: Window extends beyond the sampled span, or the
            energy is not a finite real.
    """
    c_lo, c_hi = counts_at(series, (window_start_ns, window_end_ns))
    return EnergyQuantity(max(c_hi - c_lo, 0.0)
                          * series.spec.energy_unit_joules)


def series_total(series: SampleSeries) -> EnergyQuantity:
    """Energy over the full sampled span."""
    return integrate_window(series, *series.span_ns)


def wrap_horizon_s(spec: CounterSpec, max_power_watts: float) -> float:
    """Shortest time the counter could take to wrap at a bounded power draw.

    Sampling (or gaps) longer than half this horizon can miss a wrap, which
    is why such gaps are flagged rather than silently integrated.
    """
    if not max_power_watts > 0:
        raise InvalidArgumentError(
            f"max_power_watts must be positive, got {max_power_watts}")
    return spec.modulus * spec.energy_unit_joules / max_power_watts


def build_series(node_id: str, spec: CounterSpec,
                 samples: Iterable[RawSample] | Sequence[RawSample],
                 epoch_wall_ns: int = 0,
                 gap_markers: Iterable[int] = (),
                 wrap_horizon_ns: int | None = None) -> SampleSeries:
    """Convenience constructor accepting any iterable of samples."""
    samples = tuple(samples)
    return SampleSeries(node_id=node_id, spec=spec,
                        times=[s.t_ns for s in samples],
                        raws=[s.raw for s in samples],
                        epoch_wall_ns=epoch_wall_ns,
                        gap_markers=tuple(gap_markers),
                        wrap_horizon_ns=wrap_horizon_ns)
