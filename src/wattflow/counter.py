"""Wrap-aware arithmetic over raw energy counters.

Hardware energy counters are unsigned registers that count fixed-size energy
units and silently roll over to zero when they exceed their bit width.  This
module turns sequences of raw readings into joules: single-wrap deltas, unit
conversion, and windowed integration of a timestamped sample series.

A :class:`SampleSeries` is columnar: its timestamps are one ``array('q')``
and its raw readings one ``array('Q')``, so a day-long log costs 16 bytes
per sample and no tracked object.  Unwrapped cumulative counts are not
stored; a wrap-count prefix is (``wraps[i]`` counts the readings up to
``i`` that fell below their predecessor), and the count at sample ``i`` is
``raws[i] - raws[0] + modulus * wraps[i]``, an exact Python int for any
modulus.  :attr:`SampleSeries.samples` presents the columns as a read-only
sequence of :class:`RawSample`.

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
from itertools import accumulate, islice, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    DegenerateSeriesError,
    InvalidArgumentError,
    OverflowComputationError,
    WindowOutOfRangeError,
)

__all__ = [
    "RaplDomain",
    "CounterSpec",
    "RawSample",
    "SampleView",
    "SampleSeries",
    "EnergyQuantity",
    "raw_delta",
    "wrap_delta",
    "to_joules",
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
            raise OverflowComputationError(
                f"energy is not a finite real: {self.joules}")
        if self.joules < 0:
            raise InvalidArgumentError(f"energy must be >= 0, got {self.joules}")

    def __float__(self) -> float:
        return self.joules


# Builds a RawSample from a (t_ns, raw) pair without a Python-level call.
_new_sample = tuple.__new__


class SampleView(SequenceABC):
    """Read-only sequence of :class:`RawSample` over a series' columns.

    Indexing builds one ``RawSample``; slicing returns a view of the
    sliced columns.  A view equals another view, or a tuple, holding the
    same samples in the same order.
    """

    __slots__ = ("_times", "_raws")

    def __init__(self, times: array, raws: array) -> None:
        self._times = times
        self._raws = raws

    def __len__(self) -> int:
        return len(self._times)

    def __getitem__(self, index):
        if index.__class__ is slice:
            return SampleView(self._times[index], self._raws[index])
        return _new_sample(RawSample, (self._times[index], self._raws[index]))

    def __iter__(self) -> Iterator[RawSample]:
        return map(_new_sample, repeat(RawSample),
                   zip(self._times, self._raws))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SampleView):
            return self._times == other._times and self._raws == other._raws
        if isinstance(other, tuple):
            return len(other) == len(self) and \
                all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"SampleView({tuple(self)!r})"


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
    _wraps: array | None = field(default=None, init=False, repr=False,
                                 compare=False)

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
            raise DegenerateSeriesError(
                f"series for {self.node_id}/{self.spec.domain} has "
                f"{len(self.times)} sample(s); need >= 2")
        return self.times[0], self.times[-1]

    def _count_at(self, i: int) -> int:
        """Unwrapped counts from the first sample to sample ``i``."""
        wraps = self._wraps
        if wraps is None:
            raws = self.raws
            wraps = array("q", accumulate(
                map(operator.lt, islice(raws, 1, None), raws), initial=0))
            object.__setattr__(self, "_wraps", wraps)
        return self.raws[i] - self.raws[0] + self.spec.modulus * wraps[i]

    def unsafe_gaps(self) -> list[tuple[int, int]]:
        """Sample gaps wide enough that an undetected wrap was possible.

        A gap is unsafe when it exceeds half the wrap horizon (the shortest
        time the counter could take to wrap at the configured maximum power).
        Explicit gap markers recorded by the agent are always unsafe.
        """
        gaps: list[tuple[int, int]] = []
        if self.wrap_horizon_ns is not None:
            limit = self.wrap_horizon_ns // 2
            times = self.times
            for a, b in zip(times, islice(times, 1, None)):
                if b - a > limit:
                    gaps.append((a, b))
        for t in self.gap_markers:
            gaps.append((t, t))
        return sorted(set(gaps))

    def has_unsafe_gap(self, start_ns: int, end_ns: int) -> bool:
        return any(g0 <= end_ns and g1 >= start_ns
                   for g0, g1 in self.unsafe_gaps())


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
    return wrap_delta(prev, curr, 1 << bit_width)


def wrap_delta(prev: int, curr: int, modulus: int) -> int:
    """Single-wrap counter delta for an arbitrary wrap modulus."""
    if prev < 0 or curr < 0 or prev >= modulus or curr >= modulus:
        raise InvalidArgumentError(
            f"raw values must lie in [0, {modulus}), got prev={prev} curr={curr}")
    return (curr - prev) % modulus


def to_joules(delta: int, spec: CounterSpec) -> EnergyQuantity:
    """Convert a raw counter delta to joules using the spec's energy unit.

    Raises:
        InvalidArgumentError: If ``delta`` is negative.
        OverflowComputationError: If the product is not a finite real.
    """
    if delta < 0:
        raise InvalidArgumentError(f"raw delta must be >= 0, got {delta}")
    joules = delta * spec.energy_unit_joules
    if not math.isfinite(joules):
        raise OverflowComputationError(
            f"{delta} counts x {spec.energy_unit_joules} J/count is not "
            f"representable as a finite real")
    return EnergyQuantity(joules)


def _cumulative_counts_at(series: SampleSeries, t_ns: int) -> float:
    """Unwrapped cumulative counts at ``t_ns``, linearly interpolated.

    Counters refresh far more often than they are sampled, so cumulative
    energy is modeled as linear between consecutive samples.
    """
    times = series.times
    i = bisect.bisect_right(times, t_ns) - 1
    if i == len(times) - 1:
        return float(series._count_at(i))
    t0, t1 = times[i], times[i + 1]
    c0, c1 = series._count_at(i), series._count_at(i + 1)
    return c0 + (c1 - c0) * ((t_ns - t0) / (t1 - t0))


def integrate_window(series: SampleSeries, window_start_ns: int,
                     window_end_ns: int) -> EnergyQuantity:
    """Energy accumulated by the counter inside a time window.

    Sums wrap-aware deltas between consecutive samples fully inside the
    window and adds linearly interpolated partial deltas at both boundaries.

    Args:
        series: Sample series with at least two samples.
        window_start_ns: Window start, monotonic nanoseconds.
        window_end_ns: Window end; must be greater than the start.

    Returns:
        Energy in joules.

    Raises:
        DegenerateSeriesError: Fewer than two samples.
        InvalidArgumentError: Empty or inverted window.
        WindowOutOfRangeError: Window extends beyond the sampled span
            (code ``window-head-out-of-range`` / ``window-tail-out-of-range``).
    """
    if len(series) < 2:
        raise DegenerateSeriesError(
            f"series for {series.node_id}/{series.spec.domain} has "
            f"{len(series)} sample(s); need >= 2")
    if window_start_ns >= window_end_ns:
        raise InvalidArgumentError(
            f"window start {window_start_ns} must precede end {window_end_ns}")
    first, last = series.span_ns
    if window_start_ns < first:
        raise WindowOutOfRangeError(
            f"window starts {first - window_start_ns} ns before first sample",
            code="window-head-out-of-range")
    if window_end_ns > last:
        raise WindowOutOfRangeError(
            f"window ends {window_end_ns - last} ns after last sample",
            code="window-tail-out-of-range")
    counts = (_cumulative_counts_at(series, window_end_ns)
              - _cumulative_counts_at(series, window_start_ns))
    return EnergyQuantity(max(counts, 0.0) * series.spec.energy_unit_joules)


def series_total(series: SampleSeries) -> EnergyQuantity:
    """Energy over the full sampled span (all wrap-aware deltas)."""
    if len(series) < 2:
        raise DegenerateSeriesError(
            f"series for {series.node_id}/{series.spec.domain} has "
            f"{len(series)} sample(s); need >= 2")
    return to_joules(series._count_at(len(series) - 1), series.spec)


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
