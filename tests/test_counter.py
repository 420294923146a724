"""Unit and property tests for wrap-aware counter arithmetic."""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import pairwise

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wattflow.counter import (
    CounterSpec,
    EnergyQuantity,
    RaplDomain,
    RawSample,
    SampleSeries,
    SampleView,
    build_series,
    counts_at,
    integrate_window,
    raw_delta,
    series_total,
    wrap_horizon_s,
)
from wattflow.errors import (
    DegenerateSeriesError,
    InvalidArgumentError,
    WattflowError,
)

PKG = RaplDomain.PACKAGE


def spec(bit_width: int = 32, unit: float = 1e-6, **kw) -> CounterSpec:
    return CounterSpec(domain=PKG, bit_width=bit_width,
                       energy_unit_joules=unit, **kw)


class TestRawDelta:
    def test_no_wrap(self):
        assert raw_delta(100, 250, 32) == 150

    def test_wrap_near_top(self):
        # Oracle: curr + 2**38 - prev with prev = 2**38 - 10, curr = 5.
        assert raw_delta(2**38 - 10, 5, 38) == 15

    def test_equal_readings(self):
        assert raw_delta(7, 7, 8) == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            raw_delta(2**32, 0, 32)
        with pytest.raises(InvalidArgumentError):
            raw_delta(0, -1, 32)

    def test_rejects_bad_bit_width(self):
        with pytest.raises(InvalidArgumentError):
            raw_delta(0, 1, 0)
        with pytest.raises(InvalidArgumentError):
            raw_delta(0, 1, 65)

    @given(st.integers(min_value=0), st.integers(min_value=0),
           st.sampled_from([32, 36, 38, 64]))
    def test_matches_unbounded_integer_oracle(self, start, incr, bit_width):
        # A counter that truly counted start -> start + incr wraps to these
        # raw values; the single-wrap delta must recover incr whenever the
        # increment fits in one register period.
        modulus = 1 << bit_width
        incr %= modulus
        prev = start % modulus
        curr = (start + incr) % modulus
        assert raw_delta(prev, curr, bit_width) == incr

    @given(st.integers(min_value=0, max_value=2**38 - 1),
           st.integers(min_value=0, max_value=2**38 - 1))
    def test_result_in_register_range(self, prev, curr):
        d = raw_delta(prev, curr, 38)
        assert 0 <= d < 2**38


def two_sample_series(raw0: int, raw1: int, s: CounterSpec) -> SampleSeries:
    return build_series("n1", s, [RawSample(0, raw0), RawSample(10**9, raw1)])


class TestWrapDelta:
    """Single-wrap deltas at a modulus the spec gives, not the register's."""

    def test_non_power_of_two_modulus(self):
        # powercap advertises max range directly; 262143 max -> modulus
        # 262144, below the 2**20 register: 262140 -> 10 is 14 counts.
        s = spec(bit_width=20, unit=1.0, wrap_modulus=262144)
        assert series_total(two_sample_series(262140, 10, s)).joules == 14.0

    def test_rejects_value_at_modulus(self):
        s = spec(bit_width=20, wrap_modulus=262144)
        with pytest.raises(InvalidArgumentError):
            two_sample_series(262144, 0, s)
        with pytest.raises(InvalidArgumentError):
            raw_delta(2**18, 0, 18)


class TestToJoules:
    """Counts to joules, as ``series_total`` converts them."""

    def test_microjoule_counts(self):
        s = spec(unit=1e-6)
        assert series_total(two_sample_series(0, 1_000_000, s)).joules == 1.0

    def test_exact_power_of_two_product(self):
        # Oracle: 2**20 counts x 2**-16 J/count = 16 J exactly.
        s = spec(bit_width=32, unit=2**-16)
        assert series_total(two_sample_series(5, 5 + 2**20, s)).joules == 16.0

    def test_zero(self):
        assert series_total(two_sample_series(7, 7, spec())).joules == 0.0

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_total_is_the_full_span_window_bit_for_bit(self, data):
        # Oracle: the unbounded integer count times the unit.
        s = data.draw(series_specs())
        samples = data.draw(series_samples(s.modulus, faults=False))
        series = build_series("n1", s, samples)
        count = sum((b.raw - a.raw) % s.modulus
                    for a, b in zip(samples, samples[1:]))
        total = series_total(series).joules
        assert total == integrate_window(series, *series.span_ns).joules
        assert total == count * s.energy_unit_joules


class TestCounterSpec:
    def test_rejects_nonpositive_unit(self):
        with pytest.raises(InvalidArgumentError):
            spec(unit=0.0)
        with pytest.raises(InvalidArgumentError):
            spec(unit=float("nan"))

    def test_modulus_default_and_override(self):
        assert spec(bit_width=20).modulus == 2**20
        assert spec(bit_width=20, wrap_modulus=1_000_000).modulus == 1_000_000

    def test_override_must_fit_register(self):
        with pytest.raises(InvalidArgumentError):
            spec(bit_width=20, wrap_modulus=2**20 + 1)

    def test_from_obj_fills_absent_keys_with_the_defaults(self):
        assert CounterSpec.from_obj({}) == CounterSpec(
            domain=RaplDomain.PACKAGE, bit_width=32, energy_unit_joules=1e-6)
        assert CounterSpec.from_obj(
            {"domain": "DRAM", "bit_width": 20, "unit_j": 0.5}) == \
            CounterSpec(domain=RaplDomain.DRAM, bit_width=20,
                        energy_unit_joules=0.5)

    @pytest.mark.parametrize("obj", [
        "package", [], {"domain": "gpu"}, {"bit_width": 65},
        {"unit_j": 0}])
    def test_from_obj_refuses_what_is_no_counter(self, obj):
        with pytest.raises(InvalidArgumentError):
            CounterSpec.from_obj(obj)


def ramp_series(power_watts: float = 100.0, seconds: int = 10,
                unit: float = 1e-6) -> SampleSeries:
    """Constant-power counter sampled once per second from t=0."""
    s = spec(bit_width=64, unit=unit)
    samples = [RawSample(t_ns=t * 1_000_000_000,
                         raw=int(power_watts * t / unit))
               for t in range(seconds + 1)]
    return build_series("n1", s, samples)


class TestIntegrateWindow:
    def test_constant_power_interior_window(self):
        # Oracle: 100 W over [2.5 s, 7.5 s] = 500 J (5e8 counts at 1e-6).
        series = ramp_series()
        e = integrate_window(series, 2_500_000_000, 7_500_000_000)
        assert e.joules == 500.0

    def test_full_span_equals_series_total(self):
        series = ramp_series()
        first, last = series.span_ns
        assert integrate_window(series, first, last).joules \
            == series_total(series).joules

    def test_boundary_interpolation(self):
        # Oracle: counts 0 -> 1000 over 2 s, window [0, 0.5 s] -> 250 counts.
        s = spec(bit_width=32, unit=1.0)
        series = build_series("n1", s, [RawSample(0, 0),
                                        RawSample(2_000_000_000, 1000)])
        e = integrate_window(series, 0, 500_000_000)
        assert e.joules == 250.0

    def test_two_sample_total(self):
        s = spec(unit=1e-6)
        series = build_series("n1", s, [RawSample(0, 0),
                                        RawSample(10**9, 1000)])
        assert series_total(series).joules == 1e-3

    def test_single_wrap_38bit_matches_unbounded_oracle(self):
        # Constant load crossing the register top once; the oracle is the
        # same counter kept as an unbounded integer.
        s = spec(bit_width=38, unit=1e-6)
        mod = 2**38
        start = mod - 3 * 10**8
        step = 10**8
        true_counts = [start + step * k for k in range(8)]
        series = build_series(
            "n1", s, [RawSample(k * 10**9, v % mod)
                      for k, v in enumerate(true_counts)])
        oracle_joules = (true_counts[-1] - true_counts[0]) * 1e-6
        assert series_total(series).joules == pytest.approx(
            oracle_joules, rel=1e-12)
        mid = integrate_window(series, 10**9, 6 * 10**9).joules
        assert mid == pytest.approx((true_counts[6] - true_counts[1]) * 1e-6,
                                    rel=1e-12)

    def test_multi_wrap_series_recovered(self):
        # Oracle: true counts 900k + 400k*k, modulus 2**20 -> 4 wraps,
        # total 3_600_000 counts = 3.6 J at 1e-6 J/count.
        s = spec(bit_width=20, unit=1e-6)
        mod = 2**20
        samples = [RawSample(t_ns=k * 1_000_000_000,
                             raw=(900_000 + 400_000 * k) % mod)
                   for k in range(10)]
        series = build_series("n1", s, samples)
        assert series_total(series).joules == pytest.approx(3.6, rel=1e-12)

    def test_degenerate_series(self):
        s = spec()
        series = build_series("n1", s, [RawSample(0, 0)])
        with pytest.raises(DegenerateSeriesError):
            integrate_window(series, 0, 1)

    def test_window_before_first_sample(self):
        series = ramp_series()
        with pytest.raises(WattflowError,
                           match="before first sample") as exc:
            integrate_window(series, -1, 1_000_000_000)
        assert type(exc.value) is WattflowError

    def test_window_after_last_sample(self):
        series = ramp_series()
        with pytest.raises(WattflowError,
                           match="after last sample") as exc:
            integrate_window(series, 0, 10_000_000_001)
        assert type(exc.value) is WattflowError

    def test_empty_window_rejected(self):
        series = ramp_series()
        with pytest.raises(InvalidArgumentError):
            integrate_window(series, 5, 5)

    @given(st.lists(st.integers(min_value=1, max_value=10**6),
                    min_size=2, max_size=40),
           st.data())
    @settings(max_examples=200)
    def test_additivity_and_monotonicity(self, increments, data):
        # Build a strictly increasing series with arbitrary raw steps, then
        # check E[a,c] == E[a,b] + E[b,c] and E is monotone in window size.
        s = spec(bit_width=64, unit=1e-6)
        t = 0
        raw = 0
        samples = [RawSample(0, 0)]
        for inc in increments:
            t += data.draw(st.integers(min_value=1, max_value=10**9))
            raw += inc
            samples.append(RawSample(t, raw))
        series = build_series("n1", s, samples)
        first, last = series.span_ns
        mid = data.draw(st.integers(min_value=first, max_value=last))
        if first < mid < last:
            whole = integrate_window(series, first, last).joules
            parts = (integrate_window(series, first, mid).joules
                     + integrate_window(series, mid, last).joules)
            assert parts == pytest.approx(whole, rel=1e-9, abs=1e-15)
            assert integrate_window(series, first, mid).joules <= whole + 1e-12

    @given(st.data())
    @settings(max_examples=100)
    def test_non_negative(self, data):
        s = spec(bit_width=32, unit=1e-6)
        n = data.draw(st.integers(min_value=2, max_value=20))
        t, samples = 0, []
        for _ in range(n):
            samples.append(RawSample(t, data.draw(
                st.integers(min_value=0, max_value=2**32 - 1))))
            t += data.draw(st.integers(min_value=1, max_value=10**9))
        series = build_series("n1", s, samples)
        first, last = series.span_ns
        a = data.draw(st.integers(min_value=first, max_value=last - 1))
        b = data.draw(st.integers(min_value=a + 1, max_value=last))
        assert integrate_window(series, a, b).joules >= 0.0


class TestSampleSeries:
    def test_rejects_non_monotonic_timestamps(self):
        s = spec()
        with pytest.raises(InvalidArgumentError):
            build_series("n1", s, [RawSample(10, 0), RawSample(10, 1)])
        with pytest.raises(InvalidArgumentError):
            build_series("n1", s, [RawSample(10, 0), RawSample(5, 1)])

    def test_rejects_raw_out_of_range(self):
        s = spec(bit_width=8)
        with pytest.raises(InvalidArgumentError):
            build_series("n1", s, [RawSample(0, 256)])

    def test_unsafe_gap_detection(self):
        # Horizon 10 s: a 6 s gap exceeds half the horizon and is flagged;
        # a 4 s gap is not.
        s = spec(bit_width=64)
        series = build_series(
            "n1", s,
            [RawSample(0, 0), RawSample(4 * 10**9, 10),
             RawSample(10 * 10**9, 20)],
            wrap_horizon_ns=10 * 10**9)
        gaps = series.unsafe_gaps()
        assert gaps == [(4 * 10**9, 10 * 10**9)]
        assert series.has_unsafe_gap(5 * 10**9, 6 * 10**9)
        assert not series.has_unsafe_gap(0, 3 * 10**9)

    def test_gap_markers_always_unsafe(self):
        s = spec(bit_width=64)
        series = build_series("n1", s, [RawSample(0, 0), RawSample(10**9, 1)],
                              gap_markers=(5 * 10**8,))
        assert series.has_unsafe_gap(0, 10**9)


@dataclass(frozen=True)
class DataclassSample:
    """``RawSample`` as it was before it became a tuple, kept as reference."""

    t_ns: int
    raw: int


class TestRawSample:
    def test_immutable(self):
        sample = RawSample(10, 20)
        with pytest.raises(AttributeError):
            sample.t_ns = 11
        with pytest.raises(AttributeError):
            sample.raw = 21
        assert sample == RawSample(t_ns=10, raw=20)

    @given(a=st.tuples(st.integers(-3, 3), st.integers(0, 3)),
           b=st.tuples(st.integers(-3, 3), st.integers(0, 3)))
    def test_equality_hash_and_repr_match_the_dataclass(self, a, b):
        new_a, new_b = RawSample(*a), RawSample(*b)
        old_a, old_b = DataclassSample(*a), DataclassSample(*b)
        assert (new_a == new_b) is (old_a == old_b)
        assert (new_a != new_b) is (old_a != old_b)
        assert hash(new_a) == hash(old_a)
        assert repr(new_a) == repr(old_a).replace("DataclassSample",
                                                  "RawSample")

    def test_equals_the_plain_tuple(self):
        # New with the tuple subclass: the dataclass never equalled a tuple.
        assert RawSample(10, 20) == (10, 20)
        assert DataclassSample(10, 20) != (10, 20)
        t_ns, raw = RawSample(10, 20)
        assert (t_ns, raw) == (10, 20)


# ------------------------------------------- differential series test

@dataclass(frozen=True)
class TupleSeries:
    """``SampleSeries`` as it was before it became columnar, kept as reference.

    One ``RawSample`` per reading in a tuple, validated one by one, and
    the unwrapped counts summed delta by delta.
    """

    spec: CounterSpec
    samples: tuple[RawSample, ...]
    wrap_horizon_ns: int | None = None

    def __post_init__(self) -> None:
        modulus = self.spec.modulus
        prev_t = None
        for s in self.samples:
            if not 0 <= s.raw < modulus:
                raise InvalidArgumentError(
                    f"raw value {s.raw} outside [0, {modulus}) at t={s.t_ns}")
            if prev_t is not None and s.t_ns <= prev_t:
                raise InvalidArgumentError(
                    f"non-monotonic timestamp {s.t_ns} after {prev_t}")
            prev_t = s.t_ns

    @property
    def span_ns(self) -> tuple[int, int]:
        return self.samples[0].t_ns, self.samples[-1].t_ns

    def cumulative(self) -> tuple[list[int], list[int]]:
        times = [s.t_ns for s in self.samples]
        counts = [0]
        prev = self.samples[0].raw
        for s in self.samples[1:]:
            counts.append(counts[-1] + (s.raw - prev) % self.spec.modulus)
            prev = s.raw
        return times, counts

    def counts_at(self, t_ns: int) -> float:
        times, counts = self.cumulative()
        i = bisect.bisect_right(times, t_ns) - 1
        if i == len(times) - 1:
            return float(counts[-1])
        t0, t1 = times[i], times[i + 1]
        c0, c1 = counts[i], counts[i + 1]
        return c0 + (c1 - c0) * ((t_ns - t0) / (t1 - t0))

    def integrate(self, start_ns: int, end_ns: int) -> float:
        counts = self.counts_at(end_ns) - self.counts_at(start_ns)
        return max(counts, 0.0) * self.spec.energy_unit_joules

    def total(self) -> float:
        return self.cumulative()[1][-1] * self.spec.energy_unit_joules

    def unsafe_gaps(self) -> list[tuple[int, int]]:
        gaps = []
        if self.wrap_horizon_ns is not None:
            limit = self.wrap_horizon_ns // 2
            for a, b in zip(self.samples, self.samples[1:]):
                if b.t_ns - a.t_ns > limit:
                    gaps.append((a.t_ns, b.t_ns))
        return sorted(set(gaps))


@st.composite
def series_specs(draw) -> CounterSpec:
    bit_width = draw(st.sampled_from((8, 20, 32, 64)))
    wrap_modulus = draw(st.one_of(
        st.none(),
        st.integers(2, 2**bit_width).filter(lambda m: m & (m - 1))))
    return spec(bit_width=bit_width, unit=draw(st.sampled_from(
        (1e-6, 2**-14, 6.103515625e-05))), wrap_modulus=wrap_modulus)


@st.composite
def series_samples(draw, modulus: int, faults: bool) -> list[RawSample]:
    t = draw(st.integers(-10**12, 10**12))
    samples = []
    for _ in range(draw(st.integers(0 if faults else 2, 30))):
        samples.append(RawSample(t, draw(st.integers(0, modulus - 1))))
        t += draw(st.integers(1, 10**10))
    if faults and samples:
        i = draw(st.integers(0, len(samples) - 1))
        t_i, raw_i = samples[i]
        fault = draw(st.sampled_from(("raw", "time", "both")))
        if fault in ("raw", "both"):
            raw_i = draw(st.sampled_from((modulus, modulus + 5, -1, 2**64)))
        if fault in ("time", "both") and i:
            t_i = samples[i - 1].t_ns - draw(st.integers(0, 3))
        samples[i] = RawSample(t_i, raw_i)
    return samples


def _validation(build):
    try:
        build()
    except InvalidArgumentError as exc:
        return type(exc), str(exc)
    return None


class TestColumnarMatchesTupleSeries:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_energy_spans_and_gaps_equal(self, data):
        s = data.draw(series_specs())
        samples = data.draw(series_samples(s.modulus, faults=False))
        first, last = samples[0].t_ns, samples[-1].t_ns
        horizon = data.draw(st.integers(1, 2 * 10**10))
        columnar = build_series("n1", s, samples, wrap_horizon_ns=horizon)
        reference = TupleSeries(s, tuple(samples), wrap_horizon_ns=horizon)
        assert columnar.span_ns == reference.span_ns
        assert series_total(columnar).joules == reference.total()
        assert integrate_window(columnar, first, last).joules \
            == reference.integrate(first, last)
        for _ in range(5):
            a = data.draw(st.integers(first, last - 1))
            b = data.draw(st.integers(a + 1, last))
            assert integrate_window(columnar, a, b).joules \
                == reference.integrate(a, b)
        assert columnar.unsafe_gaps() == reference.unsafe_gaps()

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_validation_raises_the_same_error(self, data):
        s = data.draw(series_specs())
        samples = data.draw(series_samples(s.modulus, faults=True))
        assert _validation(lambda: build_series("n1", s, samples)) \
            == _validation(lambda: TupleSeries(s, tuple(samples)))

    def test_sixty_four_bit_total_beyond_two_to_the_sixty_four(self):
        # Each step advances 2**63 + 1 units, so three steps sum past
        # 2**64 units: a 64-bit column of counts would have wrapped.
        s = spec(bit_width=64, unit=1e-6)
        step = 2**63 + 1
        samples = [RawSample(k * 10**9, (k * step) % 2**64)
                   for k in range(4)]
        columnar = build_series("n1", s, samples)
        reference = TupleSeries(s, tuple(samples))
        assert reference.cumulative()[1][-1] == 3 * step > 2**64
        assert series_total(columnar).joules == reference.total() \
            == 3 * step * 1e-6
        assert integrate_window(columnar, 5 * 10**8, 25 * 10**8).joules \
            == reference.integrate(5 * 10**8, 25 * 10**8)

    def test_non_power_of_two_modulus(self):
        # powercap's max_energy_range_uj + 1: 262143328850 + 1 units.
        s = spec(bit_width=64, wrap_modulus=262143328851)
        raws = [262143328851 - 10**8, 10**8, 3 * 10**8, 5]
        samples = [RawSample(k * 10**9, r) for k, r in enumerate(raws)]
        columnar = build_series("n1", s, samples)
        reference = TupleSeries(s, tuple(samples))
        assert series_total(columnar).joules == reference.total()
        assert integrate_window(columnar, 10**8, 29 * 10**8).joules \
            == reference.integrate(10**8, 29 * 10**8)

    def test_timestamp_beyond_the_signed_64_bit_column(self):
        with pytest.raises(InvalidArgumentError,
                           match="outside the signed 64-bit range"):
            build_series("n1", spec(), [RawSample(0, 0),
                                        RawSample(2**63, 1)])



def _error_type(call):
    try:
        call()
    except WattflowError as exc:
        return type(exc)
    return None


class TestCountsAt:
    """One forward walk over sorted edges gives, for every pair of
    consecutive edges, exactly the joules ``integrate_window`` gives."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_segment_joules_equal_integrate_window(self, data):
        s = data.draw(series_specs())
        samples = data.draw(series_samples(s.modulus, faults=False))
        series = build_series("n1", s, samples)
        reference = TupleSeries(s, tuple(samples))
        first, last = series.span_ns
        inner = data.draw(st.lists(
            st.one_of(st.sampled_from([t for t, _ in samples]),
                      st.integers(first, last)), max_size=40))
        ends = [first, last] if data.draw(st.booleans()) else []
        edges = sorted({*ends, *inner})
        if len(edges) < 2:
            edges = [first, last]
        counts = counts_at(series, edges)
        assert len(counts) == len(edges)
        for (a, b), (c_lo, c_hi) in zip(pairwise(edges), pairwise(counts)):
            joules = max(c_hi - c_lo, 0.0) * s.energy_unit_joules
            assert joules == integrate_window(series, a, b).joules \
                == reference.integrate(a, b)

    def test_non_power_of_two_modulus_wrapping_every_sample(self):
        # powercap's max_energy_range_uj + 1, wrapped at every other step.
        s = spec(bit_width=64, wrap_modulus=262143328851)
        raws = [262143328851 - 10**8, 10**8, 262143328851 - 5, 7, 3 * 10**8,
                262143328850, 0]
        samples = [RawSample(k * 10**9, r) for k, r in enumerate(raws)]
        series = build_series("n1", s, samples)
        reference = TupleSeries(s, tuple(samples))
        edges = [0, 10**9, 15 * 10**8, 2 * 10**9 + 1, 4 * 10**9,
                 5 * 10**9 + 7, 6 * 10**9]
        counts = counts_at(series, edges)
        assert counts[-1] == float(reference.cumulative()[1][-1])
        for (a, b), (c_lo, c_hi) in zip(pairwise(edges), pairwise(counts)):
            assert max(c_hi - c_lo, 0.0) * 1e-6 \
                == integrate_window(series, a, b).joules \
                == reference.integrate(a, b)

    @pytest.mark.parametrize("edges, error", [
        ([-1, 10**9, 2 * 10**9], WattflowError),
        ([0, 10**9, 10**10 + 1], WattflowError),
        ([0, 10**9, 10**9, 2 * 10**9], InvalidArgumentError),
        ([0, 2 * 10**9, 10**9, 3 * 10**9], InvalidArgumentError),
        ([5 * 10**9, 10**9], InvalidArgumentError),
    ])
    def test_bad_edges_raise_what_integrate_window_raises(self, edges,
                                                          error):
        series = ramp_series()
        assert _error_type(lambda: counts_at(series, edges)) is error
        assert error in {
            _error_type(lambda: integrate_window(series, a, b))
            for a, b in pairwise(edges)}

    @given(a=st.integers(-2 * 10**9, 12 * 10**9),
           b=st.integers(-2 * 10**9, 12 * 10**9))
    def test_two_edges_raise_as_integrate_window(self, a, b):
        series = ramp_series()
        assert _error_type(lambda: counts_at(series, [a, b])) \
            is _error_type(lambda: integrate_window(series, a, b))

    def test_degenerate_series_and_too_few_edges(self):
        single = build_series("n1", spec(), [RawSample(0, 0)])
        with pytest.raises(DegenerateSeriesError):
            counts_at(single, [0, 1])
        with pytest.raises(InvalidArgumentError):
            counts_at(ramp_series(), [10**9])


class TestSampleView:
    SAMPLES = (RawSample(10, 1), RawSample(20, 2), RawSample(30, 3))

    def view(self) -> SampleView:
        return build_series("n1", spec(), self.SAMPLES).samples

    def test_len_and_index(self):
        view = self.view()
        assert len(view) == 3
        assert view[0] == RawSample(10, 1)
        assert type(view[1]) is RawSample
        assert view[-1] == RawSample(30, 3)
        assert view[-3].t_ns == 10
        with pytest.raises(IndexError):
            view[3]
        with pytest.raises(IndexError):
            view[-4]
        with pytest.raises(TypeError):
            view[1:]

    def test_iteration(self):
        assert tuple(self.view()) == self.SAMPLES
        assert all(type(s) is RawSample for s in self.view())
        assert [s.raw for s in self.view()] == [1, 2, 3]
        assert RawSample(20, 2) in self.view()

    def test_read_only(self):
        view = self.view()
        with pytest.raises(TypeError):
            view[0] = RawSample(0, 0)


class TestWrapHorizon:
    def test_register_capacity(self):
        # Oracle: 2**32 counts x 2**-14 J/count = 262144 J; at 262144 W the
        # counter can wrap in one second.
        s = spec(bit_width=32, unit=2**-14)
        assert wrap_horizon_s(s, 262144.0) == 1.0

    def test_fifty_two_minute_wrap_power(self):
        # Oracle: capacity 262144 J / 3120 s = 84.0205... W.
        s = spec(bit_width=32, unit=2**-14)
        assert wrap_horizon_s(s, 262144.0 / 3120.0) \
            == pytest.approx(3120.0, rel=1e-12)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(InvalidArgumentError):
            wrap_horizon_s(spec(), 0.0)


class TestEnergyQuantity:
    def test_rejects_negative(self):
        with pytest.raises(InvalidArgumentError):
            EnergyQuantity(-0.5)
