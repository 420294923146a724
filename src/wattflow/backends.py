"""Counter read backends: powercap sysfs, MSR device, and a mock.

A backend answers one question: what does the counter for this domain read
right now?  Timestamps are supplied by the caller so backends stay clock-free
and the mock stays exactly reproducible.

The real backends need elevated access (powercap files and /dev/cpu/*/msr are
root-readable); the mock needs nothing and synthesizes a counter from a
piecewise-constant power profile.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

from .counter import CounterSpec, RaplDomain, RawSample
from .errors import (
    DeviceAbsentError,
    InvalidArgumentError,
    ParseError,
    PermissionDeniedError,
)

__all__ = [
    "MockProfile",
    "CounterBackend",
    "MockBackend",
    "PowercapBackend",
    "MsrBackend",
]


@dataclass(frozen=True)
class MockProfile:
    """Piecewise-constant power profile driving a synthetic counter.

    Attributes:
        segments: (duration_s, power_watts) pairs played back in order.
            After the last segment the power holds at the final level, so an
            agent that outlives the profile keeps producing plausible counts.
        spec: Counter geometry the synthetic counter emulates.  The
            counter is exact cumulative energy reduced by the wrap modulus.
    """

    segments: tuple[tuple[float, float], ...]
    spec: CounterSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments",
                           tuple((float(d), float(p))
                                 for d, p in self.segments))
        if not self.segments:
            raise InvalidArgumentError("profile needs at least one segment")
        for d, p in self.segments:
            if not d > 0:
                raise InvalidArgumentError(
                    f"segment duration must be > 0, got {d}")
            if not p >= 0:
                raise InvalidArgumentError(
                    f"segment power must be >= 0, got {p}")

    def cumulative_joules(self, elapsed_s: float) -> float:
        """Energy accumulated from profile start to ``elapsed_s``."""
        if elapsed_s < 0:
            raise InvalidArgumentError(f"elapsed_s must be >= 0, got {elapsed_s}")
        joules, remaining = 0.0, elapsed_s
        for duration, power in self.segments:
            if remaining <= 0:
                break
            took = min(remaining, duration)
            joules += took * power
            remaining -= took
        if remaining > 0:
            joules += remaining * self.segments[-1][1]
        return joules


class CounterBackend:
    """Reads the current raw counter value for one domain."""

    def read(self, spec: CounterSpec, now_ns: int) -> RawSample:
        raise NotImplementedError

    def wrap_modulus(self, spec: CounterSpec) -> int:
        """Effective wrap modulus; backends may refine the spec default."""
        return spec.modulus


class MockBackend(CounterBackend):
    """Synthetic counter: cumulative profile energy reduced by the modulus.

    ``start_ns`` anchors profile time zero on the caller's monotonic clock.
    """

    def __init__(self, profile: MockProfile, start_ns: int = 0) -> None:
        self.profile = profile
        self.start_ns = start_ns

    def read(self, spec: CounterSpec, now_ns: int) -> RawSample:
        if spec.domain is not self.profile.spec.domain:
            raise InvalidArgumentError(
                f"mock profile is for {self.profile.spec.domain}, "
                f"asked for {spec.domain}")
        elapsed_s = (now_ns - self.start_ns) / 1e9
        counts = round(self.profile.cumulative_joules(elapsed_s)
                       / spec.energy_unit_joules)
        return RawSample(t_ns=now_ns, raw=counts % spec.modulus)


_POWERCAP_ZONE_NAMES = {
    RaplDomain.PACKAGE: ("package-0", "package"),
    RaplDomain.CORE: ("core",),
    RaplDomain.GRAPHICS: ("uncore",),
    RaplDomain.DRAM: ("dram",),
    RaplDomain.PSYS: ("psys",),
}


def _read_int_file(path: str) -> int:
    try:
        with open(path, "r") as fh:
            text = fh.read().strip()
    except FileNotFoundError:
        raise DeviceAbsentError(f"no such counter file: {path}") from None
    except PermissionError:
        raise PermissionDeniedError(
            f"cannot read {path}; energy counters need elevated access") from None
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected integer, got {text!r}", path=path) from None


class PowercapBackend(CounterBackend):
    """Reads `energy_uj` from one powercap zone directory.

    Values are already microjoules, so the counter spec must declare a 1e-6
    energy unit.  The zone advertises its own wrap range; that range is read
    once at construction and becomes the wrap modulus for the domain.
    """

    def __init__(self, zone_dir: str) -> None:
        self.zone_dir = zone_dir
        self._energy_path = os.path.join(zone_dir, "energy_uj")
        self._max_range = _read_int_file(
            os.path.join(zone_dir, "max_energy_range_uj"))
        if self._max_range <= 0:
            raise ParseError(f"non-positive max_energy_range_uj "
                             f"{self._max_range}", path=zone_dir)

    @classmethod
    def discover(cls, domain: RaplDomain,
                 base_path: str = "/sys/class/powercap") -> "PowercapBackend":
        wanted = _POWERCAP_ZONE_NAMES[domain]
        try:
            entries = sorted(os.listdir(base_path))
        except FileNotFoundError:
            raise DeviceAbsentError(
                f"powercap tree absent at {base_path}") from None
        except PermissionError:
            raise PermissionDeniedError(f"cannot list {base_path}") from None
        for entry in entries:
            zone = os.path.join(base_path, entry)
            name_path = os.path.join(zone, "name")
            if not os.path.isfile(name_path):
                continue
            try:
                with open(name_path) as fh:
                    name = fh.read().strip()
            except (OSError, PermissionError):
                continue
            if name in wanted:
                return cls(zone)
        raise DeviceAbsentError(
            f"no powercap zone named {' or '.join(wanted)} under {base_path}")

    def wrap_modulus(self, spec: CounterSpec) -> int:
        return min(self._max_range + 1, 1 << spec.bit_width)

    def read(self, spec: CounterSpec, now_ns: int) -> RawSample:
        if spec.energy_unit_joules != 1e-6:
            raise InvalidArgumentError(
                f"powercap reports microjoules; spec declares unit "
                f"{spec.energy_unit_joules}")
        return RawSample(t_ns=now_ns, raw=_read_int_file(self._energy_path))


_MSR_ENERGY_STATUS = {
    RaplDomain.PACKAGE: 0x611,
    RaplDomain.CORE: 0x639,
    RaplDomain.GRAPHICS: 0x641,
    RaplDomain.DRAM: 0x619,
    RaplDomain.PSYS: 0x64D,
}


class MsrBackend(CounterBackend):
    """Reads energy-status registers from a model-specific-register device.

    The 64-bit register content is masked to the spec's bit width; no unit
    scaling is applied (the spec's energy unit carries the hardware's
    conversion value).
    """

    def __init__(self, device_path: str = "/dev/cpu/0/msr") -> None:
        self.device_path = device_path

    def read(self, spec: CounterSpec, now_ns: int) -> RawSample:
        offset = _MSR_ENERGY_STATUS[spec.domain]
        try:
            fd = os.open(self.device_path, os.O_RDONLY)
        except FileNotFoundError:
            raise DeviceAbsentError(
                f"no MSR device at {self.device_path}; is the msr module "
                f"loaded?") from None
        except PermissionError:
            raise PermissionDeniedError(
                f"cannot open {self.device_path}; reading energy registers "
                f"needs elevated access") from None
        try:
            data = os.pread(fd, 8, offset)
        finally:
            os.close(fd)
        if len(data) != 8:
            raise ParseError(
                f"short read ({len(data)} bytes) at register {offset:#x}",
                path=self.device_path)
        value = struct.unpack("<Q", data)[0]
        return RawSample(t_ns=now_ns, raw=value & ((1 << spec.bit_width) - 1))
