"""Counter read backends: powercap sysfs, MSR device, and a mock.

A backend answers one question: what does the counter for this domain read
right now?  Timestamps are supplied by the caller so backends stay clock-free
and the mock stays exactly reproducible.

The real backends need elevated access (powercap files and /dev/cpu/*/msr are
root-readable); the mock needs nothing and counts the floor of a
:class:`PowerProfile`'s exact energy, :func:`analytic_energy`, in counter
units: the one model of watts into counts, shared by mock agents and the
simulator.

The real backends open their file on the first read and keep it open: each
later read is a ``stat`` of the path and one ``pread``, which a sysfs
attribute answers afresh at offset 0 and a register device at the
register's offset.  A path that names another file than the one held
(unlinked, replaced or moved away) is opened again, and a read that fails
drops the handle, so the caller's retry opens the file again.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

from .counter import CounterSpec, RaplDomain, RawSample
from .errors import InvalidArgumentError, ParseError, WattflowError

__all__ = [
    "CounterBackend",
    "MockBackend",
    "PowercapBackend",
    "MsrBackend",
    "PowerProfile",
    "TaskLoad",
    "analytic_energy",
]


class CounterBackend:
    """Reads the current raw counter value for one domain."""

    def read(self, spec: CounterSpec, now_ns: int) -> RawSample:
        raise NotImplementedError

    def wrap_modulus(self, spec: CounterSpec) -> int:
        """Effective wrap modulus; backends may refine the spec default."""
        return spec.modulus

    def close(self) -> None:
        """Release what the backend keeps open between reads, if anything."""


@dataclass(frozen=True)
class TaskLoad:
    """One task's constant power contribution while it runs."""

    task_id: str
    start_s: float
    end_s: float
    watts: float

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise InvalidArgumentError(
                f"load {self.task_id}: end before start")
        if not (math.isfinite(self.watts) and self.watts >= 0):
            raise InvalidArgumentError(
                f"load {self.task_id}: watts must be >= 0, got {self.watts}")


@dataclass(frozen=True)
class PowerProfile:
    """A node's power over time: idle draw plus active task loads.

    Instantaneous power at time t is ``idle_watts`` plus the sum of watts of
    loads whose [start, end) interval contains t.  Idle extends indefinitely
    in both directions.
    """

    node_id: str
    idle_watts: float
    task_loads: tuple[TaskLoad, ...] = ()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.idle_watts) and self.idle_watts >= 0):
            raise InvalidArgumentError(
                f"idle_watts must be >= 0, got {self.idle_watts}")
        object.__setattr__(self, "task_loads", tuple(self.task_loads))

    def power_at(self, t_s: float) -> float:
        return self.idle_watts + sum(
            load.watts for load in self.task_loads
            if load.start_s <= t_s < load.end_s)


def analytic_energy(profile: PowerProfile,
                    window: tuple[float, float]) -> float:
    """Exact integral of the profile over a window, in joules.

    Piecewise-constant power integrates segment by segment in closed form;
    there is no sampling involved and no sampling error.

    Raises:
        InvalidArgumentError: Inverted window.
    """
    start, end = window
    if end < start:
        raise InvalidArgumentError(f"inverted window {window}")
    if end == start:
        return 0.0
    energy = profile.idle_watts * (end - start)
    for load in profile.task_loads:
        overlap = min(end, load.end_s) - max(start, load.start_s)
        if overlap > 0:
            energy += load.watts * overlap
    return energy


class MockBackend(CounterBackend):
    """Synthetic counter playing a power profile.

    The counter reads zero at ``start_ns`` on the caller's clock, which is
    time ``start_s`` of the profile.  Later it reads the floor of the
    profile's exact energy since then, :func:`analytic_energy`, in the
    spec's units, reduced by the spec's modulus.
    """

    def __init__(self, profile: PowerProfile, start_ns: int = 0,
                 start_s: float = 0.0) -> None:
        self.profile = profile
        self.start_ns = start_ns
        self.start_s = start_s

    def read(self, spec: CounterSpec, now_ns: int) -> RawSample:
        # A read before start_ns is an inverted window, which raises.
        elapsed_s = (now_ns - self.start_ns) / 1e9
        joules = analytic_energy(self.profile,
                                 (self.start_s, self.start_s + elapsed_s))
        counts = math.floor(joules / spec.energy_unit_joules)
        return RawSample(t_ns=now_ns, raw=counts % spec.modulus)


_POWERCAP_ZONE_NAMES = {
    RaplDomain.PACKAGE: ("package-0", "package"),
    RaplDomain.CORE: ("core",),
    RaplDomain.GRAPHICS: ("uncore",),
    RaplDomain.DRAM: ("dram",),
    RaplDomain.PSYS: ("psys",),
}


# A sysfs attribute is at most one page, and reads whole at offset 0.
_ATTRIBUTE_BYTES = 4096


class _KeptFile:
    """A counter file opened on its first read and kept open for later ones.

    Each read first stats the path: when it names another file than the
    handle holds (unlinked, replaced with ``os.replace`` or moved away), the
    path is opened again, so a read always sees what the path names now, as
    an open per read did.  A failed read closes the handle and raises
    :class:`WattflowError`, so a retry reopens.
    """

    def __init__(self, path: str, absent: str, denied: str) -> None:
        self.path = path
        self._absent = absent
        self._denied = denied
        self._fd: int | None = None
        self._identity = (0, 0)     # (st_dev, st_ino) of the open file

    def pread(self, size: int, offset: int) -> bytes:
        try:
            st = os.stat(self.path)
            if self._fd is not None and \
                    (st.st_dev, st.st_ino) != self._identity:
                self.close()
            if self._fd is None:
                self._fd = os.open(self.path, os.O_RDONLY)
                st = os.fstat(self._fd)
                self._identity = (st.st_dev, st.st_ino)
            return os.pread(self._fd, size, offset)
        except FileNotFoundError:
            self.close()
            raise WattflowError(self._absent) from None
        except PermissionError:
            self.close()
            raise WattflowError(self._denied) from None
        except OSError as exc:
            self.close()
            raise WattflowError(
                f"cannot read {self.path}: {exc}") from None

    def close(self) -> None:
        fd, self._fd = self._fd, None
        if fd is not None:
            os.close(fd)


def _powercap_file(path: str) -> _KeptFile:
    return _KeptFile(
        path, f"no such counter file: {path}",
        f"cannot read {path}; energy counters need elevated access")


def _read_int(kept: _KeptFile) -> int:
    """The integer an attribute file holds, read whole at offset 0."""
    text = kept.pread(_ATTRIBUTE_BYTES, 0).decode("utf-8", "replace").strip()
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected integer, got {text!r}",
                         path=kept.path) from None


class PowercapBackend(CounterBackend):
    """Reads `energy_uj` from one powercap zone directory.

    Values are already microjoules, so the counter spec must declare a 1e-6
    energy unit (``agent.build_backend`` refuses any other).  The zone
    advertises its own wrap range; that range is read once at construction
    and becomes the wrap modulus for the domain.
    """

    def __init__(self, zone_dir: str) -> None:
        self.zone_dir = zone_dir
        self._energy = _powercap_file(os.path.join(zone_dir, "energy_uj"))
        max_range = _powercap_file(
            os.path.join(zone_dir, "max_energy_range_uj"))
        try:
            self._max_range = _read_int(max_range)
        finally:
            max_range.close()
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
            raise WattflowError(
                f"powercap tree absent at {base_path}") from None
        except PermissionError:
            raise WattflowError(f"cannot list {base_path}") from None
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
        raise WattflowError(
            f"no powercap zone named {' or '.join(wanted)} under {base_path}")

    def wrap_modulus(self, spec: CounterSpec) -> int:
        return min(self._max_range + 1, 1 << spec.bit_width)

    def read(self, spec: CounterSpec, now_ns: int) -> RawSample:
        return RawSample(t_ns=now_ns, raw=_read_int(self._energy))

    def close(self) -> None:
        self._energy.close()


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
        self._device = _KeptFile(
            device_path,
            f"no MSR device at {device_path}; is the msr module loaded?",
            f"cannot open {device_path}; reading energy registers needs "
            f"elevated access")

    def read(self, spec: CounterSpec, now_ns: int) -> RawSample:
        offset = _MSR_ENERGY_STATUS[spec.domain]
        data = self._device.pread(8, offset)
        if len(data) != 8:
            raise ParseError(
                f"short read ({len(data)} bytes) at register {offset:#x}",
                path=self.device_path)
        value = struct.unpack("<Q", data)[0]
        return RawSample(t_ns=now_ns, raw=value & ((1 << spec.bit_width) - 1))

    def close(self) -> None:
        self._device.close()
