"""Backend tests: mock arithmetic plus file-backed powercap and MSR reads."""

from __future__ import annotations

import errno
import os
import struct

import pytest

from wattflow import backends
from wattflow.agent import build_backend
from wattflow.backends import (
    MockBackend,
    MsrBackend,
    PowercapBackend,
    PowerProfile,
    TaskLoad,
)
from wattflow.counter import CounterSpec, RaplDomain
from wattflow.errors import InvalidArgumentError, ParseError, WattflowError

S = 1_000_000_000
UNIT_UJ = 1e-6


def mock_spec(bit_width=32, unit=UNIT_UJ, domain=RaplDomain.PACKAGE):
    return CounterSpec(domain=domain, bit_width=bit_width,
                       energy_unit_joules=unit)


def segments_backend(segments, start_ns=0):
    """A mock backend as an agent config's ``segments`` build it."""
    return build_backend(mock_spec(), {"kind": "mock", "segments": segments},
                         start_ns=start_ns)


class TestMockBackend:
    def test_read_at_midpoint(self):
        # 100 W for 10 s at 1e-6 J/count: t=5 s -> 5e8 counts exactly.
        spec = mock_spec()
        backend = segments_backend(((10.0, 100.0),))
        sample = backend.read(spec, 5_000_000_000)
        assert sample.raw == 500_000_000
        assert sample.t_ns == 5_000_000_000

    def test_read_at_zero(self):
        spec = mock_spec()
        backend = segments_backend(((10.0, 100.0),))
        assert backend.read(spec, 0).raw == 0

    def test_wrap_at_bit_width(self):
        # Cumulative counts 2**20 + 7 reduce to raw 7 on a 20-bit counter.
        spec = mock_spec(bit_width=20)
        backend = segments_backend(((100.0, 100.0),))
        sample = backend.read(spec, 10_485_830)
        assert sample.raw == 7

    def test_segment_boundaries_accumulate(self):
        # [(2 s, 50 W), (3 s, 200 W)] at t=4 s: 100 + 400 = 500 J.
        spec = mock_spec(unit=1.0, bit_width=64)
        backend = segments_backend(((2.0, 50.0), (3.0, 200.0)))
        assert backend.read(spec, 4_000_000_000).raw == 500

    def test_power_holds_past_profile_end(self):
        # Past the 5 s profile the last level (200 W) continues: at t=7 s,
        # 100 + 600 + 400 = 1100 J.
        spec = mock_spec(unit=1.0, bit_width=64)
        backend = segments_backend(((2.0, 50.0), (3.0, 200.0)))
        assert backend.read(spec, 7_000_000_000).raw == 1100

    def test_start_anchor_offsets_profile_time(self):
        spec = mock_spec()
        backend = segments_backend(((10.0, 100.0),), start_ns=2_000_000_000)
        assert backend.read(spec, 7_000_000_000).raw == 500_000_000

    def test_counts_are_the_floor_of_profile_energy(self):
        # 1 W for 2.7 s is 2.7 J: the counter holds 2 whole joules.  With
        # start_s the count runs from that profile time at start_ns: over
        # profile time 9-11 s, 2 J of idle plus 4 J of the load.
        spec = mock_spec(unit=1.0, bit_width=64)
        profile = PowerProfile("n1", 1.0, (TaskLoad("t", 10.0, 20.0, 4.0),))
        assert MockBackend(profile).read(spec, 2_700_000_000).raw == 2
        backend = MockBackend(profile, start_ns=S, start_s=9.0)
        assert backend.read(spec, 3 * S).raw == 6

    def test_profile_validation(self):
        for segments in ((), ((0.0, 10.0),), ((1.0, -5.0),),
                         ((1.0, float("nan")),), ((float("inf"), 1.0),),
                         ((1.0, float("inf")),)):
            with pytest.raises(InvalidArgumentError):
                segments_backend(segments)

    def test_read_before_start_rejected(self):
        backend = segments_backend(((10.0, 100.0),), start_ns=1_000)
        with pytest.raises(InvalidArgumentError):
            backend.read(mock_spec(), 999)

    def test_monotone_counts_before_wrap(self):
        spec = mock_spec(bit_width=64)
        backend = segments_backend(((10.0, 37.5),))
        reads = [backend.read(spec, t * 10**8).raw for t in range(100)]
        assert reads == sorted(reads)


def make_powercap_zone(tmp_path, name="package-0", energy=123456,
                       max_range=262143999770):
    zone = tmp_path / "intel-rapl:0"
    zone.mkdir()
    (zone / "name").write_text(name + "\n")
    (zone / "energy_uj").write_text(f"{energy}\n")
    (zone / "max_energy_range_uj").write_text(f"{max_range}\n")
    return zone


class TestPowercapBackend:
    def test_reads_energy_file(self, tmp_path):
        zone = make_powercap_zone(tmp_path)
        backend = PowercapBackend(str(zone))
        spec = mock_spec()
        sample = backend.read(spec, 42)
        assert sample.raw == 123456
        assert sample.t_ns == 42

    def test_discover_by_zone_name(self, tmp_path):
        make_powercap_zone(tmp_path)
        backend = PowercapBackend.discover(RaplDomain.PACKAGE, str(tmp_path))
        assert backend.read(mock_spec(), 0).raw == 123456

    def test_discover_missing_domain(self, tmp_path):
        make_powercap_zone(tmp_path)
        with pytest.raises(WattflowError,
                           match="no powercap zone named dram") as exc:
            PowercapBackend.discover(RaplDomain.DRAM, str(tmp_path))
        assert type(exc.value) is WattflowError

    def test_discover_missing_tree(self, tmp_path):
        with pytest.raises(WattflowError,
                           match="powercap tree absent at") as exc:
            PowercapBackend.discover(RaplDomain.PACKAGE,
                                     str(tmp_path / "nothere"))
        assert type(exc.value) is WattflowError

    def test_advertised_range_becomes_modulus(self, tmp_path):
        zone = make_powercap_zone(tmp_path, max_range=999)
        backend = PowercapBackend(str(zone))
        assert backend.wrap_modulus(mock_spec(bit_width=32)) == 1000

    def test_modulus_capped_by_register_width(self, tmp_path):
        zone = make_powercap_zone(tmp_path, max_range=2**40)
        backend = PowercapBackend(str(zone))
        assert backend.wrap_modulus(mock_spec(bit_width=32)) == 2**32

    def test_malformed_energy_file(self, tmp_path):
        zone = make_powercap_zone(tmp_path)
        (zone / "energy_uj").write_text("garbage\n")
        backend = PowercapBackend(str(zone))
        with pytest.raises(ParseError):
            backend.read(mock_spec(), 0)

    def test_vanished_energy_file(self, tmp_path):
        zone = make_powercap_zone(tmp_path)
        backend = PowercapBackend(str(zone))
        os.unlink(zone / "energy_uj")
        with pytest.raises(WattflowError,
                           match="no such counter file") as exc:
            backend.read(mock_spec(), 0)
        assert type(exc.value) is WattflowError


def counting_opens(monkeypatch, suffix: str) -> list[str]:
    """Record every ``os.open`` of a path ending in ``suffix``."""
    opened: list[str] = []
    real_open = os.open

    def open_(path, *args, **kwargs):
        if str(path).endswith(suffix):
            opened.append(str(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", open_)
    return opened


class TestKeptHandles:
    """The real backends keep their file open and ``pread`` it each read."""

    def test_value_rewritten_in_place_is_read_fresh(self, tmp_path,
                                                   monkeypatch):
        zone = make_powercap_zone(tmp_path, energy=5)
        backend = PowercapBackend(str(zone))
        opened = counting_opens(monkeypatch, "energy_uj")
        assert backend.read(mock_spec(), 0).raw == 5
        for value in (1234567, 8, 2**32 - 1):
            with open(zone / "energy_uj", "w", encoding="ascii") as fh:
                fh.write(f"{value}\n")     # same inode, new content
            assert backend.read(mock_spec(), 0).raw == value
        assert len(opened) == 1

    def test_replaced_file_gives_new_value(self, tmp_path):
        zone = make_powercap_zone(tmp_path, energy=5)
        backend = PowercapBackend(str(zone))
        assert backend.read(mock_spec(), 0).raw == 5
        (zone / "next").write_text("77\n")
        os.replace(zone / "next", zone / "energy_uj")
        assert backend.read(mock_spec(), 0).raw == 77

    def test_file_moved_away_reads_the_new_one(self, tmp_path):
        zone = make_powercap_zone(tmp_path, energy=5)
        backend = PowercapBackend(str(zone))
        assert backend.read(mock_spec(), 0).raw == 5
        os.rename(zone / "energy_uj", zone / "old")
        (zone / "energy_uj").write_text("9\n")
        assert backend.read(mock_spec(), 0).raw == 9

    def test_unlinked_file_after_a_read_is_absent(self, tmp_path):
        zone = make_powercap_zone(tmp_path)
        backend = PowercapBackend(str(zone))
        backend.read(mock_spec(), 0)
        os.unlink(zone / "energy_uj")
        with pytest.raises(WattflowError,
                           match="no such counter file") as exc:
            backend.read(mock_spec(), 0)
        assert type(exc.value) is WattflowError

    def test_failed_read_reopens_on_retry(self, tmp_path, monkeypatch):
        zone = make_powercap_zone(tmp_path, energy=5)
        backend = PowercapBackend(str(zone))
        opened = counting_opens(monkeypatch, "energy_uj")
        assert backend.read(mock_spec(), 0).raw == 5
        real_pread = os.pread
        failures = [OSError(errno.EIO, "Input/output error")]

        def pread(fd, size, offset):
            if failures:
                raise failures.pop()
            return real_pread(fd, size, offset)

        monkeypatch.setattr(backends.os, "pread", pread)
        with pytest.raises(WattflowError,
                           match="Input/output error") as exc:
            backend.read(mock_spec(), 0)
        assert type(exc.value) is WattflowError
        assert backend.read(mock_spec(), 0).raw == 5
        assert len(opened) == 2

    def test_close_releases_and_a_later_read_reopens(self, tmp_path,
                                                     monkeypatch):
        zone = make_powercap_zone(tmp_path, energy=5)
        backend = PowercapBackend(str(zone))
        opened = counting_opens(monkeypatch, "energy_uj")
        backend.read(mock_spec(), 0)
        backend.close()
        backend.close()
        assert backend.read(mock_spec(), 0).raw == 5
        assert len(opened) == 2

    def test_garbage_after_a_good_read_is_parse_error(self, tmp_path):
        zone = make_powercap_zone(tmp_path, energy=5)
        backend = PowercapBackend(str(zone))
        backend.read(mock_spec(), 0)
        (zone / "energy_uj").write_text("garbage\n")
        with pytest.raises(ParseError, match="expected integer, got "
                                             "'garbage'"):
            backend.read(mock_spec(), 0)

    def test_msr_register_rewritten_in_place(self, tmp_path, monkeypatch):
        dev = TestMsrBackend().make_device(tmp_path, 99)
        backend = MsrBackend(dev)
        opened = counting_opens(monkeypatch, "msr0")
        assert backend.read(mock_spec(), 0).raw == 99
        with open(dev, "r+b") as fh:
            fh.seek(0x611)
            fh.write(struct.pack("<Q", 123))
        assert backend.read(mock_spec(), 0).raw == 123
        assert len(opened) == 1


class TestMsrBackend:
    def make_device(self, tmp_path, package_value, bits=32):
        # A sparse file standing in for the register device: the package
        # energy-status register lives at offset 0x611.
        dev = tmp_path / "msr0"
        with open(dev, "wb") as fh:
            fh.seek(0x611)
            fh.write(struct.pack("<Q", package_value))
        return str(dev)

    def test_reads_register_masked_to_width(self, tmp_path):
        dev = self.make_device(tmp_path, (7 << 32) | 99)
        backend = MsrBackend(dev)
        sample = backend.read(mock_spec(bit_width=32), 5)
        assert sample.raw == 99
        assert sample.t_ns == 5

    def test_full_width_survives(self, tmp_path):
        value = 2**38 - 1
        dev = self.make_device(tmp_path, value)
        backend = MsrBackend(dev)
        assert backend.read(mock_spec(bit_width=38), 0).raw == value

    def test_missing_device(self, tmp_path):
        backend = MsrBackend(str(tmp_path / "nodev"))
        with pytest.raises(WattflowError, match="no MSR device at") as exc:
            backend.read(mock_spec(), 0)
        assert type(exc.value) is WattflowError

    def test_short_read(self, tmp_path):
        dev = tmp_path / "short"
        dev.write_bytes(b"\x00" * 0x613)
        backend = MsrBackend(str(dev))
        with pytest.raises(ParseError):
            backend.read(mock_spec(), 0)
