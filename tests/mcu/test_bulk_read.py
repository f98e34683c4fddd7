"""The zero-copy bulk read path and its equivalence with the naive walk.

``MemoryBus.read_view`` may serve a whole span through one MPU check
only when ``can_bulk_read`` proves the span is ordinary unruled memory;
everything else (MMIO, ruled spans, unmapped tails, observed buses)
must take the seed's per-chunk path so arbitration outcomes, tracer
records and absorbed bytes stay byte-identical.
"""

import pytest

from repro import fastpath
from repro.errors import ConfigurationError, MemoryAccessViolation
from repro.mcu import Device, ROAM_HARDENED, UNPROTECTED
from repro.mcu.memory import (MemoryBus, MemoryMap, MemoryRegion,
                              MemoryType)

from ..conftest import tiny_config


def build_device(profile) -> Device:
    device = Device(tiny_config())
    device.install_app()
    device.provision(b"K" * 16)
    device.boot(profile)
    return device


class _CountingPeripheral:
    def __init__(self):
        self.reads = []

    def mmio_read(self, offset, context):
        self.reads.append(offset)
        return (0x40 + offset) & 0xFF

    def mmio_write(self, offset, value, context):
        raise AssertionError("unused")


@pytest.fixture
def plain_bus():
    mm = MemoryMap()
    mm.add(MemoryRegion("ram", 0x2000, 0x1000, MemoryType.RAM))
    peripheral = _CountingPeripheral()
    mm.add(MemoryRegion("mmio", 0x8000, 0x10, MemoryType.MMIO,
                        peripheral=peripheral))
    bus = MemoryBus(mm)
    return bus, peripheral


class TestBulkReadPrimitives:
    def test_read_view_equals_read_and_is_readonly(self, plain_bus):
        bus, _ = plain_bus
        bus.write(None, 0x2100, bytes(range(200)))
        view = bus.read_view(None, 0x2100, 200)
        assert bytes(view) == bus.read(None, 0x2100, 200)
        assert isinstance(view, memoryview)
        with pytest.raises(TypeError):
            view[0] = 0xFF

    def test_read_view_reflects_backing_store(self, plain_bus):
        """Zero copy means a later write is visible through the view --
        callers absorb it before releasing the bus."""
        bus, _ = plain_bus
        view = bus.read_view(None, 0x2000, 4)
        bus.write(None, 0x2000, b"\xAA\xBB\xCC\xDD")
        assert bytes(view) == b"\xAA\xBB\xCC\xDD"

    def test_can_bulk_read_rejections(self, plain_bus):
        bus, _ = plain_bus
        assert bus.can_bulk_read(None, 0x2000, 0x1000)
        assert not bus.can_bulk_read(None, 0x2000, 0)        # empty
        assert not bus.can_bulk_read(None, 0x2000, 0x1001)   # past end
        assert not bus.can_bulk_read(None, 0x1FFF, 2)        # unmapped
        assert not bus.can_bulk_read(None, 0x8000, 4)        # MMIO

    def test_read_view_on_mmio_still_served_per_byte(self, plain_bus):
        bus, peripheral = plain_bus
        view = bus.read_view(None, 0x8000, 4)
        assert bytes(view) == bytes([0x40, 0x41, 0x42, 0x43])
        assert peripheral.reads == [0, 1, 2, 3]

    def test_read_into(self, plain_bus):
        bus, _ = plain_bus
        bus.write(None, 0x2010, b"abcdef")
        out = bytearray(10)
        assert bus.read_into(None, 0x2010, 6, out, out_offset=2) == 6
        assert out == b"\x00\x00abcdef\x00\x00"
        out2 = bytearray(4)
        bus.read_into(None, 0x8000, 4, out2)
        assert out2 == bytes([0x40, 0x41, 0x42, 0x43])

    def test_read_into_bounds_checked(self, plain_bus):
        bus, _ = plain_bus
        with pytest.raises(ConfigurationError):
            bus.read_into(None, 0x2000, 8, bytearray(4))
        with pytest.raises(ConfigurationError):
            bus.read_into(None, 0x2000, 4, bytearray(8), out_offset=-1)

    def test_unmapped_read_view_raises(self, plain_bus):
        bus, _ = plain_bus
        with pytest.raises(MemoryAccessViolation):
            bus.read_view(None, 0x2FF0, 0x20)


class TestRuledSpans:
    def test_hardened_device_rules_disable_bulk_on_protected_spans(self):
        device = build_device(ROAM_HARDENED)
        attest = device.context("Code_Attest")
        # The span holding K_Attest is ruled: a single whole-span check
        # would skip the per-byte arbitration, so bulk is refused.
        assert not device.bus.can_bulk_read(attest, device.key_address, 16)
        # The attested RAM span excludes the anchor's protected words
        # and carries no rule, so it is bulk-eligible.
        ram_span = device.attested_spans()[0]
        assert device.bus.can_bulk_read(attest, ram_span[0],
                                        ram_span[1] - ram_span[0])

    def test_unprotected_device_is_fully_bulk_eligible(self):
        device = build_device(UNPROTECTED)
        attest = device.context("Code_Attest")
        for region in device.memory.writable_regions():
            assert device.bus.can_bulk_read(attest, region.start,
                                            region.size)

    @pytest.mark.parametrize("engine", ["naive", "accel"])
    def test_malware_denial_identical_under_fast_path(self, engine):
        """A ruled span forces the per-chunk path, so an MPU denial
        surfaces identically whichever engine runs the measurement."""
        device = build_device(ROAM_HARDENED)
        malware = device.make_malware_context()
        with fastpath.forced(engine):
            with pytest.raises(MemoryAccessViolation):
                device.measure_writable_memory(malware, b"K" * 16, b"c")


class TestDeviceEquivalence:
    @pytest.mark.parametrize("profile", [UNPROTECTED, ROAM_HARDENED],
                             ids=lambda p: p.name)
    def test_measurements_identical_across_engines(self, profile):
        """Digest, MAC and consumed cycles of both measurement kinds are
        byte-identical under every engine."""
        outcomes = {}
        for engine in fastpath.ENGINES:
            with fastpath.forced(engine):
                device = build_device(profile)
                attest = device.context("Code_Attest")
                before = device.cpu.cycle_count
                mac = device.measure_writable_memory(attest, b"K" * 16,
                                                     b"challenge")
                mid = device.cpu.cycle_count
                digest = device.digest_writable_memory(attest)
                after = device.cpu.cycle_count
                outcomes[engine] = (mac, digest, mid - before, after - mid)
        assert outcomes["accel"] == outcomes["naive"]

    def test_tracer_attaches_forces_naive_access_pattern(self):
        """An observed bus must produce the exact per-chunk trace the
        naive walk produces, even under the fast engine."""
        traces = {}
        for engine in ("naive", "accel"):
            with fastpath.forced(engine):
                device = build_device(UNPROTECTED)
                log = []
                device.bus.add_tracer(
                    lambda ctx, access, addr, length:
                    log.append((access, addr, length)))
                attest = device.context("Code_Attest")
                device.digest_writable_memory(attest)
                traces[engine] = log
        assert traces["accel"] == traces["naive"]
        assert all(length <= 4096 for _, _, length in traces["accel"])
