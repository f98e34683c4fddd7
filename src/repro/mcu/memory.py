"""Byte-accurate memory model of the simulated low-end MCU.

The security arguments of the paper are all about *which code may touch
which memory*: ``K_Attest`` readable only by ``Code_Attest``,
``counter_R`` writable only by ``Code_Attest``, ``Clock_MSB`` writable
only by ``Code_Clock``, the IDT immutable, the EA-MPU configuration
locked (Sections 5-6).  This module provides the substrate those rules
act on:

* :class:`MemoryType` -- ROM / RAM / FLASH / MMIO, with ROM inherently
  write-protected by hardware;
* :class:`MemoryRegion` -- a named, contiguous, backed byte range;
* :class:`MemoryMap` -- the device's address space (non-overlapping
  regions, address -> region lookup);
* :class:`MemoryBus` -- the access path that attributes every load/store
  to the currently executing code region and consults the EA-MPU.

MMIO regions are backed by handler objects (peripherals) instead of a
byte array; reads and writes are delegated per-offset.
"""

from __future__ import annotations

import enum
import hashlib
from typing import Callable, Iterator, Protocol

from ..errors import ConfigurationError, MemoryAccessViolation

__all__ = ["MemoryType", "MemoryRegion", "MemoryMap", "MemoryBus",
           "MmioPeripheral"]


class MemoryType(enum.Enum):
    """Physical memory technology of a region."""

    ROM = "rom"        # mask ROM: hardware write-protected
    RAM = "ram"        # volatile, read/write
    FLASH = "flash"    # non-volatile, read/write (erase granularity ignored)
    MMIO = "mmio"      # memory-mapped peripheral registers


class MmioPeripheral(Protocol):
    """Interface for peripherals mapped into an MMIO region.

    Offsets are relative to the region base.  ``context`` is the name of
    the code region issuing the access (``None`` for hardware-internal
    accesses); peripherals may implement their own access policy, e.g. the
    EA-MPU denies configuration writes after lockdown.
    """

    def mmio_read(self, offset: int, context: str | None) -> int: ...

    def mmio_write(self, offset: int, value: int, context: str | None) -> None: ...


class MemoryRegion:
    """A named contiguous byte range in the device address space.

    Parameters
    ----------
    name:
        Unique region name, e.g. ``"rom"``, ``"ram"``, ``"mpu-config"``.
    start, size:
        Absolute base address and length in bytes.
    mem_type:
        One of :class:`MemoryType`.  ROM regions reject writes from
        software regardless of MPU rules (hardware property).
    peripheral:
        Required for MMIO regions: the backing peripheral handler.
    executable:
        Whether code may execute from this region (code regions live in
        ROM or flash; the CPU model uses this to validate contexts).
    """

    def __init__(self, name: str, start: int, size: int,
                 mem_type: MemoryType, *,
                 peripheral: MmioPeripheral | None = None,
                 executable: bool = False):
        if size <= 0:
            raise ConfigurationError(f"region {name!r} must have positive size")
        if start < 0:
            raise ConfigurationError(f"region {name!r} has negative base")
        if mem_type is MemoryType.MMIO and peripheral is None:
            raise ConfigurationError(f"MMIO region {name!r} needs a peripheral")
        if mem_type is not MemoryType.MMIO and peripheral is not None:
            raise ConfigurationError(
                f"non-MMIO region {name!r} cannot have a peripheral")
        self.name = name
        self.start = start
        self.size = size
        self.mem_type = mem_type
        self.peripheral = peripheral
        self.executable = executable
        self._data = bytearray(size) if mem_type is not MemoryType.MMIO else None
        #: Mutations at offsets below this bound are invisible to the
        #: content fingerprint.  The device sets it to the RAM reserved
        #: prefix (IDT / ``counter_R`` / ``Clock_MSB``), which the
        #: attestation digest never covers -- so honest freshness-state
        #: updates do not invalidate cached state digests.
        self.fingerprint_exclude_below = 0
        #: Optional :class:`repro.incremental.DigestTree` observing this
        #: region's mutations (attached by ``Device.enable_incremental``).
        #: Host-side only; ``None`` means no incremental tracking.
        self.digest_tree = None
        if self._data is not None:
            self._fingerprint = hashlib.sha1(
                f"region:{name}:{start:#x}:{size:#x}".encode()).digest()
        else:
            self._fingerprint = None

    @property
    def end(self) -> int:
        """One past the last valid address of the region."""
        return self.start + self.size

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end

    def overlaps(self, other: "MemoryRegion") -> bool:
        return self.start < other.end and other.start < self.end

    @property
    def is_writable_hardware(self) -> bool:
        """Whether the memory technology itself permits writes."""
        return self.mem_type is not MemoryType.ROM

    @property
    def content_fingerprint(self) -> bytes | None:
        """Write-chain fingerprint of the region contents (non-MMIO).

        A chain hash advanced by every mutation with the mutated
        ``(offset, length, data)`` triple: two regions with the same
        geometry and the same mutation history have equal fingerprints
        and therefore byte-identical contents (regions start zeroed and
        :meth:`store` is the only mutation path).  Mutations entirely
        below :attr:`fingerprint_exclude_below` are skipped -- see the
        attribute docstring.  Used as a content-addressed cache key by
        :class:`repro.mcu.statecache.StateDigestCache`; never feeds back
        into simulated behaviour.
        """
        return self._fingerprint

    def store(self, offset: int, data: bytes) -> None:
        """The one mutation path for non-MMIO backing bytes.

        Both :meth:`load` (factory/harness writes) and
        :meth:`MemoryBus.write` (arbitrated software stores) land here,
        so content accounting (:meth:`note_write`) can never miss a
        mutation.
        """
        self._data[offset:offset + len(data)] = data
        self.note_write(offset, data)

    def note_write(self, offset: int, data: bytes) -> None:
        """Account a mutation of ``[offset, offset + len(data))``.

        Advances the write-chain fingerprint and marks the covering
        :attr:`digest_tree` leaves dirty.  Zero-length writes mutate
        nothing and are skipped uniformly (they advance neither the
        fingerprint nor the tree -- two histories differing only by
        empty stores describe byte-identical contents).  Writes entirely
        below :attr:`fingerprint_exclude_below` skip the fingerprint
        chain; a write *straddling* the bound is accounted in full (the
        conservative direction: a straddle can touch attested bytes, so
        it must invalidate cached digests).
        """
        length = len(data)
        if length == 0:
            return
        tree = self.digest_tree
        if tree is not None:
            tree.note_write(offset, length)
        if offset + length <= self.fingerprint_exclude_below:
            return
        self._fingerprint = hashlib.sha1(
            self._fingerprint + offset.to_bytes(8, "little")
            + length.to_bytes(8, "little") + bytes(data)).digest()

    def attach_digest_tree(self, tree) -> None:
        """Attach a :class:`repro.incremental.DigestTree` observing this
        region's mutations (window must fit inside the region)."""
        if self._data is None:
            raise ConfigurationError(
                f"cannot attach a digest tree to MMIO region {self.name!r}")
        if tree.window_start + tree.window_size > self.size:
            raise ConfigurationError(
                f"digest tree window exceeds region {self.name!r} "
                f"(size {self.size:#x})")
        self.digest_tree = tree

    # -- raw (MPU-bypassing) access: used by hardware and by the simulator
    #    harness to set up initial contents -------------------------------

    def load(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset`` bypassing all protection.

        This models factory programming / the simulation harness, not a
        runtime store; runtime stores must go through :class:`MemoryBus`.
        """
        if self._data is None:
            raise ConfigurationError(f"cannot load bytes into MMIO region {self.name!r}")
        if offset < 0 or offset + len(data) > self.size:
            raise ConfigurationError(
                f"load of {len(data)} bytes at offset {offset:#x} exceeds "
                f"region {self.name!r} (size {self.size:#x})")
        self.store(offset, data)

    def raw_read(self, offset: int, length: int) -> bytes:
        """Read bytes bypassing protection (hardware-internal view)."""
        if self._data is None:
            raise ConfigurationError(f"raw_read on MMIO region {self.name!r}")
        if offset < 0 or offset + length > self.size:
            raise ConfigurationError(
                f"raw_read out of bounds in region {self.name!r}")
        return bytes(self._data[offset:offset + length])

    def snapshot(self) -> bytes:
        """Return a copy of the full region contents (non-MMIO only)."""
        return self.raw_read(0, self.size)

    def __repr__(self) -> str:
        return (f"MemoryRegion({self.name!r}, start={self.start:#x}, "
                f"size={self.size:#x}, type={self.mem_type.value})")


class MemoryMap:
    """The full address space of a device: disjoint named regions."""

    def __init__(self):
        self._regions: list[MemoryRegion] = []
        self._by_name: dict[str, MemoryRegion] = {}

    def add(self, region: MemoryRegion) -> MemoryRegion:
        """Register ``region``; rejects overlaps and duplicate names."""
        if region.name in self._by_name:
            raise ConfigurationError(f"duplicate region name {region.name!r}")
        for existing in self._regions:
            if existing.overlaps(region):
                raise ConfigurationError(
                    f"region {region.name!r} overlaps {existing.name!r}")
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.start)
        self._by_name[region.name] = region
        return region

    def region(self, name: str) -> MemoryRegion:
        """Look a region up by name (KeyError if absent)."""
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def find(self, address: int) -> MemoryRegion | None:
        """Return the region containing ``address``, or ``None``."""
        # Regions are few (tens at most); linear scan is clear and fast enough.
        for region in self._regions:
            if region.contains(address):
                return region
        return None

    def __iter__(self) -> Iterator[MemoryRegion]:
        return iter(self._regions)

    def __len__(self) -> int:
        return len(self._regions)

    def writable_regions(self) -> list[MemoryRegion]:
        """All regions attestation must cover: RAM and flash (Section 3.1
        MACs "the prover's entire writable memory")."""
        return [r for r in self._regions
                if r.mem_type in (MemoryType.RAM, MemoryType.FLASH)]


#: Hook signature for access tracing: (context, access, address, length).
AccessTracer = Callable[[str | None, str, int, int], None]


class MemoryBus:
    """Routes every software load/store through the EA-MPU.

    The bus is the *only* runtime access path.  Each access carries the
    name of the executing code region (the CPU's current context); the
    attached MPU decides whether the (context, address, access-type)
    triple is allowed.  ROM writes are refused by the memory technology
    itself, before the MPU is even consulted.
    """

    def __init__(self, memory_map: MemoryMap):
        self.memory_map = memory_map
        self._mpu = None  # attached later to break the construction cycle
        self._tracers: list[AccessTracer] = []

    def attach_mpu(self, mpu) -> None:
        """Attach the EA-MPU that arbitrates accesses (done by Device)."""
        self._mpu = mpu

    def add_tracer(self, tracer: AccessTracer) -> None:
        """Register a callback observing every access (for tests/benches)."""
        self._tracers.append(tracer)

    @property
    def has_tracers(self) -> bool:
        """Whether any access tracer is observing the bus.  Bulk readers
        check this and fall back to per-chunk reads so tracers keep
        seeing the exact access pattern the naive path produces."""
        return bool(self._tracers)

    def _trace(self, context: str | None, access: str, address: int,
               length: int) -> None:
        for tracer in self._tracers:
            tracer(context, access, address, length)

    def _check(self, context: str | None, access: str, address: int,
               length: int) -> MemoryRegion:
        region = self.memory_map.find(address)
        if region is None or address + length > region.end:
            raise MemoryAccessViolation(
                f"{access} of {length} bytes at {address:#x} hits unmapped "
                f"memory", address=address, access=access, context=context)
        if access == "write" and not region.is_writable_hardware:
            raise MemoryAccessViolation(
                f"write to ROM region {region.name!r} at {address:#x}",
                address=address, access=access, context=context)
        if self._mpu is not None:
            self._mpu.check_access(context, access, address, length)
        return region

    # -- software access path ----------------------------------------------

    def read(self, context: str | None, address: int, length: int = 1) -> bytes:
        """Software load of ``length`` bytes at ``address``."""
        region = self._check(context, "read", address, length)
        self._trace(context, "read", address, length)
        if region.mem_type is MemoryType.MMIO:
            offset = address - region.start
            return bytes(region.peripheral.mmio_read(offset + i, context) & 0xFF
                         for i in range(length))
        return region.raw_read(address - region.start, length)

    def write(self, context: str | None, address: int, data: bytes) -> None:
        """Software store of ``data`` at ``address``."""
        region = self._check(context, "write", address, len(data))
        self._trace(context, "write", address, len(data))
        if region.mem_type is MemoryType.MMIO:
            offset = address - region.start
            for i, byte in enumerate(data):
                region.peripheral.mmio_write(offset + i, byte, context)
            return
        region.store(address - region.start, data)

    # -- bulk access path ----------------------------------------------------
    #
    # The attestation measurement reads hundreds of kilobytes through the
    # bus; copying every 4 KB chunk into fresh ``bytes`` dominates host
    # wall-clock once hashing itself is fast.  ``read_view`` hands the
    # hash a read-only window straight onto the region's backing store
    # after one permission check over the whole span.  ``can_bulk_read``
    # is the eligibility pre-check: a span qualifies only when it lies in
    # one non-MMIO region and no EA-MPU rule overlaps it, so a single
    # check is *provably* equivalent to the per-chunk sweep (every byte
    # is unruled ordinary memory).  Anything else -- rules splitting the
    # region, MMIO, unmapped tails -- must take the per-chunk checked
    # path.

    def can_bulk_read(self, context: str | None, address: int,
                      length: int) -> bool:
        """Whether ``[address, address+length)`` is eligible for a
        single zero-copy :meth:`read_view`."""
        if length <= 0:
            return False
        region = self.memory_map.find(address)
        if region is None or address + length > region.end:
            return False
        if region.mem_type is MemoryType.MMIO:
            return False
        if self._mpu is not None and not self._mpu.span_unruled(
                address, address + length):
            return False
        return True

    def read_view(self, context: str | None, address: int,
                  length: int) -> memoryview:
        """Zero-copy software load: a read-only view of backing memory.

        Performs the same :meth:`_check` arbitration as :meth:`read`
        (one check over the full span) and emits one trace record.
        Callers should gate on :meth:`can_bulk_read`; MMIO regions are
        still served correctly via the per-byte peripheral path.
        """
        region = self._check(context, "read", address, length)
        self._trace(context, "read", address, length)
        if region.mem_type is MemoryType.MMIO:
            return memoryview(self.read(context, address, length))
        offset = address - region.start
        return memoryview(region._data)[offset:offset + length].toreadonly()

    def read_into(self, context: str | None, address: int, length: int,
                  out: bytearray, out_offset: int = 0) -> int:
        """Software load of ``length`` bytes directly into ``out``.

        One permission check, one ``memcpy``-style slice store, no
        intermediate ``bytes`` object.  Returns ``length``.
        """
        if out_offset < 0 or out_offset + length > len(out):
            raise ConfigurationError(
                f"read_into of {length} bytes at output offset "
                f"{out_offset} exceeds buffer of {len(out)} bytes")
        region = self._check(context, "read", address, length)
        self._trace(context, "read", address, length)
        if region.mem_type is MemoryType.MMIO:
            offset = address - region.start
            for i in range(length):
                out[out_offset + i] = \
                    region.peripheral.mmio_read(offset + i, context) & 0xFF
            return length
        offset = address - region.start
        out[out_offset:out_offset + length] = \
            memoryview(region._data)[offset:offset + length]
        return length

    def read_u32(self, context: str | None, address: int) -> int:
        return int.from_bytes(self.read(context, address, 4), "little")

    def write_u32(self, context: str | None, address: int, value: int) -> None:
        self.write(context, address, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def read_u64(self, context: str | None, address: int) -> int:
        return int.from_bytes(self.read(context, address, 8), "little")

    def write_u64(self, context: str | None, address: int, value: int) -> None:
        self.write(context, address,
                   (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))
