"""The simulated prover device: memory, MPU, clocks, boot, energy.

:class:`Device` assembles every hardware block into the low-end MCU the
paper targets (Siskiyou-Peak-class, 24 MHz) and exposes the handful of
high-level operations the attestation trust anchor needs:

* :meth:`Device.boot` -- secure boot: measure firmware, configure the
  EA-MPU per a :class:`~repro.mcu.profiles.ProtectionProfile`, lock down;
* :meth:`Device.read_key` / :meth:`read_counter` / :meth:`write_counter` /
  :meth:`read_clock_ticks` -- protected-state access, always attributed
  to an execution context so the EA-MPU arbitrates;
* :meth:`Device.measure_writable_memory` -- the attestation measurement:
  an HMAC-SHA1 over all of RAM + flash, charged at Table 1 cycle costs
  (the 754 ms centrepiece of Section 3.1).

Address map::

    0x0000_0000  ROM    boot | Code_Attest | Code_Clock | K_Attest | ref
    0x0010_0000  FLASH  application code + data
    0x0020_0000  RAM    IDT | counter_R | Clock_MSB | data
    0x0030_0000  MMIO   EA-MPU config | clock counter | IRQ mask
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import fastpath
from ..crypto.costmodel import CryptoCostModel
from ..crypto.hmac import HmacSha1
from ..crypto.sha1 import SHA1
from ..errors import ConfigurationError, SecureBootError
from ..incremental import DigestTree
from ..obs.telemetry import NULL_TELEMETRY
from .clock import SoftwareClock, WideHardwareClock
from .cpu import CPU, ExecutionContext
from .firmware import FirmwareImage, FirmwareModule
from .interrupts import InterruptController
from .memory import MemoryBus, MemoryMap, MemoryRegion, MemoryType
from .mpu import ALL_CODE, ExecutionAwareMPU
from .power import Battery, EnergyModel
from .profiles import ProtectionProfile, UNPROTECTED

__all__ = ["DeviceConfig", "Device", "ROM_BASE", "FLASH_BASE", "RAM_BASE",
           "MMIO_BASE"]

ROM_BASE = 0x0000_0000
FLASH_BASE = 0x0010_0000
RAM_BASE = 0x0020_0000
MMIO_BASE = 0x0030_0000

# Offsets inside ROM.
_BOOT_OFF = 0x0000
_ATTEST_OFF = 0x0800
_CLOCKCODE_OFF = 0x1800
_KEY_OFF = 0x1C00
_REF_OFF = 0x1C20

# Offsets inside RAM.
_IDT_OFF = 0x0000
_COUNTER_OFF = 0x0040
_CLOCK_MSB_OFF = 0x0048
_DATA_OFF = 0x0100

# Offsets inside MMIO.
_MPU_OFF = 0x0000
_CLOCK_REG_OFF = 0x1000
_IRQ_MASK_OFF = 0x1100

_KEY_SIZE = 16

#: Chunk size of the per-chunk checked memory walk (the naive path).
_MEASURE_CHUNK = 4096


@dataclass
class DeviceConfig:
    """Static configuration of a simulated prover.

    The defaults give a small, fast-to-simulate device; the Table 1 /
    Section 3.1 benchmarks override ``ram_size`` to the paper's 512 KB.

    Attributes
    ----------
    clock_kind:
        ``"hw64"`` -- Figure 1a with a 64-bit cycle counter;
        ``"hw32div"`` -- 32-bit counter behind a /2^20 divider (Section
        6.3's cheap variant); ``"sw"`` -- Figure 1b software clock;
        ``"none"`` -- no real-time clock (counter-only freshness).
    uninterruptible_attest:
        SMART-style atomic ``Code_Attest`` (defers interrupts) when True;
        TrustLite-style interruptible when False.
    key_in_rom:
        Store ``K_Attest`` in ROM (inherently write-protected) or in
        flash (write protection must come from the EA-MPU rule).
    """

    frequency_hz: int = 24_000_000
    rom_size: int = 32 * 1024
    flash_size: int = 128 * 1024
    ram_size: int = 64 * 1024
    app_size: int = 16 * 1024
    clock_kind: str = "hw64"
    sw_clock_lsb_bits: int = 16
    sw_clock_divider: int = 1
    max_mpu_rules: int = 8
    num_irqs: int = 8
    uninterruptible_attest: bool = False
    key_in_rom: bool = True
    #: SMART-style single-entry enforcement for trusted code (Section
    #: 6.2's "limiting code entry points").  False models a core without
    #: it, on which a code-reuse jump into Code_Attest inherits its
    #: EA-MPU privileges.
    enforce_entry_points: bool = True
    energy: EnergyModel | None = None
    battery_capacity_mj: float = 620 * 3 * 3.6 * 1000
    seed: str = "prover-0"

    def __post_init__(self):
        if self.clock_kind not in ("hw64", "hw32div", "sw", "none"):
            raise ConfigurationError(f"unknown clock_kind {self.clock_kind!r}")
        if self.app_size > self.flash_size:
            raise ConfigurationError("application larger than flash")
        if self.ram_size < _DATA_OFF + 256:
            raise ConfigurationError("RAM too small for reserved words")


class Device:
    """A fully-wired simulated prover MCU.

    Construction wires the hardware; :meth:`provision` installs the
    attestation key and reference measurement (factory step);
    :meth:`boot` runs secure boot under a protection profile.  After
    boot the device is ready for the attestation protocol
    (:mod:`repro.core.prover`).
    """

    def __init__(self, config: DeviceConfig | None = None):
        self.config = config if config is not None else DeviceConfig()
        cfg = self.config

        self.cpu = CPU(cfg.frequency_hz,
                       enforce_entry_points=cfg.enforce_entry_points)
        self.cost_model = CryptoCostModel(frequency_hz=cfg.frequency_hz)
        self.energy = cfg.energy if cfg.energy is not None else EnergyModel(
            frequency_hz=cfg.frequency_hz)
        self.battery = Battery(cfg.battery_capacity_mj, self.energy)
        self.cpu.add_cycle_listener(self.battery.on_cycles)

        # -- memory map -----------------------------------------------------
        self.memory = MemoryMap()
        self.rom = self.memory.add(MemoryRegion(
            "rom", ROM_BASE, cfg.rom_size, MemoryType.ROM, executable=True))
        self.flash = self.memory.add(MemoryRegion(
            "flash", FLASH_BASE, cfg.flash_size, MemoryType.FLASH,
            executable=True))
        self.ram = self.memory.add(MemoryRegion(
            "ram", RAM_BASE, cfg.ram_size, MemoryType.RAM, executable=True))
        # The reserved words (IDT, counter_R, Clock_MSB) are outside the
        # attested spans, so their mutation must not perturb the RAM
        # content fingerprint the state-digest cache keys on.
        self.ram.fingerprint_exclude_below = _DATA_OFF

        self.mpu = ExecutionAwareMPU(cfg.max_mpu_rules)
        self.memory.add(MemoryRegion(
            "mpu-config", MMIO_BASE + _MPU_OFF, self.mpu.register_file_size,
            MemoryType.MMIO, peripheral=self.mpu))

        self.bus = MemoryBus(self.memory)
        self.bus.attach_mpu(self.mpu)

        # -- interrupts -------------------------------------------------------
        self.idt_base = RAM_BASE + _IDT_OFF
        self.interrupts = InterruptController(
            self.cpu, self.bus, self.idt_base, num_irqs=cfg.num_irqs)
        self.memory.add(MemoryRegion(
            "irq-mask", MMIO_BASE + _IRQ_MASK_OFF, self.interrupts.mask.size,
            MemoryType.MMIO, peripheral=self.interrupts.mask))

        # -- firmware ---------------------------------------------------------
        self.firmware = FirmwareImage()
        self.firmware.add(FirmwareModule("boot", 2048), ROM_BASE + _BOOT_OFF)
        self.firmware.add(
            FirmwareModule("Code_Attest", 4096,
                           uninterruptible=cfg.uninterruptible_attest),
            ROM_BASE + _ATTEST_OFF)
        self.firmware.add(FirmwareModule("Code_Clock", 1024),
                          ROM_BASE + _CLOCKCODE_OFF)
        self.app_module: FirmwareModule | None = None

        self._contexts: dict[str, ExecutionContext] = {}
        for name in ("boot", "Code_Attest", "Code_Clock"):
            start, end = self.firmware.span(name)
            module = self.firmware.module(name)
            # Trusted modules expose a single canonical entry point
            # (their base address): the Section 6.2 code-entry defence.
            self._contexts[name] = ExecutionContext(
                name, start, end, uninterruptible=module.uninterruptible,
                entry_points=(start,))
            self.rom.load(start - ROM_BASE, module.code_bytes())

        # -- well-known data addresses ---------------------------------------
        self.key_address = (ROM_BASE + _KEY_OFF if cfg.key_in_rom
                            else FLASH_BASE + cfg.flash_size - 64)
        self.reference_address = ROM_BASE + _REF_OFF
        self.counter_address = RAM_BASE + _COUNTER_OFF
        self.clock_msb_address = RAM_BASE + _CLOCK_MSB_OFF
        self.data_base = RAM_BASE + _DATA_OFF

        # -- clock -------------------------------------------------------------
        self.clock: WideHardwareClock | SoftwareClock | None = None
        self.clock_register_span: tuple[int, int] | None = None
        self._build_clock()

        self.booted = False
        self.boot_profile: ProtectionProfile | None = None
        self.boot_log: list[str] = []
        self.telemetry = NULL_TELEMETRY
        self._state_cache = None
        self._incremental = False

    def attach_state_cache(self, cache) -> None:
        """Share a :class:`~repro.mcu.statecache.StateDigestCache`.

        The cache serves :meth:`digest_writable_memory` only when a hit
        is provably indistinguishable from a recompute (see the
        eligibility and accounting-replay rules there); attaching one
        never changes digests, simulated cycles, energy or telemetry.
        One cache is typically shared by a whole fleet so identical
        members reuse each other's work.
        """
        self._state_cache = cache

    def attach_telemetry(self, telemetry) -> None:
        """Wire hardware-level observers into a telemetry sink.

        Reports, without changing device behaviour:

        * per-context cycle attribution (``cpu.cycles{context=...}``);
        * EA-MPU denials as ``mpu-fault`` trace events plus a
          ``device.mpu_faults`` counter;
        * SW-clock wrap servicing as ``clock-wrap`` trace events plus a
          ``device.clock_wraps`` counter;
        * static geometry gauges (RAM/flash/writable bytes, MPU rules).

        Attaching the no-op sink is a no-op: the hardware hot paths stay
        observer-free unless someone is genuinely observing.
        """
        if not telemetry.enabled:
            return
        self.telemetry = telemetry
        cpu = self.cpu
        cpu.attach_telemetry(telemetry)
        cfg = self.config

        # The hooks close over the CPU, not the device: a hook the
        # device's parts hold must not lead back to the device.
        def on_mpu_fault(violation):
            telemetry.count("device.mpu_faults")
            telemetry.event("mpu-fault", cpu.elapsed_seconds,
                            context=violation.context,
                            access=violation.access,
                            address=violation.address)

        self.mpu.on_violation = on_mpu_fault

        if self.clock is not None and self.clock.kind == "software":
            def on_clock_wrap(total_wraps):
                telemetry.count("device.clock_wraps")
                telemetry.event("clock-wrap", cpu.elapsed_seconds,
                                wraps_serviced=total_wraps)

            self.clock.on_wrap_serviced = on_clock_wrap

        telemetry.set_gauge("device.ram_bytes", cfg.ram_size)
        telemetry.set_gauge("device.flash_bytes", cfg.flash_size)
        telemetry.set_gauge("device.writable_bytes",
                            self.writable_memory_bytes)
        telemetry.set_gauge("device.mpu_rules", self.mpu.active_rule_count)

    # ------------------------------------------------------------------
    # Well-known protected spans (half-open address ranges)
    # ------------------------------------------------------------------

    @property
    def key_span(self) -> tuple[int, int]:
        """Address span of ``K_Attest``."""
        return (self.key_address, self.key_address + _KEY_SIZE)

    @property
    def counter_span(self) -> tuple[int, int]:
        """Address span of the freshness word ``counter_R``."""
        return (self.counter_address, self.counter_address + 8)

    @property
    def clock_msb_span(self) -> tuple[int, int]:
        """Address span of the SW-clock ``Clock_MSB`` word."""
        return (self.clock_msb_address, self.clock_msb_address + 8)

    @property
    def idt_span(self) -> tuple[int, int]:
        """Address span of the interrupt descriptor table."""
        return (self.idt_base, self.idt_base + self.interrupts.idt_size)

    @property
    def irq_mask_span(self) -> tuple[int, int]:
        """Address span of the interrupt mask register."""
        base = MMIO_BASE + _IRQ_MASK_OFF
        return (base, base + self.interrupts.mask.size)

    @property
    def mpu_register_span(self) -> tuple[int, int]:
        """Address span of the EA-MPU's own configuration registers."""
        base = MMIO_BASE + _MPU_OFF
        return (base, base + self.mpu.register_file_size)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _build_clock(self) -> None:
        cfg = self.config
        if cfg.clock_kind == "none":
            return
        if cfg.clock_kind in ("hw64", "hw32div"):
            width = 64 if cfg.clock_kind == "hw64" else 32
            divider = 1 if cfg.clock_kind == "hw64" else 1 << 20
            # The register is physically writable; protection comes from an
            # EA-MPU rule (Section 6.3 charges one rule per hardware clock),
            # so an unprotected boot leaves it attackable.
            self.clock = WideHardwareClock(
                self.cpu, width_bits=width, divider=divider,
                software_writable=True)
            size = self.clock.counter.size_bytes
            base = MMIO_BASE + _CLOCK_REG_OFF
            self.memory.add(MemoryRegion(
                "clock-register", base, size, MemoryType.MMIO,
                peripheral=self.clock.counter))
            self.clock_register_span = (base, base + size)
        else:  # "sw"
            clock_ctx = self._contexts["Code_Clock"]
            handler_address = clock_ctx.code_start  # entry point at base
            self.clock = SoftwareClock(
                self.cpu, self.bus, self.interrupts,
                msb_address=self.clock_msb_address,
                code_clock_context=clock_ctx,
                handler_address=handler_address,
                irq=0, lsb_width_bits=cfg.sw_clock_lsb_bits,
                divider=cfg.sw_clock_divider)
            size = self.clock.counter.size_bytes
            base = MMIO_BASE + _CLOCK_REG_OFF
            self.memory.add(MemoryRegion(
                "clock-register", base, size, MemoryType.MMIO,
                peripheral=self.clock.counter))
            self.clock_register_span = (base, base + size)

    def sync_energy(self) -> None:
        """Flush energy accounting for cycles consumed inside nested
        interrupt dispatch (call before reading battery state)."""
        self.battery.on_cycles(self.cpu.cycle_count)
        self.telemetry.set_gauge("device.energy_consumed_mj",
                                 self.battery.consumed_mj)
        self.telemetry.set_gauge("device.battery_fraction_remaining",
                                 self.battery.fraction_remaining)

    # ------------------------------------------------------------------
    # Factory provisioning and application install
    # ------------------------------------------------------------------

    def install_app(self, module: FirmwareModule | None = None) -> FirmwareModule:
        """Place the application firmware into flash (pre-boot step)."""
        if module is None:
            module = FirmwareModule("app", self.config.app_size)
        self.firmware.add(module, FLASH_BASE)
        self.flash.load(0, module.code_bytes())
        self._contexts["app"] = ExecutionContext(
            "app", FLASH_BASE, FLASH_BASE + module.size)
        self.app_module = module
        return module

    def provision(self, key: bytes) -> None:
        """Factory step: burn ``K_Attest`` and the boot reference.

        The reference measurement covers the application image, which must
        already be installed (:meth:`install_app`).
        """
        if len(key) != _KEY_SIZE:
            raise ConfigurationError(f"K_Attest must be {_KEY_SIZE} bytes")
        if self.app_module is None:
            self.install_app()
        key_region = self.memory.find(self.key_address)
        key_region.load(self.key_address - key_region.start, key)
        reference = self.app_module.measurement()
        self.rom.load(self.reference_address - ROM_BASE, reference)

    # ------------------------------------------------------------------
    # Secure boot
    # ------------------------------------------------------------------

    def boot(self, profile: ProtectionProfile = UNPROTECTED) -> None:
        """Run secure boot: verify, configure protection, lock down.

        Section 6.2: "the system is started via secure boot, i.e., at boot
        time it verifies that correct software is loaded.  This initial
        software sets up memory protection rules in the EA-MPU and locks it
        down to preclude further changes."  Raises
        :class:`SecureBootError` on a measurement mismatch.
        """
        if self.booted:
            raise ConfigurationError("device already booted")
        if self.app_module is None:
            self.install_app()
        boot_ctx = self._contexts["boot"]
        with self.cpu.running(boot_ctx):
            self._verify_application(boot_ctx)
            if profile.mpu_enabled:
                self._configure_protection(profile, boot_ctx)
        self.booted = True
        self.boot_profile = profile
        self.boot_log.append(f"booted with profile {profile.name}")

    def _verify_application(self, boot_ctx: ExecutionContext) -> None:
        """Measure the application in flash against the ROM reference."""
        app_start, app_end = self.firmware.span("app")
        digest = SHA1()
        self._absorb_spans(boot_ctx, [(app_start, app_end)], digest.update)
        # Charge hashing cost (boot-time, so it does not affect the
        # attestation latency experiments, but energy is energy).
        self.cpu.consume_cycles(
            self.cost_model.hmac_cycles(app_end - app_start, mode="table") // 2)
        reference = self.rom.raw_read(self.reference_address - ROM_BASE, 20)
        if digest.digest() != reference:
            raise SecureBootError(
                "secure boot: application measurement mismatch")

    def _configure_protection(self, profile: ProtectionProfile,
                              boot_ctx: ExecutionContext) -> None:
        """Program EA-MPU rules for ``profile`` and lock down.

        Rule budget (cf. Section 6.3): K_Attest 1, counter_R 1, hardware
        clock 1, SW-clock 3 (IDT, Clock_MSB read, Clock_MSB write) + 1
        mask-register rule, lockdown 1.
        """
        attest_span = self.firmware.span("Code_Attest")
        rule_index = 0

        def next_rule(**kwargs):
            nonlocal rule_index
            self.mpu.program_rule(rule_index, context=boot_ctx.name, **kwargs)
            self.boot_log.append(
                f"rule[{rule_index}] {kwargs['data']} code={kwargs['code']} "
                f"r={kwargs['read']} w={kwargs['write']}")
            rule_index += 1

        if profile.protect_key:
            next_rule(code=attest_span, data=self.key_span,
                      read=True, write=False)
        if profile.protect_counter:
            next_rule(code=attest_span, data=self.counter_span,
                      read=True, write=True)
        if profile.protect_clock and self.clock is not None:
            if self.clock.kind == "hardware":
                next_rule(code=ALL_CODE, data=self.clock_register_span,
                          read=True, write=False)
            else:
                next_rule(code=ALL_CODE, data=self.idt_span,
                          read=True, write=False)
                clock_code = self.firmware.span("Code_Clock")
                next_rule(code=ALL_CODE, data=self.clock_msb_span,
                          read=True, write=False)
                next_rule(code=clock_code, data=self.clock_msb_span,
                          read=True, write=True)
                next_rule(code=ALL_CODE, data=self.irq_mask_span,
                          read=True, write=False)
        self.mpu.set_enabled(True, boot_ctx.name)
        if profile.lockdown:
            next_rule(code=ALL_CODE, data=self.mpu_register_span,
                      read=True, write=False)

    # ------------------------------------------------------------------
    # Execution contexts
    # ------------------------------------------------------------------

    def context(self, name: str) -> ExecutionContext:
        """Look up a firmware execution context by name."""
        return self._contexts[name]

    def make_malware_context(self, name: str = "malware", *,
                             size: int = 4096) -> ExecutionContext:
        """Create a context for injected code executing from RAM.

        Low-end MCUs generally lack no-execute protection, so malware may
        run from anywhere writable; what it cannot do on a hardened device
        is touch EA-MPU-protected state.
        """
        start = RAM_BASE + self.config.ram_size - size
        ctx = ExecutionContext(name, start, start + size)
        self._contexts[name] = ctx
        return ctx

    # ------------------------------------------------------------------
    # Protected-state operations (all EA-MPU arbitrated)
    # ------------------------------------------------------------------

    def read_key(self, context: ExecutionContext) -> bytes:
        """Read ``K_Attest`` as ``context`` (raises on MPU denial)."""
        with self.cpu.running(context):
            return self.bus.read(context, self.key_address, _KEY_SIZE)

    def read_counter(self, context: ExecutionContext) -> int:
        with self.cpu.running(context):
            return self.bus.read_u64(context, self.counter_address)

    def write_counter(self, context: ExecutionContext, value: int) -> None:
        with self.cpu.running(context):
            self.bus.write_u64(context, self.counter_address, value)

    def read_clock_ticks(self, context: ExecutionContext) -> int:
        """Read the real-time clock as ``context``."""
        if self.clock is None:
            raise ConfigurationError("device has no real-time clock")
        with self.cpu.running(context):
            if self.clock.kind == "hardware":
                base = self.clock_register_span[0]
                size = self.clock.counter.size_bytes
                raw = self.bus.read(context, base, size)
                return int.from_bytes(raw, "little")
            return self.clock.read_ticks(context)

    # ------------------------------------------------------------------
    # The attestation measurement (Section 3.1's expensive operation)
    # ------------------------------------------------------------------

    def _absorb_spans(self, context: ExecutionContext,
                      spans: list[tuple[int, int]], absorb) -> int:
        """Feed every byte of ``spans`` through ``absorb``; returns the
        total byte count.

        This is the one shared memory walker behind the keyed
        measurement, the unkeyed state digest and the secure-boot
        verification.  Fast path: one MPU pre-check per span, then a
        single read-only ``memoryview`` straight onto the region backing
        store (zero copies).  It falls back to the seed's per-chunk
        checked-and-copied reads whenever the span is ineligible for
        bulk access (an EA-MPU rule splits it, MMIO, unmapped tail --
        see :meth:`~repro.mcu.memory.MemoryBus.can_bulk_read`), a bus
        tracer is observing the access pattern, or the fast path is
        disabled.  Either way the MPU arbitration outcome, the absorbed
        bytes and the simulated accounting are identical.
        """
        bus = self.bus
        total = 0
        for start, end in spans:
            length = end - start
            if length <= 0:
                continue
            if (fastpath.is_fast() and not bus.has_tracers
                    and bus.can_bulk_read(context, start, length)):
                absorb(bus.read_view(context, start, length))
            else:
                address = start
                while address < end:
                    step = min(_MEASURE_CHUNK, end - address)
                    absorb(bus.read(context, address, step))
                    address += step
            total += length
        return total

    def measure_writable_memory(self, context: ExecutionContext,
                                key: bytes, challenge: bytes) -> bytes:
        """HMAC-SHA1 over all writable memory, keyed with ``key``.

        Runs under ``context`` (normally ``Code_Attest``), reads through
        the bus (so protected words are readable only when the rules
        grant it), and charges Table 1 cycle costs for the MAC -- this is
        the 754 ms operation for 512 KB at 24 MHz.
        """
        mac = HmacSha1(key, challenge)
        with self.cpu.running(context):
            spans = [(r.start, r.end)
                     for r in self.memory.writable_regions()]
            total = self._absorb_spans(context, spans, mac.update)
            self.cpu.consume_cycles(
                self.cost_model.hmac_cycles(total + len(challenge),
                                            mode="exact"))
        if self.config.uninterruptible_attest:
            self.interrupts.run_pending()
        return mac.digest()

    def attested_spans(self) -> list[tuple[int, int]]:
        """Address spans the attestation digest covers.

        All writable memory except the trust anchor's own volatile words
        (IDT, ``counter_R``, ``Clock_MSB``): their integrity is enforced by
        the EA-MPU, and their values legitimately change between
        attestations, so including them would make every honest counter
        update look like a state change.
        """
        spans = []
        reserved_end = RAM_BASE + _DATA_OFF
        for region in self.memory.writable_regions():
            if region.start <= RAM_BASE < region.end:
                spans.append((reserved_end, region.end))
            else:
                spans.append((region.start, region.end))
        return spans

    def _state_cache_eligible(self, context: ExecutionContext,
                              spans: list[tuple[int, int]]) -> bool:
        """Whether a cached digest would be indistinguishable from a
        recompute: the walk would take the traced-by-nobody zero-copy
        bulk path for every span (one whole-span MPU check that
        ``can_bulk_read`` proves passes), so skipping the reads changes
        no arbitration outcome and no observable access pattern."""
        if self._state_cache is None:
            return False
        if not fastpath.is_fast() or self.bus.has_tracers:
            return False
        for start, end in spans:
            if end <= start:
                continue
            if not self.bus.can_bulk_read(context, start, end - start):
                return False
            region = self.memory.find(start)
            if region is None or region.content_fingerprint is None:
                return False
        return True

    def _state_digest_key(self, spans: list[tuple[int, int]]) -> tuple:
        """Content-addressed cache key: each attested span plus the
        write-chain fingerprint of its backing region.  Equal keys imply
        byte-identical attested contents (see
        :attr:`~repro.mcu.memory.MemoryRegion.content_fingerprint`)."""
        return tuple((start, end, self.memory.find(start).content_fingerprint)
                     for start, end in spans)

    # -- incremental (dirty-region) measurement ---------------------------

    def enable_incremental(self) -> None:
        """Attach a :class:`repro.incremental.DigestTree` per attested
        span, enabling the content-addressed second cache key.

        The trees observe every :meth:`~repro.mcu.memory.MemoryRegion.
        note_write` and make re-recognising previously measured content
        an O(dirty + log N) refresh instead of a full walk (see
        :mod:`repro.incremental` and ``docs/performance.md``).  Purely a
        host-side accelerator: digests, simulated cycles, energy and
        telemetry are byte-identical with or without it.
        """
        for start, end in self.attested_spans():
            if end <= start:
                continue
            region = self.memory.find(start)
            region.attach_digest_tree(DigestTree(start - region.start,
                                                 end - start))
        self._incremental = True

    def _content_digest_key(self, spans: list[tuple[int, int]]) -> tuple | None:
        """Content-addressed second cache key from digest-tree roots.

        One ``(start, end, chunk_size, arity, root)`` tuple per span.
        Equal keys imply byte-identical attested contents *regardless of
        write history* -- the case the write-chain key always misses.
        Refreshing a root costs O(dirty + log N) chunk digests.  Returns
        ``None`` when any span lacks a matching tree.  Reads region
        backing bytes directly: callers gate on the same eligibility
        rules as the bulk walk, so no tracer or MPU arbitration can be
        bypassed.
        """
        parts = []
        for start, end in spans:
            if end <= start:
                continue
            region = self.memory.find(start)
            tree = region.digest_tree
            if (tree is None or tree.window_start != start - region.start
                    or tree.window_size != end - start):
                return None
            parts.append((start, end, tree.chunk_size, tree.arity,
                          tree.root(region._data)))
        return ("content", *parts)

    def _replay_digest_accounting(self, context: ExecutionContext,
                                  spans: list[tuple[int, int]]) -> None:
        """Charge the exact simulated accounting of a full state-digest
        walk without re-reading memory (cache-hit path): same context,
        same ``sha1_cycles`` total, same deferred-interrupt servicing."""
        with self.cpu.running(context):
            total = sum(end - start for start, end in spans if end > start)
            self.cpu.consume_cycles(self.cost_model.sha1_cycles(total))
        if self.config.uninterruptible_attest:
            self.interrupts.run_pending()

    def digest_writable_memory(self, context: ExecutionContext) -> bytes:
        """SHA-1 digest of the attested memory (the state report).

        Same Table 1 per-block cycle cost as the keyed measurement; the
        trust anchor binds the digest to the challenge with a short HMAC
        afterwards (see :class:`repro.core.messages.AttestationResponse`).

        An attached :class:`~repro.mcu.statecache.StateDigestCache` may
        serve the digest without re-reading memory; the hit path replays
        the exact simulated accounting of a recompute (same context,
        same ``sha1_cycles`` charge, same deferred-interrupt servicing),
        so only host time changes.

        Lookup is two-level when :meth:`enable_incremental` is on:

        1. the O(1) write-chain key (same history -> hit, PR 5);
        2. on a miss, the content key from the digest-tree roots,
           refreshed in O(dirty + log N) -- same *contents* via any
           write history -> hit.  A content hit re-stores the digest
           under the new history key, so subsequent unchanged sweeps go
           back to hitting at level 1.

        Both levels obey the same eligibility gates; a genuine miss
        pays the full walk and stores under both keys.
        """
        spans = self.attested_spans()
        key = None
        content_key = None
        if self._state_cache_eligible(context, spans):
            key = self._state_digest_key(spans)
            cached = self._state_cache.lookup(key)
            if cached is not None:
                self._replay_digest_accounting(context, spans)
                return cached
            if self._incremental:
                content_key = self._content_digest_key(spans)
                if content_key is not None:
                    cached = self._state_cache.lookup(content_key)
                    if cached is not None:
                        self._state_cache.store(key, cached)
                        self._replay_digest_accounting(context, spans)
                        return cached
        digest = SHA1()
        with self.cpu.running(context):
            total = self._absorb_spans(context, spans, digest.update)
            self.cpu.consume_cycles(self.cost_model.sha1_cycles(total))
        if self.config.uninterruptible_attest:
            self.interrupts.run_pending()
        value = digest.digest()
        if key is not None:
            self._state_cache.store(key, value)
        if content_key is not None:
            self._state_cache.store(content_key, value)
        return value

    @property
    def writable_memory_bytes(self) -> int:
        """Total bytes the attestation measurement covers."""
        return sum(r.size for r in self.memory.writable_regions())

    # ------------------------------------------------------------------
    # Time helpers for scenarios
    # ------------------------------------------------------------------

    def idle_seconds(self, seconds: float) -> None:
        """Let simulated wall-clock time pass with the CPU sleeping.

        Advances the cycle counter (hardware clocks keep counting) but
        charges sleep energy rather than active energy for the interval.
        """
        if seconds <= 0:
            return
        cycles = self.cpu.seconds_to_cycles(seconds)
        self.sync_energy()
        self.cpu.consume_cycles(cycles)
        self.sync_energy()
        # The idle cycles themselves were charged as active execution;
        # re-book exactly those as sleep.  Cycles consumed by interrupt
        # handlers that fired during the interval (e.g. SW-clock wraps)
        # stay charged as active work, which is physically what happens.
        self.battery.consumed_mj -= self.energy.active_energy_mj(cycles)
        self.battery.consumed_mj += self.energy.sleep_energy_mj(seconds)
        self.battery.active_cycles -= cycles
        self.battery.sleep_seconds += seconds
