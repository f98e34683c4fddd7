"""Real-time clock designs: wide hardware register vs. Figure 1b SW-clock.

Timestamps are the only freshness feature that defeats delayed-request
attacks (Table 2), but they demand "a reliable real-time clock on the
prover -- a feature not previously identified as necessary for
attestation" (Section 4.2).  Section 6 prototypes two designs:

:class:`WideHardwareClock` (Figure 1a)
    A dedicated read-only counter register wide enough never to wrap in
    the device lifetime: 64 bits @ 24 MHz -> 24 372.6 years, or 32 bits
    with a /2^20 divider -> ~6 years at ~44 ms resolution.  Hardware cost
    is the register plus increment logic (Table 3).

:class:`SoftwareClock` (Figure 1b)
    Reuses the short counter common on low-end MCUs (MSP430-style):
    ``Clock_LSB`` interrupts at wrap-around ①, the interrupt engine runs
    ``Code_Clock`` ②, which increments ``Clock_MSB`` in RAM ③ so that
    ``Clock_MSB . Clock_LSB`` forms the full time value.  No new clock
    hardware -- but now the IDT, the interrupt mask and the ``Clock_MSB``
    word all need EA-MPU protection (three rules, Table 3's "SW-clock"
    column).

Both expose ``read_ticks`` / ``read_seconds`` for trusted code and are
attackable exactly where the paper says: an unprotected ``Clock_MSB`` can
be rewritten, an unprotected IDT can be redirected, an unprotected mask
register can silence the wrap interrupt.
"""

from __future__ import annotations

import weakref
from types import MethodType

from ..errors import ConfigurationError
from .cpu import CPU, ExecutionContext
from .interrupts import InterruptController
from .memory import MemoryBus
from .timer import HardwareCounter

__all__ = ["WideHardwareClock", "SoftwareClock"]


class WideHardwareClock:
    """Figure 1a clock: one wide read-only hardware counter.

    ``read_ticks`` takes the executing context so reads flow through the
    MMIO path when wired into a device; standalone use passes ``None``.
    """

    kind = "hardware"

    def __init__(self, cpu: CPU, *, width_bits: int = 64, divider: int = 1,
                 software_writable: bool = False):
        self.cpu = cpu
        self.counter = HardwareCounter(
            cpu, width_bits=width_bits, divider=divider,
            software_writable=software_writable)
        self.width_bits = width_bits
        self.divider = divider

    def read_ticks(self) -> int:
        """Current clock value in ticks."""
        return self.counter.value

    def read_seconds(self) -> float:
        return self.read_ticks() * self.counter.resolution_seconds

    @property
    def resolution_seconds(self) -> float:
        return self.counter.resolution_seconds

    @property
    def wraparound_seconds(self) -> float:
        return self.counter.wraparound_seconds

    @property
    def wraparound_years(self) -> float:
        return self.counter.wraparound_years

    def ticks_for_seconds(self, seconds: float) -> int:
        """Convert wall-clock seconds to clock ticks."""
        return round(seconds / self.counter.resolution_seconds)


class SoftwareClock:
    """Figure 1b clock: ``Clock_LSB`` hardware counter + ``Clock_MSB`` RAM word.

    Parameters
    ----------
    cpu, bus, interrupts:
        The host device's CPU, memory bus, and interrupt controller.
    msb_address:
        RAM address of the 8-byte ``Clock_MSB`` word.  When the device is
        roam-hardened, an EA-MPU rule makes this writable only by
        ``Code_Clock``.
    code_clock_context:
        The trusted ``Code_Clock`` execution context; the wrap handler
        runs (and writes ``Clock_MSB``) under it.
    irq:
        Interrupt line of the wrap-around event.
    lsb_width_bits, divider:
        Geometry of the short hardware counter.
    handler_cycles:
        Execution cost of the wrap handler (a load, an add, a store).
    """

    kind = "software"

    def __init__(self, cpu: CPU, bus: MemoryBus,
                 interrupts: InterruptController, *,
                 msb_address: int, code_clock_context: ExecutionContext,
                 handler_address: int, irq: int = 0,
                 lsb_width_bits: int = 16, divider: int = 1,
                 handler_cycles: int = 12):
        if lsb_width_bits >= 64:
            raise ConfigurationError("Clock_LSB must be a short counter")
        self.cpu = cpu
        self.bus = bus
        self.interrupts = interrupts
        self.msb_address = msb_address
        self.context = code_clock_context
        self.irq = irq
        self.lsb_width_bits = lsb_width_bits
        self.divider = divider
        self.handler_cycles = handler_cycles
        # The counter and the interrupt controller call back into the
        # clock, and the clock holds both: its two hooks are bound to a
        # weak proxy of the clock, so only the device keeps it alive.
        clock = weakref.proxy(self)
        self.counter = HardwareCounter(
            cpu, width_bits=lsb_width_bits, divider=divider,
            software_writable=False,
            on_wrap=MethodType(SoftwareClock._on_wrap, clock))
        interrupts.register_entry_point(
            handler_address, code_clock_context,
            MethodType(SoftwareClock._handle_wrap_irq, clock))
        interrupts.set_vector_raw(irq, handler_address)
        self.wraps_signalled = 0
        self.wraps_serviced = 0
        #: Optional observer called after each serviced wrap (telemetry
        #: wiring; see :meth:`repro.mcu.device.Device.attach_telemetry`).
        self.on_wrap_serviced = None

    # -- hardware side ---------------------------------------------------------

    def _on_wrap(self, wraps: int) -> None:
        """Clock_LSB wrapped: raise the interrupt (Figure 1b ①)."""
        self.wraps_signalled += wraps
        for _ in range(wraps):
            self.interrupts.raise_irq(self.irq)

    def _handle_wrap_irq(self, irq: int) -> None:
        """``Code_Clock``: increment ``Clock_MSB`` (Figure 1b ②③).

        Runs under the ``Code_Clock`` context, so the ``Clock_MSB`` store
        is subject to EA-MPU arbitration like any other software write.
        """
        self.cpu.consume_cycles(self.handler_cycles)
        current = self.bus.read_u64(self.context, self.msb_address)
        self.bus.write_u64(self.context, self.msb_address, current + 1)
        self.wraps_serviced += 1
        if self.on_wrap_serviced is not None:
            self.on_wrap_serviced(self.wraps_serviced)

    # -- software read side ------------------------------------------------------

    def read_ticks(self, context: ExecutionContext | None = None) -> int:
        """Compose ``Clock_MSB << lsb_width | Clock_LSB``.

        Reads ``Clock_MSB`` through the bus under ``context`` (default:
        the trusted ``Code_Clock`` context), so a protected configuration
        still lets any code *read* the time while only ``Code_Clock``
        may write it.
        """
        ctx = context if context is not None else self.context
        msb = self.bus.read_u64(ctx, self.msb_address)
        lsb = self.counter.value
        # Interrupts dispatch synchronously in the simulator, so by the
        # time software reads the clock every wrap has either incremented
        # Clock_MSB or been dropped by an attack -- in which case the clock
        # genuinely reads behind, which is the behaviour under test.
        return (msb << self.lsb_width_bits) | lsb

    def read_seconds(self, context: ExecutionContext | None = None) -> float:
        return self.read_ticks(context) * self.resolution_seconds

    @property
    def resolution_seconds(self) -> float:
        return self.divider / self.cpu.frequency_hz

    @property
    def wraparound_seconds(self) -> float:
        """Effective wrap time of the composed 64+LSB-bit value (~never)."""
        return (1 << (64 + self.lsb_width_bits)) * self.divider / self.cpu.frequency_hz

    def ticks_for_seconds(self, seconds: float) -> int:
        return round(seconds / self.resolution_seconds)

    @property
    def lsb_wrap_interval_seconds(self) -> float:
        """How often the wrap interrupt fires (the SW-clock's runtime cost)."""
        return (1 << self.lsb_width_bits) * self.divider / self.cpu.frequency_hz

    def stopped(self) -> bool:
        """Heuristic the analysis uses: the clock is 'stopped' when wrap
        interrupts are being dropped (masked or IDT-redirected), i.e. the
        MSB no longer advances."""
        recent = [entry for entry in self.interrupts.dropped_log
                  if entry[1] == self.irq]
        return bool(recent)
