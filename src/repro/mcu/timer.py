"""Free-running hardware counters with dividers and wrap-around interrupts.

Section 6.3 evaluates clock hardware built from exactly this component:

* a 64-bit register incremented every cycle wraps after 24 372.6 years at
  24 MHz (never, in practice);
* a 32-bit register wraps after about 3 minutes; dividing the clock by
  2^20 stretches that to ~6 years at ~42-44 ms resolution;
* Figure 1b's ``Clock_LSB`` is a *short* counter that raises an interrupt
  at wrap-around so trusted software can maintain the high-order bits.

:class:`HardwareCounter` models all three.  The counter value is derived
from the CPU cycle count (``value = (cycles // divider + base) mod
2^width``), so it never drifts from simulated time; a software write --
allowed only when the counter is constructed ``software_writable`` --
adjusts ``base``, which is precisely the "reset the prover's clock"
primitive the roaming adversary uses in Section 5.
"""

from __future__ import annotations

import weakref
from typing import Callable

from ..errors import ConfigurationError, MemoryAccessViolation
from .cpu import CPU

__all__ = ["HardwareCounter"]


class HardwareCounter:
    """A width-limited counter clocked from the CPU cycle counter.

    Implements the MMIO peripheral protocol: the value is readable (and,
    when ``software_writable``, writable) byte-wise at offsets
    ``0 .. width_bits//8 - 1``, little-endian.

    Parameters
    ----------
    cpu:
        Clock source; the counter registers itself as a cycle listener to
        detect wrap-arounds.  The CPU holds the counter, so the counter
        holds its CPU only weakly: dropping the CPU's owner frees both
        by reference counting.
    width_bits:
        Register width (Table 3 evaluates 64 and 32; Figure 1b uses a
        short counter, e.g. 16 bits).
    divider:
        The counter increments once every ``divider`` CPU cycles
        (Section 6.3's "dividing the clock by 2^20").
    software_writable:
        Hardware property.  The paper requires the clock counter to be
        read-only (Section 6.2); leaving this True models the unprotected
        design the roaming adversary exploits.
    on_wrap:
        Callback invoked once per wrap-around with the wrap count
        (connects ``Clock_LSB`` to its interrupt line, Figure 1b ①).
    """

    def __init__(self, cpu: CPU, *, width_bits: int, divider: int = 1,
                 software_writable: bool = False,
                 on_wrap: Callable[[int], None] | None = None):
        if width_bits not in (8, 16, 24, 32, 48, 64):
            raise ConfigurationError(f"unsupported counter width {width_bits}")
        if divider < 1:
            raise ConfigurationError("divider must be >= 1")
        self._cpu = weakref.ref(cpu)
        self._frequency_hz = cpu.frequency_hz
        self.width_bits = width_bits
        self.divider = divider
        self.software_writable = software_writable
        self.on_wrap = on_wrap
        self._modulus = 1 << width_bits
        self._base = 0                      # software-adjustable offset, ticks
        self._last_unwrapped = self._unwrapped()
        cpu.add_cycle_listener(self._on_cycles)

    # -- value derivation -----------------------------------------------------

    def _unwrapped(self) -> int:
        """Monotonic tick count including the software base offset."""
        return self._cpu().cycle_count // self.divider + self._base

    @property
    def value(self) -> int:
        """Current counter register value (wrapped to the register width)."""
        return self._unwrapped() % self._modulus

    @property
    def size_bytes(self) -> int:
        return self.width_bits // 8

    def _on_cycles(self, now: int, elapsed: int) -> None:
        unwrapped = now // self.divider + self._base
        wraps = unwrapped // self._modulus - self._last_unwrapped // self._modulus
        self._last_unwrapped = unwrapped
        if wraps > 0 and self.on_wrap is not None:
            self.on_wrap(wraps)

    # -- software access (MMIO peripheral protocol) ---------------------------

    def mmio_read(self, offset: int, context: str | None) -> int:
        if not 0 <= offset < self.size_bytes:
            raise MemoryAccessViolation(
                f"counter read at invalid offset {offset:#x}",
                address=offset, access="read", context=context)
        return self.value >> (8 * offset) & 0xFF

    def mmio_write(self, offset: int, value: int, context: str | None) -> None:
        if not 0 <= offset < self.size_bytes:
            raise MemoryAccessViolation(
                f"counter write at invalid offset {offset:#x}",
                address=offset, access="write", context=context)
        if not self.software_writable:
            raise MemoryAccessViolation(
                f"hardware counter is read-only (context {context!r})",
                address=offset, access="write", context=context)
        shift = 8 * offset
        new_value = (self.value & ~(0xFF << shift)) | ((value & 0xFF) << shift)
        self.set_value(new_value)

    def set_value(self, new_value: int) -> None:
        """Force the counter to ``new_value`` by adjusting the base offset.

        Used by the MMIO write path and directly by attack scenarios that
        model a compromised prover rewriting an unprotected clock.
        """
        new_value %= self._modulus
        delta = new_value - self.value
        self._base += delta
        self._last_unwrapped = self._unwrapped()

    # -- analysis helpers ------------------------------------------------------

    @property
    def resolution_seconds(self) -> float:
        """Seconds per tick (Section 6.3: 2^20 / 24 MHz ~= 43.7 ms)."""
        return self.divider / self._frequency_hz

    @property
    def wraparound_seconds(self) -> float:
        """Time until the register wraps (Section 6.3's lifetimes)."""
        return self._modulus * self.divider / self._frequency_hz

    @property
    def wraparound_years(self) -> float:
        # 365-day years, matching the Section 6.3 convention (see
        # repro.hwcost.model).
        return self.wraparound_seconds / (365 * 24 * 3600)
