"""Energy model: the currency of the paper's DoS argument.

Section 3.1: gratuitous attestation "can waste energy (deplete batteries)
and take the targeted device away from performing its primary tasks, such
as control, sensing, or actuation."  This module quantifies both halves:

* :class:`EnergyModel` converts CPU cycles (active) and idle time (sleep)
  into millijoules, using datasheet-style constants for a low-end MCU
  (default: ~0.3 mW/MHz active, 2 uW sleep -- MSP430-class numbers);
* :class:`Battery` integrates consumption against a coin-cell-style
  capacity;
* :class:`DutyCycleTask` models the prover's primary task (sense/actuate
  every period) and records deadlines missed while attestation hogged the
  CPU, since low-end attestation runs uninterrupted (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = ["EnergyModel", "Battery", "DutyCycleTask"]


@dataclass(frozen=True)
class EnergyModel:
    """Power constants of the modelled MCU.

    Parameters
    ----------
    frequency_hz:
        CPU clock.
    active_mw_per_mhz:
        Active-mode power per MHz (datasheet figure-of-merit).
    sleep_uw:
        Deep-sleep power in microwatts.
    """

    frequency_hz: int = 24_000_000
    active_mw_per_mhz: float = 0.3
    sleep_uw: float = 2.0

    def __post_init__(self):
        if self.frequency_hz <= 0:
            raise ConfigurationError("frequency_hz must be positive")
        if self.active_mw_per_mhz <= 0 or self.sleep_uw < 0:
            raise ConfigurationError("power constants must be positive")

    @property
    def active_power_mw(self) -> float:
        return self.active_mw_per_mhz * self.frequency_hz / 1e6

    @property
    def energy_per_cycle_mj(self) -> float:
        """Millijoules consumed per active CPU cycle."""
        return self.active_power_mw / 1000.0 / self.frequency_hz * 1000.0

    def active_energy_mj(self, cycles: int) -> float:
        """Energy for ``cycles`` of active execution, in mJ."""
        return cycles / self.frequency_hz * self.active_power_mw

    def sleep_energy_mj(self, seconds: float) -> float:
        """Energy for ``seconds`` of deep sleep, in mJ."""
        return seconds * self.sleep_uw / 1000.0


class Battery:
    """An energy budget drained by active cycles and sleep time.

    Default capacity is a CR2450 coin cell: ~620 mAh at 3 V = 6696 J.
    """

    def __init__(self, capacity_mj: float = 620 * 3 * 3.6 * 1000,
                 model: EnergyModel | None = None):
        if capacity_mj <= 0:
            raise ConfigurationError("battery capacity must be positive")
        self.capacity_mj = capacity_mj
        self.model = model if model is not None else EnergyModel()
        self.consumed_mj = 0.0
        self.active_cycles = 0
        self.sleep_seconds = 0.0
        #: CPU cycle count up to which active energy has been charged.
        self.last_cycle = 0

    @property
    def remaining_mj(self) -> float:
        return max(0.0, self.capacity_mj - self.consumed_mj)

    @property
    def depleted(self) -> bool:
        return self.consumed_mj >= self.capacity_mj

    @property
    def fraction_remaining(self) -> float:
        return self.remaining_mj / self.capacity_mj

    def drain_active(self, cycles: int) -> float:
        """Charge ``cycles`` of active execution; returns mJ drained."""
        energy = self.model.active_energy_mj(cycles)
        self.consumed_mj += energy
        self.active_cycles += cycles
        return energy

    def on_cycles(self, now: int, elapsed: int = 0) -> None:
        """CPU cycle listener: charge active energy up to cycle ``now``.

        The CPU tells the battery the cycle count, so the battery holds
        no reference back to it.
        """
        delta = now - self.last_cycle
        if delta > 0:
            self.drain_active(delta)
            self.last_cycle = now

    def drain_sleep(self, seconds: float) -> float:
        """Charge ``seconds`` of deep sleep; returns mJ drained."""
        energy = self.model.sleep_energy_mj(seconds)
        self.consumed_mj += energy
        self.sleep_seconds += seconds
        return energy

    def lifetime_at_sleep_seconds(self) -> float:
        """How long the *remaining* energy lasts in pure sleep (the
        baseline lifetime DoS attacks eat into)."""
        sleep_mw = self.model.sleep_uw / 1000.0
        return self.remaining_mj / sleep_mw if sleep_mw > 0 else float("inf")


class DutyCycleTask:
    """The prover's primary task: one job of ``job_cycles`` every
    ``period_seconds``.

    The device harness calls :meth:`record_blocked` for every interval
    during which attestation monopolised the CPU; deadlines falling in a
    blocked interval are counted as missed (Section 3.1: attestation on
    low-end devices "runs without interruption", so it is "detrimental to
    the execution of prover's main (even critical) functions").
    """

    def __init__(self, name: str, period_seconds: float, job_cycles: int,
                 frequency_hz: int = 24_000_000):
        if period_seconds <= 0 or job_cycles <= 0:
            raise ConfigurationError("task period and job size must be positive")
        self.name = name
        self.period_seconds = period_seconds
        self.job_cycles = job_cycles
        self.frequency_hz = frequency_hz
        self._blocked: list[tuple[float, float]] = []  # [start, end) seconds

    @property
    def period_cycles(self) -> int:
        return round(self.period_seconds * self.frequency_hz)

    @property
    def job_seconds(self) -> float:
        return self.job_cycles / self.frequency_hz

    def record_blocked(self, start_seconds: float, end_seconds: float) -> None:
        """Note that the CPU was unavailable during [start, end)."""
        if end_seconds > start_seconds:
            self._blocked.append((start_seconds, end_seconds))

    def deadlines_in(self, horizon_seconds: float) -> int:
        """Total job releases in [0, horizon)."""
        return int(horizon_seconds / self.period_seconds)

    def missed_deadlines(self, horizon_seconds: float) -> int:
        """Job releases whose entire (release, release + period - job)
        start window was swallowed by blocked intervals.

        A release at time t is missed when the job cannot both start and
        finish before t + period, i.e. no gap of ``job_seconds`` exists in
        [t, t + period) outside the blocked intervals.
        """
        blocked = sorted(self._blocked)
        missed = 0
        release = 0.0
        while release < horizon_seconds:
            deadline = release + self.period_seconds
            if not self._fits(blocked, release, deadline, self.job_seconds):
                missed += 1
            release += self.period_seconds
        return missed

    @staticmethod
    def _fits(blocked: list[tuple[float, float]], start: float, end: float,
              need: float) -> bool:
        """Whether a free gap of length ``need`` exists in [start, end)."""
        cursor = start
        for b_start, b_end in blocked:
            if b_end <= cursor:
                continue
            if b_start >= end:
                break
            if b_start - cursor >= need:
                return True
            cursor = max(cursor, b_end)
            if cursor >= end:
                return False
        return end - cursor >= need

    @property
    def blocked_total_seconds(self) -> float:
        return sum(end - start for start, end in self._blocked)
