"""Attestation monitoring: turning rounds into an operational policy.

A verifier does not attest once; it runs a *policy*: attest every T, retry
on silence, escalate after consecutive failures, and respect the prover's
duty cycle (each attestation steals hundreds of milliseconds from the
device's primary task, Section 3.1 -- so over-attesting is self-DoS).
:class:`AttestationMonitor` implements that policy over a
:class:`~repro.core.protocol.Session` and produces an auditable event log.

Each round is one :meth:`~repro.core.protocol.Session.attest_resilient`
call under the policy's :class:`~repro.core.resilience.RetryPolicy`:
each attempt has a deadline (clamped up to the most recently *measured*
round trip, so low settings can no longer fire retries faster than the
attestation itself), attempts are spaced by exponential backoff when
the policy asks for it, and a silent attempt reports ``no-response``
rather than an earlier round's verdict.  The monitor keeps only the
round, alarm and recovery bookkeeping; retries, timeouts and backoff
are exported on the session's ``session.*`` counters.

Escalation ladder:

* ``ok`` -- round trusted;
* ``retry`` -- no response / untrusted, within the retry budget;
* ``alarm`` -- ``failure_threshold`` consecutive failures: the device is
  flagged for manual intervention (re-provisioning, physical recovery);
* monitoring of a flagged device continues, so recovery is observed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.protocol import Session
from ..core.resilience import RetryPolicy
from ..crypto.rng import DeterministicRng
from ..errors import ConfigurationError

__all__ = ["MonitorEvent", "MonitorPolicy", "AttestationMonitor"]


@dataclass(frozen=True)
class MonitorPolicy:
    """Tunable knobs of the monitoring loop.

    ``retry`` governs each round's attempts; the default is a 5 s
    per-attempt deadline with up to two retries, no backoff and no
    total budget.
    """

    interval_seconds: float = 600.0
    failure_threshold: int = 3
    retry: RetryPolicy = RetryPolicy()

    def __post_init__(self):
        if self.interval_seconds <= 0:
            raise ConfigurationError("monitor intervals must be positive")
        if self.failure_threshold < 1:
            raise ConfigurationError("failure threshold must be at least 1")


@dataclass(frozen=True)
class MonitorEvent:
    """One entry of the monitoring audit log."""

    time: float
    kind: str         # ok | retry | failure | alarm | recovered
    detail: str


@dataclass
class AttestationMonitor:
    """Periodic attestation with retries and escalation.

    Monitor events are mirrored into the session's telemetry sink as
    ``monitor-event`` trace records and ``monitor.events`` counters, so
    operator-side escalation shows up in the same export as the
    prover-side cycle costs.  Backoff jitter (when the retry policy
    configures any) draws from a :class:`DeterministicRng` seeded by
    ``seed``, preserving the simulation's replayability.
    """

    session: Session
    policy: MonitorPolicy = field(default_factory=MonitorPolicy)
    seed: str = "monitor-rng"

    def __post_init__(self):
        self.events: list[MonitorEvent] = []
        self.consecutive_failures = 0
        self.alarmed = False
        self.rounds_run = 0
        self.attempts_run = 0
        self._rng = DeterministicRng(self.seed).substream("backoff-jitter")

    # ------------------------------------------------------------------

    def _log(self, kind: str, detail: str,
             time: float | None = None) -> None:
        time = self.session.sim.now if time is None else time
        self.events.append(MonitorEvent(time, kind, detail))
        telemetry = self.session.telemetry
        telemetry.count("monitor.events", kind=kind)
        telemetry.event("monitor-event", time, monitor_kind=kind,
                        detail=detail)

    def run_round(self) -> bool:
        """One scheduled round: attempt + retries; returns success.

        ``rounds_run`` counts *logical* rounds (one per call), not
        attempts -- retried rounds used to inflate it and skew every
        per-round average derived from it.  ``attempts_run`` carries the
        per-attempt count separately.
        """
        self.rounds_run += 1
        outcome = self.session.attest_resilient(self.policy.retry,
                                                rng=self._rng)
        self.attempts_run += outcome.attempts
        for attempt, (time, detail) in enumerate(outcome.retried, 1):
            self._log("retry", f"attempt {attempt} failed: {detail}", time)
        result = outcome.result
        if result.trusted:
            if self.alarmed:
                self.alarmed = False
                self._log("recovered", "device attests trusted again")
            self.consecutive_failures = 0
            self._log("ok", result.detail)
            return True
        self.consecutive_failures += 1
        self._log("failure", f"round failed after {outcome.attempts} "
                             f"attempts: {result.detail}")
        if (self.consecutive_failures >= self.policy.failure_threshold
                and not self.alarmed):
            self.alarmed = True
            self._log("alarm", f"{self.consecutive_failures} consecutive "
                               f"failed rounds")
        return False

    def run(self, rounds: int) -> list[MonitorEvent]:
        """Run ``rounds`` scheduled rounds, spaced by the interval."""
        if rounds < 1:
            raise ConfigurationError("need at least one round")
        for _ in range(rounds):
            self.run_round()
            self.session.sim.run(
                until=self.session.sim.now + self.policy.interval_seconds)
        return list(self.events)

    # ------------------------------------------------------------------

    @property
    def duty_cost_fraction(self) -> float:
        """Share of the prover's time the monitoring policy consumes --
        the operator-side view of Section 3.1's cost."""
        device = self.session.device
        stats = self.session.anchor.stats
        if device.cpu.elapsed_seconds == 0:
            return 0.0
        busy = (stats.attestation_cycles + stats.validation_cycles) \
            / device.cpu.frequency_hz
        return busy / device.cpu.elapsed_seconds
