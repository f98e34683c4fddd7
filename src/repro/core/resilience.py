"""Verifier-side resilience: retry/timeout/backoff and circuit breakers.

The paper's availability argument cuts both ways.  Section 3.1 shows an
attestation round steals hundreds of milliseconds from the prover, and
Section 3.2's Dolev-Yao adversary "can drop, insert and delay messages"
-- so a verifier that retries on a fixed, tight cadence converts benign
packet loss into self-inflicted denial of service: every retry the
prover *does* receive burns another full measurement.  This module gives
the verifier side first-class failure handling instead:

* :class:`RetryPolicy` -- a per-attempt deadline, exponential backoff
  with optional deterministic jitter, and a total time budget per
  logical round.  Sessions (:meth:`repro.core.protocol.Session.\
attest_resilient`), monitors (:class:`repro.services.monitor.\
AttestationMonitor`) and fleet sweeps (:class:`repro.services.swarm.\
Swarm`) all consume the same policy object.
* :class:`CircuitBreaker` -- per-device ``healthy`` / ``degraded`` /
  ``quarantined`` state so a fleet degrades gracefully: persistently
  failing devices stop consuming sweep time (and stop being asked to
  burn measurement energy) but are still probed periodically so
  recovery is observed.

Determinism contract: all timing decisions are pure functions of the
policy fields, the attempt number, and (for jitter) a caller-supplied
:class:`~repro.crypto.rng.DeterministicRng` -- two runs with the same
seed schedule byte-identical retries.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = ["RetryPolicy", "JITTERED_RETRY", "ResilientOutcome",
           "CircuitBreaker", "BREAKER_STATES"]


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline, backoff and budget semantics for one logical attestation.

    Attributes
    ----------
    attempt_timeout_seconds:
        How long each attempt waits for a response before it is declared
        a timeout.  Callers clamp this up to at least one measured
        round-trip (see :meth:`effective_timeout`) so a retry can never
        fire faster than the attestation itself completes.
    max_retries:
        Retries *after* the first attempt (``max_retries=2`` means up to
        three attempts total).
    base_backoff_seconds / backoff_factor / max_backoff_seconds:
        Exponential backoff between attempts: retry ``n`` waits
        ``base * factor**(n-1)`` seconds, capped.  A base of 0 disables
        backoff (attempts run back to back, the legacy monitor cadence).
    jitter_fraction:
        Adds up to ``jitter_fraction`` of the computed delay, drawn from
        a caller-supplied deterministic RNG, so fleet-wide retries
        decorrelate without losing replayability.
    total_budget_seconds:
        Hard cap on simulated time spent on one logical round (attempts
        plus backoff); ``None`` means only ``max_retries`` limits it.
    """

    attempt_timeout_seconds: float = 5.0
    max_retries: int = 2
    base_backoff_seconds: float = 0.0
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 300.0
    jitter_fraction: float = 0.0
    total_budget_seconds: float | None = None

    def __post_init__(self):
        if self.attempt_timeout_seconds <= 0:
            raise ConfigurationError("attempt timeout must be positive")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries cannot be negative")
        if self.base_backoff_seconds < 0 or self.max_backoff_seconds < 0:
            raise ConfigurationError("backoff delays cannot be negative")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff factor must be >= 1")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ConfigurationError("jitter fraction must be in [0, 1]")
        if (self.total_budget_seconds is not None
                and self.total_budget_seconds <= 0):
            raise ConfigurationError("total budget must be positive")

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def effective_timeout(self, measured_round_seconds: float | None) -> float:
        """The per-attempt deadline, clamped to one measured round trip.

        A deadline shorter than the round trip guarantees a spurious
        timeout -- the response is still in flight when the verifier
        gives up -- so once a round duration has been observed the
        deadline never drops below it.
        """
        if measured_round_seconds is None or measured_round_seconds <= 0:
            return self.attempt_timeout_seconds
        return max(self.attempt_timeout_seconds, measured_round_seconds)

    def backoff_delay(self, attempt: int, rng=None) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based).

        Deterministic: with the same ``rng`` state the same delay comes
        out.  ``rng`` is only consulted when jitter is configured and
        the base delay is non-zero, so policies without jitter never
        perturb a shared random stream.
        """
        if attempt < 1:
            raise ConfigurationError("attempt numbers are 1-based")
        delay = self.base_backoff_seconds * self.backoff_factor ** (attempt - 1)
        delay = min(delay, self.max_backoff_seconds)
        if rng is not None and self.jitter_fraction > 0.0 and delay > 0.0:
            delay += delay * self.jitter_fraction * rng.random()
        return delay

    def budget_exhausted(self, elapsed_seconds: float) -> bool:
        """Whether ``elapsed_seconds`` has used up the total budget."""
        return (self.total_budget_seconds is not None
                and elapsed_seconds >= self.total_budget_seconds)


#: The retry policy of every faulted fleet scenario (the equivalence
#: gates and rebuild specs with ``retry: true``): 5 s attempts, two
#: retries, 1 s base backoff with up to 50 % deterministic jitter.
JITTERED_RETRY = RetryPolicy(attempt_timeout_seconds=5.0, max_retries=2,
                             base_backoff_seconds=1.0, jitter_fraction=0.5)


@dataclass
class ResilientOutcome:
    """Accounting for one resilient (retried) attestation round."""

    result: object                 #: final :class:`VerificationResult`
    attempts: int = 1
    timeouts: int = 0
    backoff_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    #: ``None`` on success, else ``"retries-exhausted"`` or
    #: ``"budget-exhausted"``.
    gave_up: str | None = None

    @property
    def trusted(self) -> bool:
        return self.result is not None and self.result.trusted

    @property
    def retries(self) -> int:
        return self.attempts - 1


#: The circuit-breaker state vocabulary, in order of declining health.
BREAKER_STATES = ("healthy", "degraded", "quarantined")


@dataclass
class CircuitBreaker:
    """Per-device health state machine for graceful fleet degradation.

    ``healthy`` devices are attested normally.  After ``degrade_after``
    consecutive failures a device is ``degraded`` (still attested, but
    flagged); after ``quarantine_after`` it is ``quarantined`` and the
    sweep skips it -- except for a periodic probe
    (:meth:`should_attempt`) so recovery is observed, mirroring the
    monitor's "keep watching an alarmed device" rule.  Any success
    resets the breaker to ``healthy``.
    """

    degrade_after: int = 1
    quarantine_after: int = 3

    def __post_init__(self):
        if self.degrade_after < 1:
            raise ConfigurationError("degrade_after must be >= 1")
        if self.quarantine_after < self.degrade_after:
            raise ConfigurationError(
                "quarantine_after must be >= degrade_after")
        self.state = "healthy"
        self.consecutive_failures = 0
        self.probes_skipped = 0
        #: ``(from_state, to_state)`` audit log of every transition.
        self.transitions: list[tuple[str, str]] = []

    def _transition(self, new_state: str) -> None:
        if new_state != self.state:
            self.transitions.append((self.state, new_state))
            self.state = new_state

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.probes_skipped = 0
        self._transition("healthy")

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.quarantine_after:
            self._transition("quarantined")
        elif self.consecutive_failures >= self.degrade_after:
            self._transition("degraded")

    def should_attempt(self, probe_every: int = 4) -> bool:
        """Whether the next sweep should attest this device.

        Non-quarantined devices: always.  Quarantined devices: every
        ``probe_every``-th opportunity, so a recovered device is found
        without spending a full attestation on it every sweep.
        """
        if self.state != "quarantined":
            return True
        if probe_every < 1:
            raise ConfigurationError("probe_every must be >= 1")
        self.probes_skipped += 1
        if self.probes_skipped >= probe_every:
            self.probes_skipped = 0
            return True
        return False
