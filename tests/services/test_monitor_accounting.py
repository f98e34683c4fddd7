"""Monitor accounting regressions: rounds vs attempts, budgets.

Two bugs are pinned here:

* ``rounds_run`` used to advance once *per attempt*, so a lossy channel
  inflated it and skewed every per-round average derived from it.  It
  now counts logical rounds; ``attempts_run`` carries attempts.
* A round's final attempt used to wait its full per-attempt deadline
  even when the total time budget had almost run out, overshooting
  ``total_budget_seconds``.  The attempt deadline is now clamped to
  the remaining budget.

And the audit log of seeded lossy runs is pinned event for event, so
routing rounds through ``Session.attest_resilient`` cannot move a
retry, a failure or an alarm.
"""

import pytest

from repro.core import build_session
from repro.core.messages import AttestationRequest
from repro.core.resilience import RetryPolicy
from repro.net.channel import Verdict
from repro.services.monitor import AttestationMonitor, MonitorPolicy
from tests.conftest import tiny_config


def monitored_session(adversary=None, seed="accounting"):
    session = build_session(device_config=tiny_config(),
                            adversary=adversary, seed=seed)
    session.learn_reference_state()
    return session


class DropFirstN:
    def __init__(self, count):
        self.remaining = count

    def on_message(self, message, sender, receiver, time):
        if isinstance(message, AttestationRequest) and self.remaining > 0:
            self.remaining -= 1
            return Verdict("drop")
        return Verdict("forward")


class DropAllRequests:
    def on_message(self, message, sender, receiver, time):
        if isinstance(message, AttestationRequest):
            return Verdict("drop")
        return Verdict("forward")


class TestRoundsVsAttempts:
    def test_lossy_round_counts_once(self):
        """One logical round over a channel that eats the first two
        requests: three attempts, ONE round."""
        monitor = AttestationMonitor(
            monitored_session(adversary=DropFirstN(2)),
            policy=MonitorPolicy(interval_seconds=5.0,
                                 retry=RetryPolicy(max_retries=2)))
        assert monitor.run_round()
        assert monitor.rounds_run == 1
        assert monitor.attempts_run == 3

    def test_clean_rounds_match_attempts(self):
        monitor = AttestationMonitor(
            monitored_session(),
            policy=MonitorPolicy(interval_seconds=5.0,
                                 retry=RetryPolicy(max_retries=2)))
        monitor.run(rounds=4)
        assert monitor.rounds_run == 4
        assert monitor.attempts_run == 4

    def test_run_counts_logical_rounds_under_loss(self):
        """The old bug: rounds_run tracked attempts, so per-round
        averages divided by the wrong denominator on lossy links."""
        monitor = AttestationMonitor(
            monitored_session(adversary=DropFirstN(3)),
            policy=MonitorPolicy(interval_seconds=5.0,
                                 retry=RetryPolicy(max_retries=1)))
        monitor.run(rounds=3)
        assert monitor.rounds_run == 3
        assert monitor.attempts_run > monitor.rounds_run

    def test_failed_round_still_counts_once(self):
        monitor = AttestationMonitor(
            monitored_session(adversary=DropAllRequests()),
            policy=MonitorPolicy(interval_seconds=5.0,
                                 retry=RetryPolicy(max_retries=2)))
        assert not monitor.run_round()
        assert monitor.rounds_run == 1
        assert monitor.attempts_run == 3


class TestRoundBudgetClamp:
    def test_round_respects_total_budget(self):
        """A silent device with a 12 s budget and 10 s deadlines: the
        second attempt must be clamped to the ~2 s remaining, not wait
        its full deadline and spend ~20 s."""
        session = monitored_session(adversary=DropAllRequests())
        monitor = AttestationMonitor(
            session,
            policy=MonitorPolicy(
                interval_seconds=60.0,
                retry=RetryPolicy(attempt_timeout_seconds=10.0,
                                  max_retries=5,
                                  total_budget_seconds=12.0)))
        start = session.sim.now
        assert not monitor.run_round()
        elapsed = session.sim.now - start
        assert elapsed <= 12.0 + 1e-9
        assert monitor.rounds_run == 1


QUICK = RetryPolicy(attempt_timeout_seconds=3.0, max_retries=1)
#: Jittered backoff whose 10 s budget runs out on the same attempt as
#: its two retries (the third attempt is clamped to what is left).
BUDGETED = RetryPolicy(attempt_timeout_seconds=3.0, max_retries=2,
                       base_backoff_seconds=1.0, jitter_fraction=0.5,
                       total_budget_seconds=10.0)
CASES = {
    "drop-first-1": (lambda: DropFirstN(1), QUICK),
    "drop-first-4": (lambda: DropFirstN(4), QUICK),
    "drop-all": (DropAllRequests, QUICK),
    "budget-drop-all": (DropAllRequests, BUDGETED),
    "budget-drop-first-4": (lambda: DropFirstN(4), BUDGETED),
}

#: ``case -> (rounds_run, attempts_run, [(time, kind, detail), ...])``
#: recorded from the monitor's own retry loop before it was replaced
#: by one ``attest_resilient`` call per round.
PINNED_LOGS = {
    "drop-first-1": (3, 4, [
        (3.001, "retry", "attempt 1 failed: no-response"),
        (6.0009999999999994, "ok", "authentic; state known-good"),
        (14.001, "ok", "authentic; state known-good"),
        (22.000999999999998, "ok", "authentic; state known-good"),
    ]),
    "drop-first-4": (3, 5, [
        (3.001, "retry", "attempt 1 failed: no-response"),
        (6.0009999999999994, "failure",
         "round failed after 2 attempts: no-response"),
        (14.001, "retry", "attempt 1 failed: no-response"),
        (17.000999999999998, "failure",
         "round failed after 2 attempts: no-response"),
        (17.000999999999998, "alarm", "2 consecutive failed rounds"),
        (25.000999999999998, "recovered", "device attests trusted again"),
        (25.000999999999998, "ok", "authentic; state known-good"),
    ]),
    "drop-all": (3, 6, [
        (3.001, "retry", "attempt 1 failed: no-response"),
        (6.0009999999999994, "failure",
         "round failed after 2 attempts: no-response"),
        (14.001, "retry", "attempt 1 failed: no-response"),
        (17.000999999999998, "failure",
         "round failed after 2 attempts: no-response"),
        (17.000999999999998, "alarm", "2 consecutive failed rounds"),
        (25.000999999999998, "retry", "attempt 1 failed: no-response"),
        (28.000999999999998, "failure",
         "round failed after 2 attempts: no-response"),
    ]),
    "budget-drop-all": (3, 9, [
        (3.001, "retry", "attempt 1 failed: no-response"),
        (7.1448878594046885, "retry", "attempt 2 failed: no-response"),
        (10.0, "failure", "round failed after 3 attempts: no-response"),
        (18.0, "retry", "attempt 1 failed: no-response"),
        (22.190475157470075, "retry", "attempt 2 failed: no-response"),
        (25.114301523856593, "failure",
         "round failed after 3 attempts: no-response"),
        (25.114301523856593, "alarm", "2 consecutive failed rounds"),
        (33.1143015238566, "retry", "attempt 1 failed: no-response"),
        (37.22292649832327, "retry", "attempt 2 failed: no-response"),
        (40.12222704214555, "failure",
         "round failed after 3 attempts: no-response"),
    ]),
    "budget-drop-first-4": (3, 6, [
        (3.001, "retry", "attempt 1 failed: no-response"),
        (7.1448878594046885, "retry", "attempt 2 failed: no-response"),
        (10.0, "failure", "round failed after 3 attempts: no-response"),
        (18.0, "retry", "attempt 1 failed: no-response"),
        (22.190475157470075, "ok", "authentic; state known-good"),
        (30.190475157470075, "ok", "authentic; state known-good"),
    ]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_audit_log_is_pinned(case):
    adversary, retry = CASES[case]
    monitor = AttestationMonitor(
        monitored_session(adversary=adversary(), seed="pinned"),
        policy=MonitorPolicy(interval_seconds=5.0, failure_threshold=2,
                             retry=retry))
    monitor.run(rounds=3)
    events = [(event.time, event.kind, event.detail)
              for event in monitor.events]
    assert (monitor.rounds_run, monitor.attempts_run, events) \
        == PINNED_LOGS[case]
