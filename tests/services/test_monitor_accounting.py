"""Monitor accounting regressions: rounds vs attempts, budgets.

Two bugs are pinned here:

* ``rounds_run`` used to advance once *per attempt*, so a lossy channel
  inflated it and skewed every per-round average derived from it.  It
  now counts logical rounds; ``attempts_run`` carries attempts.
* A round's final attempt used to wait its full per-attempt deadline
  even when the total time budget had almost run out, overshooting
  ``total_budget_seconds``.  The attempt deadline is now clamped to
  the remaining budget.
"""

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
