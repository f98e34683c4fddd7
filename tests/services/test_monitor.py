"""Attestation monitoring policy: retries, alarms, recovery."""

import pytest

from repro.core import build_session
from repro.core.messages import AttestationRequest
from repro.core.resilience import RetryPolicy
from repro.errors import ConfigurationError
from repro.net.channel import Verdict
from repro.obs.telemetry import Telemetry
from repro.services.monitor import (AttestationMonitor, MonitorEvent,
                                    MonitorPolicy)
from tests.conftest import tiny_config


def monitored_session(adversary=None, seed="monitor"):
    session = build_session(device_config=tiny_config(),
                            adversary=adversary, seed=seed)
    session.learn_reference_state()
    return session


def quick_policy(**overrides):
    defaults = dict(interval_seconds=5.0, failure_threshold=2,
                    retry=RetryPolicy(attempt_timeout_seconds=3.0,
                                      max_retries=1))
    defaults.update(overrides)
    return MonitorPolicy(**defaults)


class DropAllRequests:
    def on_message(self, message, sender, receiver, time):
        if isinstance(message, AttestationRequest):
            return Verdict("drop")
        return Verdict("forward")


class DropFirstN:
    def __init__(self, count):
        self.remaining = count

    def on_message(self, message, sender, receiver, time):
        if isinstance(message, AttestationRequest) and self.remaining > 0:
            self.remaining -= 1
            return Verdict("drop")
        return Verdict("forward")


class TestHealthyOperation:
    def test_all_rounds_ok(self):
        monitor = AttestationMonitor(monitored_session(),
                                     policy=quick_policy())
        events = monitor.run(rounds=3)
        assert [event.kind for event in events] == ["ok"] * 3
        assert not monitor.alarmed

    def test_duty_cost_tracked(self):
        monitor = AttestationMonitor(monitored_session(),
                                     policy=quick_policy())
        monitor.run(rounds=3)
        assert 0.0 < monitor.duty_cost_fraction < 0.1

    def test_interval_spacing(self):
        session = monitored_session()
        monitor = AttestationMonitor(session,
                                     policy=quick_policy(interval_seconds=30.0))
        monitor.run(rounds=2)
        ok_events = [e for e in monitor.events if e.kind == "ok"]
        assert ok_events[1].time - ok_events[0].time >= 30.0


class TestFailureHandling:
    def test_transient_loss_recovered_by_retry(self):
        monitor = AttestationMonitor(
            monitored_session(adversary=DropFirstN(1), seed="mon-retry"),
            policy=quick_policy())
        monitor.run(rounds=1)
        kinds = [event.kind for event in monitor.events]
        assert kinds == ["retry", "ok"]
        assert monitor.consecutive_failures == 0

    def test_persistent_loss_alarms(self):
        monitor = AttestationMonitor(
            monitored_session(adversary=DropAllRequests(), seed="mon-dead"),
            policy=quick_policy())
        monitor.run(rounds=2)
        kinds = [event.kind for event in monitor.events]
        assert kinds.count("failure") == 2
        assert "alarm" in kinds
        assert monitor.alarmed

    def test_alarm_fires_once(self):
        monitor = AttestationMonitor(
            monitored_session(adversary=DropAllRequests(), seed="mon-once"),
            policy=quick_policy())
        monitor.run(rounds=4)
        kinds = [event.kind for event in monitor.events]
        assert kinds.count("alarm") == 1

    def test_recovery_clears_alarm(self):
        # Drop enough requests to cover 2 rounds x (1 try + 1 retry).
        monitor = AttestationMonitor(
            monitored_session(adversary=DropFirstN(4), seed="mon-recover"),
            policy=quick_policy())
        monitor.run(rounds=3)
        kinds = [event.kind for event in monitor.events]
        assert "alarm" in kinds
        assert "recovered" in kinds
        assert kinds[-1] == "ok"
        assert not monitor.alarmed

    def test_compromised_state_alarms(self):
        session = monitored_session(seed="mon-compromise")
        session.device.flash.load(80, b"\xEB\xFE")
        monitor = AttestationMonitor(session, policy=quick_policy())
        monitor.run(rounds=2)
        assert monitor.alarmed
        failures = [e for e in monitor.events if e.kind == "failure"]
        assert "NOT in reference set" in failures[0].detail


class TestResilienceTelemetry:
    def test_monitored_rounds_export_session_counters(self):
        """A monitored round is an ``attest_resilient`` round, so its
        retries, timeouts and backoff land on the session counters."""
        session = build_session(device_config=tiny_config(),
                                adversary=DropFirstN(4),
                                telemetry=Telemetry(), seed="mon-telemetry")
        session.learn_reference_state()
        monitor = AttestationMonitor(session, policy=quick_policy(
            retry=RetryPolicy(attempt_timeout_seconds=3.0, max_retries=2,
                              base_backoff_seconds=1.0,
                              jitter_fraction=0.5)))
        monitor.run(rounds=2)
        kinds = [event.kind for event in monitor.events]
        assert kinds == ["retry", "retry", "failure", "retry", "ok"]
        registry = session.telemetry.registry
        trace = session.telemetry.trace
        assert registry.value("session.retries") == kinds.count("retry")
        assert registry.value("session.timeouts") == 4
        assert session.verifier.timeouts == 4
        assert registry.value("verifier.timeouts") == 4
        assert registry.value("session.backoff_seconds") >= 1.0 + 2.0 + 1.0
        assert trace.count("session-retry") == 3
        assert trace.count("session-timeout") == 4
        assert trace.count("session-backoff") == 3
        assert registry.value("monitor.backoff_seconds") == 0


class TestValidation:
    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            MonitorPolicy(interval_seconds=0)
        with pytest.raises(ConfigurationError):
            MonitorPolicy(failure_threshold=0)

    def test_rounds_validation(self):
        monitor = AttestationMonitor(monitored_session(seed="mon-val"),
                                     policy=quick_policy())
        with pytest.raises(ConfigurationError):
            monitor.run(rounds=0)

    def test_event_is_frozen(self):
        event = MonitorEvent(0.0, "ok", "detail")
        with pytest.raises(AttributeError):
            event.kind = "changed"
