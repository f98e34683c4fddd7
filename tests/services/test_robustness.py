"""Robustness integration: monitors and fleets over faulty channels."""

import pytest

from repro.core import build_session
from repro.core.messages import AttestationRequest
from repro.core.resilience import RetryPolicy
from repro.net.channel import Verdict
from repro.net.faults import BernoulliLoss, FaultPipeline, LatencyJitter
from repro.services.attestd import AttestationService, ServiceRequest
from repro.services.monitor import AttestationMonitor, MonitorPolicy
from repro.services.swarm import Swarm, SweepReport
from tests.conftest import tiny_config


class DropAllRequests:
    def on_message(self, message, sender, receiver, time):
        if isinstance(message, AttestationRequest):
            return Verdict("drop")
        return Verdict("forward")


class RefuseViaBadTag:
    """Corrupts request tags so the prover rejects every request."""

    def on_message(self, message, sender, receiver, time):
        if isinstance(message, AttestationRequest) and message.auth_tag:
            flipped = bytes([message.auth_tag[0] ^ 0x80]) \
                + message.auth_tag[1:]
            object.__setattr__(message, "auth_tag", flipped)
        return Verdict("forward")


def lossy_session(loss, seed):
    session = build_session(
        device_config=tiny_config(),
        adversary=BernoulliLoss(loss, seed=f"{seed}-loss"),
        seed=seed)
    session.learn_reference_state()
    return session


class TestMonitorOverLossyChannel:
    def test_twenty_percent_loss_reaches_ok_within_budget(self):
        """The ISSUE acceptance scenario: a monitor over a 20%-loss
        channel converges to ``ok`` within its retry budget."""
        session = lossy_session(0.20, seed="mon-lossy")
        monitor = AttestationMonitor(
            session,
            policy=MonitorPolicy(
                interval_seconds=30.0,
                retry=RetryPolicy(attempt_timeout_seconds=2.0,
                                  max_retries=6,
                                  base_backoff_seconds=0.5)))
        events = monitor.run(rounds=4)
        kinds = [event.kind for event in events]
        assert kinds.count("ok") == 4
        assert "failure" not in kinds
        assert not monitor.alarmed

    def test_composed_faults_still_converge(self):
        session = build_session(
            device_config=tiny_config(),
            adversary=FaultPipeline(
                BernoulliLoss(0.15, seed="combo-loss"),
                LatencyJitter(0.05, seed="combo-jitter")),
            seed="mon-combo")
        session.learn_reference_state()
        monitor = AttestationMonitor(
            session,
            policy=MonitorPolicy(
                interval_seconds=20.0,
                retry=RetryPolicy(attempt_timeout_seconds=2.0,
                                  max_retries=5)))
        events = monitor.run(rounds=3)
        assert [e.kind for e in events].count("ok") == 3

    def test_retry_delay_clamped_to_round_duration(self):
        """Regression for the fixed-cadence bug: with a retry delay far
        below the round trip, the monitor used to burn every attempt on
        a request whose response was still in flight.  After one
        measured round the deadline is clamped, so later rounds succeed
        on their first attempt."""
        session = build_session(device_config=tiny_config(),
                                seed="mon-clamp")
        session.learn_reference_state()
        monitor = AttestationMonitor(
            session,
            policy=MonitorPolicy(interval_seconds=10.0,
                                 failure_threshold=99,
                                 retry=RetryPolicy(
                                     attempt_timeout_seconds=0.001,
                                     max_retries=1)))
        monitor.run(rounds=3)
        kinds = [e.kind for e in monitor.events]
        # Round 1 has no measured round trip yet and fails its tight
        # deadline; the in-flight response lands during the interval and
        # teaches the monitor the true duration, so rounds 2+ are clean.
        assert kinds[-2:] == ["ok", "ok"]
        assert session.verifier_node.last_round_seconds is not None

    def test_default_retry_is_the_fixed_cadence(self):
        """The default policy keeps the monitor's historical cadence: a
        5 s deadline, two retries, no backoff and no budget."""
        assert MonitorPolicy().retry == RetryPolicy(
            attempt_timeout_seconds=5.0, max_retries=2,
            base_backoff_seconds=0.0, total_budget_seconds=None)

    def test_explicit_retry_policy_wins(self):
        custom = RetryPolicy(attempt_timeout_seconds=9.0, max_retries=1)
        policy = MonitorPolicy(retry=custom)
        assert policy.retry is custom


class TestSweepReportSplit:
    def test_channel_loss_lands_in_no_response(self):
        fleet = Swarm(2, device_config=tiny_config(), seed="split-1")
        fleet.members[1].session.channel.adversary = DropAllRequests()
        report = fleet.sweep()
        assert report.no_response == ["device-001"]
        assert report.refused == []
        assert not report.healthy

    def test_prover_rejection_lands_in_refused(self):
        fleet = Swarm(2, device_config=tiny_config(), seed="split-2")
        fleet.members[1].session.channel.adversary = RefuseViaBadTag()
        report = fleet.sweep()
        assert report.refused == ["device-001"]
        assert report.no_response == []
        assert not report.healthy

    def test_service_buckets_silence_like_the_sweep(self):
        """The service's verdicts use the sweep's split: silence from a
        prover that rejected the request is ``refused``, silence from
        the channel is ``no_response``."""
        service = AttestationService(3, tenants=1, backends=1,
                                     device_config=tiny_config(),
                                     seed="split-service")
        service.members[1].session.channel.adversary = DropAllRequests()
        service.members[2].session.channel.adversary = RefuseViaBadTag()
        records = service.process([ServiceRequest(0.0, index, index)
                                   for index in range(3)])
        assert [record.verdict for record in records] == \
            ["trusted", "no_response", "refused"]

    def test_compromised_state_still_untrusted(self):
        fleet = Swarm(2, device_config=tiny_config(), seed="split-3")
        fleet.members[1].session.device.flash.load(64, b"\xEB\xFE")
        report = fleet.sweep()
        assert report.untrusted == ["device-001"]
        assert report.no_response == report.refused == []

    def test_healthy_requires_all_categories_clean(self):
        assert SweepReport(attempted=1, trusted=1).healthy
        assert not SweepReport(skipped_quarantined=["a"]).healthy


class TestFleetDegradation:
    def make_degrading_fleet(self, **kwargs):
        fleet = Swarm(3, device_config=tiny_config(),
                      quarantine_after=2, probe_every_sweeps=3,
                      seed="degrade", **kwargs)
        fleet.members[2].session.channel.adversary = DropAllRequests()
        return fleet

    def test_breaker_walks_the_ladder(self):
        fleet = self.make_degrading_fleet()
        fleet.sweep()
        assert fleet.device_states()["device-002"] == "degraded"
        fleet.sweep()
        assert fleet.device_states()["device-002"] == "quarantined"

    def test_quarantined_member_skipped_then_probed(self):
        fleet = self.make_degrading_fleet()
        fleet.sweep()
        fleet.sweep()   # quarantined now
        third = fleet.sweep()
        fourth = fleet.sweep()
        assert third.skipped_quarantined == ["device-002"]
        assert fourth.skipped_quarantined == ["device-002"]
        probe = fleet.sweep()   # third opportunity: probe fires
        assert probe.skipped_quarantined == []
        assert probe.attempted == 3

    def test_skipped_members_burn_no_energy(self):
        fleet = self.make_degrading_fleet()
        fleet.sweep()
        fleet.sweep()
        victim = fleet.members[2].session
        victim.device.sync_energy()
        before = victim.device.battery.consumed_mj
        fleet.sweep()   # skipped
        victim.device.sync_energy()
        assert victim.device.battery.consumed_mj == pytest.approx(before)

    def test_recovery_heals_the_breaker(self):
        fleet = self.make_degrading_fleet()
        fleet.sweep()
        fleet.sweep()
        # Restore a benign channel and wait for the probe sweep.
        from repro.net.channel import PassthroughAdversary
        fleet.members[2].session.channel.adversary = PassthroughAdversary()
        fleet.sweep()
        fleet.sweep()
        report = fleet.sweep()   # probe succeeds
        assert report.trusted == 3
        assert fleet.device_states()["device-002"] == "healthy"

    def test_sweep_level_retry_policy(self):
        fleet = Swarm(2, device_config=tiny_config(),
                      retry=RetryPolicy(attempt_timeout_seconds=2.0,
                                        max_retries=4),
                      seed="sweep-retry")
        fleet.members[1].session.channel.adversary = BernoulliLoss(
            0.4, seed="srl-3")
        report = fleet.sweep()
        assert report.trusted == 2
        assert report.retries >= 1

    def test_breaker_transition_telemetry(self):
        from repro.obs.telemetry import Telemetry
        telemetry = Telemetry()
        fleet = Swarm(1, device_config=tiny_config(), quarantine_after=2,
                      seed="breaker-telemetry")
        # Rebuild member 0's session with a telemetry sink attached.
        session = build_session(device_config=tiny_config(),
                                adversary=DropAllRequests(),
                                telemetry=telemetry,
                                seed="breaker-telemetry:0")
        session.learn_reference_state()
        fleet.members[0].session = session
        fleet.sweep()
        fleet.sweep()
        assert telemetry.trace.count("breaker-state") == 2
        states = [e.fields["state"]
                  for e in telemetry.trace.of_kind("breaker-state")]
        assert states == ["degraded", "quarantined"]
