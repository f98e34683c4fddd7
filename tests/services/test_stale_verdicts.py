"""A silent round reports silence, never the previous round's verdict.

The verifier node keeps every verdict it has reached; a round that gets
no answer adds none.  Each caller of ``Session.attest_once`` -- the
plain session, an un-retried fleet sweep, the attestation service and
the monitor -- must then see ``no-response`` for that round (VRASED's
rule: accept only a response to the current challenge), not the last
trusted verdict still sitting at the end of the list.  Every case here
first gets one trusted round, then goes silent.
"""

from repro.core import build_session
from repro.core.messages import AttestationRequest
from repro.core.resilience import RetryPolicy
from repro.net.channel import Verdict
from repro.services.attestd import AttestationService, ServiceRequest
from repro.services.monitor import AttestationMonitor, MonitorPolicy
from repro.services.swarm import Swarm
from tests.conftest import tiny_config


class DropAllRequests:
    def on_message(self, message, sender, receiver, time):
        if isinstance(message, AttestationRequest):
            return Verdict("drop")
        return Verdict("forward")


def trusted_session(seed):
    session = build_session(device_config=tiny_config(), seed=seed)
    session.learn_reference_state()
    assert session.attest_once().trusted
    return session


def test_attest_once_after_a_dropped_request():
    session = trusted_session("stale-once")
    session.channel.adversary = DropAllRequests()
    result = session.attest_once()
    assert (result.trusted, result.detail) == (False, "no-response")


def test_unretried_sweep_sees_silence():
    swarm = Swarm(2, device_config=tiny_config(), seed="stale-sweep")
    assert swarm.sweep().trusted == 2
    for member in swarm.members:
        member.session.channel.adversary = DropAllRequests()
    report = swarm.sweep()
    assert (report.attempted, report.trusted) == (2, 0)
    assert report.no_response == ["device-000", "device-001"]
    assert list(swarm.device_states().values()) == ["degraded"] * 2


def test_service_round_with_a_dropped_request():
    service = AttestationService(2, tenants=1, backends=1, observe=False,
                                 seed="stale-service")
    first, = service.process([ServiceRequest(1.0, 0, 0)])
    assert first.verdict == "trusted"
    service.members[0].session.channel.adversary = DropAllRequests()
    second, = service.process([ServiceRequest(2000.0, 0, 1)])
    assert (second.verdict, second.detail) == ("no_response", "no-response")


def test_monitor_alarms_when_a_trusted_device_goes_silent():
    session = trusted_session("stale-monitor")
    monitor = AttestationMonitor(session, policy=MonitorPolicy(
        interval_seconds=5.0, failure_threshold=2,
        retry=RetryPolicy(attempt_timeout_seconds=3.0, max_retries=1)))
    monitor.run(rounds=1)
    session.channel.adversary = DropAllRequests()
    monitor.run(rounds=3)
    assert [event.kind for event in monitor.events] == [
        "ok", "retry", "failure", "retry", "failure", "alarm",
        "retry", "failure"]
    assert monitor.alarmed


def test_refusal_after_a_trusted_round_is_refused():
    """The prover rate-limits the second round: it saw the request and
    said no, which ``classify_outcome`` tells apart from channel loss --
    but only when the round reports its own silence."""
    swarm = Swarm(1, device_config=tiny_config(), seed="stale-refused")
    swarm.members[0].session.anchor.min_interval_seconds = 3600.0
    assert swarm.sweep().trusted == 1
    report = swarm.sweep()
    assert report.refused == ["device-000"]
    assert swarm.members[0].session.anchor.stats.rejected["rate-limited"] == 1
