"""End-to-end protocol sessions: verifier and prover on a Dolev-Yao channel.

:func:`build_session` is the library's main entry point: it assembles a
simulated deployment -- a provisioned, booted prover device with its
trust anchor, a verifier, and the channel between them -- from a handful
of choices (protection profile, request-auth scheme, freshness policy,
clock design).  Examples and attack scenarios all start from a session.

Time model: the network simulation clock is authoritative.  The prover
device sleeps between deliveries (:meth:`ProverNode.deliver` fast-forwards
the device to the simulation time before handling), and request handling
time feeds back as response latency, so a 754 ms measurement really does
delay the response by 754 simulated milliseconds.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import partial

from ..crypto.ecc import SECP160R1, generate_keypair
from ..crypto.rng import DeterministicRng
from ..errors import ConfigurationError
from ..mcu.device import Device, DeviceConfig
from ..mcu.profiles import ProtectionProfile, ROAM_HARDENED
from ..net.channel import ChannelAdversary, DolevYaoChannel
from ..net.simulator import Simulation
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .authenticator import (EcdsaAuthenticator, RequestAuthenticator,
                            make_symmetric_authenticator)
from .freshness import FreshnessPolicy, make_policy
from .messages import AttestationRequest, AttestationResponse
from .prover import ProverTrustAnchor
from .resilience import ResilientOutcome, RetryPolicy
from .verifier import VerificationResult, Verifier

__all__ = ["ProverNode", "VerifierNode", "Session", "build_session"]


class _Node:
    """A session endpoint: attaches itself to its channel.

    The channel holds its endpoints, so an endpoint holds its channel
    only weakly; the session that owns both keeps the channel alive.
    """

    def __init__(self, name: str, channel: DolevYaoChannel,
                 sim: Simulation):
        self.name = name
        self._channel = weakref.ref(channel)
        self.sim = sim
        channel.attach(self)

    @property
    def channel(self) -> DolevYaoChannel:
        return self._channel()


class ProverNode(_Node):
    """Channel endpoint wrapping a :class:`ProverTrustAnchor`."""

    def __init__(self, name: str, anchor: ProverTrustAnchor,
                 channel: DolevYaoChannel, sim: Simulation):
        self.anchor = anchor
        super().__init__(name, channel, sim)

    @property
    def device(self) -> Device:
        return self.anchor.device

    def _sync_device_time(self) -> None:
        lag = self.sim.now - self.device.cpu.elapsed_seconds
        if lag > 0:
            self.device.idle_seconds(lag)

    def deliver(self, message, sender: str) -> None:
        """Handle an inbound attestation request."""
        if not isinstance(message, AttestationRequest):
            return  # unknown traffic is dropped silently
        self._sync_device_time()
        response, reason = self.anchor.handle_request(message)
        if response is not None:
            # The response leaves the device when its CPU finishes -- in
            # absolute device time, so a request that queued behind an
            # earlier measurement is delayed by both (the device may be
            # ahead of the simulation clock after back-to-back requests).
            done_at = self.device.cpu.elapsed_seconds
            delay = max(0.0, done_at - self.sim.now)
            self.sim.schedule(
                delay,
                lambda: self.channel.send(self.name, sender, response))


class VerifierNode(_Node):
    """Channel endpoint wrapping a :class:`Verifier`."""

    def __init__(self, name: str, verifier: Verifier,
                 channel: DolevYaoChannel, prover_name: str,
                 sim: Simulation):
        self.verifier = verifier
        self.prover_name = prover_name
        self._outstanding: list[AttestationRequest] = []
        self._request_times: dict[bytes, float] = {}
        self.results: list[VerificationResult] = []
        #: Simulation time the most recent result was appended (any
        #: verdict, including unsolicited), and the measured request ->
        #: response duration of the most recent *matched* response.
        #: Retry policies clamp their per-attempt deadline to the latter
        #: so retries never fire faster than a round trip completes.
        self.last_result_time: float | None = None
        self.last_round_seconds: float | None = None
        super().__init__(name, channel, sim)

    def request_attestation(self) -> AttestationRequest:
        """Issue one attestation request towards the prover."""
        request = self.verifier.make_request()
        self._outstanding.append(request)
        self._request_times[request.challenge] = self.sim.now
        if len(self._request_times) > 4096:
            # Dropped requests never get popped; bound the map.
            oldest = next(iter(self._request_times))
            del self._request_times[oldest]
        self.channel.send(self.name, self.prover_name, request)
        return request

    def deliver(self, message, sender: str) -> None:
        if not isinstance(message, AttestationResponse):
            return
        request = self._match_request(message)
        if request is None:
            self.results.append(VerificationResult(
                False, None, "unsolicited-response"))
            self.last_result_time = self.sim.now
            return
        sent_at = self._request_times.pop(request.challenge, None)
        if sent_at is not None:
            self.last_round_seconds = self.sim.now - sent_at
        self.results.append(self.verifier.check_response(request, message))
        self.last_result_time = self.sim.now

    def _match_request(self, response: AttestationResponse
                       ) -> AttestationRequest | None:
        for request in self._outstanding:
            if request.challenge == response.challenge:
                self._outstanding.remove(request)
                return request
        return None


@dataclass
class Session:
    """A fully-wired attestation deployment."""

    sim: Simulation
    channel: DolevYaoChannel
    device: Device
    anchor: ProverTrustAnchor
    verifier: Verifier
    prover_node: ProverNode
    verifier_node: VerifierNode
    policy: FreshnessPolicy
    key: bytes
    #: The telemetry sink every layer reports into (the shared no-op
    #: sink when the session was built without observation).
    telemetry: Telemetry = field(default=NULL_TELEMETRY)

    def __del__(self):
        # A queued event closes over the channel or a node, and both
        # hold the simulation whose queue holds the event.  Every edge
        # of that loop is read per delivered event, so none is weak:
        # the session owns the queue instead, and discards what is still
        # queued when it goes, so it is freed by reference counting.
        sim = self.__dict__.get("sim")
        if sim is not None:
            sim.discard_pending()

    def attest_once(self, settle_seconds: float = 5.0) -> VerificationResult:
        """Run one complete attestation round and return the verdict.

        A round whose ``settle_seconds`` window added no result reports
        ``no-response`` -- never an earlier round's verdict -- so
        callers can tell a silent prover from a trusted one.
        """
        if self.sim.now == 0.0:
            # A timestamp of exactly 0 is indistinguishable from the
            # prover's initial last-accepted value; start after the epoch.
            self.sim.run(until=0.001)
        results = self.verifier_node.results
        baseline = len(results)
        self.verifier_node.request_attestation()
        self.sim.run(until=self.sim.now + settle_seconds)
        if len(results) == baseline:
            return VerificationResult(False, None, "no-response")
        return results[-1]

    def attest_resilient(self, retry: "RetryPolicy",
                         rng: DeterministicRng | None = None
                         ) -> ResilientOutcome:
        """One logical attestation with deadlines, backoff and a budget.

        Each attempt waits ``retry.effective_timeout(...)`` -- the
        configured per-attempt deadline, clamped up to the most recently
        measured round trip so a retry can never fire while the response
        it is retrying for is still in flight.  Failed attempts back off
        exponentially (with deterministic jitter when ``rng`` is given)
        until the retry count or the total time budget runs out.  An
        attempt is a timeout exactly when :meth:`attest_once` reports
        ``no-response``.

        Telemetry: ``session.timeouts`` / ``session.retries`` /
        ``session.backoff_seconds`` counters and the matching
        ``session-*`` trace events, plus ``verifier.timeouts`` via
        :meth:`~repro.core.verifier.Verifier.record_timeout`.
        """
        node = self.verifier_node
        round_start = self.sim.now
        attempts = 0
        timeouts = 0
        backoff_total = 0.0
        retried: list[tuple[float, str]] = []
        gave_up = None
        while True:
            attempts += 1
            timeout = retry.effective_timeout(node.last_round_seconds)
            if retry.total_budget_seconds is not None:
                # The budget check between attempts alone lets the final
                # attempt wait a full deadline past the cap; clamp the
                # deadline to the remaining budget instead.
                remaining = retry.total_budget_seconds \
                    - (self.sim.now - round_start)
                timeout = min(timeout, max(remaining, 0.0))
            result = self.attest_once(settle_seconds=timeout)
            if result.detail == "no-response":
                timeouts += 1
                self.verifier.record_timeout()
                self.telemetry.count("session.timeouts")
                self.telemetry.event("session-timeout", self.sim.now,
                                     attempt=attempts)
            if result.trusted:
                break
            if retry.budget_exhausted(self.sim.now - round_start):
                # Checked before the retry count: when both limits bind
                # on the same attempt the budget is the one that actually
                # stopped the round, and must be reported as such.
                gave_up = "budget-exhausted"
                break
            if attempts > retry.max_retries:
                gave_up = "retries-exhausted"
                break
            retried.append((self.sim.now, result.detail))
            self.telemetry.count("session.retries")
            self.telemetry.event("session-retry", self.sim.now,
                                 attempt=attempts, detail=result.detail)
            delay = retry.backoff_delay(attempts, rng)
            if delay > 0.0:
                backoff_total += delay
                self.telemetry.count("session.backoff_seconds", delay)
                self.telemetry.event("session-backoff", self.sim.now,
                                     seconds=delay, attempt=attempts)
                self.sim.run(until=self.sim.now + delay)
        return ResilientOutcome(result=result, attempts=attempts,
                                timeouts=timeouts,
                                backoff_seconds=backoff_total,
                                elapsed_seconds=self.sim.now - round_start,
                                gave_up=gave_up, retried=retried)

    def snapshot(self, *, parent: dict | None = None) -> dict:
        """Capture the full session state as a snapshot document.

        The session must be quiescent (no scheduled simulation events,
        no context on the CPU stack) -- see :mod:`repro.snapshot`.
        With ``parent`` (a session-kind document this run descends
        from), the capture is a ``repro.snapshot.delta/v1`` delta
        storing only chunks changed since the parent (see
        :mod:`repro.snapshot.delta`).
        """
        from ..snapshot import (BlobStore, DeltaBase, document_id,
                                make_document)
        from ..snapshot.codec import captured
        from ..snapshot.session import SESSION
        blobs = BlobStore()
        base = (DeltaBase.from_document(parent, "session").member(0)
                if parent is not None else None)
        state = captured(SESSION, self, blobs, base)
        return make_document("session", state, blobs, parent_id=(
            None if parent is None else document_id(parent)))

    def restore(self, documents) -> None:
        """Overwrite this (freshly rebuilt) session from one document or
        a root-first delta chain.

        The session must have been built with the same
        :func:`build_session` parameters as the captured one; after the
        restore, continuing the run is byte-identical to a run that was
        never interrupted.
        """
        from ..snapshot.codec import stage, staged
        from ..snapshot.delta import open_chain
        from ..snapshot.session import SESSION
        staged(stage, SESSION, self, *open_chain(documents, "session"))()

    def summary(self) -> dict:
        """Machine-readable snapshot of the deployment and its history.

        Stable keys for scripting/CI: device geometry, configuration
        choices, protocol statistics, and energy accounting.
        """
        self.device.sync_energy()
        stats = self.anchor.stats
        config = self.device.config
        return {
            "device": {
                "frequency_hz": config.frequency_hz,
                "ram_bytes": config.ram_size,
                "flash_bytes": config.flash_size,
                "writable_bytes": self.device.writable_memory_bytes,
                "clock_kind": config.clock_kind,
                "profile": self.device.boot_profile.name
                if self.device.boot_profile else None,
                "mpu_rules": self.device.mpu.active_rule_count,
            },
            "protocol": {
                "auth_scheme": self.anchor.authenticator.scheme,
                "freshness_policy": self.policy.name,
            },
            "stats": {
                "requests_received": stats.received,
                "accepted": stats.accepted,
                "rejected": dict(stats.rejected),
                "validation_ms": stats.validation_cycles
                / (config.frequency_hz / 1000),
                "attestation_ms": stats.attestation_cycles
                / (config.frequency_hz / 1000),
            },
            "energy": {
                "consumed_mj": self.device.battery.consumed_mj,
                "battery_fraction_remaining":
                    self.device.battery.fraction_remaining,
            },
            "time": {
                "simulated_seconds": self.sim.now,
                "device_seconds": self.device.cpu.elapsed_seconds,
            },
        }

    def learn_reference_state(self) -> bytes:
        """Deployment-time step: record the golden state digest.

        Reads the device directly (trusted provisioning environment, not
        the network path) so the verifier can later flag modified states.
        """
        digest = self.device.digest_writable_memory(
            self.device.context("Code_Attest"))
        self.verifier.learn_reference(digest)
        return digest


def _sim_seconds_to_ticks(sim: Simulation, resolution: float) -> int:
    """Simulation time in prover clock ticks (a partial of this is two
    collector-tracked objects per session; a closure would be four)."""
    return int(sim.now / resolution)


def build_session(*, profile: ProtectionProfile = ROAM_HARDENED,
                  auth_scheme: str = "speck-64/128-cbc-mac",
                  policy_name: str = "counter",
                  device_config: DeviceConfig | None = None,
                  adversary: ChannelAdversary | None = None,
                  timestamp_window_seconds: float = 1.0,
                  monotonic_timestamps: bool = False,
                  latency_seconds: float = 0.005,
                  network_path=None,
                  key: bytes | None = None,
                  rate_limit_seconds: float = 0.0,
                  telemetry: Telemetry | None = None,
                  seed: str = "session-0") -> Session:
    """Assemble a simulated attestation deployment.

    Parameters mirror the paper's design space: ``profile`` picks the
    hardware protection level (Section 6), ``auth_scheme`` the request
    authentication primitive (Section 4.1, Table 1), ``policy_name`` the
    freshness feature (Section 4.2, Table 2), and
    ``device_config.clock_kind`` the clock implementation (Figure 1).
    ``key`` provisions an externally-derived ``K_Attest`` (e.g. from
    :func:`repro.crypto.kdf.derive_device_key`); by default a key is
    drawn from the session seed.

    ``telemetry`` attaches a :class:`~repro.obs.telemetry.Telemetry`
    sink to every layer (device, channel, prover anchor, verifier); the
    default no-op sink observes nothing and costs nothing.
    """
    config = device_config if device_config is not None else DeviceConfig()
    if policy_name == "timestamp" and config.clock_kind == "none":
        raise ConfigurationError(
            "timestamp freshness requires a device clock")

    rng = DeterministicRng(seed)
    if key is None:
        key = rng.substream("k-attest").bytes(16)
    elif len(key) != 16:
        raise ConfigurationError("provisioned K_Attest must be 16 bytes")

    sink = telemetry if telemetry is not None else NULL_TELEMETRY

    device = Device(config)
    device.provision(key)
    device.boot(profile)
    device.attach_telemetry(sink)

    sim = Simulation()
    channel = DolevYaoChannel(sim, latency_seconds=latency_seconds,
                              adversary=adversary, path=network_path,
                              seed=seed, telemetry=sink)

    # Clock plumbing for timestamps: the verifier converts simulation
    # seconds into prover ticks (synchronised-clocks assumption).
    if device.clock is not None:
        resolution = device.clock.resolution_seconds
        clock_ticks = partial(_sim_seconds_to_ticks, sim, resolution)
        window_ticks = max(1, int(timestamp_window_seconds / resolution))
    else:
        clock_ticks = None
        window_ticks = 1

    policy = make_policy(policy_name, window_ticks=window_ticks,
                         monotonic_timestamps=monotonic_timestamps)

    if auth_scheme == "ecdsa-secp160r1":
        keypair = generate_keypair(SECP160R1, rng.substream("ecdsa"))
        verifier_auth: RequestAuthenticator = EcdsaAuthenticator.signer(keypair)
        prover_auth: RequestAuthenticator = EcdsaAuthenticator.checker(
            keypair.public)
    else:
        verifier_auth = make_symmetric_authenticator(auth_scheme, key)
        prover_auth = make_symmetric_authenticator(auth_scheme, key)

    verifier = Verifier(key, verifier_auth, policy,
                        clock_ticks=clock_ticks, seed=seed + ":verifier",
                        telemetry=sink)
    anchor = ProverTrustAnchor(device, prover_auth, policy,
                               min_interval_seconds=rate_limit_seconds,
                               telemetry=sink)

    prover_node = ProverNode("prover", anchor, channel, sim)
    verifier_node = VerifierNode("verifier", verifier, channel, "prover", sim)

    return Session(sim=sim, channel=channel, device=device, anchor=anchor,
                   verifier=verifier, prover_node=prover_node,
                   verifier_node=verifier_node, policy=policy, key=key,
                   telemetry=sink)
