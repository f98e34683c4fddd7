"""Many-prover (IoT) deployments (future work item 1).

Section 7: "Trial-deploy proposed methods in the context of connected
devices, such as Internet of Things (IoT)."  A swarm is N independent
prover devices, each with its own ``K_Attest``, freshness state and
channel, driven by one verifier that sweeps attestation across the fleet.

What the swarm view adds over single-device sessions:

* fleet-level schedules (round-robin sweeps with a configurable pace),
* aggregate health reporting (which devices attested, which failed, how
  much fleet energy attestation consumed),
* graceful degradation: per-device circuit breakers
  (:class:`~repro.core.resilience.CircuitBreaker`) move persistently
  failing devices through ``healthy`` -> ``degraded`` -> ``quarantined``
  instead of lumping every silence into one bucket, and quarantined
  devices are only probed periodically so they stop consuming sweep
  time,
* staggered timing so the Section 3.1 cost asymmetry becomes visible at
  scale: a verifier can trivially saturate a whole fleet of 24 MHz
  provers from one machine.

Sweeps are factored into per-member :class:`MemberSweepOutcome` values
folded by :func:`fold_outcomes` so that :mod:`repro.perf.fleet` can run
disjoint shards of a fleet in separate worker processes and merge their
outcomes into a :class:`SweepReport` byte-identical to a sequential
sweep: every per-member quantity (jitter substream, stagger offset,
device id, key) depends only on the swarm seed and the member's global
index, never on which shard computed it or in what order.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from ..core.protocol import Session, build_session
from ..core.resilience import CircuitBreaker, RetryPolicy
from ..crypto.hmac import pin_hmac_midstates
from ..crypto.kdf import derive_device_key
from ..crypto.rng import DeterministicRng
from ..errors import ConfigurationError, SnapshotError
from ..mcu.device import DeviceConfig
from ..mcu.profiles import ProtectionProfile, ROAM_HARDENED
from ..mcu.statecache import StateDigestCache
from ..net.channel import ChannelAdversary
from ..obs.registry import MetricsRegistry
from ..obs.telemetry import Telemetry

__all__ = ["SwarmMember", "MemberSweepOutcome", "SweepReport",
           "classify_outcome", "fold_outcomes", "Swarm"]

#: Outcome categories a member can report from one sweep.
OUTCOME_CATEGORIES = ("trusted", "untrusted", "no_response", "refused",
                      "skipped")


def classify_outcome(result, prover_rejected: bool) -> str:
    """Bucket one attestation round by cause: ``trusted``; ``refused``
    when authentication failed or the round went silent because the
    prover rejected the request (``prover_rejected``: its
    ``rejected_total`` grew during the round); ``no_response`` when the
    channel delivered nothing; ``untrusted`` for an authentic digest
    outside the reference set.  Sweeps and the attestation service
    share it."""
    if result.trusted:
        return "trusted"
    if result.detail == "no-response":
        # Silence has two causes the transcript distinguishes: the
        # prover rejecting the request (it saw it and said no) vs the
        # channel never delivering anything.
        return "refused" if prover_rejected else "no_response"
    if not result.authentic:
        return "refused"
    return "untrusted"


@dataclass
class SwarmMember:
    """One device in the fleet.

    ``index`` is the member's *global* fleet index: it determines the
    device id, key-derivation label, seed and stagger slot, so a shard
    holding members 96..127 of a 256-member fleet behaves identically to
    the same members inside one big in-process swarm.
    """

    device_id: str
    session: Session
    index: int = 0

    @property
    def battery_fraction(self) -> float:
        self.session.device.sync_energy()
        return self.session.device.battery.fraction_remaining


@dataclass(frozen=True)
class MemberSweepOutcome:
    """One member's contribution to a sweep, in picklable form.

    This is the unit that crosses process boundaries in sharded sweeps:
    plain strings and numbers, no simulator references.  ``category`` is
    one of ``trusted`` / ``untrusted`` / ``no_response`` / ``refused`` /
    ``skipped`` (circuit breaker held the member out of the sweep).
    """

    device_id: str
    category: str
    retries: int = 0
    energy_delta_mj: float = 0.0
    duration_seconds: float = 0.0


def fold_outcomes(outcomes: Iterable[MemberSweepOutcome]) -> SweepReport:
    """Fold per-member outcomes into a fleet :class:`SweepReport`.

    Both the sequential :meth:`Swarm.sweep` and the sharded parallel
    engine reduce through this one function, in member order -- so the
    float-accumulation order of ``fleet_energy_mj`` (and every list
    field's order) is identical no matter how the fleet was partitioned.
    """
    report = SweepReport()
    for outcome in outcomes:
        if outcome.category == "skipped":
            report.skipped_quarantined.append(outcome.device_id)
            continue
        report.attempted += 1
        report.retries += outcome.retries
        report.sweep_seconds = max(report.sweep_seconds,
                                   outcome.duration_seconds)
        report.fleet_energy_mj += outcome.energy_delta_mj
        if outcome.category == "trusted":
            report.trusted += 1
        elif outcome.category == "untrusted":
            report.untrusted.append(outcome.device_id)
        elif outcome.category == "no_response":
            report.no_response.append(outcome.device_id)
        elif outcome.category == "refused":
            report.refused.append(outcome.device_id)
        else:
            raise ConfigurationError(
                f"unknown sweep outcome category: {outcome.category!r}")
    return report


@dataclass
class SweepReport:
    """Result of one attestation sweep across the fleet.

    Failures are bucketed by *cause*, not lumped together: a device
    whose traffic the channel dropped (``no_response``) needs a network
    fix, a device that refused the request or failed authentication
    (``refused``) needs a protocol/key look, and a device reporting a
    digest outside the reference set (``untrusted``) needs incident
    response.  ``skipped_quarantined`` lists members the circuit breaker
    held out of this sweep.
    """

    attempted: int = 0
    trusted: int = 0
    untrusted: list[str] = field(default_factory=list)
    #: No response and no prover-side rejection: the channel ate it.
    no_response: list[str] = field(default_factory=list)
    #: The device rejected the request (bad MAC, stale freshness) or
    #: answered with a response that failed authentication.
    refused: list[str] = field(default_factory=list)
    skipped_quarantined: list[str] = field(default_factory=list)
    retries: int = 0
    fleet_energy_mj: float = 0.0
    sweep_seconds: float = 0.0

    @property
    def healthy(self) -> bool:
        return not (self.untrusted or self.no_response or self.refused
                    or self.skipped_quarantined)


class Swarm:
    """A fleet of provers and the verifier-side sweep logic.

    Each member gets an independent simulation/channel/key (devices do
    not share a radio in this model; contention is out of scope for the
    paper).  ``member_configs`` may override per-device hardware, e.g. to
    mix clock designs in one fleet.

    ``retry`` attaches a fleet-wide
    :class:`~repro.core.resilience.RetryPolicy` to every sweep (each
    member's attestation is retried under it); ``degrade_after`` /
    ``quarantine_after`` / ``probe_every_sweeps`` tune the per-device
    circuit breakers.

    Fleet-scale hooks (all default-off so the plain constructor stays
    the sequential seed path):

    ``member_indices``
        Build only the members with these *global* indices -- the shard
        primitive.  ``Swarm(4)`` equals the union of
        ``member_indices=(0, 1)`` and ``member_indices=(2, 3)`` swarms
        with the same seed, member for member.
    ``adversary_factory``
        ``(index, device_id) -> ChannelAdversary`` called per member, so
        fleets can mix fault pipelines deterministically by identity.
    ``observe``
        Attach a private :class:`~repro.obs.telemetry.Telemetry` sink to
        every member (required for :meth:`merged_registry` /
        :meth:`merged_trace_records`).
    ``state_cache``
        Share a :class:`~repro.mcu.statecache.StateDigestCache` across
        members, collapsing spin-up's O(N * measure) host hashing to one
        measurement per unique configuration.
    ``incremental``
        Enable dirty-region incremental measurement: every member gets
        per-region digest trees (:meth:`~repro.mcu.device.Device.
        enable_incremental`), a shared unbounded ``StateDigestCache`` is
        created if none was given, and all member HMAC keys are
        batch-pinned in the midstate cache
        (:func:`~repro.crypto.hmac.pin_hmac_midstates`) so per-member
        finalization never recomputes a pad block.  Host-side only:
        digests, simulated cycles, energy and reports are byte-identical
        to the full-walk path (``tests/gates/test_incremental.py`` gates
        this).
    """

    def __init__(self, size: int, *, profile: ProtectionProfile = ROAM_HARDENED,
                 auth_scheme: str = "speck-64/128-cbc-mac",
                 policy_name: str = "counter",
                 device_config: DeviceConfig | None = None,
                 member_configs: dict[int, DeviceConfig] | None = None,
                 master_key: bytes | None = None,
                 retry: RetryPolicy | None = None,
                 degrade_after: int = 1, quarantine_after: int = 3,
                 probe_every_sweeps: int = 4,
                 member_indices: Sequence[int] | None = None,
                 adversary_factory: Callable[[int, str],
                                             ChannelAdversary] | None = None,
                 observe: bool = False,
                 state_cache: StateDigestCache | None = None,
                 incremental: bool = False,
                 seed: str = "swarm"):
        if size < 1:
            raise ConfigurationError("swarm needs at least one member")
        if probe_every_sweeps < 1:
            raise ConfigurationError("probe_every_sweeps must be >= 1")
        if member_indices is None:
            indices: Sequence[int] = range(size)
        else:
            indices = tuple(member_indices)
            if len(indices) != size:
                raise ConfigurationError(
                    "member_indices must supply exactly one global index "
                    f"per member (got {len(indices)} for size {size})")
        overrides = member_configs if member_configs is not None else {}
        if incremental and state_cache is None:
            # Incremental measurement needs every member's content entry
            # resident; an eviction would silently reintroduce full
            # walks, so default to the unbounded mode.
            state_cache = StateDigestCache(max_entries=0)
        self.master_key = master_key
        self.retry = retry
        self.probe_every_sweeps = probe_every_sweeps
        self.observe = observe
        self.state_cache = state_cache
        self.incremental = incremental
        self.members: list[SwarmMember] = []
        self.breakers: dict[str, CircuitBreaker] = {}
        self._members_by_id: dict[str, SwarmMember] = {}
        #: Per-sweep trace watermarks (one ``EventTrace.emitted`` value
        #: per member), recorded at each sweep boundary so the merged
        #: trace can be ordered sweep-major.  See ``trace_segments``.
        self._trace_marks: list[list[int]] = []
        self._retry_rng = DeterministicRng(seed).substream("sweep-jitter")
        for index in indices:
            config = overrides.get(index, device_config)
            if config is None:
                config = DeviceConfig(ram_size=16 * 1024,
                                      flash_size=32 * 1024,
                                      app_size=4 * 1024)
            device_id = f"device-{index:03d}"
            key = None
            if master_key is not None:
                key = derive_device_key(master_key, device_id)
            adversary = None
            if adversary_factory is not None:
                adversary = adversary_factory(index, device_id)
            telemetry = Telemetry() if observe else None
            session = build_session(
                profile=profile, auth_scheme=auth_scheme,
                policy_name=policy_name, device_config=config,
                adversary=adversary, key=key, telemetry=telemetry,
                seed=f"{seed}:{index}")
            if state_cache is not None:
                session.device.attach_state_cache(state_cache)
            if incremental:
                session.device.enable_incremental()
            session.learn_reference_state()
            member = SwarmMember(device_id, session, index)
            self.members.append(member)
            self._members_by_id[device_id] = member
            self.breakers[device_id] = CircuitBreaker(
                degrade_after=degrade_after,
                quarantine_after=quarantine_after)
        self.sweeps_run = 0
        if incremental:
            self._pin_member_keys()

    def _pin_member_keys(self) -> None:
        """Batch-pin every member's ``K_Attest`` pad midstates in one
        pass (see :func:`~repro.crypto.hmac.pin_hmac_midstates`).

        Reads the keys through the hardware-internal ``raw_read`` view:
        this is host-side cache priming, not a simulated access, so it
        charges no cycles and trips no EA-MPU rule.  Idempotent -- the
        sweep path re-asserts it so a midstate-cache clear (benchmarks
        do this) or an engine switch cannot silently degrade a fleet
        back to LRU thrashing.
        """
        keys = []
        for member in self.members:
            device = member.session.device
            start, end = device.key_span
            region = device.memory.find(start)
            keys.append(region.raw_read(start - region.start, end - start))
        pin_hmac_midstates(keys)

    def __len__(self) -> int:
        return len(self.members)

    def member(self, device_id: str) -> SwarmMember:
        return self._members_by_id[device_id]

    # ------------------------------------------------------------------

    def _record_breaker(self, member: SwarmMember, success: bool) -> None:
        breaker = self.breakers[member.device_id]
        previous = breaker.state
        if success:
            breaker.record_success()
        else:
            breaker.record_failure()
        if breaker.state != previous:
            telemetry = member.session.telemetry
            telemetry.count("swarm.breaker_transitions", to=breaker.state)
            telemetry.event("breaker-state", member.session.sim.now,
                            device=member.device_id, previous=previous,
                            state=breaker.state)

    def _sweep_member(self, member: SwarmMember, retry: RetryPolicy | None,
                      stagger_seconds: float) -> MemberSweepOutcome:
        """Attest one member; every input is derived from the member's
        global identity so shards reproduce the sequential transcript."""
        breaker = self.breakers[member.device_id]
        if not breaker.should_attempt(self.probe_every_sweeps):
            return MemberSweepOutcome(member.device_id, "skipped")
        session = member.session
        if stagger_seconds:
            session.sim.run(until=session.sim.now
                            + member.index * stagger_seconds)
        before_energy = session.device.battery.consumed_mj
        rejected_before = session.anchor.stats.rejected_total
        start = session.sim.now
        retries = 0
        if retry is not None:
            jitter_rng = self._retry_rng.substream(
                f"{member.device_id}:{self.sweeps_run}")
            outcome = session.attest_resilient(retry, rng=jitter_rng)
            result = outcome.result
            retries = outcome.retries
        else:
            result = session.attest_once()
        duration = session.sim.now - start
        session.device.sync_energy()
        energy = session.device.battery.consumed_mj - before_energy
        self._record_breaker(member, result.trusted)
        category = classify_outcome(
            result, session.anchor.stats.rejected_total > rejected_before)
        return MemberSweepOutcome(member.device_id, category,
                                  retries=retries, energy_delta_mj=energy,
                                  duration_seconds=duration)

    def sweep_outcomes(self, *, stagger_seconds: float = 0.0,
                       retry: RetryPolicy | None = None,
                       ) -> list[MemberSweepOutcome]:
        """Attest every member once, returning per-member outcomes.

        This is :meth:`sweep` minus the fold: the sharded parallel
        engine calls it on each shard and folds the concatenation.
        Advances ``sweeps_run`` (which seeds the per-sweep retry-jitter
        substreams).
        """
        retry = retry if retry is not None else self.retry
        if self.incremental:
            self._pin_member_keys()
        outcomes = [self._sweep_member(member, retry, stagger_seconds)
                    for member in self.members]
        self.sweeps_run += 1
        if self.observe:
            self._trace_marks.append(
                [member.session.telemetry.trace.emitted
                 for member in self.members])
        return outcomes

    def sweep(self, *, stagger_seconds: float = 0.0,
              retry: RetryPolicy | None = None) -> SweepReport:
        """Attest every member once; returns the fleet health report.

        ``stagger_seconds`` spaces requests out (a real verifier paces
        sweeps so fleet-wide attestation does not synchronise every
        device's unavailability window).  ``retry`` overrides the
        fleet-wide retry policy for this sweep.  Quarantined members are
        skipped except for their periodic probe.
        """
        return fold_outcomes(self.sweep_outcomes(
            stagger_seconds=stagger_seconds, retry=retry))

    # ------------------------------------------------------------------

    def snapshot(self, *, parent: dict | None = None) -> dict:
        """Capture the whole fleet between sweeps as one document.

        Member region images are content-addressed and deduplicated, so
        the document costs O(unique memory histories), not
        O(members * writable bytes).  With ``parent`` (a swarm-kind
        document this run descends from -- full or delta), the capture
        is a ``repro.snapshot.delta/v1`` **delta**: per region, only
        chunks whose digest-tree leaves changed since the parent are
        stored.  See :mod:`repro.snapshot` and
        :mod:`repro.snapshot.delta`.
        """
        from ..snapshot import (BlobStore, DeltaBase, document_id,
                                make_document)
        from ..snapshot.codec import captured
        from ..snapshot.swarm import SWARM
        blobs = BlobStore()
        base = (DeltaBase.from_document(parent, "swarm")
                if parent is not None else None)
        state = captured(SWARM, self, blobs, base)
        return make_document("swarm", state, blobs, parent_id=(
            None if parent is None else document_id(parent)))

    def freshness_fingerprint(self) -> str:
        """SHA-1 over every member's verifier freshness state (next
        counter, nonce-RNG and challenge-RNG stream positions) -- a
        cheap cross-check that a restored fleet will issue exactly the
        challenges the captured one would have."""
        import hashlib as _hashlib
        import json as _json

        from ..snapshot import rng_state
        payload = [{"device": member.device_id,
                    "next_counter": (member.session.verifier
                                     .freshness_state.next_counter),
                    "nonce_rng": rng_state(
                        member.session.verifier.freshness_state.rng),
                    "challenge_rng": rng_state(
                        member.session.verifier._challenge_rng)}
                   for member in self.members]
        text = _json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return _hashlib.sha1(text.encode()).hexdigest()

    def restore(self, documents) -> None:
        """Overwrite this (freshly rebuilt) swarm from one document or a
        root-first delta chain (see ``repro.snapshot.delta.open_chain``).

        Accepts any swarm checkpoint, including one a sharded
        ``FleetEngine`` wrote at any worker count; the rebuilt swarm
        must have the same constructor parameters as the captured one.
        An attached state-digest cache restarts cold: the document
        carries none, and entries learned at spin-up could vouch for
        restored bytes nobody measured.
        """
        from ..snapshot.codec import stage, staged
        from ..snapshot.delta import open_chain
        from ..snapshot.swarm import SWARM
        staged(stage, SWARM, self, *open_chain(documents, "swarm"))()

    def replay_to_seq(self, documents, target_seq: int, *,
                      stagger_seconds: float = 0.0,
                      max_sweeps: int = 64) -> list:
        """Restore from ``documents`` (as :meth:`restore` takes them)
        and deterministically re-drive the fleet until the merged event
        trace reaches ``target_seq``; returns the exact record prefix
        ``0..target_seq``.  Raises :class:`SnapshotError` if the target
        is not reached within ``max_sweeps`` (e.g. a quarantined-out
        fleet that no longer emits events).
        """
        if target_seq < 0:
            raise SnapshotError("replay target seq cannot be negative")
        self.restore(documents)
        records = self.merged_trace_records()
        for _ in range(max_sweeps):
            if len(records) > target_seq:
                break
            self.sweep(stagger_seconds=stagger_seconds)
            records = self.merged_trace_records()
        if len(records) <= target_seq:
            raise SnapshotError(
                f"replay reached only {len(records)} events after "
                f"{max_sweeps} sweeps; target seq {target_seq} unreachable")
        return records[:target_seq + 1]

    def device_states(self) -> dict[str, str]:
        """Circuit-breaker state per device (graceful-degradation view)."""
        return {device_id: breaker.state
                for device_id, breaker in self.breakers.items()}

    def fleet_battery_report(self) -> dict[str, float]:
        """Remaining battery fraction per device."""
        return {member.device_id: member.battery_fraction
                for member in self.members}

    def total_attestations(self) -> int:
        return sum(member.session.anchor.stats.accepted
                   for member in self.members)

    # ------------------------------------------------------------------

    def merged_registry(self) -> MetricsRegistry:
        """Fold every member's metrics into one fleet registry.

        Registry folding is order-independent (exact compensated float
        summation in :class:`~repro.obs.registry.Counter`), so the
        result is identical however the fleet was sharded or the merge
        tree shaped.  Requires ``observe=True``.
        """
        if not self.observe:
            raise ConfigurationError(
                "merged_registry needs a swarm built with observe=True")
        merged = MetricsRegistry()
        for member in self.members:
            merged.merge(member.session.telemetry.registry)
        return merged

    def trace_segments(self) -> list[list[dict]]:
        """Member trace records grouped sweep-major, one segment per
        recorded sweep (plus a tail for events after the last sweep).

        Within a segment members appear in fleet order.  This grouping
        is *append-stable*: running more sweeps appends segments without
        reordering earlier ones, which is what makes a fleet-wide
        ``seq`` a durable event address (a member-major concatenation
        would renumber every later member's history on each new sweep).
        Requires ``observe=True``.
        """
        if not self.observe:
            raise ConfigurationError(
                "trace_segments needs a swarm built with observe=True")
        member_records = [member.session.telemetry.trace.as_records()
                          for member in self.members]
        cursors = [0] * len(self.members)
        segments: list[list[dict]] = []
        for marks in self._trace_marks:
            segment: list[dict] = []
            for i, records in enumerate(member_records):
                while (cursors[i] < len(records)
                       and records[cursors[i]]["seq"] < marks[i]):
                    segment.append(records[cursors[i]])
                    cursors[i] += 1
            segments.append(segment)
        tail = [record for i, records in enumerate(member_records)
                for record in records[cursors[i]:]]
        if tail:
            segments.append(tail)
        return segments

    def merged_trace_records(self) -> list[dict]:
        """One fleet-wide trace: sweep-major segments, re-sequenced.

        Per-member ``seq`` counters are replaced by one fleet-wide
        running sequence so the merged trace is a valid single trace.
        Requires ``observe=True``.
        """
        records: list[dict] = []
        for segment in self.trace_segments():
            for record in segment:
                record["seq"] = len(records)
                records.append(record)
        return records
