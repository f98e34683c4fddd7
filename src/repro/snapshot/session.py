"""Session-level snapshot: one prover/verifier pair and its channel.

Captures everything that evolves during attestation rounds on top of
the device itself: simulator clock, channel transcript and fault-model
RNG positions, verifier freshness state (counters, nonce RNG, challenge
RNG), the prover trust anchor's stats/rate-limit/nonce history, the
verifier node's outstanding requests, and the attached telemetry
(metrics registry + event trace).

Quiescence contract: a session snapshot is only defined at a protocol
boundary -- no scheduled events in flight (``sim.pending == 0``) and no
execution context on the CPU stack.  Draining instead of refusing would
advance simulated time and break byte-identity with an uninterrupted
run, so :func:`snapshot_session` raises :class:`SnapshotError` rather
than guessing.  Every path the swarm/fleet layers snapshot from
(sweep boundaries) satisfies the contract by construction.
"""

from __future__ import annotations

from ..core.verifier import VerificationResult
from ..errors import SnapshotError
from ..net.trace import Transcript, TranscriptEntry
from ..obs.registry import MetricsRegistry
from ..obs.trace import EventTrace, TraceEvent
from .blobs import BlobStore
from .codec import (b64, decode_message, encode_adversary, encode_message,
                    overwrite, rng_state, stage_adversary, stage_rng)
from .delta import capture_log
from .device import snapshot_device, stage_device

__all__ = ["snapshot_session", "stage_session"]


def snapshot_session(session, blobs: BlobStore, parent=None) -> dict:
    """Capture a quiescent session; region images go to ``blobs``.

    With a ``parent`` (:class:`repro.snapshot.delta.ParentMember`), the
    device's region records carry chunk deltas against the parent
    checkpoint instead of whole images, and append-only logs carry only
    the entries added since it (see ``repro.snapshot.delta``).
    """
    if session.sim.pending:
        raise SnapshotError(
            f"cannot snapshot with {session.sim.pending} simulation "
            f"event(s) still scheduled; run the simulation to a protocol "
            f"boundary first")
    if session.device.cpu._context_stack:
        raise SnapshotError(
            "cannot snapshot while the CPU is executing inside a context")
    return {
        "sim": {"now": session.sim.now,
                "events_processed": session.sim.events_processed},
        "device": snapshot_device(session.device, blobs, parent=parent),
        "channel": _snapshot_channel(session.channel, parent),
        "verifier": _snapshot_verifier(session.verifier),
        "verifier_node": _snapshot_verifier_node(session.verifier_node,
                                                 parent),
        "anchor": _snapshot_anchor(session.anchor, parent),
        "telemetry": _snapshot_telemetry(session.telemetry, parent),
    }


def stage_session(session, snap: dict, blobs: BlobStore,
                  commits: list) -> None:
    """Stage overwriting a freshly rebuilt session with captured state.

    ``session`` must have been built with the same ``build_session``
    parameters (and have learned its reference state the same way) as
    the captured one; the commit replaces every runtime-mutable field,
    after which continuing the session is byte-identical to never
    having stopped.
    """
    overwrite(commits, session.sim, now=snap["sim"]["now"],
              events_processed=snap["sim"]["events_processed"])
    stage_device(session.device, snap["device"], blobs, commits)
    _stage_channel(session.channel, snap["channel"], commits)
    _stage_verifier(session.verifier, snap["verifier"], commits)
    _stage_verifier_node(session.verifier_node, snap["verifier_node"],
                         commits)
    _stage_anchor(session.anchor, snap["anchor"], commits)
    _stage_telemetry(session.telemetry, snap["telemetry"], commits)


# ---------------------------------------------------------------------------
# Channel (transcript, counters, fault state)
# ---------------------------------------------------------------------------

def _encode_transcript_entry(entry) -> dict:
    return {"time": entry.time, "sender": entry.sender,
            "receiver": entry.receiver, "outcome": entry.outcome,
            "message": encode_message(entry.message)}


def _snapshot_channel(channel, parent=None) -> dict:
    return {
        "latency_rng": rng_state(channel._latency_rng),
        "delivered": channel.delivered,
        "dropped": channel.dropped,
        "injected": channel.injected,
        "duplicated": channel.duplicated,
        "adversary": encode_adversary(channel.adversary),
        "transcript": capture_log(channel.transcript._entries,
                                  _encode_transcript_entry, parent,
                                  "channel.transcript"),
    }


def _stage_channel(channel, state: dict, commits: list) -> None:
    stage_rng(channel._latency_rng, state["latency_rng"], commits)
    stage_adversary(channel.adversary, state["adversary"], commits)
    transcript = Transcript()
    for record in state["transcript"]:
        transcript._entries.append(TranscriptEntry(
            record["time"], record["sender"], record["receiver"],
            decode_message(record["message"]), record["outcome"]))
    overwrite(commits, channel, delivered=state["delivered"],
              dropped=state["dropped"], injected=state["injected"],
              duplicated=state["duplicated"], transcript=transcript)


# ---------------------------------------------------------------------------
# Verifier and its protocol node
# ---------------------------------------------------------------------------

def _snapshot_verifier(verifier) -> dict:
    return {
        "requests_issued": verifier.requests_issued,
        "responses_validated": verifier.responses_validated,
        "timeouts": verifier.timeouts,
        "reference_measurements": sorted(
            m.hex() for m in verifier.reference_measurements),
        "next_counter": verifier.freshness_state.next_counter,
        "nonce_rng": rng_state(verifier.freshness_state.rng),
        "challenge_rng": rng_state(verifier._challenge_rng),
    }


def _stage_verifier(verifier, state: dict, commits: list) -> None:
    overwrite(commits, verifier, requests_issued=state["requests_issued"],
              responses_validated=state["responses_validated"],
              timeouts=state["timeouts"],
              reference_measurements={
                  bytes.fromhex(m) for m in state["reference_measurements"]})
    overwrite(commits, verifier.freshness_state,
              next_counter=state["next_counter"])
    stage_rng(verifier.freshness_state.rng, state["nonce_rng"], commits)
    stage_rng(verifier._challenge_rng, state["challenge_rng"], commits)


def _snapshot_verifier_node(node, parent=None) -> dict:
    return {
        "outstanding": [b64(request.to_bytes())
                        for request in node._outstanding],
        # Insertion order carries the FIFO-eviction semantics of the
        # request-time table, so it is serialized as ordered pairs.
        "request_times": [[challenge.hex(), when]
                          for challenge, when in node._request_times.items()],
        "results": capture_log(
            node.results,
            lambda r: [r.authentic, r.state_known_good, r.detail],
            parent, "verifier_node.results"),
        "last_result_time": node.last_result_time,
        "last_round_seconds": node.last_round_seconds,
    }


def _stage_verifier_node(node, state: dict, commits: list) -> None:
    overwrite(
        commits, node,
        _outstanding=[decode_message({"kind": "req", "data": text})
                      for text in state["outstanding"]],
        _request_times={bytes.fromhex(challenge): when
                        for challenge, when in state["request_times"]},
        results=[VerificationResult(authentic, state_known_good, detail)
                 for authentic, state_known_good, detail
                 in state["results"]],
        last_result_time=state["last_result_time"],
        last_round_seconds=state["last_round_seconds"])


# ---------------------------------------------------------------------------
# Prover trust anchor
# ---------------------------------------------------------------------------

def _snapshot_anchor(anchor, parent=None) -> dict:
    nonces = anchor.state._nonces
    return {
        "last_attest_seconds": anchor._last_attest_seconds,
        "busy_intervals": capture_log(anchor.busy_intervals, list, parent,
                                      "anchor.busy_intervals"),
        "stats": {"received": anchor.stats.received,
                  "accepted": anchor.stats.accepted,
                  "rejected": dict(anchor.stats.rejected),
                  "validation_cycles": anchor.stats.validation_cycles,
                  "attestation_cycles": anchor.stats.attestation_cycles},
        # The nonce history's lazy-deletion deque keeps stale entries
        # until they surface in pop_oldest; the full deque travels so
        # future evictions replay identically.
        "nonces": {"order": [n.hex() for n in nonces._order],
                   "members": sorted(n.hex() for n in nonces._members),
                   "stored_bytes": nonces.stored_bytes},
    }


def _stage_anchor(anchor, state: dict, commits: list) -> None:
    from collections import deque
    overwrite(commits, anchor,
              _last_attest_seconds=state["last_attest_seconds"],
              busy_intervals=[(start, end)
                              for start, end in state["busy_intervals"]])
    stats = state["stats"]
    overwrite(commits, anchor.stats, received=stats["received"],
              accepted=stats["accepted"], rejected=dict(stats["rejected"]),
              validation_cycles=stats["validation_cycles"],
              attestation_cycles=stats["attestation_cycles"])
    nonces = state["nonces"]
    overwrite(commits, anchor.state._nonces,
              _order=deque(bytes.fromhex(n) for n in nonces["order"]),
              _members={bytes.fromhex(n) for n in nonces["members"]},
              stored_bytes=nonces["stored_bytes"])


# ---------------------------------------------------------------------------
# Telemetry (metrics registry + event trace)
# ---------------------------------------------------------------------------

def _snapshot_telemetry(telemetry, parent=None) -> dict | None:
    if not telemetry.enabled or telemetry.registry is None:
        return None
    trace = telemetry.trace
    return {
        "registry": telemetry.registry.dump(),
        "trace": {"records": capture_log(
                      trace.events, TraceEvent.as_dict, parent,
                      "telemetry.trace.records",
                      evicted=trace.dropped_events),
                  "seq": trace._seq,
                  "dropped_events": trace.dropped_events,
                  "max_events": trace.max_events},
    }


def _stage_telemetry(telemetry, state: dict | None, commits: list) -> None:
    if state is None:
        if telemetry.enabled and telemetry.registry is not None:
            raise SnapshotError(
                "snapshot has no telemetry but the rebuilt session "
                "observes; rebuild without telemetry or re-capture")
        return
    if not telemetry.enabled or telemetry.registry is None:
        raise SnapshotError(
            "snapshot carries telemetry but the rebuilt session does "
            "not observe; rebuild with a Telemetry sink attached")
    registry = MetricsRegistry.from_dump(state["registry"])
    trace_state = state["trace"]
    trace = EventTrace(max_events=trace_state["max_events"])
    # extend_records() re-sequences, which would break replay-to-seq
    # anchoring; events are rebuilt verbatim with their original seqs.
    for record in trace_state["records"]:
        fields = {key: value for key, value in record.items()
                  if key not in ("seq", "time", "kind")}
        trace.events.append(TraceEvent(record["seq"], record["time"],
                                       record["kind"], fields))
    trace._seq = trace_state["seq"]
    trace.dropped_events = trace_state["dropped_events"]
    overwrite(commits, telemetry, registry=registry, trace=trace)
