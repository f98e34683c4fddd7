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
                    restore_adversary, restore_rng, rng_state)
from .delta import capture_log
from .device import restore_device, snapshot_device

__all__ = ["snapshot_session", "restore_session"]


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


def restore_session(session, snap: dict, blobs: BlobStore) -> None:
    """Overwrite a freshly rebuilt session with captured state.

    ``session`` must have been built with the same ``build_session``
    parameters (and have learned its reference state the same way) as
    the captured one; restore then replaces every runtime-mutable
    field, after which continuing the session is byte-identical to
    never having stopped.
    """
    session.sim.now = snap["sim"]["now"]
    session.sim.events_processed = snap["sim"]["events_processed"]
    restore_device(session.device, snap["device"], blobs)
    _restore_channel(session.channel, snap["channel"])
    _restore_verifier(session.verifier, snap["verifier"])
    _restore_verifier_node(session.verifier_node, snap["verifier_node"])
    _restore_anchor(session.anchor, snap["anchor"])
    _restore_telemetry(session.telemetry, snap["telemetry"])


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


def _restore_channel(channel, state: dict) -> None:
    restore_rng(channel._latency_rng, state["latency_rng"])
    channel.delivered = state["delivered"]
    channel.dropped = state["dropped"]
    channel.injected = state["injected"]
    channel.duplicated = state["duplicated"]
    restore_adversary(channel.adversary, state["adversary"])
    transcript = Transcript()
    for record in state["transcript"]:
        transcript._entries.append(TranscriptEntry(
            record["time"], record["sender"], record["receiver"],
            decode_message(record["message"]), record["outcome"]))
    channel.transcript = transcript


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


def _restore_verifier(verifier, state: dict) -> None:
    verifier.requests_issued = state["requests_issued"]
    verifier.responses_validated = state["responses_validated"]
    verifier.timeouts = state["timeouts"]
    verifier.reference_measurements = {
        bytes.fromhex(m) for m in state["reference_measurements"]}
    verifier.freshness_state.next_counter = state["next_counter"]
    restore_rng(verifier.freshness_state.rng, state["nonce_rng"])
    restore_rng(verifier._challenge_rng, state["challenge_rng"])


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


def _restore_verifier_node(node, state: dict) -> None:
    node._outstanding = [decode_message({"kind": "req", "data": text})
                         for text in state["outstanding"]]
    node._request_times = {bytes.fromhex(challenge): when
                           for challenge, when in state["request_times"]}
    node.results = [VerificationResult(authentic, state_known_good, detail)
                    for authentic, state_known_good, detail
                    in state["results"]]
    node.last_result_time = state["last_result_time"]
    node.last_round_seconds = state["last_round_seconds"]


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


def _restore_anchor(anchor, state: dict) -> None:
    from collections import deque
    anchor._last_attest_seconds = state["last_attest_seconds"]
    anchor.busy_intervals = [(start, end)
                             for start, end in state["busy_intervals"]]
    stats = state["stats"]
    anchor.stats.received = stats["received"]
    anchor.stats.accepted = stats["accepted"]
    anchor.stats.rejected = dict(stats["rejected"])
    anchor.stats.validation_cycles = stats["validation_cycles"]
    anchor.stats.attestation_cycles = stats["attestation_cycles"]
    nonces = anchor.state._nonces
    nonce_state = state["nonces"]
    nonces._order = deque(bytes.fromhex(n) for n in nonce_state["order"])
    nonces._members = {bytes.fromhex(n) for n in nonce_state["members"]}
    nonces.stored_bytes = nonce_state["stored_bytes"]


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


def _restore_telemetry(telemetry, state: dict | None) -> None:
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
    telemetry.registry = MetricsRegistry.from_dump(state["registry"])
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
    telemetry.trace = trace
