"""Session-level snapshot: one prover/verifier pair and its channel.

One field table per class declares everything that evolves during
attestation rounds on top of the device itself: simulator clock,
channel transcript and fault-model RNG positions, verifier freshness
state (counters, nonce RNG, challenge RNG), the prover trust anchor's
stats/rate-limit/nonce history, the verifier node's outstanding
requests, and the attached telemetry (metrics registry + event trace).

Quiescence contract: a session snapshot is only defined at a protocol
boundary -- no scheduled events in flight (``sim.pending == 0``) and no
execution context on the CPU stack.  Draining instead of refusing would
advance simulated time and break byte-identity with an uninterrupted
run, so capturing :data:`SESSION` raises :class:`SnapshotError` rather
than guessing.  Every path the swarm/fleet layers snapshot from
(sweep boundaries) satisfies the contract by construction.
"""

from __future__ import annotations

from ..core.verifier import VerificationResult
from ..errors import SnapshotError
from ..net.trace import TranscriptEntry
from ..obs.registry import MetricsRegistry
from ..obs.trace import TraceEvent
from .codec import (ADVERSARY, BOOL, COUNTS, HEX_DEQUE, HEX_SET, NUMBER,
                    OPT_BOOL, RNG, STRING, Codec, Entry, Field, Log, Nested,
                    Table, b64, decode_message, encode_message, json_list)
from .device import DEVICE

__all__ = ["SESSION", "REGISTRY"]

#: A metrics registry, as its dump.
REGISTRY = Codec("object", MetricsRegistry.from_dump, MetricsRegistry.dump)

#: Outstanding requests, each as base64 of its wire bytes.
REQUESTS = Codec(
    "list",
    lambda value: [decode_message({"kind": "req", "data": text})
                   for text in json_list(value)],
    lambda value: [b64(request.to_bytes()) for request in value])

#: A challenge -> time table.  Insertion order carries the
#: FIFO-eviction semantics of the request-time table, so it travels as
#: ordered ``[challenge-hex, time]`` pairs.
REQUEST_TIMES = Codec(
    "list",
    lambda value: {bytes.fromhex(challenge): when
                   for challenge, when in json_list(value)},
    lambda value: [[challenge.hex(), when]
                   for challenge, when in value.items()])


def _encode_transcript_entry(entry) -> dict:
    return {"time": entry.time, "sender": entry.sender,
            "receiver": entry.receiver, "outcome": entry.outcome,
            "message": encode_message(entry.message)}


def _decode_transcript_entry(record: dict) -> TranscriptEntry:
    return TranscriptEntry(record["time"], record["sender"],
                           record["receiver"],
                           decode_message(record["message"]),
                           record["outcome"])


def _decode_trace_event(record: dict) -> TraceEvent:
    # Events are rebuilt verbatim with their original seqs:
    # extend_records() re-sequences, which would break replay-to-seq
    # anchoring.
    fields = {key: value for key, value in record.items()
              if key not in ("seq", "time", "kind")}
    return TraceEvent(record["seq"], record["time"], record["kind"], fields)


SIM = Table("sim", ("now", "now", NUMBER),
            ("events_processed", "events_processed", NUMBER))

CHANNEL = Table(
    "channel",
    ("latency_rng", "_latency_rng", RNG),
    ("delivered", "delivered", NUMBER),
    ("dropped", "dropped", NUMBER),
    ("injected", "injected", NUMBER),
    ("duplicated", "duplicated", NUMBER),
    Field("adversary", "adversary", ADVERSARY, nullable=True),
    ("transcript", "transcript._entries",
     Log(Codec("object", _decode_transcript_entry,
               _encode_transcript_entry))))

VERIFIER = Table(
    "verifier",
    ("requests_issued", "requests_issued", NUMBER),
    ("responses_validated", "responses_validated", NUMBER),
    ("timeouts", "timeouts", NUMBER),
    ("reference_measurements", "reference_measurements", HEX_SET),
    ("next_counter", "freshness_state.next_counter", NUMBER),
    ("nonce_rng", "freshness_state.rng", RNG),
    ("challenge_rng", "_challenge_rng", RNG))

VERIFIER_NODE = Table(
    "verifier_node",
    ("outstanding", "_outstanding", REQUESTS),
    ("request_times", "_request_times", REQUEST_TIMES),
    ("results", "results",
     Log(Entry(BOOL, OPT_BOOL, STRING,
               build=lambda row: VerificationResult(*row),
               encode=lambda r: [r.authentic, r.state_known_good,
                                 r.detail]))),
    Field("last_result_time", "last_result_time", NUMBER, nullable=True),
    Field("last_round_seconds", "last_round_seconds", NUMBER,
          nullable=True))

STATS = Table("stats", ("received", "received", NUMBER),
              ("accepted", "accepted", NUMBER),
              ("rejected", "rejected", COUNTS),
              ("validation_cycles", "validation_cycles", NUMBER),
              ("attestation_cycles", "attestation_cycles", NUMBER))

#: The nonce history's lazy-deletion deque keeps stale entries until
#: they surface in pop_oldest; the full deque travels so future
#: evictions replay identically.
NONCES = Table("nonces", ("order", "_order", HEX_DEQUE),
               ("members", "_members", HEX_SET),
               ("stored_bytes", "stored_bytes", NUMBER))

ANCHOR = Table(
    "anchor",
    Field("last_attest_seconds", "_last_attest_seconds", NUMBER,
          nullable=True),
    ("busy_intervals", "busy_intervals", Log(Entry(NUMBER, NUMBER))),
    ("stats", "stats", Nested(STATS)),
    ("nonces", "state._nonces", Nested(NONCES)))

TRACE = Table(
    "trace",
    ("records", "events",
     Log(Codec("object", _decode_trace_event, TraceEvent.as_dict),
         counter="dropped_events")),
    ("seq", "_seq", NUMBER),
    ("dropped_events", "dropped_events", NUMBER),
    ("max_events", "max_events", NUMBER))

TELEMETRY = Table("telemetry", ("registry", "registry", REGISTRY),
                  ("trace", "trace", Nested(TRACE)))


def _observing(session) -> bool:
    telemetry = session.telemetry
    return telemetry.enabled and telemetry.registry is not None


def _check_quiescent(session, parent) -> None:
    if session.sim.pending:
        raise SnapshotError(
            f"cannot snapshot with {session.sim.pending} simulation "
            f"event(s) still scheduled; run the simulation to a protocol "
            f"boundary first")
    if session.device.cpu._context_stack:
        raise SnapshotError(
            "cannot snapshot while the CPU is executing inside a context")


#: A quiescent session, staged into one built with the same
#: ``build_session`` parameters (and reference state learned the same
#: way): continuing it is then byte-identical to never having stopped.
SESSION = Table(
    "session",
    ("sim", "sim", Nested(SIM)),
    ("device", "device", Nested(DEVICE)),
    ("channel", "channel", Nested(CHANNEL)),
    ("verifier", "verifier", Nested(VERIFIER)),
    ("verifier_node", "verifier_node", Nested(VERIFIER_NODE)),
    ("anchor", "anchor", Nested(ANCHOR)),
    Field("telemetry", "telemetry", Nested(TELEMETRY), present=_observing),
    check=_check_quiescent, scope="session")
