"""Replay bisection: find the first trace event matching a predicate.

Deterministic replay (``replay_to_seq``) can reproduce any event of a
recorded timeline -- but locating *which* event first went wrong by
replaying from seq 0 costs the whole timeline.  With a series of
checkpoints along the run, :func:`bisect_replay` binary-searches the
merged-trace seq axis instead, restarting every probe from the nearest
checkpoint at or before the probe target, so the events actually
re-generated are O(checkpoint spacing * log N) instead of O(N).

The cost model is honest about what checkpoints already contain: a
checkpoint stores the full merged-trace prefix up to its capture point,
so probing a seq *inside* a stored prefix re-generates nothing -- only
probe targets beyond the nearest checkpoint's stored trace pay sweeps.
``events_replayed`` counts exactly those re-generated events, which is
the number a linear scan from the oldest checkpoint
(:func:`linear_scan`) pays in full.

Checkpoints must be observed (``observe=True`` swarms): the stored
per-member trace lengths anchor each document on the seq axis.
Documents may be full snapshots or delta chains -- in a root-first
list mixing both, each checkpoint is restored from its chain: the
newest full document at or before it plus the deltas up to it.
"""

from __future__ import annotations

from ..errors import SnapshotError
from .delta import _record_counts, _session_states
from .document import is_delta

__all__ = ["bisect_replay", "checkpoint_trace_length", "linear_scan"]


def checkpoint_trace_length(document: dict) -> int:
    """How many merged-trace records a checkpoint already contains
    (its position on the fleet-wide seq axis)."""
    sessions = _session_states(document["state"], document["kind"])
    total = 0
    for session in sessions:
        telemetry = session.get("telemetry")
        if telemetry is None:
            raise SnapshotError(
                "bisection needs observed checkpoints (the captured "
                "swarm must have been built with observe=True)")
        cumulative, evicted = _record_counts(
            telemetry["trace"], "telemetry.trace.records", "trace records")
        total += cumulative - evicted
    return total


def _chains(documents: list[dict]) -> list[list[dict]]:
    """Per checkpoint of a root-first list (full documents and/or delta
    descendants), the chain that restores it: a full document starts a
    chain of its own, a delta extends the chain since the last full
    one (a list starting with a delta fails to open)."""
    chains = []
    chain_start = 0
    for index, document in enumerate(documents):
        if not is_delta(document):
            chain_start = index
        chains.append(documents[chain_start:index + 1])
    return chains


def bisect_replay(swarm, documents: list[dict], predicate, *,
                  hi: int | None = None, stagger_seconds: float = 0.0,
                  max_sweeps: int = 64) -> dict:
    """Binary-search the merged-trace seq axis for the first record
    where ``predicate(record)`` is true, probing via ``swarm``.

    ``documents`` is a root-first list of checkpoints of one timeline
    (oldest first; full snapshots or delta descendants).  ``swarm``
    must be a freshly built twin of the captured fleet; it is restored
    repeatedly and left at the final probe's state.  ``hi`` optionally
    caps the search to seqs ``<= hi`` known to contain a match;
    without it an upper bound is established from the newest
    checkpoint, sweeping forward until the predicate first matches.

    Returns ``{"seq", "record", "probes", "events_replayed"}`` where
    ``events_replayed`` counts only *re-generated* events (records
    beyond a restored checkpoint's stored trace) -- the axis on which
    bisection beats :func:`linear_scan`.

    Raises :class:`SnapshotError` if the predicate never matches
    within ``max_sweeps`` of the newest checkpoint, or if the
    checkpoints are not ordered oldest to newest.
    """
    if not documents:
        raise SnapshotError("bisection needs at least one checkpoint")
    chains = _chains(documents)
    lengths = [checkpoint_trace_length(document) for document in documents]
    for earlier, later in zip(lengths, lengths[1:]):
        if later < earlier:
            raise SnapshotError(
                "checkpoints must be ordered oldest to newest (stored "
                "trace lengths decreased)")
    probes = 0
    events_replayed = 0
    best = None

    def scan(records, limit):
        for record in records[:limit]:
            if predicate(record):
                return record
        return None

    if hi is None:
        swarm.restore(chains[-1])
        records = swarm.merged_trace_records()
        match = scan(records, len(records))
        sweeps = 0
        while match is None:
            if sweeps >= max_sweeps:
                raise SnapshotError(
                    f"predicate never matched within {max_sweeps} sweeps "
                    f"of the newest checkpoint")
            swarm.sweep(stagger_seconds=stagger_seconds)
            sweeps += 1
            records = swarm.merged_trace_records()
            match = scan(records, len(records))
        events_replayed += len(records) - lengths[-1]
        best = match
        hi = match["seq"]

    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        nearest = 0
        for index, length in enumerate(lengths):
            if length <= mid + 1:
                nearest = index
        probes += 1
        records = swarm.replay_to_seq(chains[nearest], mid,
                                      stagger_seconds=stagger_seconds,
                                      max_sweeps=max_sweeps)
        events_replayed += (len(swarm.merged_trace_records())
                            - lengths[nearest])
        match = scan(records, mid + 1)
        if match is not None:
            hi = match["seq"]
            best = match
        else:
            lo = mid + 1
    if best is None or best["seq"] != lo:
        raise SnapshotError(
            f"bisection converged on seq {lo} without a matching record")
    return {"seq": lo, "record": best, "probes": probes,
            "events_replayed": events_replayed}


def linear_scan(swarm, documents, predicate, *,
                stagger_seconds: float = 0.0,
                max_sweeps: int = 64) -> dict:
    """The baseline bisection beats: restore the oldest checkpoint (one
    document or a root-first chain ending at it) and sweep forward,
    scanning every record in order, until the predicate first matches.
    Same return shape as :func:`bisect_replay` (minus ``probes``);
    ``events_replayed`` counts re-generated events."""
    tip = documents if isinstance(documents, dict) else documents[-1]
    base = checkpoint_trace_length(tip)
    swarm.restore(documents)
    records = swarm.merged_trace_records()
    scanned = 0
    sweeps = 0
    while True:
        for record in records[scanned:]:
            if predicate(record):
                return {"seq": record["seq"], "record": record,
                        "events_replayed": max(0, len(records) - base)}
        scanned = len(records)
        if sweeps >= max_sweeps:
            raise SnapshotError(
                f"predicate never matched within {max_sweeps} sweeps of "
                f"the checkpoint")
        swarm.sweep(stagger_seconds=stagger_seconds)
        sweeps += 1
        records = swarm.merged_trace_records()
