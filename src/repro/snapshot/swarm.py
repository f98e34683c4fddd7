"""Swarm-level snapshot: N member sessions plus fleet bookkeeping.

A swarm snapshot is the member sessions (all sharing one deduplicating
:class:`~repro.snapshot.blobs.BlobStore` -- the fleet-scale win), the
per-device circuit breakers, the sweep counter, and the shared
state-digest cache.  The swarm's retry-jitter root RNG is deliberately
*not* captured: the swarm only ever branches per-sweep substreams off
it (``substream(f"{device_id}:{sweeps_run}")``), never consumes it
directly, so rebuilding it from the seed reproduces every future
substream exactly.

Restore stages every member -- and the breakers and the digest cache --
before any of them commits, so a document refused at its last member
leaves the first one untouched.  The cache payload is committed *after*
the rebuilt swarm's spin-up, so the spin-up's own hit/miss accounting
is overwritten -- a restored-and-continued fleet reports the same cache
stats as one that never stopped.
"""

from __future__ import annotations

from ..errors import SnapshotError
from .blobs import BlobStore
from .codec import overwrite
from .delta import capture_log
from .session import snapshot_session, stage_session

__all__ = ["snapshot_swarm", "stage_members", "stage_swarm"]


def snapshot_swarm(swarm, blobs: BlobStore, parent=None) -> dict:
    """Capture a swarm between sweeps; region images go to ``blobs``.

    With a ``parent`` (:class:`repro.snapshot.delta.DeltaBase`), each
    member's region records carry chunk deltas against the parent
    checkpoint instead of whole images, and append-only logs carry only
    the entries added since it -- the parent's member identity list
    must match this swarm's exactly.
    """
    if parent is not None:
        identity = [(member.device_id, member.index)
                    for member in swarm.members]
        if parent.identity != identity:
            raise SnapshotError(
                f"delta parent member set mismatch: parent has "
                f"{parent.identity}, swarm has {identity}")
    return {
        "sweeps_run": swarm.sweeps_run,
        "members": [{"device_id": member.device_id, "index": member.index,
                     "session": snapshot_session(
                         member.session, blobs,
                         parent=(parent.member(i) if parent is not None
                                 else None))}
                    for i, member in enumerate(swarm.members)],
        "breakers": {device_id: _snapshot_breaker(breaker, device_id,
                                                  parent)
                     for device_id, breaker in swarm.breakers.items()},
        "state_cache": (_snapshot_cache(swarm.state_cache, parent)
                        if swarm.state_cache is not None else None),
        "trace_marks": (capture_log(swarm._trace_marks, list, parent,
                                    "trace_marks")
                        if swarm.observe else None),
    }


def stage_members(target, snap: dict, blobs: BlobStore, identity: tuple,
                  what: str, commits: list) -> None:
    """Stage what a swarm and a service share: every member session of
    a rebuilt ``target`` (a ``what``), matched on the member attributes
    named in ``identity``, then its state-digest cache."""
    captured = [tuple(m[key] for key in identity) for m in snap["members"]]
    rebuilt = [tuple(getattr(m, key) for key in identity)
               for m in target.members]
    if captured != rebuilt:
        raise SnapshotError(
            f"member set mismatch: snapshot has {captured}, rebuilt "
            f"{what} has {rebuilt}")
    for member, record in zip(target.members, snap["members"]):
        stage_session(member.session, record["session"], blobs, commits)
    if snap["state_cache"] is not None:
        if target.state_cache is None:
            raise SnapshotError(
                f"snapshot carries a state-digest cache but the rebuilt "
                f"{what} has none attached")
        _stage_cache(target.state_cache, snap["state_cache"], commits)
    elif target.state_cache is not None:
        # Captured target ran uncached: continuing must too, or hit/miss
        # accounting diverges from the uninterrupted run.
        raise SnapshotError(
            f"rebuilt {what} has a state-digest cache but the snapshot "
            f"was taken without one")


def stage_swarm(swarm, snap: dict, blobs: BlobStore, commits: list) -> None:
    """Stage overwriting a freshly rebuilt ``swarm`` with captured
    state."""
    stage_members(swarm, snap, blobs, ("device_id", "index"), "swarm",
                  commits)
    if set(snap["breakers"]) != set(swarm.breakers):
        raise SnapshotError("circuit-breaker set mismatch")
    for device_id, state in snap["breakers"].items():
        overwrite(commits, swarm.breakers[device_id], state=state["state"],
                  consecutive_failures=state["consecutive_failures"],
                  probes_skipped=state["probes_skipped"],
                  transitions=[tuple(t) for t in state["transitions"]])
    marks = snap.get("trace_marks")
    overwrite(commits, swarm, sweeps_run=snap["sweeps_run"],
              _trace_marks=([list(row) for row in marks]
                            if marks is not None else []))


# ---------------------------------------------------------------------------
# Pieces
# ---------------------------------------------------------------------------

def _snapshot_breaker(breaker, device_id: str, parent=None) -> dict:
    return {"state": breaker.state,
            "consecutive_failures": breaker.consecutive_failures,
            "probes_skipped": breaker.probes_skipped,
            "transitions": capture_log(breaker.transitions, list, parent,
                                       "breakers.*.transitions", device_id)}


def _snapshot_cache(cache, parent=None) -> dict:
    # Insertion order carries the FIFO-eviction semantics.  Two key
    # shapes exist: history keys are tuples of (start, end, fingerprint)
    # span triples and encode as the original list-of-triples; content
    # keys (incremental measurement, see ``Device._content_digest_key``)
    # are ("content", (start, end, chunk_size, arity, root), ...) and
    # encode tagged as ["content", [[...], ...]].  Decode dispatches on
    # the first element -- a string only ever means a content key, so
    # old documents (whose first element is a triple list) still load.
    # The epoch travels only once it moved (see StateDigestCache.epoch),
    # so documents of never-reset caches keep their shape.
    state = {"hits": cache.hits, "misses": cache.misses,
             "evictions": cache.evictions,
             "max_entries": cache.max_entries,
             "entries": capture_log(
                 cache._entries.items(),
                 lambda item: [_encode_cache_key(item[0]), item[1].hex()],
                 parent, "state_cache.entries",
                 evicted=cache.evictions, epoch=cache.epoch)}
    if cache.epoch:
        state["epoch"] = cache.epoch
    return state


def _encode_cache_key(key: tuple) -> list:
    if key and key[0] == "content":
        return ["content",
                [[start, end, chunk_size, arity, root.hex()]
                 for start, end, chunk_size, arity, root in key[1:]]]
    return [[start, end, fingerprint.hex()]
            for start, end, fingerprint in key]


def _decode_cache_key(spans: list) -> tuple:
    if spans and spans[0] == "content":
        return ("content",
                *((start, end, chunk_size, arity, bytes.fromhex(root))
                  for start, end, chunk_size, arity, root in spans[1]))
    return tuple((start, end, bytes.fromhex(fingerprint))
                 for start, end, fingerprint in spans)


def _stage_cache(cache, state: dict, commits: list) -> None:
    if cache.max_entries != state["max_entries"]:
        raise SnapshotError("state-digest cache capacity mismatch")
    overwrite(commits, cache,
              _entries={_decode_cache_key(spans): bytes.fromhex(digest)
                        for spans, digest in state["entries"]},
              hits=state["hits"], misses=state["misses"],
              evictions=state.get("evictions", 0),
              epoch=state.get("epoch", 0))
