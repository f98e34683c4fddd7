"""Swarm-level snapshot: N member sessions plus fleet bookkeeping.

:data:`SWARM` declares a swarm snapshot: the member sessions (all
sharing one deduplicating :class:`~repro.snapshot.blobs.BlobStore` --
the fleet-scale win), the per-device circuit breakers, the sweep counter
and the per-sweep trace watermarks.  The swarm's retry-jitter root RNG
is deliberately *not* captured: the swarm only ever branches per-sweep
substreams off it (``substream(f"{device_id}:{sweeps_run}")``), never
consumes it directly, so rebuilding it from the seed reproduces every
future substream exactly.  Nor is its state-digest cache: it is a host
memo, and restore starts it cold (see :mod:`repro.snapshot.device`).

Every per-member field depends only on the member's global index, so a
swarm payload splits into contiguous shards and joins back in shard
order (:func:`split_swarm_state`, :func:`join_swarm_states`): one
checkpoint format serves a sequential swarm and a sharded fleet of any
worker count.

Restore stages every member and the breakers before any of them
commits, so a document refused at its last member leaves the first one
untouched.
"""

from __future__ import annotations

from ..errors import SnapshotError
from .codec import (INT, NUMBER, SAME, STRING, Entry, Field, Keyed, Log,
                    Members, Nested, Table)
from .session import SESSION

__all__ = ["SWARM", "join_swarm_states", "split_swarm_state"]

BREAKER = Table("breaker", ("state", "state", STRING),
                ("consecutive_failures", "consecutive_failures", NUMBER),
                ("probes_skipped", "probes_skipped", NUMBER),
                ("transitions", "transitions", Log(Entry(STRING, STRING))))

MEMBER = Table("member", ("device_id", "device_id", SAME),
               ("index", "index", SAME),
               ("session", "session", Nested(SESSION)))


#: A swarm between sweeps (against a delta parent,
#: :class:`repro.snapshot.delta.DeltaBase`).
SWARM = Table(
    "swarm",
    ("sweeps_run", "sweeps_run", NUMBER),
    ("members", "members", Members(MEMBER, "swarm")),
    ("breakers", "breakers", Keyed(BREAKER, "circuit-breaker")),
    # One row per recorded sweep, one watermark per member.
    Field("trace_marks", "_trace_marks",
          Log(Entry(INT, build=list, width=lambda swarm: len(swarm.members))),
          present=lambda swarm: swarm.observe),
    scope="swarm")


# ---------------------------------------------------------------------------
# Shards: a swarm payload cut into contiguous member blocks and back
# ---------------------------------------------------------------------------

def join_swarm_states(parts: list[dict]) -> dict:
    """One swarm payload from the payloads of contiguous shards, given
    in shard order: members and breakers concatenate, and each sweep's
    trace watermarks (a full list, or the rows of a tail record) join
    into one row.  Equal to a capture of the whole swarm."""
    marks = [part["trace_marks"] for part in parts]
    return {"sweeps_run": parts[0]["sweeps_run"],
            "members": [member for part in parts
                        for member in part["members"]],
            "breakers": {device_id: breaker for part in parts
                         for device_id, breaker in part["breakers"].items()},
            "trace_marks": (None if marks[0] is None else _with_rows(
                marks[0], [[mark for row in rows for mark in row]
                           for rows in zip(*map(_rows, marks))]))}


def split_swarm_state(state: dict, blocks: list[range]) -> list[dict]:
    """Cut a swarm payload (full, or a delta's) into the shards named by
    ``blocks``, contiguous member-index blocks covering the fleet in
    order (see :func:`repro.perf.fleet.partition`); the inverse of
    :func:`join_swarm_states`.  A payload whose members, breakers or
    watermark rows do not cover exactly those blocks is refused."""
    size = blocks[-1].stop
    members, breakers = state["members"], state["breakers"]
    marks = state.get("trace_marks")
    rows = [] if marks is None else _rows(marks)
    if not isinstance(members, list) or len(members) != size:
        raise SnapshotError(f"member set mismatch: snapshot does not hold "
                            f"the {size} members of the rebuilt fleet")
    if any(not isinstance(row, list) or len(row) != size for row in rows):
        raise SnapshotError(f"trace_marks rows must hold one watermark per "
                            f"member ({size})")
    # Breakers go with their members, by device id, not by position: a
    # document listing them in another order cuts the same way.
    ids = [member.get("device_id") if isinstance(member, dict) else None
           for member in members]
    if (not isinstance(breakers, dict) or len(breakers) != size
            or not all(isinstance(device_id, str) and device_id in breakers
                       for device_id in ids)):
        raise SnapshotError("circuit-breaker set mismatch")
    shard_breakers = [{device_id: breakers[device_id]
                       for device_id in ids[block.start:block.stop]}
                      for block in blocks]
    return [{"sweeps_run": state["sweeps_run"],
             "members": members[block.start:block.stop],
             "breakers": shard,
             "trace_marks": (None if marks is None else _with_rows(
                 marks, [row[block.start:block.stop] for row in rows]))}
            for block, shard in zip(blocks, shard_breakers)]


def _rows(marks) -> list:
    """The watermark rows of a ``trace_marks`` record: the whole list,
    or the rows a tail record appends."""
    rows = marks.get("tail") if isinstance(marks, dict) else marks
    if not isinstance(rows, list):
        raise SnapshotError("trace_marks must be a list or a tail record")
    return rows


def _with_rows(marks, rows: list):
    """A ``trace_marks`` record shaped like ``marks`` holding ``rows``."""
    return rows if isinstance(marks, list) else {**marks, "tail": rows}
