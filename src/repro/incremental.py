"""Dirty-region digest trees: incremental content addressing of memory.

The paper's Section 3.1 asymmetry rests on the prover paying a *full*
memory walk for every attestation round; at fleet scale the host
simulation pays the same walk per member per sweep even when almost
nothing changed.  PR 5's :class:`~repro.mcu.statecache.StateDigestCache`
removed the walk when *nothing* changed -- its key is the write-chain
fingerprint, a *history* address, so any write (even one that recreates
byte-identical contents, e.g. the same firmware update applied in a
different chunk order on every member) forces a full recompute.

This module closes that gap with a **content** address that is cheap to
refresh after k dirty writes.  :class:`DigestTree` is a fixed-arity
Merkle-style tree over fixed-size leaf chunks of one region window:
every :meth:`~repro.mcu.memory.MemoryRegion.note_write` marks the
covering leaves dirty, and :meth:`DigestTree.root` recomputes only the
dirty leaves plus the internal nodes above them -- O(dirty + log N)
chunk digests instead of a full re-walk.  Two windows with equal roots
(same geometry) have byte-identical contents, so the root serves as a
second, content-addressed key into the ``StateDigestCache``: a member
whose memory was rewritten to contents some other member (or an earlier
round) already measured hits the cache after an O(dirty) refresh,
instead of paying the full walk the history key would force.

What the tree deliberately does **not** do: produce the linear SHA-1
state digest itself.  SHA-1 is a Merkle-Damgard chain -- a digest over
fresh, never-measured contents cannot be assembled from chunk digests
and always costs one full walk.  The tree makes *re-recognising known
content* cheap; genuinely new fleet-wide content is measured once and
every other member then pays only O(dirty + log N).  Digests, simulated
cycles and energy are byte-identical either way (the cache-hit path
replays exact Table 1 accounting); only host wall-clock drops.  See
``docs/performance.md`` for the full incremental-measurement contract.

Host-side only: tree state never feeds back into simulated behaviour,
and snapshot restore simply invalidates the tree -- roots are pure
functions of content, so a deterministic rebuild from restored bytes is
byte-identical to a round-tripped tree (see ``repro.snapshot``).
"""

from __future__ import annotations

import hashlib

from .errors import ConfigurationError

__all__ = ["DEFAULT_CHUNK_SIZE", "DEFAULT_ARITY", "DigestTree"]

#: Leaf chunk size (bytes).  Matches the measurement walk's 4 KB chunk:
#: one leaf is one unit of host re-hash work after a dirty write.
DEFAULT_CHUNK_SIZE = 4096

#: Fan-out of internal nodes.  16 keeps the tree two to three levels
#: deep for megabyte windows, so refresh cost is dominated by dirty
#: leaves, not internal-node churn.
DEFAULT_ARITY = 16


class DigestTree:
    """Fixed-arity digest tree over fixed-size chunks of a region window.

    Parameters
    ----------
    window_start, window_size:
        The covered byte window, *region-relative* (the device maps an
        attested span onto its backing region's offsets).  Writes
        entirely outside the window never dirty a leaf -- mirroring
        ``fingerprint_exclude_below`` for the RAM reserved prefix.
    chunk_size, arity:
        Tree geometry.  Geometry is part of any cache key built from
        the root: equal roots imply equal contents only under equal
        geometry.  Device trees always use :data:`DEFAULT_CHUNK_SIZE`
        and :data:`DEFAULT_ARITY`
        (:meth:`~repro.mcu.device.Device.enable_incremental` takes no
        geometry), so every tree of a fleet shares one.

    The tree is lazy: until the first :meth:`root` call nothing is
    hashed and writes are free (everything is dirty anyway).  After a
    build, :meth:`note_write` costs O(covering leaves) set inserts and
    :meth:`root` re-hashes only dirty leaves plus their ancestors.
    """

    __slots__ = ("window_start", "window_size", "chunk_size", "arity",
                 "_levels", "_dirty", "leaf_hashes", "node_hashes",
                 "refreshes", "full_builds")

    def __init__(self, window_start: int, window_size: int, *,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 arity: int = DEFAULT_ARITY):
        if window_start < 0:
            raise ConfigurationError("digest tree window_start negative")
        if window_size <= 0:
            raise ConfigurationError("digest tree needs a positive window")
        if chunk_size <= 0:
            raise ConfigurationError("digest tree chunk_size must be >= 1")
        if arity < 2:
            raise ConfigurationError("digest tree arity must be >= 2")
        self.window_start = window_start
        self.window_size = window_size
        self.chunk_size = chunk_size
        self.arity = arity
        #: level 0 = leaf digests, last level = [root]; ``None`` until
        #: the first :meth:`root` call (or after :meth:`invalidate`).
        self._levels: list[list[bytes]] | None = None
        self._dirty: set[int] = set()
        # Host-side work counters (asserted by smoke gates and reported
        # by the benchmark; never part of simulated accounting).
        self.leaf_hashes = 0
        self.node_hashes = 0
        self.refreshes = 0
        self.full_builds = 0

    # -- geometry ---------------------------------------------------------

    @property
    def leaf_count(self) -> int:
        return (self.window_size + self.chunk_size - 1) // self.chunk_size

    @property
    def built(self) -> bool:
        return self._levels is not None

    @property
    def dirty_leaf_count(self) -> int:
        """Leaves needing a re-hash at the next :meth:`root` (the whole
        window when the tree is not built)."""
        if self._levels is None:
            return self.leaf_count
        return len(self._dirty)

    def covering_leaves(self, offset: int, length: int) -> tuple | None:
        """Inclusive leaf index range covering the region-relative write
        ``[offset, offset + length)`` clipped to the window, or ``None``
        when the write misses the window entirely.  Exact integer
        arithmetic (lint rule FLT001 covers this function)."""
        if length <= 0:
            return None
        start = offset - self.window_start
        end = start + length
        if end <= 0 or start >= self.window_size:
            return None
        if start < 0:
            start = 0
        if end > self.window_size:
            end = self.window_size
        return (start // self.chunk_size, (end - 1) // self.chunk_size)

    # -- write tracking ---------------------------------------------------

    def note_write(self, offset: int, length: int) -> None:
        """Mark the leaves covering a region-relative write dirty.

        Called from :meth:`repro.mcu.memory.MemoryRegion.note_write` on
        every mutation; a no-op while unbuilt (the first :meth:`root`
        hashes everything regardless).
        """
        if self._levels is None:
            return
        span = self.covering_leaves(offset, length)
        if span is None:
            return
        first, last = span
        self._dirty.update(range(first, last + 1))

    def invalidate(self) -> None:
        """Drop all tree state; the next :meth:`root` rebuilds from
        scratch.  Used by snapshot restore, which overwrites region
        bytes without going through ``note_write``."""
        self._levels = None
        self._dirty.clear()

    # -- refresh ----------------------------------------------------------

    def _hash_leaf(self, view: memoryview, index: int) -> bytes:
        lo = index * self.chunk_size
        hi = lo + self.chunk_size
        if hi > self.window_size:
            hi = self.window_size
        self.leaf_hashes += 1
        return hashlib.sha1(view[lo:hi]).digest()

    def _hash_node(self, children: list[bytes], first: int,
                   last: int) -> bytes:
        self.node_hashes += 1
        return hashlib.sha1(b"".join(children[first:last])).digest()

    def _build(self, view: memoryview) -> None:
        leaves = [self._hash_leaf(view, i) for i in range(self.leaf_count)]
        levels = [leaves]
        while len(levels[-1]) > 1:
            below = levels[-1]
            above = [self._hash_node(below, i, min(i + self.arity,
                                                   len(below)))
                     for i in range(0, len(below), self.arity)]
            levels.append(above)
        self._levels = levels
        self._dirty.clear()
        self.full_builds += 1

    def _refresh(self, view: memoryview) -> None:
        levels = self._levels
        dirty = self._dirty
        for index in dirty:
            levels[0][index] = self._hash_leaf(view, index)
        for depth in range(1, len(levels)):
            parents = {index // self.arity for index in dirty}
            below = levels[depth - 1]
            for parent in parents:
                first = parent * self.arity
                levels[depth][parent] = self._hash_node(
                    below, first, min(first + self.arity, len(below)))
            dirty = parents
        self._dirty.clear()

    def root(self, backing) -> bytes:
        """Refresh dirty state and return the 20-byte root digest of the
        window over ``backing`` (the region's full byte buffer).

        Cost: O(window) on the first call or after :meth:`invalidate`;
        O(dirty + log N) afterwards.  Reads ``backing`` through a
        read-only :class:`memoryview` -- zero copies, same as the bulk
        measurement walk.
        """
        view = memoryview(backing).toreadonly()[
            self.window_start:self.window_start + self.window_size]
        if self._levels is None:
            self._build(view)
        elif self._dirty:
            self._refresh(view)
        self.refreshes += 1
        return self._levels[-1][0]

    def leaf_digests(self, backing) -> list[bytes]:
        """Refresh dirty state and return a copy of the leaf-digest row.

        Leaf ``i`` is the SHA-1 of window chunk ``i`` -- its *content
        address*.  Every snapshot of a tree-bearing region records this
        row as the region's chunk-digest index; delta capture diffs it
        against the parent's recorded row to find the changed chunks,
        and keys their payloads by it in the blob store (see
        ``repro.snapshot.delta``).
        Same cost contract as :meth:`root`: O(window) on the first call,
        O(dirty + log N) afterwards.  Not counted as a :attr:`refreshes`
        tick -- snapshot capture is not a measurement.
        """
        view = memoryview(backing).toreadonly()[
            self.window_start:self.window_start + self.window_size]
        if self._levels is None:
            self._build(view)
        elif self._dirty:
            self._refresh(view)
        return list(self._levels[0])

    # -- observability ----------------------------------------------------

    def stats(self) -> dict:
        """JSON-ready host-side work counters."""
        return {"leaf_count": self.leaf_count,
                "built": self.built,
                "dirty_leaves": self.dirty_leaf_count,
                "leaf_hashes": self.leaf_hashes,
                "node_hashes": self.node_hashes,
                "refreshes": self.refreshes,
                "full_builds": self.full_builds}

    def __repr__(self) -> str:
        return (f"DigestTree(window={self.window_start:#x}+"
                f"{self.window_size:#x}, chunk={self.chunk_size}, "
                f"arity={self.arity}, leaves={self.leaf_count}, "
                f"built={self.built})")
