"""Content-addressed cache of attested-state digests.

Fleet spin-up and fleet sweeps repeat the same host work N times:
every member's :meth:`~repro.mcu.device.Device.digest_writable_memory`
hashes megabytes of writable memory whose contents are identical across
members (same :class:`~repro.mcu.device.DeviceConfig`, same protection
profile, same firmware image) and unchanged between honest protocol
rounds (the attested spans exclude the volatile freshness words).  The
simulated prover still pays full Table 1 cycle costs each time -- that
is the paper's point -- but the *host* does not have to recompute a hash
it has already computed over byte-identical input.

:class:`StateDigestCache` memoises the digest under a content-addressed
key built from the attested spans and each backing region's write-chain
:attr:`~repro.mcu.memory.MemoryRegion.content_fingerprint`.  Equal keys
imply byte-identical attested contents, so a hit may return the stored
digest without re-reading memory.  Any mutation of attested memory --
including a compromise planted via ``region.load`` -- advances the
fingerprint and forces a recompute, so detection behaviour is unchanged.

Equivalence contract (mirrors :mod:`repro.fastpath`): a cache hit must
be observationally identical to a recompute.  The device therefore

* consults the cache only when the zero-copy bulk walk would be taken
  anyway (fast path enabled, no bus tracers, every span
  :meth:`~repro.mcu.memory.MemoryBus.can_bulk_read`-eligible, so MPU
  arbitration provably passes and no tracer misses an access), and
* replays the exact simulated accounting of a recompute on every hit:
  the same execution context, the same ``sha1_cycles`` charge, the same
  deferred-interrupt servicing.

Sharing one cache across a fleet turns spin-up from O(N * measure) into
O(unique_configs * measure + N * cheap) and removes the per-attestation
hash from sweeps; ``tests/gates/test_fleet.py`` gates both the hit-count
arithmetic and the digest equivalence.

The cache is a host memo, not simulated state: no checkpoint carries
it, and restoring a checkpoint into a device clears the cache attached
to it (the region hook of ``repro.snapshot.device.DEVICE``).  A restored region's
fingerprint comes from the document, so an entry learned before the
restore -- or one a document supplied -- could vouch for bytes that were
never measured; a cold cache learns every digest from restored memory.
"""

from __future__ import annotations

from ..errors import ConfigurationError

__all__ = ["StateDigestCache"]


class StateDigestCache:
    """Bounded FIFO cache mapping state keys to 20-byte digests.

    Keys are the tuples built by ``Device._state_digest_key`` (one
    ``(start, end, region_fingerprint)`` triple per attested span) and,
    when incremental measurement is enabled, the content-addressed
    ``("content", ...)`` keys built from digest-tree roots.
    Insertion-ordered eviction keeps the structure deterministic; the
    ``hits``/``misses``/``evictions`` counters make cache effectiveness
    assertable in tests and smoke gates.

    ``max_entries=0`` selects *unbounded* mode (no eviction) -- the
    right choice for long fleet runs where the working set is the fleet
    size and eviction would silently reintroduce full walks.  Negative
    bounds are rejected.

    Counters can be exported to a telemetry registry with
    :meth:`publish`; publication is explicit and on-demand, never a side
    effect of lookups, so cached and uncached runs produce byte-identical
    registry dumps (the PR 5 equivalence gate).
    """

    __slots__ = ("max_entries", "hits", "misses", "evictions", "_entries")

    def __init__(self, max_entries: int = 256):
        if max_entries < 0:
            raise ConfigurationError(
                "state digest cache bound must be >= 0 (0 = unbounded)")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: dict[tuple, bytes] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple) -> bytes | None:
        """Return the cached digest for ``key``, counting hit or miss."""
        digest = self._entries.get(key)
        if digest is None:
            self.misses += 1
            return None
        self.hits += 1
        return digest

    def store(self, key: tuple, digest: bytes) -> None:
        """Insert ``digest`` under ``key``, evicting the oldest entry
        when full (never evicts in unbounded mode).  A resident key is
        updated in place and keeps its FIFO position."""
        if key in self._entries:
            self._entries[key] = digest
            return
        if self.max_entries and len(self._entries) >= self.max_entries:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.evictions += 1
        self._entries[key] = digest

    def clear(self) -> None:
        """Drop all entries *and* the hit/miss counters.

        A clear starts counting afresh; keeping the old counters
        would skew :meth:`stats` and break any exact hit/miss arithmetic
        gate that spans the clear.  Use :meth:`reset_stats` to zero the
        counters without touching the entries.
        """
        self._entries.clear()
        self.reset_stats()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters, keeping cached entries."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> dict:
        """JSON-ready effectiveness counters."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "max_entries": self.max_entries}

    def publish(self, telemetry) -> None:
        """Export the counters as gauges on a telemetry registry.

        Sets ``statecache.hits`` / ``statecache.misses`` /
        ``statecache.evictions`` (names registered in
        :mod:`repro.obs.schema`).  Explicitly *not* called from
        :meth:`lookup`/:meth:`store`: publication during sweeps would
        make registry dumps differ between cached and uncached runs,
        breaking the equivalence gate.  Call it when a report wants a
        cache snapshot.
        """
        telemetry.set_gauge("statecache.hits", self.hits)
        telemetry.set_gauge("statecache.misses", self.misses)
        telemetry.set_gauge("statecache.evictions", self.evictions)
