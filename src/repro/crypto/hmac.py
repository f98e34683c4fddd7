"""HMAC-SHA1 per RFC 2104 (Krawczyk, Bellare, Canetti), from scratch.

This is the prover's attestation MAC in the paper: the response is a
SHA1-HMAC computed over the prover's entire writable memory (Section 3.1),
and the verifier's attestation *requests* may also be authenticated with
the same primitive (Section 4.1, "a SHA-1-based HMAC can be validated in
0.430 ms").

The implementation follows RFC 2104 exactly: ``H(K ^ opad || H(K ^ ipad
|| message))`` with 64-byte block size.  Keys longer than one block are
first hashed; shorter keys are zero-padded.

Host-side midstate cache
------------------------

Every HMAC under key ``K`` starts by absorbing the same two 64-byte
blocks, ``K ^ ipad`` and ``K ^ opad``.  Fleet and flood scenarios build
thousands of :class:`HmacSha1` objects per key, so under the fast-path
engine (:mod:`repro.fastpath`) the SHA-1 states *after* those pad
blocks are cached per key and cloned into each new object instead of
being recomputed.  The cache is LRU-bounded so a fleet of many distinct
device keys cannot grow it without limit, and it is host-side only: the
simulated cycle charges come from :mod:`repro.crypto.costmodel` and are
identical whether or not the cache hits.  (The cache maps raw key bytes
to key-derived hash states, which is fine for a simulator but would be
key-material handling in a real implementation.)
"""

from __future__ import annotations

from collections import OrderedDict

from .. import fastpath
from .sha1 import BLOCK_SIZE, DIGEST_SIZE, SHA1

__all__ = ["HmacSha1", "hmac_sha1", "constant_time_compare",
           "clear_hmac_midstate_cache", "hmac_midstate_cache_info",
           "pin_hmac_midstates", "unpin_hmac_midstates"]

_IPAD = 0x36
_OPAD = 0x5C
#: ``bytes.translate`` tables that XOR every byte with a pad constant.
_IPAD_TABLE = bytes(b ^ _IPAD for b in range(256))
_OPAD_TABLE = bytes(b ^ _OPAD for b in range(256))

#: Upper bound on cached (engine, key) midstate pairs.
HMAC_MIDSTATE_CACHE_MAX = 128

#: key: (engine, padded key) -> (inner prototype, outer prototype); the
#: prototypes are SHA1 objects that have absorbed exactly the pad block,
#: cloned (never mutated) on every hit.
_midstate_cache: "OrderedDict[tuple[str, bytes], tuple[SHA1, SHA1]]" = \
    OrderedDict()
#: Pinned midstates, exempt from the LRU bound.  A fleet of N devices
#: holds N *distinct* keys; with N > HMAC_MIDSTATE_CACHE_MAX a sweep in
#: member order visits keys cyclically -- the worst case for an LRU,
#: which then evicts every entry just before it is needed again.
#: ``pin_hmac_midstates`` batch-primes all fleet keys in one pass and
#: parks them here, so per-member HMAC finalization never recomputes a
#: pad block.  Same host-only caveats as the LRU cache.
_pinned: dict[tuple[str, bytes], tuple[SHA1, SHA1]] = {}
_cache_hits = 0
_cache_misses = 0


def _prepare_key(key: bytes) -> bytes:
    """Normalise ``key`` to exactly one SHA-1 block (64 bytes)."""
    if len(key) > BLOCK_SIZE:
        key = SHA1(key).digest()
    return key.ljust(BLOCK_SIZE, b"\x00")


def _make_midstates(padded: bytes) -> tuple[SHA1, SHA1]:
    return (SHA1(padded.translate(_IPAD_TABLE)),
            SHA1(padded.translate(_OPAD_TABLE)))


def _pad_midstates(padded: bytes) -> tuple[SHA1, SHA1]:
    """Inner/outer SHA-1 prototypes for ``padded`` (64-byte key block):
    pinned entries first, then the per-(engine, key) LRU cache."""
    global _cache_hits, _cache_misses
    cache_key = (fastpath.engine(), padded)
    entry = _pinned.get(cache_key)
    if entry is not None:
        _cache_hits += 1
        return entry
    entry = _midstate_cache.get(cache_key)
    if entry is not None:
        _cache_hits += 1
        _midstate_cache.move_to_end(cache_key)
        return entry
    _cache_misses += 1
    entry = _make_midstates(padded)
    _midstate_cache[cache_key] = entry
    while len(_midstate_cache) > HMAC_MIDSTATE_CACHE_MAX:
        _midstate_cache.popitem(last=False)
    return entry


def pin_hmac_midstates(keys) -> int:
    """Batch-prime and pin the pad midstates for ``keys`` (an iterable
    of raw HMAC keys) under the current engine, in one pass.

    Pinned entries are exempt from the LRU bound, so a fleet sweep over
    more distinct keys than ``HMAC_MIDSTATE_CACHE_MAX`` finalizes every
    member's HMAC from a cloned midstate instead of thrashing the LRU.
    Idempotent -- already-pinned keys are skipped.  Returns the number
    of newly pinned keys.  Host-side only: simulated HMAC cycle charges
    are unchanged.
    """
    engine = fastpath.engine()
    pinned = 0
    for key in keys:
        cache_key = (engine, _prepare_key(bytes(key)))
        if cache_key in _pinned:
            continue
        _pinned[cache_key] = _make_midstates(cache_key[1])
        pinned += 1
    return pinned


def unpin_hmac_midstates() -> None:
    """Release all pinned midstates (the LRU cache is untouched)."""
    _pinned.clear()


def clear_hmac_midstate_cache() -> None:
    """Drop all cached *and pinned* midstates and reset the hit/miss
    counters (benchmarks rely on this making the next construction per
    key genuinely cold)."""
    global _cache_hits, _cache_misses
    _midstate_cache.clear()
    _pinned.clear()
    _cache_hits = 0
    _cache_misses = 0


def hmac_midstate_cache_info() -> dict:
    """Cache statistics (for the wall-clock benchmarks and tests)."""
    return {"size": len(_midstate_cache),
            "max_size": HMAC_MIDSTATE_CACHE_MAX,
            "pinned": len(_pinned),
            "hits": _cache_hits,
            "misses": _cache_misses}


class HmacSha1:
    """Incremental HMAC-SHA1 object.

    >>> HmacSha1(b"key", b"The quick brown fox jumps over the lazy dog"
    ...          ).hexdigest()
    'de7c9b85b8b78aa6bc8a7a36f70a90701c9db4d9'
    """

    digest_size = DIGEST_SIZE
    block_size = BLOCK_SIZE

    def __init__(self, key: bytes, data: bytes = b""):
        if not isinstance(key, (bytes, bytearray)):
            raise TypeError("HMAC key must be bytes")
        padded = _prepare_key(bytes(key))
        if fastpath.is_fast():
            inner_proto, outer_proto = _pad_midstates(padded)
            self._inner = inner_proto.copy()
            self._outer_proto: SHA1 | None = outer_proto
            self._outer_key: bytes | None = None
        else:
            self._inner = SHA1(padded.translate(_IPAD_TABLE))
            self._outer_proto = None
            self._outer_key = padded.translate(_OPAD_TABLE)
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        """Absorb message ``data``."""
        self._inner.update(data)

    def copy(self) -> "HmacSha1":
        clone = HmacSha1.__new__(HmacSha1)
        clone._inner = self._inner.copy()
        clone._outer_proto = self._outer_proto
        clone._outer_key = self._outer_key
        return clone

    def digest(self) -> bytes:
        """Return the 20-byte HMAC tag."""
        if self._outer_proto is not None:
            outer = self._outer_proto.copy()
        else:
            outer = SHA1(self._outer_key)
        outer.update(self._inner.digest())
        return outer.digest()

    def hexdigest(self) -> str:
        return self.digest().hex()

    @property
    def blocks_processed(self) -> int:
        """Blocks absorbed by the inner hash so far (the ipad key block
        plus full message blocks; excludes finalise/outer blocks)."""
        return self._inner.blocks_processed

    @staticmethod
    def total_compressions(message_length: int) -> int:
        """Exact number of SHA-1 compression calls for a one-shot HMAC.

        Inner hash: 1 key block + the padded message blocks; outer hash:
        1 key block + 1 block holding the 20-byte inner digest.  For the
        paper's 512 KB example this yields 1 + 8193 + 2 = 8196 compressions,
        and 8196 * 0.092 ms = 754.032 ms -- exactly the figure in
        Section 3.1.  See :mod:`repro.crypto.costmodel`.

        This count is *simulated* work: the cost model charges it no
        matter which host engine ran the hash or whether the midstate
        cache hit.
        """
        if message_length < 0:
            raise ValueError("message_length must be non-negative")
        inner_payload = BLOCK_SIZE + message_length  # ipad block + message
        remainder = inner_payload % BLOCK_SIZE
        inner_blocks = inner_payload // BLOCK_SIZE + (1 if remainder < 56 else 2)
        outer_blocks = 2  # opad block + (20-byte digest + padding)
        return inner_blocks + outer_blocks


def hmac_sha1(key: bytes, message: bytes) -> bytes:
    """One-shot HMAC-SHA1 tag of ``message`` under ``key``."""
    return HmacSha1(key, message).digest()


def constant_time_compare(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without early exit on mismatch.

    Prevents timing side channels when the prover validates a request MAC.
    Length differences still return ``False``, but only after scanning the
    shorter input.
    """
    if not isinstance(a, (bytes, bytearray)) or not isinstance(b, (bytes, bytearray)):
        raise TypeError("constant_time_compare expects bytes")
    result = len(a) ^ len(b)
    for x, y in zip(a, b):
        result |= x ^ y
    return result == 0
