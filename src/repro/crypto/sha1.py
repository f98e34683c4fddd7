"""Pure-Python SHA-1, implemented from the FIPS 180-4 specification.

The paper's prover computes a SHA1-HMAC over its entire writable memory
(Section 3.1), so SHA-1 is the workhorse primitive of the whole system.
The compression function is written from scratch (no ``hashlib``) so that
the simulated MCU genuinely executes it; the test suite cross-checks
digests against ``hashlib.sha1``.

Because the simulator re-executes the 512 KB measurement for every
attestation in every flood / fleet / ablation scenario, the *host* cost
of this module dominates experiment wall-clock.  Two execution engines
are therefore provided (selected by :mod:`repro.fastpath`; both are
digest- and accounting-identical):

``naive``
    The reference: one from-scratch :func:`_compress` call per 64-byte
    block, with the seed's copying ``update``.
``accel``
    Bulk compression delegated to ``hashlib.sha1`` (the same FIPS 180-4
    function at C speed), fed zero-copy from ``memoryview`` input.  The
    from-scratch core remains the reference implementation the
    accelerated digests are tested against.

The incremental API mirrors ``hashlib``: :meth:`SHA1.update`,
:meth:`SHA1.digest`, :meth:`SHA1.hexdigest`, :meth:`SHA1.copy`.  The
module also tracks how many 64-byte blocks were compressed
(:attr:`SHA1.blocks_processed`), which the MCU cycle-cost model uses to
charge simulated time (Table 1: 0.092 ms per block + 0.340 ms fixed);
that accounting is arithmetic over absorbed lengths and is identical
under every engine.
"""

from __future__ import annotations

import hashlib
import struct

from .. import fastpath

__all__ = ["SHA1", "sha1", "BLOCK_SIZE", "DIGEST_SIZE"]

BLOCK_SIZE = 64
DIGEST_SIZE = 20

_MASK32 = 0xFFFFFFFF

# FIPS 180-4 section 5.3.1: initial hash value.
_H0 = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)

# FIPS 180-4 section 4.2.1: round constants.
_K = (0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xCA62C1D6)


def _rotl(value: int, amount: int) -> int:
    """Rotate a 32-bit ``value`` left by ``amount`` bits."""
    return ((value << amount) | (value >> (32 - amount))) & _MASK32


def _compress(state: tuple[int, int, int, int, int],
              block: bytes) -> tuple[int, int, int, int, int]:
    """Apply the SHA-1 compression function to one 64-byte ``block``.

    This is the reference implementation, straight off the FIPS 180-4
    pseudocode; the ``naive`` engine runs it for every block.
    """
    w = list(struct.unpack(">16I", block))
    for t in range(16, 80):
        w.append(_rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1))

    a, b, c, d, e = state
    for t in range(80):
        if t < 20:
            f = (b & c) | (~b & d)
            k = _K[0]
        elif t < 40:
            f = b ^ c ^ d
            k = _K[1]
        elif t < 60:
            f = (b & c) | (b & d) | (c & d)
            k = _K[2]
        else:
            f = b ^ c ^ d
            k = _K[3]
        temp = (_rotl(a, 5) + f + e + k + w[t]) & _MASK32
        e = d
        d = c
        c = _rotl(b, 30)
        b = a
        a = temp

    return (
        (state[0] + a) & _MASK32,
        (state[1] + b) & _MASK32,
        (state[2] + c) & _MASK32,
        (state[3] + d) & _MASK32,
        (state[4] + e) & _MASK32,
    )


def _as_byte_view(data) -> memoryview:
    """A flat byte ``memoryview`` of ``data`` without copying."""
    view = data if isinstance(data, memoryview) else memoryview(data)
    if view.itemsize != 1 or view.ndim != 1:
        view = view.cast("B")
    return view


class SHA1:
    """Incremental SHA-1 hash object (API-compatible subset of ``hashlib``).

    >>> SHA1(b"abc").hexdigest()
    'a9993e364706816aba3e25717850c26c9cd0d89d'
    """

    name = "sha1"
    block_size = BLOCK_SIZE
    digest_size = DIGEST_SIZE

    def __init__(self, data: bytes = b""):
        self._engine = fastpath.engine()
        self._state = _H0
        self._buffer = b""
        self._length = 0  # total message length in bytes
        self.blocks_processed = 0
        self._hl = hashlib.sha1() if self._engine == "accel" else None
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        """Absorb ``data`` into the hash state."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(f"expected bytes-like, got {type(data).__name__}")
        if self._engine == "accel":
            view = _as_byte_view(data)
            self._length += view.nbytes
            self._hl.update(view)
            # Full blocks are compressed eagerly, the tail is buffered:
            # the running count is pure arithmetic over absorbed length.
            self.blocks_processed = self._length // BLOCK_SIZE
            return
        # naive: the seed implementation, kept verbatim as the baseline
        # the accel engine is benchmarked and equivalence-tested against.
        data = bytes(data)
        self._length += len(data)
        buf = self._buffer + data
        offset = 0
        while len(buf) - offset >= BLOCK_SIZE:
            self._state = _compress(self._state, buf[offset:offset + BLOCK_SIZE])
            self.blocks_processed += 1
            offset += BLOCK_SIZE
        self._buffer = buf[offset:]

    def copy(self) -> "SHA1":
        """Return an independent clone of the current hash state."""
        clone = SHA1.__new__(SHA1)
        clone._engine = self._engine
        clone._state = self._state
        clone._buffer = self._buffer
        clone._length = self._length
        clone.blocks_processed = self.blocks_processed
        clone._hl = self._hl.copy() if self._hl is not None else None
        return clone

    def digest(self) -> bytes:
        """Return the 20-byte digest of all data absorbed so far."""
        if self._engine == "accel":
            # hashlib finalises a copy internally; the object stays
            # usable for further updates, same as the naive path below.
            return self._hl.digest()
        # Pad a copy so the object remains usable for further updates.
        state = self._state
        bit_length = self._length * 8
        padded = self._buffer + b"\x80"
        pad_len = (56 - len(padded)) % BLOCK_SIZE
        padded += b"\x00" * pad_len + struct.pack(">Q", bit_length)
        for offset in range(0, len(padded), BLOCK_SIZE):
            state = _compress(state, padded[offset:offset + BLOCK_SIZE])
        return struct.pack(">5I", *state)

    def hexdigest(self) -> str:
        """Return the digest as a lowercase hex string."""
        return self.digest().hex()

    @property
    def total_blocks_for_digest(self) -> int:
        """Number of compression-function calls a full digest of the current
        message requires, including padding blocks.

        Used by the cycle-cost model: the per-block cost in Table 1 applies
        to every compression, and padding may add one extra block.
        """
        remainder = self._length % BLOCK_SIZE
        # 1 byte of 0x80 plus 8 length bytes must fit after the remainder.
        tail_blocks = 1 if remainder < 56 else 2
        return self._length // BLOCK_SIZE + tail_blocks


def sha1(data: bytes = b"") -> SHA1:
    """Convenience constructor, mirroring ``hashlib.sha1``."""
    return SHA1(data)
