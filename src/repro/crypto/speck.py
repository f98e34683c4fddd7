"""Speck 64/128 lightweight block cipher (Beaulieu et al., 2013).

The paper singles out Speck as the cheapest request-authentication
primitive for a low-end prover: 0.017 ms/block encryption and
0.015 ms/block decryption, versus 0.430 ms for a SHA1-HMAC validation
(Section 4.1, Table 1).  Speck 64/128 has a 64-bit block and a 128-bit
key, 27 rounds, word size 32 bits, rotation constants alpha=8, beta=3.

Reference: "The SIMON and SPECK Families of Lightweight Block Ciphers",
ePrint 2013/404.  The test suite checks the published test vector
(key 1b1a1918 13121110 0b0a0908 03020100, plaintext 3b726574 7475432d,
ciphertext 8c6fa548 454e028b).
"""

from __future__ import annotations

import struct

from ..errors import InvalidBlockError, InvalidKeyError

__all__ = ["Speck64_128", "BLOCK_SIZE", "KEY_SIZE", "ROUNDS"]

BLOCK_SIZE = 8
KEY_SIZE = 16
ROUNDS = 27

_WORD_BITS = 32
_MASK = 0xFFFFFFFF
_ALPHA = 8
_BETA = 3
#: A block is two 32-bit words (x, y), big-endian in print order.
_WORDS = struct.Struct(">2I")


def _ror(x: int, r: int) -> int:
    return ((x >> r) | (x << (_WORD_BITS - r))) & _MASK


def _rol(x: int, r: int) -> int:
    return ((x << r) | (x >> (_WORD_BITS - r))) & _MASK


class Speck64_128:
    """Speck with 64-bit blocks and a 128-bit key.

    >>> key = bytes.fromhex("1b1a1918131211100b0a090803020100")
    >>> cipher = Speck64_128(key)
    >>> cipher.encrypt_block(bytes.fromhex("3b7265747475432d")).hex()
    '8c6fa548454e028b'
    """

    block_size = BLOCK_SIZE
    key_size = KEY_SIZE
    name = "speck-64/128"

    def __init__(self, key: bytes):
        if not isinstance(key, (bytes, bytearray)):
            raise InvalidKeyError("Speck key must be bytes")
        if len(key) != KEY_SIZE:
            raise InvalidKeyError(
                f"Speck 64/128 key must be {KEY_SIZE} bytes, got {len(key)}")
        self._round_keys = self._expand_key(bytes(key))
        self.blocks_encrypted = 0
        self.blocks_decrypted = 0

    @staticmethod
    def _expand_key(key: bytes) -> list[int]:
        """Speck key schedule: 4 key words -> 27 round keys.

        The reference test vector prints the key as four words
        ``l2 l1 l0 k0``; serialising those words big-endian in print order
        yields the 16 key bytes.  The schedule is
        ``l[i+3] = (ror(l[i], alpha) + k[i]) ^ i`` and
        ``k[i+1] = rol(k[i], beta) ^ l[i+3]``.
        """
        l2, l1, l0, k = struct.unpack(">4I", key)
        l = [l0, l1, l2]
        round_keys = [k]
        for i in range(ROUNDS - 1):
            new_l = ((_ror(l[0], _ALPHA) + k) & _MASK) ^ i
            k = _rol(k, _BETA) ^ new_l
            l = l[1:] + [new_l]
            round_keys.append(k)
        return round_keys

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 8-byte block."""
        if len(block) != BLOCK_SIZE:
            raise InvalidBlockError(
                f"Speck block must be {BLOCK_SIZE} bytes, got {len(block)}")
        # Reference vectors print the block as words (x, y), x first;
        # serialising big-endian in print order yields the 8 block bytes.
        # Each round is x = (ror(x, 8) + y) ^ k; y = rol(y, 3) ^ x, with
        # the rotations written out on local ints.
        mask = _MASK
        x, y = _WORDS.unpack(block)
        for k in self._round_keys:
            x = ((((x >> 8) | (x << 24)) + y) & mask) ^ k
            y = (((y << 3) | (y >> 29)) & mask) ^ x
        self.blocks_encrypted += 1
        return _WORDS.pack(x, y)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 8-byte block."""
        if len(block) != BLOCK_SIZE:
            raise InvalidBlockError(
                f"Speck block must be {BLOCK_SIZE} bytes, got {len(block)}")
        # The inverse round: y = ror(y ^ x, 3); x = rol((x ^ k) - y, 8).
        mask = _MASK
        x, y = _WORDS.unpack(block)
        for k in reversed(self._round_keys):
            y ^= x
            y = ((y >> 3) | (y << 29)) & mask
            x = ((x ^ k) - y) & mask
            x = ((x << 8) | (x >> 24)) & mask
        self.blocks_decrypted += 1
        return _WORDS.pack(x, y)
