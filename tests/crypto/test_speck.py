"""Speck 64/128 against the published test vector and a spec round."""

import random

import pytest

from repro.crypto.speck import BLOCK_SIZE, KEY_SIZE, ROUNDS, Speck64_128
from repro.errors import InvalidBlockError, InvalidKeyError

VEC_KEY = bytes.fromhex("1b1a1918131211100b0a090803020100")
VEC_PT = bytes.fromhex("3b7265747475432d")
VEC_CT = bytes.fromhex("8c6fa548454e028b")


class TestKnownVector:
    def test_encrypt(self):
        assert Speck64_128(VEC_KEY).encrypt_block(VEC_PT) == VEC_CT

    def test_decrypt(self):
        assert Speck64_128(VEC_KEY).decrypt_block(VEC_CT) == VEC_PT


MASK = 0xFFFFFFFF


def spec_ror(x, r):
    return ((x >> r) | (x << (32 - r))) & MASK


def spec_rol(x, r):
    return ((x << r) | (x >> (32 - r))) & MASK


def spec_round(x, y, k):
    """One Speck 64 round as ePrint 2013/404 writes it (alpha 8, beta 3)."""
    x = ((spec_ror(x, 8) + y) & MASK) ^ k
    return x, spec_rol(y, 3) ^ x


def spec_unround(x, y, k):
    y = spec_ror(y ^ x, 3)
    return spec_rol(((x ^ k) - y) & MASK, 8), y


def spec_encrypt(round_keys, block):
    x, y = int.from_bytes(block[:4], "big"), int.from_bytes(block[4:], "big")
    for k in round_keys:
        x, y = spec_round(x, y, k)
    return x.to_bytes(4, "big") + y.to_bytes(4, "big")


def spec_decrypt(round_keys, block):
    x, y = int.from_bytes(block[:4], "big"), int.from_bytes(block[4:], "big")
    for k in reversed(round_keys):
        x, y = spec_unround(x, y, k)
    return x.to_bytes(4, "big") + y.to_bytes(4, "big")


class TestSpecRounds:
    """The inlined rounds agree with the round function as specified."""

    def test_spec_rounds_reproduce_the_vector(self):
        keys = Speck64_128(VEC_KEY)._round_keys
        assert spec_encrypt(keys, VEC_PT) == VEC_CT
        assert spec_decrypt(keys, VEC_CT) == VEC_PT

    @pytest.mark.parametrize("seed", range(4))
    def test_inline_rounds_equal_spec_rounds(self, seed):
        rng = random.Random(seed)
        for _ in range(64):
            cipher = Speck64_128(rng.randbytes(KEY_SIZE))
            block = rng.randbytes(BLOCK_SIZE)
            keys = cipher._round_keys
            assert cipher.encrypt_block(block) == spec_encrypt(keys, block)
            assert cipher.decrypt_block(block) == spec_decrypt(keys, block)

    def test_extreme_words(self):
        cipher = Speck64_128(b"\xff" * KEY_SIZE)
        keys = cipher._round_keys
        for block in (bytes(8), b"\xff" * 8, b"\x80" + bytes(6) + b"\x01"):
            assert cipher.encrypt_block(block) == spec_encrypt(keys, block)
            assert cipher.decrypt_block(block) == spec_decrypt(keys, block)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(10))
    def test_identity(self, seed):
        key = bytes((seed * 13 + i) & 0xFF for i in range(16))
        block = bytes((seed * 29 + i * 5) & 0xFF for i in range(8))
        cipher = Speck64_128(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_key_sensitivity(self):
        block = bytes(8)
        a = Speck64_128(b"A" * 16).encrypt_block(block)
        b = Speck64_128(b"B" * 16).encrypt_block(block)
        assert a != b

    def test_block_sensitivity(self):
        cipher = Speck64_128(bytes(16))
        assert cipher.encrypt_block(bytes(8)) != \
            cipher.encrypt_block(b"\x01" + bytes(7))


class TestValidation:
    def test_bad_key_length(self):
        with pytest.raises(InvalidKeyError):
            Speck64_128(b"x" * 8)

    def test_bad_key_type(self):
        with pytest.raises(InvalidKeyError):
            Speck64_128("not bytes, sixteen")

    def test_bad_block_length(self):
        with pytest.raises(InvalidBlockError):
            Speck64_128(bytes(16)).encrypt_block(bytes(16))

    def test_constants(self):
        assert BLOCK_SIZE == 8
        assert KEY_SIZE == 16
        assert ROUNDS == 27


class TestSchedule:
    def test_round_key_count(self):
        cipher = Speck64_128(VEC_KEY)
        assert len(cipher._round_keys) == ROUNDS

    def test_counters(self):
        cipher = Speck64_128(bytes(16))
        ct = cipher.encrypt_block(bytes(8))
        cipher.decrypt_block(ct)
        cipher.decrypt_block(ct)
        assert cipher.blocks_encrypted == 1
        assert cipher.blocks_decrypted == 2
