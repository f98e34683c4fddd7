"""CBC mode, PKCS#7 padding, and CBC-MAC behaviour."""

import pytest

from repro.crypto.aes import AES128
from repro.crypto.modes import CBC, cbc_mac, pkcs7_pad, pkcs7_unpad
from repro.crypto.speck import Speck64_128
from repro.errors import InvalidBlockError, PaddingError


class TestPkcs7:
    @pytest.mark.parametrize("length", range(0, 33))
    def test_roundtrip(self, length):
        data = bytes(range(length % 256))[:length]
        padded = pkcs7_pad(data, 16)
        assert len(padded) % 16 == 0
        assert pkcs7_unpad(padded, 16) == data

    def test_full_block_message_gets_full_pad_block(self):
        padded = pkcs7_pad(b"x" * 16, 16)
        assert len(padded) == 32
        assert padded[-1] == 16

    def test_unpad_rejects_zero_pad_byte(self):
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"x" * 15 + b"\x00", 16)

    def test_unpad_rejects_oversized_pad_byte(self):
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"x" * 15 + b"\x11", 16)

    def test_unpad_rejects_inconsistent_padding(self):
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"x" * 13 + b"\x01\x02\x03", 16)

    def test_unpad_rejects_non_multiple(self):
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"x" * 15, 16)

    def test_unpad_rejects_empty(self):
        with pytest.raises(PaddingError):
            pkcs7_unpad(b"", 16)

    def test_pad_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            pkcs7_pad(b"x", 0)


class TestCbc:
    @pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 100, 1000])
    def test_roundtrip_aes(self, length):
        mode = CBC(AES128(b"k" * 16))
        iv = bytes(range(16))
        data = bytes((i * 3) & 0xFF for i in range(length))
        assert mode.decrypt(iv, mode.encrypt(iv, data)) == data

    @pytest.mark.parametrize("length", [0, 7, 8, 9, 50])
    def test_roundtrip_speck(self, length):
        mode = CBC(Speck64_128(b"k" * 16))
        iv = bytes(8)
        data = b"z" * length
        assert mode.decrypt(iv, mode.encrypt(iv, data)) == data

    def test_iv_changes_ciphertext(self):
        mode = CBC(AES128(b"k" * 16))
        data = b"identical plaintext content"
        assert mode.encrypt(bytes(16), data) != \
            mode.encrypt(b"\x01" * 16, data)

    def test_chaining_propagates(self):
        """Equal plaintext blocks must produce distinct ciphertext blocks."""
        mode = CBC(AES128(b"k" * 16))
        ct = mode.encrypt(bytes(16), bytes(32))
        assert ct[:16] != ct[16:32]

    def test_bad_iv_length(self):
        mode = CBC(AES128(b"k" * 16))
        with pytest.raises(InvalidBlockError):
            mode.encrypt(bytes(8), b"data")

    def test_decrypt_rejects_ragged_ciphertext(self):
        mode = CBC(AES128(b"k" * 16))
        with pytest.raises(InvalidBlockError):
            mode.decrypt(bytes(16), b"x" * 17)

    def test_tampered_ciphertext_breaks_padding_or_content(self):
        mode = CBC(AES128(b"k" * 16))
        iv = bytes(16)
        ct = bytearray(mode.encrypt(iv, b"attack at dawn"))
        ct[-1] ^= 0xFF
        try:
            recovered = mode.decrypt(iv, bytes(ct))
        except PaddingError:
            return
        assert recovered != b"attack at dawn"


def reference_cbc_encrypt(cipher, iv, plaintext):
    """CBC over a bytewise XOR, block by block."""
    padded = pkcs7_pad(plaintext, cipher.block_size)
    out, previous = b"", iv
    for offset in range(0, len(padded), cipher.block_size):
        block = padded[offset:offset + cipher.block_size]
        previous = cipher.encrypt_block(
            bytes(a ^ b for a, b in zip(block, previous)))
        out += previous
    return out


def reference_cbc_mac(cipher, message):
    size = cipher.block_size
    encoded = len(message).to_bytes(8, "big").rjust(size, b"\x00") + message
    encoded += b"\x00" * (-len(encoded) % size)
    state = bytes(size)
    for offset in range(0, len(encoded), size):
        state = cipher.encrypt_block(bytes(
            a ^ b for a, b in zip(state, encoded[offset:offset + size])))
    return state


@pytest.mark.parametrize("cipher", [AES128(b"k" * 16),
                                    Speck64_128(b"k" * 16)],
                         ids=["aes", "speck"])
class TestAgainstReferenceLoop:
    def test_cbc(self, cipher):
        iv = bytes(range(1, cipher.block_size + 1))
        for length in range(41):
            data = bytes((i * 7 + length) & 0xFF for i in range(length))
            ciphertext = CBC(cipher).encrypt(iv, data)
            assert ciphertext == reference_cbc_encrypt(cipher, iv, data)
            assert CBC(cipher).decrypt(iv, ciphertext) == data

    def test_cbc_mac(self, cipher):
        for length in range(41):
            data = bytes((i * 11 + length) & 0xFF for i in range(length))
            assert cbc_mac(cipher, data) == reference_cbc_mac(cipher, data)


class TestCbcMac:
    def test_deterministic(self):
        assert cbc_mac(AES128(b"k" * 16), b"message") == \
            cbc_mac(AES128(b"k" * 16), b"message")

    def test_message_sensitivity(self):
        cipher = AES128(b"k" * 16)
        assert cbc_mac(cipher, b"message-a") != cbc_mac(cipher, b"message-b")

    def test_key_sensitivity(self):
        assert cbc_mac(AES128(b"a" * 16), b"m") != \
            cbc_mac(AES128(b"b" * 16), b"m")

    def test_tag_length_is_block_size(self):
        assert len(cbc_mac(AES128(b"k" * 16), b"m")) == 16
        assert len(cbc_mac(Speck64_128(b"k" * 16), b"m")) == 8

    def test_length_prefix_blocks_extension_shape(self):
        """Messages that are prefixes of each other yield unrelated tags."""
        cipher = AES128(b"k" * 16)
        assert cbc_mac(cipher, b"") != cbc_mac(cipher, b"\x00" * 16)

    def test_empty_message(self):
        assert len(cbc_mac(AES128(b"k" * 16), b"")) == 16
