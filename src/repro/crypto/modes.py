"""Block-cipher modes of operation: CBC encryption and CBC-MAC.

Section 4.1 of the paper considers CBC-based MACs built from AES-128 and
Speck 64/128 as cheap alternatives to HMAC for authenticating attestation
requests ("Messages are assumed to fit into one block for each
cryptographic primitive").  This module supplies:

* :class:`CBC` -- classic CBC encryption/decryption with PKCS#7 padding,
  used by the secure code-update service (:mod:`repro.services.codeupdate`)
  for payload confidentiality;
* :func:`cbc_mac` -- the fixed-length CBC-MAC the paper implies: the tag is
  the last ciphertext block of a zero-IV CBC encryption.  Plain CBC-MAC is
  only secure for fixed-length messages, which holds here because
  attestation requests have a fixed wire format; the docstring notes the
  caveat for library users.
"""

from __future__ import annotations

from typing import Protocol

from ..errors import InvalidBlockError, PaddingError

__all__ = ["BlockCipher", "CBC", "cbc_mac", "cbc_mac_first_block",
           "pkcs7_pad", "pkcs7_unpad"]


class BlockCipher(Protocol):
    """Structural interface every block cipher in :mod:`repro.crypto` meets."""

    block_size: int

    def encrypt_block(self, block: bytes) -> bytes: ...

    def decrypt_block(self, block: bytes) -> bytes: ...


def pkcs7_pad(data: bytes, block_size: int) -> bytes:
    """Pad ``data`` to a multiple of ``block_size`` per PKCS#7."""
    if not 1 <= block_size <= 255:
        raise ValueError("block_size must be in 1..255")
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len


def pkcs7_unpad(data: bytes, block_size: int) -> bytes:
    """Strip PKCS#7 padding, raising :class:`PaddingError` when malformed."""
    if not data or len(data) % block_size != 0:
        raise PaddingError("padded data length is not a block multiple")
    pad_len = data[-1]
    if pad_len < 1 or pad_len > block_size:
        raise PaddingError(f"invalid padding length byte {pad_len}")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise PaddingError("padding bytes are inconsistent")
    return data[:-pad_len]


def _xor_block(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length blocks as integers."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(
        len(a), "big")


class CBC:
    """Cipher Block Chaining over any :class:`BlockCipher`.

    >>> from repro.crypto.aes import AES128
    >>> mode = CBC(AES128(bytes(16)))
    >>> iv = bytes(16)
    >>> mode.decrypt(iv, mode.encrypt(iv, b"hello world")) == b"hello world"
    True
    """

    def __init__(self, cipher: BlockCipher):
        self._cipher = cipher
        self.block_size = cipher.block_size

    def encrypt(self, iv: bytes, plaintext: bytes) -> bytes:
        """CBC-encrypt ``plaintext`` (PKCS#7-padded) under ``iv``."""
        if len(iv) != self.block_size:
            raise InvalidBlockError(
                f"IV must be {self.block_size} bytes, got {len(iv)}")
        padded = pkcs7_pad(plaintext, self.block_size)
        out = bytearray()
        previous = iv
        for offset in range(0, len(padded), self.block_size):
            block = padded[offset:offset + self.block_size]
            encrypted = self._cipher.encrypt_block(_xor_block(block, previous))
            out.extend(encrypted)
            previous = encrypted
        return bytes(out)

    def decrypt(self, iv: bytes, ciphertext: bytes) -> bytes:
        """CBC-decrypt and unpad ``ciphertext``."""
        if len(iv) != self.block_size:
            raise InvalidBlockError(
                f"IV must be {self.block_size} bytes, got {len(iv)}")
        if len(ciphertext) % self.block_size != 0:
            raise InvalidBlockError("ciphertext is not a block multiple")
        out = bytearray()
        previous = iv
        for offset in range(0, len(ciphertext), self.block_size):
            block = ciphertext[offset:offset + self.block_size]
            out.extend(_xor_block(self._cipher.decrypt_block(block), previous))
            previous = block
        return pkcs7_unpad(bytes(out), self.block_size)


def cbc_mac_first_block(cipher: BlockCipher, length: int) -> bytes:
    """The chaining value after the first block of every ``length``-byte
    message's :func:`cbc_mac`: the encrypted length block (the IV is
    zero).  It depends only on the key and the length, so a holder that
    tags many messages of one length may compute it once."""
    return cipher.encrypt_block(
        length.to_bytes(8, "big").rjust(cipher.block_size, b"\x00"))


def cbc_mac(cipher: BlockCipher, message: bytes,
            first_block: bytes | None = None) -> bytes:
    """Compute the CBC-MAC tag of ``message`` (last ciphertext block, IV=0).

    The message is length-prefix encoded (8-byte big-endian length block
    first) and zero-padded to a block multiple, which makes plain CBC-MAC
    safe for variable-length inputs as well (the prefix-free encoding
    defeats the classic length-extension forgery).  Attestation requests in
    this library have fixed length anyway; the encoding is belt and braces.
    ``first_block`` is :func:`cbc_mac_first_block` of the message length,
    when the caller holds it.
    """
    block_size = cipher.block_size
    state = (cbc_mac_first_block(cipher, len(message))
             if first_block is None else first_block)
    message = bytes(message) + b"\x00" * (-len(message) % block_size)
    for offset in range(0, len(message), block_size):
        block = message[offset:offset + block_size]
        state = cipher.encrypt_block(_xor_block(state, block))
    return state
