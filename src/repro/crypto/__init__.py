"""From-scratch cryptographic primitives and the Table 1 cycle-cost model.

Everything the paper benchmarks in Table 1 is implemented here in pure
Python: SHA-1, HMAC-SHA1, AES-128, Speck 64/128, CBC / CBC-MAC modes, and
secp160r1 ECDSA.  :mod:`repro.crypto.costmodel` calibrates a simulated
cycle cost for each primitive so the MCU simulator charges realistic time
(Siskiyou Peak @ 24 MHz).
"""

from .aes import AES128
from .costmodel import (CryptoCostModel, PrimitiveCosts,
                        REQUEST_MESSAGE_BITS, SISKIYOU_PEAK_COSTS_MS)
from .ecc import (SECP160R1, EccPoint, EcdsaKeyPair, ecdsa_sign,
                  ecdsa_verify, generate_keypair)
from .hmac import (HmacSha1, clear_hmac_midstate_cache,
                   constant_time_compare, hmac_midstate_cache_info,
                   hmac_sha1)
from .kdf import derive_device_key, hkdf, hkdf_expand, hkdf_extract
from .modes import CBC, cbc_mac, pkcs7_pad, pkcs7_unpad
from .rng import DeterministicRng
from .sha1 import SHA1, sha1
from .speck import Speck64_128

__all__ = [
    "AES128", "CBC", "CryptoCostModel", "DeterministicRng", "EccPoint",
    "EcdsaKeyPair", "HmacSha1", "PrimitiveCosts", "REQUEST_MESSAGE_BITS",
    "SECP160R1", "SHA1", "SISKIYOU_PEAK_COSTS_MS", "Speck64_128", "cbc_mac",
    "clear_hmac_midstate_cache", "constant_time_compare",
    "derive_device_key", "ecdsa_sign", "ecdsa_verify", "generate_keypair",
    "hkdf", "hkdf_expand", "hkdf_extract", "hmac_midstate_cache_info",
    "hmac_sha1", "pkcs7_pad", "pkcs7_unpad", "sha1",
]
