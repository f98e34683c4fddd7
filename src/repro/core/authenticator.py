"""Request authentication schemes (Section 4.1).

"In order to mitigate bogus attestation requests ... the verifier must
authenticate itself to the prover."  Four concrete schemes from Table 1,
plus the null scheme that models today's unauthenticated protocols:

=========================  ============================  =================
Scheme                     Tag construction               Prover cost
=========================  ============================  =================
``none``                   (no tag)                       0 ms
``speck-64/128-cbc-mac``   Speck CBC-MAC                  0.015 ms
``aes-128-cbc-mac``        AES-128 CBC-MAC                0.288 ms
``hmac-sha1``              HMAC-SHA1                      0.430 ms
``ecdsa-secp160r1``        ECDSA signature                170.907 ms (!)
=========================  ============================  =================

The ECDSA row is the paper's paradox: authenticating a request costs the
prover almost as much as attestation itself, so public-key schemes are
ruled out for low-end provers.

Authenticators are symmetric objects: the verifier calls :meth:`tag`, the
prover calls :meth:`verify`.  For ECDSA the two sides are constructed
differently (signer holds the private key, verifier of the tag -- i.e.
the prover -- holds only the public point).
"""

from __future__ import annotations

from ..crypto.aes import AES128
from ..crypto.costmodel import CryptoCostModel
from ..crypto.ecc import (CurveParams, EccPoint, EcdsaKeyPair, SECP160R1,
                          ecdsa_sign, ecdsa_verify)
from ..crypto.hmac import constant_time_compare, hmac_sha1
from ..crypto.modes import cbc_mac, cbc_mac_first_block
from ..crypto.speck import Speck64_128
from ..errors import ConfigurationError, InvalidSignatureError

__all__ = ["RequestAuthenticator", "NullAuthenticator", "HmacAuthenticator",
           "AesCbcMacAuthenticator", "SpeckCbcMacAuthenticator",
           "EcdsaAuthenticator", "make_symmetric_authenticator"]


class RequestAuthenticator:
    """Interface: produce and check request authentication tags."""

    scheme: str = "abstract"

    def tag(self, payload: bytes) -> bytes:
        """Verifier side: compute the tag over ``payload``."""
        raise NotImplementedError

    def verify(self, payload: bytes, tag: bytes) -> bool:
        """Prover side: check ``tag`` over ``payload``."""
        raise NotImplementedError

    def prover_validation_cycles(self, model: CryptoCostModel) -> int:
        """Simulated cycle cost of one prover-side validation."""
        return model.request_validation_cycles(self.scheme)


class NullAuthenticator(RequestAuthenticator):
    """No authentication: every request is 'valid' (the DoS baseline)."""

    scheme = "none"

    def tag(self, payload: bytes) -> bytes:
        return b""

    def verify(self, payload: bytes, tag: bytes) -> bool:
        return True


class HmacAuthenticator(RequestAuthenticator):
    """HMAC-SHA1 over the request payload under the shared key."""

    scheme = "hmac-sha1"

    def __init__(self, key: bytes):
        self._key = bytes(key)

    def tag(self, payload: bytes) -> bytes:
        return hmac_sha1(self._key, payload)

    def verify(self, payload: bytes, tag: bytes) -> bool:
        return constant_time_compare(self.tag(payload), tag)


class _CbcMacAuthenticator(RequestAuthenticator):
    """CBC-MAC over the request payload under ``cipher(key)``.  The
    first block of a tag depends only on the key and the payload length,
    so the instance keeps it for the last length it tagged: requests
    have one wire length, so it is encrypted once (host-side only: the
    simulated validation charge is the scheme's table cost).  Two plain
    attributes, not a container: a fleet builds two authenticators per
    member, and a container each would cost collector work at set-up."""

    cipher: type

    def __init__(self, key: bytes):
        self._cipher = self.cipher(key)
        self._first_length = -1
        self._first_block = b""

    def tag(self, payload: bytes) -> bytes:
        if len(payload) != self._first_length:
            self._first_length = len(payload)
            self._first_block = cbc_mac_first_block(self._cipher,
                                                    len(payload))
        return cbc_mac(self._cipher, payload, self._first_block)

    def verify(self, payload: bytes, tag: bytes) -> bool:
        return constant_time_compare(self.tag(payload), tag)


class AesCbcMacAuthenticator(_CbcMacAuthenticator):
    """AES-128 CBC-MAC over the request payload."""

    scheme = "aes-128-cbc-mac"
    cipher = AES128


class SpeckCbcMacAuthenticator(_CbcMacAuthenticator):
    """Speck 64/128 CBC-MAC: the paper's cheapest viable scheme."""

    scheme = "speck-64/128-cbc-mac"
    cipher = Speck64_128


class EcdsaAuthenticator(RequestAuthenticator):
    """ECDSA over secp160r1: ruled out by the paper, kept as the baseline.

    Build the verifier side with :meth:`signer` (private key) and the
    prover side with :meth:`checker` (public key only -- stored in the
    prover's "non-malleable memory", Section 4.1).
    """

    scheme = "ecdsa-secp160r1"
    _SIG_BYTES = 21  # per component on secp160r1 (161-bit order)

    def __init__(self, *, keypair: EcdsaKeyPair | None = None,
                 public: EccPoint | None = None,
                 curve: CurveParams = SECP160R1):
        if keypair is None and public is None:
            raise ConfigurationError("EcdsaAuthenticator needs a key")
        self._keypair = keypair
        self._public = keypair.public if keypair is not None else public
        self._curve = curve

    @classmethod
    def signer(cls, keypair: EcdsaKeyPair) -> "EcdsaAuthenticator":
        return cls(keypair=keypair)

    @classmethod
    def checker(cls, public: EccPoint,
                curve: CurveParams = SECP160R1) -> "EcdsaAuthenticator":
        return cls(public=public, curve=curve)

    def tag(self, payload: bytes) -> bytes:
        if self._keypair is None:
            raise ConfigurationError("this side holds no signing key")
        r, s = ecdsa_sign(self._keypair, payload)
        return (r.to_bytes(self._SIG_BYTES, "big")
                + s.to_bytes(self._SIG_BYTES, "big"))

    def verify(self, payload: bytes, tag: bytes) -> bool:
        if len(tag) != 2 * self._SIG_BYTES:
            return False
        r = int.from_bytes(tag[:self._SIG_BYTES], "big")
        s = int.from_bytes(tag[self._SIG_BYTES:], "big")
        try:
            return ecdsa_verify(self._curve, self._public, payload, (r, s))
        except InvalidSignatureError:
            return False


_SYMMETRIC_SCHEMES = {
    "none": lambda key: NullAuthenticator(),
    "hmac-sha1": HmacAuthenticator,
    "aes-128-cbc-mac": AesCbcMacAuthenticator,
    "speck-64/128-cbc-mac": SpeckCbcMacAuthenticator,
}


def make_symmetric_authenticator(scheme: str, key: bytes) -> RequestAuthenticator:
    """Construct a shared-key authenticator by scheme name."""
    try:
        factory = _SYMMETRIC_SCHEMES[scheme]
    except KeyError:
        raise ConfigurationError(
            f"unknown symmetric auth scheme {scheme!r}; choose from "
            f"{sorted(_SYMMETRIC_SCHEMES)}") from None
    return factory(key)
