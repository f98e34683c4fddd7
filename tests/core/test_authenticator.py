"""Request authentication schemes: tags, verification, costs."""

import pytest

from repro.core.authenticator import (AesCbcMacAuthenticator,
                                      EcdsaAuthenticator, HmacAuthenticator,
                                      NullAuthenticator,
                                      SpeckCbcMacAuthenticator,
                                      make_symmetric_authenticator)
from repro.crypto.costmodel import CryptoCostModel
from repro.crypto.ecc import SECP160R1, generate_keypair
from repro.crypto.modes import cbc_mac
from repro.crypto.rng import DeterministicRng
from repro.errors import ConfigurationError

KEY = b"k" * 16
PAYLOAD = b"attestation request payload"


@pytest.fixture(scope="module")
def model():
    return CryptoCostModel()


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(SECP160R1, DeterministicRng(b"auth-tests"))


SYMMETRIC = [HmacAuthenticator, AesCbcMacAuthenticator,
             SpeckCbcMacAuthenticator]


class TestSymmetricSchemes:
    @pytest.mark.parametrize("cls", SYMMETRIC)
    def test_roundtrip(self, cls):
        auth = cls(KEY)
        tag = auth.tag(PAYLOAD)
        assert auth.verify(PAYLOAD, tag)

    @pytest.mark.parametrize("cls", SYMMETRIC)
    def test_tampered_payload_fails(self, cls):
        auth = cls(KEY)
        tag = auth.tag(PAYLOAD)
        assert not auth.verify(PAYLOAD + b"x", tag)

    @pytest.mark.parametrize("cls", SYMMETRIC)
    def test_tampered_tag_fails(self, cls):
        auth = cls(KEY)
        tag = bytearray(auth.tag(PAYLOAD))
        tag[0] ^= 1
        assert not auth.verify(PAYLOAD, bytes(tag))

    @pytest.mark.parametrize("cls", SYMMETRIC)
    def test_wrong_key_fails(self, cls):
        tag = cls(KEY).tag(PAYLOAD)
        assert not cls(b"x" * 16).verify(PAYLOAD, tag)

    def test_factory(self):
        for scheme in ("none", "hmac-sha1", "aes-128-cbc-mac",
                       "speck-64/128-cbc-mac"):
            auth = make_symmetric_authenticator(scheme, KEY)
            assert auth.scheme == scheme

    def test_factory_unknown(self):
        with pytest.raises(ConfigurationError):
            make_symmetric_authenticator("enigma", KEY)


class TestNull:
    def test_accepts_anything(self):
        auth = NullAuthenticator()
        assert auth.tag(PAYLOAD) == b""
        assert auth.verify(PAYLOAD, b"")
        assert auth.verify(PAYLOAD, b"garbage")

    def test_zero_cost(self, model):
        assert NullAuthenticator().prover_validation_cycles(model) == 0


class TestEcdsa:
    def test_signer_checker_roundtrip(self, keypair):
        signer = EcdsaAuthenticator.signer(keypair)
        checker = EcdsaAuthenticator.checker(keypair.public)
        tag = signer.tag(PAYLOAD)
        assert checker.verify(PAYLOAD, tag)

    def test_tampered_fails(self, keypair):
        signer = EcdsaAuthenticator.signer(keypair)
        checker = EcdsaAuthenticator.checker(keypair.public)
        assert not checker.verify(PAYLOAD + b"!", signer.tag(PAYLOAD))

    def test_malformed_tag_fails_closed(self, keypair):
        checker = EcdsaAuthenticator.checker(keypair.public)
        assert not checker.verify(PAYLOAD, b"too-short")
        assert not checker.verify(PAYLOAD, bytes(42))

    def test_checker_cannot_sign(self, keypair):
        checker = EcdsaAuthenticator.checker(keypair.public)
        with pytest.raises(ConfigurationError):
            checker.tag(PAYLOAD)

    def test_needs_some_key(self):
        with pytest.raises(ConfigurationError):
            EcdsaAuthenticator()


class TestCbcMacFirstBlock:
    """A CBC-MAC authenticator encrypts a payload length's constant
    first block once: later tags of that length equal the stateless
    :func:`cbc_mac` with one block encryption fewer."""

    @pytest.mark.parametrize("cls", [AesCbcMacAuthenticator,
                                     SpeckCbcMacAuthenticator])
    def test_tags_equal_the_stateless_mac_one_encryption_cheaper(
            self, cls, monkeypatch):
        calls = []
        encrypt = cls.cipher.encrypt_block
        monkeypatch.setattr(cls.cipher, "encrypt_block",
                            lambda cipher, block: calls.append(block)
                            or encrypt(cipher, block))

        def counted(tag, payload):
            calls.clear()
            return tag(payload), len(calls)

        auth, cipher = cls(KEY), cls.cipher(KEY)
        for length in range(41):
            payload = bytes(range(length))
            expected, stateless = counted(lambda p: cbc_mac(cipher, p),
                                          payload)
            assert counted(auth.tag, payload) == (expected, stateless)
            for _ in range(2):
                assert counted(auth.tag, payload) == (expected,
                                                      stateless - 1)

    def test_the_simulated_charge_is_unchanged(self, model):
        auth = SpeckCbcMacAuthenticator(KEY)
        before = auth.prover_validation_cycles(model)
        auth.tag(PAYLOAD)
        auth.tag(PAYLOAD)
        assert auth.prover_validation_cycles(model) == before == \
            model.request_validation_cycles("speck-64/128-cbc-mac")


class TestCostOrdering:
    def test_paper_ordering(self, model, keypair):
        """Speck < AES < HMAC << ECDSA (Section 4.1)."""
        costs = [
            SpeckCbcMacAuthenticator(KEY).prover_validation_cycles(model),
            AesCbcMacAuthenticator(KEY).prover_validation_cycles(model),
            HmacAuthenticator(KEY).prover_validation_cycles(model),
            EcdsaAuthenticator.checker(
                keypair.public).prover_validation_cycles(model),
        ]
        assert costs == sorted(costs)
        assert costs[3] > 100 * costs[2]
