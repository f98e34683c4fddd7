"""The two SHA-1 host engines must be indistinguishable by digest
and by simulated accounting.

``naive`` is the from-scratch seed reference and ``accel`` the
hashlib-backed engine (see :mod:`repro.fastpath`); every test here runs
the same absorption pattern under each engine and cross-checks against
``hashlib``.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import fastpath
from repro.crypto.sha1 import BLOCK_SIZE, SHA1

ENGINES = list(fastpath.ENGINES)


def chunked(payload: bytes, cuts: list[int]) -> list[bytes]:
    """Split ``payload`` at the (sorted, de-duplicated) cut offsets."""
    bounds = sorted({min(c, len(payload)) for c in cuts})
    pieces, last = [], 0
    for bound in bounds + [len(payload)]:
        pieces.append(payload[last:bound])
        last = bound
    return pieces


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=40, deadline=None)
@given(data=st.data(),
       payload=st.binary(max_size=4 * BLOCK_SIZE + 17))
def test_chunked_updates_match_hashlib(engine, data, payload):
    """Any split of the message, fed as bytes / bytearray / memoryview
    slices, with copies taken mid-stream, digests like ``hashlib``."""
    cuts = data.draw(st.lists(st.integers(0, len(payload)), max_size=6))
    with fastpath.forced(engine):
        h = SHA1()
        absorbed = b""
        for index, piece in enumerate(chunked(payload, cuts)):
            form = data.draw(st.sampled_from(["bytes", "bytearray",
                                              "memoryview", "view-slice"]),
                             label=f"form[{index}]")
            if form == "bytes":
                h.update(piece)
            elif form == "bytearray":
                h.update(bytearray(piece))
            elif form == "memoryview":
                h.update(memoryview(piece))
            else:
                padded = b"\x00" + piece + b"\xFF"
                h.update(memoryview(padded)[1:1 + len(piece)])
            absorbed += piece
            if data.draw(st.booleans(), label=f"copy[{index}]"):
                clone = h.copy()
                assert clone.digest() == hashlib.sha1(absorbed).digest()
                clone.update(b"divergent")  # must not disturb the original
        assert absorbed == payload
        assert h.digest() == hashlib.sha1(payload).digest()
        assert h.hexdigest() == hashlib.sha1(payload).hexdigest()
        # The object stays usable after digest().
        h.update(b"tail")
        assert h.digest() == hashlib.sha1(payload + b"tail").digest()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("length", [0, 1, 55, 56, 57, 63, 64, 65,
                                    119, 120, 127, 128, 200])
def test_block_accounting_matches_hashlib_derived_counts(engine, length):
    """``blocks_processed`` / ``total_blocks_for_digest`` are arithmetic
    over the absorbed length -- identical under every engine, and equal
    to the hashlib-derived padded-block count either side of the 56-byte
    padding boundary."""
    payload = bytes(range(256))[:0] + (b"\xA5" * length)
    with fastpath.forced(engine):
        h = SHA1()
        # Absorb in uneven chunks so buffering paths are exercised.
        h.update(payload[:7])
        h.update(payload[7:])
        assert h.blocks_processed == length // BLOCK_SIZE
        # A full digest compresses ceil((length + 9) / 64) blocks: the
        # message plus 0x80 plus the 8-byte bit length.
        expected_total = (length + 8) // BLOCK_SIZE + 1
        assert h.total_blocks_for_digest == expected_total
        assert h.digest() == hashlib.sha1(payload).digest()


def test_update_accepts_memoryview_without_copying_semantics():
    """Satellite (a) regression: ``update`` must not coerce views with
    ``bytes(data)`` on the fast paths -- a released/mutated source must
    not corrupt an already-absorbed digest."""
    for engine in ENGINES:
        with fastpath.forced(engine):
            source = bytearray(b"x" * 200)
            h = SHA1()
            h.update(memoryview(source))
            digest = h.copy().digest()
            source[:] = b"y" * 200  # mutate after absorption
            assert h.digest() == digest == hashlib.sha1(b"x" * 200).digest()


def test_update_rejects_non_bytes():
    with pytest.raises(TypeError):
        SHA1().update("not bytes")


class TestEngineSelection:
    def test_set_engine_round_trips(self):
        previous = fastpath.set_engine("naive")
        try:
            assert fastpath.engine() == "naive"
            assert not fastpath.is_fast()
            assert fastpath.set_engine("accel") == "naive"
            assert fastpath.is_fast()
        finally:
            fastpath.set_engine(previous)

    def test_set_engine_rejects_unknown(self):
        with pytest.raises(ValueError):
            fastpath.set_engine("turbo")

    def test_forced_restores_on_exit_and_error(self):
        before = fastpath.engine()
        with fastpath.forced("naive"):
            assert fastpath.engine() == "naive"
        assert fastpath.engine() == before
        with pytest.raises(RuntimeError):
            with fastpath.forced("naive"):
                raise RuntimeError("boom")
        assert fastpath.engine() == before

    @pytest.mark.parametrize("raw,expected", [
        ("0", "naive"), ("off", "naive"), ("no", "naive"),
        ("naive", "naive"), ("1", "accel"), ("pure", "accel"),
        ("2", "accel"), ("on", "accel"), ("", "accel"),
        ("garbage", "accel"),
    ])
    def test_env_aliases(self, monkeypatch, raw, expected):
        monkeypatch.setenv(fastpath._ENV_VAR, raw)
        assert fastpath._from_env() == expected

    def test_mid_stream_engine_switch_is_safe(self):
        """In-flight hash objects keep their construction-time engine."""
        with fastpath.forced("accel"):
            h = SHA1(b"head")
        with fastpath.forced("naive"):
            h.update(b"tail")
            assert h.digest() == hashlib.sha1(b"headtail").digest()
