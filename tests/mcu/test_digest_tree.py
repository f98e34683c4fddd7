"""Digest-tree properties: incremental refresh == from-scratch rebuild.

Two layers of the incremental-measurement contract
(``docs/performance.md``):

* :class:`repro.incremental.DigestTree` alone -- for ANY geometry and
  ANY write sequence, the incrementally refreshed root must equal the
  root a fresh tree computes over the same final bytes (content
  addressing cannot depend on history), and only covering leaves may be
  re-hashed;
* the device path -- incremental measurement must be byte-identical to
  the full walk in digest, consumed cycles and energy for arbitrary
  attested-memory mutations.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.incremental import DigestTree
from repro.mcu.device import Device, _DATA_OFF
from repro.mcu.statecache import StateDigestCache
from tests.conftest import tiny_config


def fresh_root(backing, window_start, window_size, chunk_size, arity):
    """Reference: from-scratch tree over the same bytes."""
    return DigestTree(window_start, window_size, chunk_size=chunk_size,
                      arity=arity).root(backing)


geometries = st.tuples(
    st.integers(min_value=0, max_value=64),      # window_start
    st.integers(min_value=1, max_value=1500),    # window_size
    st.integers(min_value=1, max_value=257),     # chunk_size
    st.integers(min_value=2, max_value=17))      # arity

writes = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1600),
              st.binary(min_size=0, max_size=300)),
    max_size=12)


class TestTreeProperties:
    @settings(max_examples=60, deadline=None)
    @given(geometry=geometries, sequence=writes,
           probe_points=st.lists(st.integers(min_value=0, max_value=11),
                                 max_size=3))
    def test_refreshed_root_equals_rebuild(self, geometry, sequence,
                                           probe_points):
        """Interleave writes with root probes at arbitrary points: after
        every probe the incrementally maintained root must equal a
        from-scratch rebuild over the final bytes."""
        window_start, window_size, chunk_size, arity = geometry
        backing = bytearray(window_start + window_size + 64)
        tree = DigestTree(window_start, window_size,
                          chunk_size=chunk_size, arity=arity)
        tree.root(backing)  # build so note_write tracking is live
        for step, (offset, data) in enumerate(sequence):
            offset = min(offset, len(backing) - len(data))
            backing[offset:offset + len(data)] = data
            tree.note_write(offset, len(data))
            if step in probe_points:
                assert tree.root(backing) == fresh_root(
                    bytes(backing), *geometry)
        assert tree.root(backing) == fresh_root(bytes(backing), *geometry)
        assert tree.dirty_leaf_count == 0

    @settings(max_examples=60, deadline=None)
    @given(geometry=geometries,
           offset=st.integers(min_value=0, max_value=1600),
           length=st.integers(min_value=0, max_value=400))
    def test_covering_leaves_matches_bruteforce(self, geometry, offset,
                                                length):
        window_start, window_size, chunk_size, arity = geometry
        tree = DigestTree(window_start, window_size,
                          chunk_size=chunk_size, arity=arity)
        covered = {
            (position - window_start) // chunk_size
            for position in range(offset, offset + length)
            if window_start <= position < window_start + window_size}
        span = tree.covering_leaves(offset, length)
        if span is None:
            assert covered == set()
        else:
            first, last = span
            assert covered == set(range(first, last + 1))

    @settings(max_examples=40, deadline=None)
    @given(geometry=geometries, sequence=writes)
    def test_refresh_rehashes_only_dirty_leaves(self, geometry, sequence):
        """The refresh cost claim: leaf hashes after a build grow by at
        most the number of distinct dirtied leaves per probe."""
        window_start, window_size, chunk_size, arity = geometry
        backing = bytearray(window_start + window_size + 64)
        tree = DigestTree(window_start, window_size,
                          chunk_size=chunk_size, arity=arity)
        tree.root(backing)
        baseline = tree.leaf_hashes
        assert baseline == tree.leaf_count
        dirtied = set()
        for offset, data in sequence:
            offset = min(offset, len(backing) - len(data))
            backing[offset:offset + len(data)] = data
            tree.note_write(offset, len(data))
            span = tree.covering_leaves(offset, len(data))
            if span is not None:
                dirtied.update(range(span[0], span[1] + 1))
        assert tree.dirty_leaf_count == len(dirtied)
        tree.root(backing)
        assert tree.leaf_hashes == baseline + len(dirtied)


class TestTreeUnit:
    def test_geometry_validation(self):
        for kwargs in ({"window_start": -1, "window_size": 8},
                       {"window_start": 0, "window_size": 0},
                       {"window_start": 0, "window_size": 8,
                        "chunk_size": 0},
                       {"window_start": 0, "window_size": 8, "arity": 1}):
            with pytest.raises(ConfigurationError):
                DigestTree(**kwargs)

    def test_lazy_until_first_root(self):
        tree = DigestTree(0, 100, chunk_size=10)
        assert not tree.built
        assert tree.dirty_leaf_count == tree.leaf_count == 10
        tree.note_write(0, 5)  # no-op while unbuilt
        assert tree.leaf_hashes == 0
        tree.root(bytes(100))
        assert tree.built
        assert tree.leaf_hashes == 10

    def test_invalidate_forces_full_rebuild(self):
        backing = bytearray(64)
        tree = DigestTree(0, 64, chunk_size=16)
        clean = tree.root(backing)
        # Snapshot-restore path: bytes change without note_write.
        backing[20] = 0xEB
        assert tree.root(backing) == clean  # stale by design...
        tree.invalidate()
        assert tree.root(backing) != clean  # ...until invalidated
        assert tree.full_builds == 2

    def test_writes_outside_window_never_dirty(self):
        tree = DigestTree(32, 64, chunk_size=16)
        tree.root(bytes(128))
        tree.note_write(0, 32)    # entirely below the window
        tree.note_write(96, 10)   # entirely above the window
        tree.note_write(5, 0)     # zero length
        assert tree.dirty_leaf_count == 0
        tree.note_write(30, 4)    # straddles the window start
        assert tree.dirty_leaf_count == 1


def booted_device(cache=None):
    device = Device(tiny_config())
    device.install_app()
    device.provision(b"digest-tree-k16!")
    device.boot()
    if cache is not None:
        device.attach_state_cache(cache)
    return device


device_writes = st.lists(
    st.tuples(st.sampled_from(["ram", "flash"]),
              st.integers(min_value=0, max_value=4000),
              st.binary(min_size=1, max_size=200)),
    min_size=1, max_size=6)


class TestDeviceEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(sequence=device_writes, rewrite_history=st.booleans())
    def test_incremental_equals_full_walk(self, sequence, rewrite_history):
        """Arbitrary mutations, then measurement: the incremental device
        (trees + two-level cache) must match a plain device byte for
        byte in digest, consumed cycles and energy.  With
        ``rewrite_history`` the same bytes are also re-stored in reverse
        order first, so the content key (not the history key) serves the
        final hit."""
        plain = booted_device()
        incremental = booted_device(StateDigestCache(max_entries=0))
        incremental.enable_incremental()
        for device in (plain, incremental):
            context = device.context("Code_Attest")
            for name, offset, data in sequence:
                region = getattr(device, name)
                offset = min(offset, region.size - len(data))
                region.load(offset, data)
            if rewrite_history:
                for name, offset, data in reversed(sequence):
                    region = getattr(device, name)
                    offset = min(offset, region.size - len(data))
                    region.load(offset, data)
            device.digest_writable_memory(context)  # prime the cache
            for name, offset, data in sequence:
                region = getattr(device, name)
                offset = min(offset, region.size - len(data))
                region.load(offset, data)  # same bytes, new history
            device.sync_energy()
        plain_ctx = plain.context("Code_Attest")
        incr_ctx = incremental.context("Code_Attest")
        results = []
        for device, context in ((plain, plain_ctx),
                                (incremental, incr_ctx)):
            digest = device.digest_writable_memory(context)
            device.sync_energy()
            results.append((digest, device.cpu.cycle_count,
                            device.battery.consumed_mj))
        assert results[0] == results[1]

    def test_content_key_hits_across_write_histories(self):
        """The PR 5 gap this PR closes, as a deterministic case: same
        final bytes via a different write order must hit via the content
        key and skip the full walk."""
        cache = StateDigestCache(max_entries=0)
        device = booted_device(cache)
        device.enable_incremental()
        context = device.context("Code_Attest")
        device.digest_writable_memory(context)
        chunks = [(0, b"A" * 64), (64, b"B" * 64)]
        for offset, data in chunks:
            device.ram.load(_DATA_OFF + offset, data)
        first = device.digest_writable_memory(context)
        tree_hashes = device.ram.digest_tree.leaf_hashes
        for offset, data in reversed(chunks):  # same bytes, new history
            device.ram.load(_DATA_OFF + offset, data)
        assert device.digest_writable_memory(context) == first
        # The second measurement refreshed the tree (one dirty leaf
        # range) but never paid a full walk: the content key hit.
        stats = cache.stats()
        assert stats["hits"] >= 1
        assert device.ram.digest_tree.leaf_hashes > tree_hashes
        assert device.ram.digest_tree.full_builds == 1
