"""State-digest cache: equivalence contract and content addressing.

A cache hit must be observationally identical to a recompute -- same
digest, same consumed cycles, same energy -- and any mutation of
attested memory (a planted compromise included) must miss the cache and
produce the post-mutation digest.
"""

import pytest

from repro import fastpath
from repro.errors import ConfigurationError
from repro.mcu.device import Device, DeviceConfig, _DATA_OFF
from repro.mcu.statecache import StateDigestCache
from tests.conftest import tiny_config


def booted_device(cache=None, config=None):
    device = Device(config if config is not None else tiny_config())
    device.install_app()
    device.provision(b"statecache-key16")
    device.boot()
    if cache is not None:
        device.attach_state_cache(cache)
    return device


class TestCacheStructure:
    def test_rejects_negative_bound(self):
        with pytest.raises(ConfigurationError):
            StateDigestCache(max_entries=-1)

    def test_zero_bound_is_unbounded(self):
        cache = StateDigestCache(max_entries=0)
        for index in range(1000):
            cache.store((index,), bytes([index % 256]))
        assert len(cache) == 1000
        assert cache.evictions == 0
        assert cache.lookup((0,)) == b"\x00"

    def test_hit_miss_counting_and_eviction(self):
        cache = StateDigestCache(max_entries=2)
        assert cache.lookup(("a",)) is None
        cache.store(("a",), b"A")
        cache.store(("b",), b"B")
        assert cache.lookup(("a",)) == b"A"
        cache.store(("c",), b"C")          # evicts oldest: ("a",)
        assert cache.lookup(("a",)) is None
        assert cache.lookup(("c",)) == b"C"
        assert cache.stats() == {"hits": 2, "misses": 2, "evictions": 1,
                                 "entries": 2, "max_entries": 2}
        cache.clear()
        assert len(cache) == 0

    def test_clear_starts_a_fresh_measurement_epoch(self):
        cache = StateDigestCache(max_entries=2)
        cache.store(("a",), b"A")
        cache.lookup(("a",))
        cache.lookup(("missing",))
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "evictions": 0,
                                 "entries": 0, "max_entries": 2}

    def test_publish_exports_gauges_on_demand(self):
        from repro.obs import Telemetry
        cache = StateDigestCache(max_entries=1)
        cache.store(("a",), b"A")
        cache.store(("b",), b"B")           # evicts ("a",)
        cache.lookup(("b",))
        cache.lookup(("a",))
        telemetry = Telemetry()
        cache.publish(telemetry)
        metrics = {m["name"]: m["value"]
                   for m in telemetry.registry.dump()["metrics"]}
        assert metrics["statecache.hits"] == 1
        assert metrics["statecache.misses"] == 1
        assert metrics["statecache.evictions"] == 1

    def test_reset_stats_keeps_entries(self):
        cache = StateDigestCache(max_entries=2)
        cache.store(("a",), b"A")
        cache.lookup(("a",))
        cache.reset_stats()
        assert cache.stats()["hits"] == 0
        assert cache.lookup(("a",)) == b"A"

    def test_restore_of_existing_key_keeps_fifo_position(self):
        # Re-storing a resident key must neither evict anything nor
        # refresh the key's age: this is FIFO, not LRU.
        cache = StateDigestCache(max_entries=2)
        cache.store(("a",), b"A")
        cache.store(("b",), b"B")
        cache.store(("a",), b"A2")          # update in place, no eviction
        assert cache.lookup(("b",)) == b"B"
        assert cache.lookup(("a",)) == b"A2"
        cache.store(("c",), b"C")           # ("a",) is still the oldest
        assert cache.lookup(("a",)) is None
        assert cache.lookup(("b",)) == b"B"


class TestDigestEquivalence:
    def test_hit_returns_same_digest_cycles_and_energy(self):
        plain = booted_device()
        cached = booted_device(StateDigestCache())
        context = "Code_Attest"

        digests_plain, digests_cached = [], []
        for _ in range(3):
            digests_plain.append(
                plain.digest_writable_memory(plain.context(context)))
            digests_cached.append(
                cached.digest_writable_memory(cached.context(context)))
        assert digests_plain == digests_cached
        assert plain.cpu.cycle_count == cached.cpu.cycle_count
        plain.sync_energy()
        cached.sync_energy()
        assert (plain.battery.consumed_mj == cached.battery.consumed_mj)
        assert cached._state_cache.hits == 2
        assert cached._state_cache.misses == 1

    def test_shared_cache_across_identical_devices(self):
        cache = StateDigestCache()
        first = booted_device(cache)
        second = booted_device(cache)
        context = "Code_Attest"
        a = first.digest_writable_memory(first.context(context))
        b = second.digest_writable_memory(second.context(context))
        assert a == b
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1

    def test_compromise_invalidates_the_cache(self):
        cache = StateDigestCache()
        device = booted_device(cache)
        context = device.context("Code_Attest")
        clean = device.digest_writable_memory(context)
        assert device.digest_writable_memory(context) == clean
        device.flash.load(200, b"\xEB\xFE\x90")     # planted compromise
        dirty = device.digest_writable_memory(context)
        assert dirty != clean
        # clean key, dirty key: two distinct entries, no false hit.
        assert cache.stats()["misses"] == 2
        assert device.digest_writable_memory(context) == dirty

    def test_freshness_prefix_writes_do_not_invalidate(self):
        """counter_R / Clock_MSB / IDT live below _DATA_OFF, outside the
        attested spans -- honest protocol rounds must keep hitting."""
        cache = StateDigestCache()
        device = booted_device(cache)
        context = device.context("Code_Attest")
        clean = device.digest_writable_memory(context)
        device.ram.store(0x40, (123).to_bytes(8, "little"))
        assert device.ram.fingerprint_exclude_below == _DATA_OFF
        assert device.digest_writable_memory(context) == clean
        assert cache.stats()["hits"] == 1

    def test_attested_ram_write_invalidates(self):
        cache = StateDigestCache()
        device = booted_device(cache)
        context = device.context("Code_Attest")
        clean = device.digest_writable_memory(context)
        device.ram.store(_DATA_OFF + 8, b"\xff")
        assert device.digest_writable_memory(context) != clean
        assert cache.stats()["misses"] == 2


class TestEligibilityGating:
    def test_naive_engine_bypasses_the_cache(self):
        cache = StateDigestCache()
        device = booted_device(cache)
        context = device.context("Code_Attest")
        with fastpath.forced("naive"):
            device.digest_writable_memory(context)
            device.digest_writable_memory(context)
        assert cache.stats() == {"hits": 0, "misses": 0, "evictions": 0,
                                 "entries": 0, "max_entries": 256}

    def test_bus_tracers_bypass_the_cache(self):
        cache = StateDigestCache()
        device = booted_device(cache)
        seen = []
        device.bus.add_tracer(
            lambda context, access, address, length: seen.append(access))
        context = device.context("Code_Attest")
        device.digest_writable_memory(context)
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 0

    def test_detached_device_never_consults_a_cache(self):
        device = booted_device()
        context = device.context("Code_Attest")
        assert device._state_cache is None
        assert not device._state_cache_eligible(
            context, device.attested_spans())


class TestFingerprint:
    def test_store_advances_fingerprint(self):
        device = booted_device()
        before = device.ram.content_fingerprint
        device.ram.store(_DATA_OFF + 1, b"\x01")
        assert device.ram.content_fingerprint != before

    def test_excluded_prefix_store_keeps_fingerprint(self):
        device = booted_device()
        before = device.ram.content_fingerprint
        device.ram.store(0, b"\x01")
        assert device.ram.content_fingerprint == before

    def test_straddling_store_is_conservatively_included(self):
        device = booted_device()
        before = device.ram.content_fingerprint
        device.ram.store(_DATA_OFF - 1, b"\x00\x00")
        assert device.ram.content_fingerprint != before

    def test_straddle_boundary_cases_are_pinned(self):
        """The exclude-bound comparison is ``offset + length <= bound``:
        a write *ending exactly at* the bound is excluded, one ending a
        single byte past it is chained.  Pinned because an off-by-one
        here silently serves stale digests for writes that touch the
        first attested byte."""
        device = booted_device()
        before = device.ram.content_fingerprint
        device.ram.store(_DATA_OFF - 2, b"\x00\x00")   # ends at bound
        assert device.ram.content_fingerprint == before
        device.ram.store(_DATA_OFF - 1, b"\x00\x00")   # one byte past
        assert device.ram.content_fingerprint != before

    def test_zero_length_store_is_skipped_uniformly(self):
        """Empty stores mutate nothing: they must advance neither the
        fingerprint chain (two histories differing only by empty writes
        describe identical contents) nor a digest tree, at any offset --
        below, straddling, or above the exclude bound."""
        device = booted_device(StateDigestCache(max_entries=0))
        device.enable_incremental()
        tree = device.ram.digest_tree
        context = device.context("Code_Attest")
        device.digest_writable_memory(context)  # builds the tree
        before = device.ram.content_fingerprint
        for offset in (0, _DATA_OFF - 1, _DATA_OFF, _DATA_OFF + 100):
            device.ram.store(offset, b"")
        assert device.ram.content_fingerprint == before
        assert tree.dirty_leaf_count == 0

    def test_straddling_store_dirties_the_covering_leaf(self):
        """A write straddling the exclude bound touches attested bytes,
        so the digest tree (whose window starts at the bound) must see
        it even though only its tail is inside the window."""
        device = booted_device(StateDigestCache(max_entries=0))
        device.enable_incremental()
        tree = device.ram.digest_tree
        context = device.context("Code_Attest")
        device.digest_writable_memory(context)
        assert tree.dirty_leaf_count == 0
        device.ram.store(_DATA_OFF - 1, b"\x00\x00")
        assert tree.dirty_leaf_count == 1
