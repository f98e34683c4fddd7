"""Parallel fleet sweeps are byte-identical to the sequential seed path.

The property at the heart of ``repro.perf.fleet``: for ANY fleet size,
shard count, fault pipeline and retry policy, sharding the fleet across
worker processes (with per-shard digest caches) and merging in shard
order must reproduce the sequential ``Swarm`` transcript exactly --
``SweepReport`` fields, circuit-breaker states, merged telemetry
counters and merged event traces.

The hypothesis suite drives the in-process shard primitive
(``member_indices`` + ``fold_outcomes``) so randomized cases stay fast;
the process-pool path itself is covered by the
:class:`~repro.perf.fleet.FleetEngine` tests below and by
``tests/gates/test_fleet.py``.
"""

import json
import os
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.resilience import JITTERED_RETRY, RetryPolicy
from repro.mcu.device import DeviceConfig
from repro.mcu.statecache import StateDigestCache
from repro.net.faults import lossy_link
from repro.perf.fleet import (FleetEngine, FleetSpec, default_equivalence_spec,
                              equivalence_check, partition)
from repro.services.swarm import (MemberSweepOutcome, Swarm, fold_outcomes)
from tests.conftest import tiny_config


def small_config() -> DeviceConfig:
    return tiny_config()


PLAIN_RETRY = RetryPolicy(attempt_timeout_seconds=5.0, max_retries=1)


def build_fleet(size, *, indices=None, retry=None, faults=False,
                cached=False, seed="fleet-prop"):
    return Swarm(size if indices is None else len(indices),
                 device_config=small_config(),
                 member_indices=indices, retry=retry,
                 adversary_factory=lossy_link if faults else None,
                 observe=True,
                 state_cache=StateDigestCache() if cached else None,
                 seed=seed)


def sharded_sweep(size, shards, *, retry, faults, sweeps, stagger):
    """Sweep a fleet split into cached shards; return merged views."""
    blocks = partition(size, shards)
    swarms = [build_fleet(size, indices=tuple(block), retry=retry,
                          faults=faults, cached=True)
              for block in blocks]
    reports = []
    for _ in range(sweeps):
        outcomes = []
        for swarm in swarms:
            outcomes.extend(swarm.sweep_outcomes(stagger_seconds=stagger))
        reports.append(fold_outcomes(outcomes))
    states = {}
    for swarm in swarms:
        states.update(swarm.device_states())
    # Shard pre-merge: each shard folds its own members and ships one
    # dump, exactly like FleetEngine.merged_registry folds them.
    from repro.obs.registry import MetricsRegistry
    registry = MetricsRegistry()
    for swarm in swarms:
        registry.merge(MetricsRegistry.from_dump(
            swarm.merged_registry().dump()))
    # Shards ship sweep-major segments; the host interleaves them sweep
    # by sweep, exactly like FleetEngine.merged_trace_records.
    records = []
    for row in zip_longest(*[swarm.trace_segments() for swarm in swarms],
                           fillvalue=[]):
        for segment in row:
            for record in segment:
                record["seq"] = len(records)
                records.append(record)
    total = sum(swarm.total_attestations() for swarm in swarms)
    return reports, states, registry.dump(), records, total


@settings(max_examples=12, deadline=None)
@given(size=st.integers(min_value=2, max_value=7),
       shards=st.integers(min_value=2, max_value=4),
       retry=st.sampled_from([None, PLAIN_RETRY, JITTERED_RETRY]),
       faults=st.booleans(),
       sweeps=st.integers(min_value=1, max_value=3),
       stagger=st.sampled_from([0.0, 0.5]))
def test_sharded_equals_sequential(size, shards, retry, faults, sweeps,
                                   stagger):
    sequential = build_fleet(size, retry=retry, faults=faults)
    seq_reports = [sequential.sweep(stagger_seconds=stagger)
                   for _ in range(sweeps)]
    (par_reports, par_states, par_registry,
     par_records, par_total) = sharded_sweep(
        size, shards, retry=retry, faults=faults, sweeps=sweeps,
        stagger=stagger)

    assert par_reports == seq_reports
    assert par_states == sequential.device_states()
    assert par_total == sequential.total_attestations()
    assert (json.dumps(par_registry, sort_keys=True)
            == json.dumps(sequential.merged_registry().dump(),
                          sort_keys=True))
    assert par_records == sequential.merged_trace_records()


class TestShardPrimitives:
    def test_partition_contiguous_and_balanced(self):
        blocks = partition(10, 3)
        assert [list(b) for b in blocks] == [[0, 1, 2, 3], [4, 5, 6],
                                             [7, 8, 9]]
        assert partition(2, 8) == [range(0, 1), range(1, 2)]

    def test_member_indices_name_global_identity(self):
        shard = Swarm(2, device_config=small_config(),
                      member_indices=(5, 9), seed="ids")
        assert [m.device_id for m in shard.members] == ["device-005",
                                                        "device-009"]
        assert [m.index for m in shard.members] == [5, 9]

    def test_member_indices_length_must_match(self):
        import pytest
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            Swarm(3, device_config=small_config(), member_indices=(0, 1))

    def test_member_lookup_uses_index(self):
        fleet = Swarm(4, device_config=small_config(), seed="idx")
        assert fleet.member("device-002") is fleet.members[2]
        assert fleet._members_by_id["device-002"] is fleet.members[2]
        import pytest
        with pytest.raises(KeyError):
            fleet.member("device-999")

    def test_fold_outcomes_matches_sweep_buckets(self):
        outcomes = [
            MemberSweepOutcome("device-000", "trusted", retries=1,
                               energy_delta_mj=0.5, duration_seconds=2.0),
            MemberSweepOutcome("device-001", "untrusted",
                               energy_delta_mj=0.25, duration_seconds=5.0),
            MemberSweepOutcome("device-002", "no_response",
                               duration_seconds=1.0),
            MemberSweepOutcome("device-003", "refused", retries=2),
            MemberSweepOutcome("device-004", "skipped"),
        ]
        report = fold_outcomes(outcomes)
        assert report.attempted == 4
        assert report.trusted == 1
        assert report.untrusted == ["device-001"]
        assert report.no_response == ["device-002"]
        assert report.refused == ["device-003"]
        assert report.skipped_quarantined == ["device-004"]
        assert report.retries == 3
        assert report.fleet_energy_mj == 0.75
        assert report.sweep_seconds == 5.0

    def test_fold_outcomes_rejects_unknown_category(self):
        import pytest
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            fold_outcomes([MemberSweepOutcome("device-000", "banana")])


class TestFleetEngine:
    def test_workers_resolution(self):
        spec = FleetSpec(size=4, device_config=small_config())
        assert FleetEngine(spec, workers=3).workers == 3
        assert FleetEngine(spec, workers=8).workers == 4   # one per member
        import pytest
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            FleetEngine(spec, workers=0)

    def test_workers_one_is_the_seed_path(self):
        """``workers=1`` is one uncached in-process swarm: ``each``
        runs in this process and the digest cache stays unused."""
        spec = FleetSpec(size=3, device_config=small_config(),
                         seed="seed-path")
        with FleetEngine(spec, workers=1) as engine:
            report = engine.sweep()
            assert engine.each(_process_and_cache) == [
                (os.getpid(), False)]
            assert engine.cache_stats() == {"hits": 0, "misses": 0,
                                            "evictions": 0, "entries": 0}
        plain = spec.build()
        assert plain.sweep() == report

    def test_each_runs_on_every_resident_shard(self):
        """``each`` reaches every shard's resident, cached swarm in its
        own worker process and returns results in shard order."""
        spec = FleetSpec(size=5, device_config=small_config(),
                         seed="each-shards")
        with FleetEngine(spec, workers=2) as engine:
            assert engine.each(_member_indices) == [[0, 1, 2], [3, 4]]
            shards = engine.each(_process_and_cache)
            assert [cached for _, cached in shards] == [True, True]
            assert len({pid for pid, _ in shards} | {os.getpid()}) == 3

    @pytest.mark.parametrize("incremental", [True, False])
    def test_shard_caches_follow_the_swarm_rule(self, incremental):
        """An incremental swarm gets an unbounded cache (an eviction
        would reintroduce full walks); its shards must too, not the
        bounded default every non-incremental shard gets."""
        spec = FleetSpec(size=4, device_config=small_config(),
                         incremental=incremental, seed="shard-caches")
        expected = (spec.build().state_cache.max_entries if incremental
                    else StateDigestCache().max_entries)
        with FleetEngine(spec, workers=2) as engine:
            assert engine.each(_cache_bound) == [expected, expected]

    def test_process_pool_equivalence(self):
        result = equivalence_check(default_equivalence_spec(4),
                                   workers=2, sweeps=2)
        assert result["identical"], result["mismatched_fields"]

    def test_breaker_state_survives_across_parallel_sweeps(self):
        """Shard swarms are resident: a member that keeps failing must
        degrade and then be quarantined across sweeps, exactly as in the
        sequential fleet."""
        spec = FleetSpec(size=4, device_config=small_config(),
                         adversary_factory=_always_lossy,
                         quarantine_after=2, seed="breaker-fleet")
        sequential = spec.build()
        with FleetEngine(spec, workers=2) as engine:
            for _ in range(3):
                seq_report = sequential.sweep()
                par_report = engine.sweep()
                assert par_report == seq_report
            assert engine.device_states() == sequential.device_states()
            assert set(engine.device_states().values()) == {"quarantined"}


def _always_lossy(index, device_id):
    from repro.net.faults import BernoulliLoss
    return BernoulliLoss(1.0, seed=f"always-lossy:{device_id}")


def _process_and_cache(swarm):
    return os.getpid(), swarm.state_cache is not None


def _cache_bound(swarm):
    return swarm.state_cache.max_entries


def _member_indices(swarm):
    return [member.index for member in swarm.members]
