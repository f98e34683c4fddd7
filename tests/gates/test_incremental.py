"""Incremental attestation engine gates.

1. **Incremental == full walk** -- the three-scenario
   :func:`repro.perf.incremental.equivalence_check` (honest OTA rounds,
   lossy faulted links with retries and telemetry, planted compromise)
   reports byte-identical observables between the incremental and
   full-walk fleets, and the compromise is detected through a hot
   content cache in both.
2. **Content-cache arithmetic** -- one OTA round across an N-member
   incremental fleet costs exactly one full measurement: the shared
   digest cache records exactly ``N + 3`` misses and ``4N - 2`` hits
   over spin-up, a settle sweep, the update sweep and a steady sweep.
3. **Dirty-region work ratio** -- the hashed bytes of the update sweep
   (one full member image plus the per-member dirty-leaf refreshes
   counted by the digest trees) are at least 3x fewer than the
   full-walk fleet's ``N * image`` at a 10 % dirty fraction.
4. **Report validity** -- the checked-in ``BENCH_incremental.json``
   matches :data:`repro.obs.schema.INCREMENTAL_SCHEMA` and records a
   passing speedup gate and a clean equivalence block.
"""

import json

import pytest

from repro.mcu import device as device_module
from repro.obs.schema import validate_incremental_report
from repro.perf.harness import apply_update, learn_update
from repro.perf.incremental import (build_report, build_swarm,
                                    equivalence_check)
from tests.conftest import REPO

SIZE = 8       # fleet size for the equivalence and arithmetic gates
DIRTY = 0.10   # dirty fraction for the work-ratio gate


@pytest.fixture(scope="module")
def ota_round():
    """Spin-up, settle sweep, one OTA round, one steady sweep; returns
    the fleet and the leaf hashes its trees spent on the OTA sweep."""
    swarm = build_swarm(SIZE, 64, incremental=True, seed="incr-smoke")
    swarm.sweep()  # settle: every member hits its history key
    trees = [(region, region.digest_tree)
             for member in swarm.members
             for region in member.session.device.memory.writable_regions()
             if region.digest_tree is not None]
    # Force-build every tree so the refresh counters below measure the
    # update round alone (member 0's trees were built at spin-up; the
    # others' first content probe would otherwise be a full build).
    for region, tree in trees:
        tree.root(region._data)
    before = sum(tree.leaf_hashes for _, tree in trees)
    apply_update(swarm, 0, DIRTY)
    learn_update(swarm)
    swarm.sweep()  # the OTA round: 1 content miss, N-1 content hits
    leaf_delta = sum(tree.leaf_hashes for _, tree in trees) - before
    swarm.sweep()  # steady state: back to history-key hits
    return swarm, leaf_delta, trees[0][1].chunk_size


def test_incremental_equals_full_walk():
    equivalence = equivalence_check(size=SIZE)
    assert equivalence["identical"], \
        f"incremental/full divergence: {equivalence}"
    assert equivalence["scenarios"]["compromised"].get("detected"), (
        "planted compromise not detected identically through the hot "
        "content cache")


def test_ota_round_costs_one_measurement(ota_round):
    # Spin-up: member 0 misses both keys (2), members 1..N-1 hit the
    # history key (N-1 hits -- their write histories are identical).
    # Settle sweep: N history hits.  OTA sweep: every history key misses
    # (N), member 0's content key misses (1) and pays the only full
    # walk, N-1 content hits.  Steady sweep: N history hits (content
    # hits re-store the history key).
    swarm, _, _ = ota_round
    stats = swarm.state_cache.stats()
    expected = (SIZE + 3, 4 * SIZE - 2)
    assert (stats["misses"], stats["hits"]) == expected, (
        f"content-cache arithmetic wrong: expected {expected[0]} misses / "
        f"{expected[1]} hits, got {stats['misses']} / {stats['hits']}")


def test_dirty_region_work_ratio(ota_round):
    # The full-walk fleet re-hashes N member images; the incremental
    # fleet hashes one image (the content miss) plus the dirty-leaf
    # refreshes counted by the trees (chunk_size per leaf is an upper
    # bound -- tail leaves are shorter, so the ratio is conservative).
    swarm, leaf_delta, chunk_size = ota_round
    device = swarm.members[0].session.device
    image_bytes = sum(end - start for start, end in device.attested_spans())
    full_bytes = SIZE * image_bytes
    incremental_bytes = image_bytes + leaf_delta * chunk_size
    ratio = full_bytes / incremental_bytes
    assert ratio >= 3.0, (
        f"dirty-region work ratio {ratio:.2f}x below 3x at {DIRTY:.0%} "
        f"dirty: {full_bytes} vs {incremental_bytes} hashed bytes")


def test_checked_in_report_records_passing_gates():
    report = json.loads((REPO / "BENCH_incremental.json").read_text())
    errors = validate_incremental_report(report)
    assert not errors, "\n".join(f"report: {e}" for e in errors)
    assert report["gate"]["passed"] is True, \
        "report records a failed speedup gate"
    assert report["equivalence"]["identical"] is True, \
        "report records a broken incremental/full equivalence block"


def test_report_geometry_is_the_measured_trees(monkeypatch):
    """The report's ``chunk_size``/``arity`` are the geometry of every
    digest tree the harness built and measured."""
    trees = []
    make = device_module.DigestTree

    def spy(*args, **kwargs):
        trees.append(make(*args, **kwargs))
        return trees[-1]
    monkeypatch.setattr(device_module, "DigestTree", spy)
    report = build_report(fleet_size=2, ram_kb=8, sweeps=1,
                          dirty_fractions=(DIRTY,), equivalence_size=2)
    assert trees
    assert {(tree.chunk_size, tree.arity) for tree in trees} == \
        {(report["chunk_size"], report["arity"])}
