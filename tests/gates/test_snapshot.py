"""Checkpoint/restore and deterministic replay gates.

1. **Round trip** -- a fault-injected, retrying, observed fleet,
   checkpointed after two sweeps and restored into a fresh build,
   continues exactly like the original: sweep reports, breaker states,
   battery readings, merged metrics and merged trace.
2. **Sharded engine** -- the same contract through
   :class:`repro.perf.fleet.FleetEngine` with two worker processes,
   plus the engine's (swarm) document restoring into a sequential
   swarm.
3. **Replay** -- ``replay_to_seq`` reproduces the uninterrupted run's
   merged trace prefix exactly, ending on the requested seq.
4. **Dedup** -- a size-N honest fleet snapshot holds exactly 2 memory
   images whatever N (one shared flash, one shared RAM; ROM travels as
   its fingerprint) and survives JSON and disk round trips unchanged.
"""

import json

import pytest

from repro.core.resilience import RetryPolicy
from repro.net.faults import lossy_link
from repro.perf.fleet import FleetEngine, FleetSpec
from repro.services.swarm import Swarm
from repro.snapshot import load_document, save_document

SIZE = 5      # fleet size for the round-trip gates
WORKERS = 2   # shard workers for the engine gate
SWEEPS = 2    # sweeps before the checkpoint


def build() -> Swarm:
    return Swarm(SIZE, retry=RetryPolicy(
                     attempt_timeout_seconds=5.0, max_retries=2,
                     base_backoff_seconds=1.0, jitter_fraction=0.5),
                 adversary_factory=lossy_link, observe=True,
                 seed="snapshot-smoke")


def fleet_view(swarm) -> dict:
    return {
        "states": swarm.device_states(),
        "total": swarm.total_attestations(),
        "battery": {m.device_id: m.battery_fraction for m in swarm.members},
        "registry": json.dumps(swarm.merged_registry().dump(),
                               sort_keys=True),
        "trace": swarm.merged_trace_records(),
    }


@pytest.fixture(scope="module")
def uninterrupted():
    """The checkpoint after SWEEPS sweeps, then the run's next two sweep
    reports and its final view."""
    swarm = build()
    for _ in range(SWEEPS):
        swarm.sweep()
    document = swarm.snapshot()
    reports = [swarm.sweep() for _ in range(2)]
    return document, reports, fleet_view(swarm)


def test_restore_continues_like_the_uninterrupted_run(uninterrupted):
    document, reports, view = uninterrupted
    restored = build()
    restored.restore(document)
    assert [restored.sweep() for _ in range(2)] == reports, \
        "round trip: sweep reports diverge after restore"
    after = fleet_view(restored)
    for key in view:
        assert view[key] == after[key], \
            f"round trip: {key} diverges after restore"


def test_sharded_engine_restores_exactly():
    spec = FleetSpec(size=SIZE, observe=True, seed="snapshot-smoke")
    with FleetEngine(spec, workers=WORKERS) as live:
        live.sweep()
        document = live.snapshot()
        live.sweep()
        expected = {"states": live.device_states(),
                    "registry": live.merged_registry().dump(),
                    "trace": live.merged_trace_records()}
    with FleetEngine(spec, workers=WORKERS) as resumed:
        resumed.restore(document)
        resumed.sweep()
        got = {"states": resumed.device_states(),
               "registry": resumed.merged_registry().dump(),
               "trace": resumed.merged_trace_records()}
    for key in expected:
        assert expected[key] == got[key], \
            f"fleet engine: {key} diverges after sharded restore"
    flat = spec.build()
    flat.restore(document)
    flat.sweep()
    assert flat.device_states() == expected["states"], \
        "fleet engine: engine document does not restore into a sequential swarm"


def test_replay_reproduces_the_trace_prefix(uninterrupted):
    document, _, view = uninterrupted
    full = view["trace"]
    target = max(0, len(full) - len(full) // 4 - 1)
    records = build().replay_to_seq(document, target)
    assert records == full[:target + 1], \
        "replay: records differ from the uninterrupted trace prefix"
    assert records[-1]["seq"] == target, (f"replay: last record has seq "
                                          f"{records[-1]['seq']}, expected "
                                          f"{target}")


def test_snapshot_dedups_images_and_round_trips(uninterrupted, tmp_path):
    document, _, _ = uninterrupted
    assert len(document["blobs"]) == 2, (
        f"dedup: size-{SIZE} fleet snapshot holds {len(document['blobs'])} "
        f"memory images, expected 2 (shared flash + ram; ROM travels as "
        f"its fingerprint)")
    assert document == json.loads(json.dumps(document)), \
        "dedup: document does not survive a JSON round trip unchanged"
    path = tmp_path / "checkpoint.json"
    save_document(document, path)
    assert load_document(path) == document, \
        "dedup: document does not survive a disk round trip unchanged"
