"""Session checkpoints: restore + continue must equal never-stopping.

A checkpoint is only useful if the restored run is *byte-identical* to
the uninterrupted one -- same digests, same cycle counts, same energy,
same telemetry.  Every test here builds two identical sessions, runs
one ahead, checkpoints it, restores into the other, then drives both
onward and compares everything observable.
"""

import json

import pytest

from repro.errors import SnapshotError
from repro.mcu import DeviceConfig
from repro.mcu.profiles import ALL_PROFILES
from repro.services.swarm import Swarm
from tests.conftest import tiny_config


def twin_swarms(**kwargs):
    """Two independent but identical single-member swarms."""
    kwargs.setdefault("seed", "session-roundtrip")
    return Swarm(1, **kwargs), Swarm(1, **kwargs)


def state_of(session):
    device = session.device
    device.sync_energy()
    return {
        "summary": session.summary(),
        "cycles": device.cpu.cycle_count,
        "consumed_mj": device.battery.consumed_mj,
        "flash": device.memory.region("flash").snapshot(),
        "ram": device.memory.region("ram").snapshot(),
        "now": session.sim.now,
    }


class TestRoundTrip:
    @pytest.mark.parametrize("profile", ALL_PROFILES,
                             ids=lambda p: p.name)
    def test_profiles(self, profile):
        a, b = twin_swarms(profile=profile)
        a.sweep()
        b.restore(a.snapshot())
        a.sweep()
        b.sweep()
        assert state_of(a.members[0].session) == \
            state_of(b.members[0].session)

    @pytest.mark.parametrize("policy", ["counter", "nonce", "timestamp"])
    def test_freshness_policies(self, policy):
        a, b = twin_swarms(policy_name=policy)
        a.sweep()
        a.sweep()
        b.restore(a.snapshot())
        a.sweep()
        b.sweep()
        assert state_of(a.members[0].session) == \
            state_of(b.members[0].session)

    @pytest.mark.parametrize("clock_kind", ["hw64", "hw32div", "sw"])
    def test_clock_kinds(self, clock_kind):
        config = tiny_config(clock_kind=clock_kind)
        a, b = twin_swarms(device_config=config, policy_name="timestamp")
        a.sweep()
        b.restore(a.snapshot())
        a.sweep()
        b.sweep()
        assert state_of(a.members[0].session) == \
            state_of(b.members[0].session)

    def test_telemetry_round_trips(self):
        a, b = twin_swarms(observe=True)
        a.sweep()
        b.restore(a.snapshot())
        a.sweep()
        b.sweep()
        assert a.merged_registry().dump() == b.merged_registry().dump()
        assert a.merged_trace_records() == b.merged_trace_records()

    def test_document_is_pure_json(self):
        a, _ = twin_swarms(observe=True)
        a.sweep()
        document = a.snapshot()
        assert document == json.loads(json.dumps(document))


class TestGuards:
    def test_non_quiescent_session_refuses(self):
        a, _ = twin_swarms()
        a.members[0].session.sim.schedule(1e9, lambda: None)
        with pytest.raises(SnapshotError, match="still scheduled"):
            a.snapshot()

    def test_profile_mismatch_refuses(self):
        a, _ = twin_swarms(profile=ALL_PROFILES[-1])
        _, b = twin_swarms(profile=ALL_PROFILES[0])
        a.sweep()
        with pytest.raises(SnapshotError, match="profile"):
            b.restore(a.snapshot())

    def test_geometry_mismatch_refuses(self):
        a, _ = twin_swarms()
        _, b = twin_swarms(
            device_config=DeviceConfig(ram_size=32 * 1024,
                                       flash_size=64 * 1024,
                                       app_size=4 * 1024))
        a.sweep()
        with pytest.raises(SnapshotError):
            b.restore(a.snapshot())

    def test_telemetry_presence_mismatch_refuses(self):
        a, _ = twin_swarms(observe=True)
        _, b = twin_swarms(observe=False)
        a.sweep()
        with pytest.raises(SnapshotError, match="telemetry"):
            b.restore(a.snapshot())
        c, _ = twin_swarms(observe=False)
        _, d = twin_swarms(observe=True)
        c.sweep()
        with pytest.raises(SnapshotError, match="telemetry"):
            d.restore(c.snapshot())

    def test_wrong_kind_refuses(self):
        a, b = twin_swarms()
        a.sweep()
        document = a.members[0].session.snapshot()
        with pytest.raises(SnapshotError, match="kind"):
            b.restore(document)


class TestBlobDedup:
    def test_identical_members_share_flash_and_ram_images(self):
        # In an honest fleet every member runs the same firmware, so a
        # size-N snapshot holds ONE shared flash and ONE shared ram,
        # whatever N: ROM, where the per-member keys live, travels only
        # as its fingerprint.
        for size in (2, 5):
            swarm = Swarm(size, seed="dedup")
            swarm.sweep()
            document = swarm.snapshot()
            assert len(document["blobs"]) == 2

    def test_incremental_members_share_index_rows_too(self):
        # With digest trees, the shared flash and ram records each also
        # carry one chunk-digest index row -- equal bytes give equal
        # rows, so 2 shared images + 2 shared rows.
        for size in (2, 5):
            swarm = Swarm(size, seed="dedup", incremental=True)
            swarm.sweep()
            document = swarm.snapshot()
            assert len(document["blobs"]) == 4

    def test_diverged_member_adds_images(self):
        swarm = Swarm(3, seed="dedup-div")
        swarm.sweep()
        device = swarm.members[0].session.device
        ram = device.memory.region("ram")
        ram.store(ram.size - 4, b"\xde\xad\xbe\xef")
        document = swarm.snapshot()
        assert len(document["blobs"]) == 2 + 1
