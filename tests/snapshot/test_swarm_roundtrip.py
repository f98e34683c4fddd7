"""Fleet checkpoints: interrupted runs must be indistinguishable.

The property under test is the contract from ``repro.snapshot``: for
any fleet shape, run K sweeps, checkpoint, keep one copy running and
restore the checkpoint into a fresh build, then drive both to the same
sweep count -- every report, device state, metric dump, trace record
and battery reading must match exactly.
"""

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SnapshotError
from repro.mcu.statecache import StateDigestCache
from repro.perf.fleet import FleetEngine, FleetSpec
from repro.services.attestd import AttestationService, build_schedule
from repro.services.swarm import Swarm
from repro.snapshot import build_swarm_from_spec, swarm_spec
from repro.snapshot.codec import Nested, b64
from repro.snapshot.session import SESSION
from tests.conftest import tiny_config


def fingerprint(swarm):
    """Everything observable about a fleet, in comparable form."""
    state = {
        "sweeps_run": swarm.sweeps_run,
        "device_states": swarm.device_states(),
        "total": swarm.total_attestations(),
        "battery": {m.device_id: m.battery_fraction
                    for m in swarm.members},
    }
    if swarm.observe:
        state["registry"] = json.dumps(swarm.merged_registry().dump(),
                                       sort_keys=True)
        state["trace"] = swarm.merged_trace_records()
    return state


class TestSwarmRoundTrip:
    @given(size=st.integers(min_value=2, max_value=5),
           faults=st.booleans(), retry=st.booleans(),
           sweeps_before=st.integers(min_value=1, max_value=3),
           sweeps_after=st.integers(min_value=1, max_value=2))
    @settings(max_examples=12, deadline=None)
    def test_restore_plus_continue_equals_uninterrupted(
            self, size, faults, retry, sweeps_before, sweeps_after):
        spec = swarm_spec(size=size, faults=faults, retry=retry,
                          seed=f"hyp-{size}-{faults}-{retry}")
        uninterrupted = build_swarm_from_spec(spec)
        restored = build_swarm_from_spec(spec)

        for _ in range(sweeps_before):
            uninterrupted.sweep()
        document = uninterrupted.snapshot()
        restored.restore(document)
        for _ in range(sweeps_after):
            uninterrupted.sweep()
            restored.sweep()
        assert fingerprint(uninterrupted) == fingerprint(restored)

    def test_reports_match_sweep_for_sweep(self):
        spec = swarm_spec(size=3, faults=True, retry=True, seed="reports")
        a = build_swarm_from_spec(spec)
        b = build_swarm_from_spec(spec)
        a.sweep()
        b.restore(a.snapshot())
        for _ in range(3):
            assert a.sweep() == b.sweep()

    def test_member_set_mismatch_refuses(self):
        a = build_swarm_from_spec(swarm_spec(size=3, seed="m"))
        b = build_swarm_from_spec(swarm_spec(size=4, seed="m"))
        a.sweep()
        with pytest.raises(SnapshotError, match="member"):
            b.restore(a.snapshot())


class TestStateCacheCounters:
    """A document carries no state-digest cache, so a restore starts
    the target's cache cold: no entries, no counts, whatever the target
    learned at spin-up."""

    @staticmethod
    def build():
        return Swarm(4, state_cache=StateDigestCache(max_entries=2),
                     seed="cache-counters")

    @staticmethod
    def rewrite(swarm, round_index):
        # Member-unique content: every member misses and stores.
        for member in swarm.members:
            member.session.device.ram.load(
                256, bytes([round_index, member.index]) * 8)

    def test_documents_without_the_counter_restore_zero(self):
        live, restored = self.build(), self.build()
        for round_index in range(3):
            self.rewrite(live, round_index)
            live.sweep()
        document = live.snapshot()
        assert "state_cache" not in document["state"]
        assert len(restored.state_cache) > 0      # learned at spin-up
        restored.restore(document)
        assert restored.state_cache.stats() == {
            "hits": 0, "misses": 0, "evictions": 0, "entries": 0,
            "max_entries": 2}
        for swarm in (live, restored):
            self.rewrite(swarm, 9)
        assert restored.sweep() == live.sweep()


class TestReplay:
    def test_replay_reproduces_an_exact_trace_prefix(self):
        spec = swarm_spec(size=3, faults=True, seed="replay")
        live = build_swarm_from_spec(spec)
        live.sweep()
        document = live.snapshot()
        live.sweep()
        live.sweep()
        full = live.merged_trace_records()

        for target in (len(full) // 2, len(full) - 1):
            fresh = build_swarm_from_spec(spec)
            records = fresh.replay_to_seq(document, target)
            assert records == full[:target + 1]
            assert records[-1]["seq"] == target

    def test_unreachable_seq_refuses(self):
        spec = swarm_spec(size=2, seed="replay-far")
        live = build_swarm_from_spec(spec)
        live.sweep()
        document = live.snapshot()
        fresh = build_swarm_from_spec(spec)
        with pytest.raises(SnapshotError, match="seq"):
            fresh.replay_to_seq(document, 10_000_000, max_sweeps=2)

    def test_negative_seq_refuses(self):
        spec = swarm_spec(size=2, seed="replay-neg")
        live = build_swarm_from_spec(spec)
        live.sweep()
        document = live.snapshot()
        with pytest.raises(SnapshotError):
            build_swarm_from_spec(spec).replay_to_seq(document, -1)


class TestFleetEngine:
    def test_sharded_round_trip_with_caches(self):
        """Cached shards write a swarm document without their caches,
        and restore into cold ones."""
        spec = FleetSpec(size=6, observe=True, seed="fleet-rt")
        with FleetEngine(spec, workers=2) as live:
            live.sweep()
            document = live.snapshot()
            assert document["kind"] == "swarm"
            assert "state_cache" not in document["state"]
            live.sweep()
            expected_states = live.device_states()
            expected_registry = live.merged_registry().dump()

        with FleetEngine(spec, workers=2) as resumed:
            resumed.restore(document)
            assert resumed.cache_stats() == {"hits": 0, "misses": 0,
                                             "evictions": 0, "entries": 0}
            resumed.sweep()
            assert resumed.sweeps_run == 2
            assert resumed.device_states() == expected_states
            assert resumed.merged_registry().dump() == expected_registry

    def test_fleet_document_restores_into_sequential_swarm(self):
        spec = FleetSpec(size=4, observe=True, seed="fleet-flat")
        with FleetEngine(spec, workers=2) as live:
            live.sweep()
            document = live.snapshot()
            live.sweep()
            expected_states = live.device_states()
            expected_registry = live.merged_registry().dump()

        swarm = spec.build()
        swarm.restore(document)
        swarm.sweep()
        assert swarm.device_states() == expected_states
        assert swarm.merged_registry().dump() == expected_registry

    def test_breaker_order_does_not_matter(self):
        """Breakers are keyed by device id: a document listing them in
        reverse order restores the same into a sequential swarm and
        into an engine of any worker count."""
        spec = FleetSpec(size=4, device_config=tiny_config(), observe=True,
                         seed="fleet-breaker-order")
        swarm = spec.build()
        swarm.sweep()
        document = json.loads(json.dumps(swarm.snapshot()))
        swarm.sweep()
        expected = fingerprint(swarm)
        breakers = document["state"]["breakers"]
        document["state"]["breakers"] = dict(reversed(breakers.items()))
        sequential = spec.build()
        sequential.restore(document)
        sequential.sweep()
        assert fingerprint(sequential) == expected
        for workers in (2, 3):
            with FleetEngine(spec, workers=workers) as engine:
                engine.restore(document)
                engine.sweep()
                assert engine.device_states() == expected["device_states"]
                assert engine.merged_trace_records() == expected["trace"]
                assert json.dumps(engine.merged_registry().dump(),
                                  sort_keys=True) == expected["registry"]

    def test_refused_shard_leaves_every_shard_untouched(self):
        """Shard 0 stages cleanly and shard 1 refuses: no shard
        commits, so the engine reads as it did before the restore."""
        spec = FleetSpec(size=4, device_config=tiny_config(), observe=True,
                         seed="fleet-hostile")
        with FleetEngine(spec, workers=2) as live:
            live.sweep()
            document = json.loads(json.dumps(live.snapshot()))
        # Member 2 is the first member of shard 1.
        document["state"]["members"][2]["session"]["device"]["mpu"] = "abc"
        with FleetEngine(spec, workers=2) as target:
            before = (target.merged_registry().dump(),
                      target.total_attestations())
            with pytest.raises(SnapshotError):
                target.restore(document)
            assert (target.merged_registry().dump(),
                    target.total_attestations()) == before

    def test_document_of_another_fleet_size_refuses(self):
        """Shards are cut by the engine's own partition: a document of
        a larger fleet is refused, not silently cut short."""
        with FleetEngine(FleetSpec(size=5, seed="fleet-wc"),
                         workers=2) as live:
            live.sweep()
            document = live.snapshot()
        with FleetEngine(FleetSpec(size=4, seed="fleet-wc"),
                         workers=2) as other:
            with pytest.raises(SnapshotError, match="member set"):
                other.restore(document)


def hostile_swarm():
    return Swarm(2, device_config=tiny_config(), observe=True,
                 seed="hostile-full")


def hostile_service():
    return AttestationService(2, tenants=1, backends=1,
                              device_config=tiny_config(), observe=True,
                              seed="hostile-full")


def run_swarm(swarm):
    swarm.sweep()
    swarm.sweep()


def run_service(service):
    service.serve_schedule(build_schedule(2, waves=2))


def untouched_view(target):
    """What a refused restore must leave as a never-restored twin has
    it: freshness, registries, breaker states, clocks, memory."""
    members = target.members
    view = {"freshness": target.freshness_fingerprint(),
            "registry": target.merged_registry().dump(),
            "now": [member.session.sim.now for member in members],
            "regions": [bytes(region._data) for member in members
                        for region in member.session.device.memory
                        if region._data is not None]}
    if isinstance(target, Swarm):
        view["states"] = target.device_states()
    return view


def member_field(document, path):
    """``(box, key)`` of a dotted path (list indices as digits) into
    member 1's session: member 0 comes first, so a restore that wrote
    as it checked would leave it half-restored."""
    box = document["state"]["members"][1]["session"]
    *parents, field = path.split(".")
    for part in parents:
        box = box[int(part)] if isinstance(box, list) else box[part]
    return box, (int(field) if isinstance(box, list) else field)


def set_field(path, value):
    """Overwrite one field of member 1's session."""
    def mutate(document):
        box, field = member_field(document, path)
        box[field] = value
    return mutate


def drop(path):
    """Delete one field of member 1's session."""
    def mutate(document):
        box, field = member_field(document, path)
        del box[field]
    return mutate


def drop_breaker(document):
    breakers = document["state"]["breakers"]
    del breakers[sorted(breakers)[-1]]


def mmio_region(document):
    """A member-1 region record for the memory-mapped IRQ mask, with an
    image that fits its window: the one read path accepts it, only the
    rebuilt device knows the region holds no bytes."""
    mask = hostile_swarm().members[0].session.device.memory.region(
        "irq-mask")
    document["blobs"]["ab" * 20] = b64(bytes(mask.size))
    document["state"]["members"][1]["session"]["device"]["regions"].append(
        {"name": "irq-mask", "size": mask.size, "exclude": 0,
         "fingerprint": "ab" * 20, "prefix": ""})


def inverted_context(document):
    """A runtime context whose code range ends before it starts: the
    rebuilt device's constructor refuses it."""
    document["state"]["members"][1]["session"]["device"]["contexts"].append(
        {"name": "malware", "start": 0x2000, "end": 0x1000,
         "uninterruptible": False, "entry_points": None})


def short_trace_marks(document):
    """The first sweep's watermark row misses the last member."""
    document["state"]["trace_marks"][0].pop()


def raise_rate(document):
    for bucket in document["state"]["buckets"].values():
        bucket["rate"] += 1.0


def table_rows(table, state, prefix=""):
    """``(path, row)`` for every row of ``table`` and of the tables
    nested below it, laid out as ``state`` (a capture of ``table``)
    lays them out."""
    for row in table.rows:
        path = prefix + row.name
        yield path, row
        value = state[row.name]
        if isinstance(row.codec, Nested) and value is not None:
            sub = next(sub for sub in row.codec.tables
                       if set(sub.names) == set(value))
            yield from table_rows(sub, value, path + ".")


#: Every row below member 1's session, as a hostile swarm lays it out.
MEMBER_ROWS = list(table_rows(
    SESSION, hostile_swarm().snapshot()["state"]["members"][1]["session"]))
#: Rows that must not hold ``null``.
NON_NULLABLE = [path for path, row in MEMBER_ROWS
                if not row.nullable and row.present is None]
#: Container rows, each with a JSON container of the wrong kind.
WRONG_CONTAINERS = [(path, "abc" if row.codec.json == "list" else [])
                    for path, row in MEMBER_ROWS
                    if row.codec.json in ("list", "object")]


@functools.lru_cache(maxsize=None)
def hostile_swarm_text() -> str:
    live = hostile_swarm()
    run_swarm(live)
    return json.dumps(live.snapshot())


def assert_refused(build, document) -> None:
    """Restoring ``document`` raises a typed error and leaves the
    target equal to a never-restored twin."""
    target, twin = build(), build()
    with pytest.raises(SnapshotError):
        target.restore(document)
    assert untouched_view(target) == untouched_view(twin)


class TestHostileFullDocuments:
    """A hostile full document is refused -- by the one read path, or
    by a stage before any member commits -- with a typed error, and
    the target stays equal to a never-restored twin."""

    @pytest.mark.parametrize("build, run, mutate", [
        (hostile_swarm, run_swarm,
         set_field("channel.transcript", {"base": 0, "tail": []})),
        (hostile_swarm, run_swarm,
         set_field("anchor.busy_intervals", {"base": 0, "tail": []})),
        (hostile_swarm, run_swarm, set_field("verifier_node.results", 5)),
        (hostile_service, run_service,
         set_field("channel.transcript", {"base": 0, "tail": []})),
        (hostile_swarm, run_swarm, set_field("device.mpu", "abc")),
        (hostile_swarm, run_swarm,
         set_field("channel.transcript.0.message.data", "abc")),
        (hostile_swarm, run_swarm, drop("sim")),
        (hostile_swarm, run_swarm, set_field("anchor.nonces.order", ["zz"])),
        (hostile_swarm, run_swarm,
         set_field("verifier.reference_measurements", ["zz"])),
        (hostile_swarm, run_swarm, set_field("device.clock", None)),
        (hostile_swarm, run_swarm, set_field("telemetry", None)),
        (hostile_swarm, run_swarm,
         set_field("device.regions.0.name", "renamed")),
        (hostile_swarm, run_swarm, drop_breaker),
        (hostile_swarm, run_swarm, set_field("device.cpu_cycles", "x")),
        (hostile_swarm, run_swarm, set_field("device.cpu_cycles", True)),
        (hostile_swarm, run_swarm, set_field("sim.now", "0")),
        (hostile_swarm, run_swarm, mmio_region),
        (hostile_service, run_service, raise_rate),
        (hostile_service, run_service, drop("sim")),
        (hostile_swarm, run_swarm, set_field("device.cpu_cycles", None)),
        (hostile_swarm, run_swarm, set_field("sim.now", None)),
        (hostile_swarm, run_swarm, set_field("channel.delivered", None)),
        (hostile_swarm, run_swarm, set_field("verifier.next_counter", None)),
        (hostile_swarm, run_swarm,
         set_field("verifier.requests_issued", None)),
        (hostile_swarm, run_swarm,
         set_field("device.energy_last_cycle", None)),
        (hostile_swarm, run_swarm, set_field("device.boot_log", "abc")),
        (hostile_swarm, run_swarm, inverted_context),
        (hostile_swarm, run_swarm,
         set_field("anchor.stats.rejected", {"bad-tag": None})),
        (hostile_swarm, run_swarm, short_trace_marks),
    ], ids=["transcript-tail", "busy-intervals-tail", "results-int",
            "service-transcript-tail", "mpu-base64", "message-base64",
            "no-sim", "nonce-hex", "reference-hex", "no-clock",
            "no-telemetry", "region-renamed", "breaker-missing",
            "cycles-string", "cycles-bool", "now-string", "mmio-region",
            "service-rate",
            "service-no-sim", "cycles-null", "now-null", "delivered-null",
            "next-counter-null", "requests-issued-null", "energy-null",
            "boot-log-string", "context-inverted", "rejected-count-null",
            "trace-marks-short"])
    def test_refused_without_mutation(self, build, run, mutate):
        live = build()
        run(live)
        document = json.loads(json.dumps(live.snapshot()))
        mutate(document)
        assert_refused(build, document)

    @pytest.mark.parametrize("path", NON_NULLABLE)
    def test_null_refused(self, path):
        """Every field the session tables do not declare nullable."""
        assert len(NON_NULLABLE) > 60
        document = json.loads(hostile_swarm_text())
        set_field(path, None)(document)
        assert_refused(hostile_swarm, document)

    @pytest.mark.parametrize("path, wrong", WRONG_CONTAINERS,
                             ids=[path for path, _ in WRONG_CONTAINERS])
    def test_wrong_container_refused(self, path, wrong):
        """A string for a list, a list for an object."""
        assert len(WRONG_CONTAINERS) > 20
        document = json.loads(hostile_swarm_text())
        set_field(path, wrong)(document)
        assert_refused(hostile_swarm, document)


class TestNullableFields:
    """The nullable rows are the fields the code types ``| None``; each
    one round-trips ``null`` through capture, restore and the next
    sweep."""

    def test_declared_nullable_rows(self):
        from repro.snapshot.document import KINDS
        nullable, seen = set(), []

        def walk(table):
            if table in seen:
                return
            seen.append(table)
            for row in table.rows:
                if row.nullable or row.present is not None:
                    nullable.add(f"{table.name}.{row.name}")
                for sub in row.codec.tables:
                    walk(sub)
        for table in KINDS.values():
            walk(table)
        assert nullable == {
            "channel.adversary", "verifier_node.last_result_time",
            "verifier_node.last_round_seconds",
            "anchor.last_attest_seconds", "device.boot_profile",
            "device.clock", "session.telemetry", "swarm.trace_marks",
            "service.service_registry"}

    def test_swarm_nulls_round_trip(self):
        def build():
            swarm = Swarm(2, device_config=tiny_config(clock_kind="none"),
                          seed="nullable")
            swarm.members[1].session.device.boot_profile = None
            return swarm

        live = build()
        live.members[1].session.device.make_malware_context()
        document = json.loads(json.dumps(live.snapshot()))
        assert document["state"]["trace_marks"] is None
        session = document["state"]["members"][1]["session"]
        assert session["device"]["boot_profile"] is None
        assert session["device"]["clock"] is None
        assert session["device"]["contexts"][0]["entry_points"] is None
        assert session["telemetry"] is None
        assert session["anchor"]["last_attest_seconds"] is None
        assert session["verifier_node"]["last_result_time"] is None
        assert session["verifier_node"]["last_round_seconds"] is None
        # A pass-through adversary may be written as null.
        session["channel"]["adversary"] = None
        target = build()
        target.restore(document)
        assert target.members[1].session.device.context(
            "malware").entry_points is None
        assert target.sweep() == live.sweep()
        assert fingerprint(target) == fingerprint(live)
        # The fields hold values now, and a restore to null clears them.
        assert live.members[1].session.verifier_node.last_result_time
        live.restore(document)
        assert live.members[1].session.verifier_node.last_result_time is None
        assert fingerprint(live) != fingerprint(target)

    def test_service_registry_null_round_trips(self):
        def build():
            return AttestationService(2, tenants=1, backends=1,
                                      device_config=tiny_config(),
                                      observe=False, seed="nullable")

        live = build()
        live.serve_schedule(build_schedule(2, waves=1))
        document = json.loads(json.dumps(live.snapshot()))
        assert document["state"]["service_registry"] is None
        target = build()
        target.restore(document)
        schedule = build_schedule(2, waves=1, start_seconds=live.virtual_now)
        assert target.serve_schedule(schedule) == live.serve_schedule(
            schedule)
        assert target.freshness_fingerprint() == live.freshness_fingerprint()
