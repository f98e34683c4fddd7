"""Delta checkpoints: dirty-chunk chains, compaction and bisection.

The contract under test is ``repro.snapshot.delta/v1``: a chain of
delta documents folds back (``materialize_chain``) into a document
byte-identical to a full snapshot of the same instant, for any
protection profile, clock kind, chain depth or shard layout -- and the
supporting machinery (atomic saves, content-addressed blob store,
digest-tree leaf addressing, replay bisection) holds its own edges.
"""

import hashlib
import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.messages import AttestationRequest
from repro.errors import SnapshotError
from repro.incremental import DEFAULT_CHUNK_SIZE, DigestTree
from repro.mcu.device import DeviceConfig
from repro.mcu.profiles import ALL_PROFILES
from repro.obs.schema import (SNAPSHOT_DELTA_SCHEMA_ID,
                              validate_registry_dump,
                              validate_snapshot_delta)
from repro.obs.telemetry import Telemetry
from repro.perf.fleet import FleetEngine, FleetSpec
from repro.services.swarm import Swarm
from repro.snapshot import (BlobStore, bisect_replay,
                            checkpoint_trace_length, document_id,
                            linear_scan, load_chain, load_document,
                            materialize_chain, save_document, verify_chain)
from repro.snapshot import delta as delta_module
from repro.snapshot.codec import b64, rng_state, unb64
from repro.snapshot.delta import _log_instances, _session_states


def canonical(document) -> str:
    return json.dumps(document, sort_keys=True)


def build_swarm(size=3, *, incremental=True, observe=True,
                seed="delta-test", **kwargs):
    return Swarm(size, incremental=incremental, observe=observe,
                 seed=seed, **kwargs)


def rewrite(swarm, round_index):
    """Dirty a couple of RAM chunks per member via provisioning."""
    for member in swarm.members:
        ram = member.session.device.ram
        payload = bytes((round_index + member.index + i) % 256
                        for i in range(300))
        ram.load(128, payload)
        ram.load(ram.size - 512, payload)


def capture_chain(swarm, links):
    chain = [swarm.snapshot()]
    for round_index in range(links):
        rewrite(swarm, round_index)
        swarm.sweep()
        chain.append(swarm.snapshot(parent=chain[-1]))
    return chain, swarm.snapshot()


class TestAtomicSave:
    def test_failed_write_leaves_existing_file_intact(self, tmp_path):
        """An exception mid-serialization must not clobber the
        previous checkpoint or leave temp litter behind."""
        path = tmp_path / "checkpoint.json"
        save_document({"good": 1}, path)
        before = path.read_text()
        with pytest.raises(TypeError):
            save_document({"bad": object()}, path)
        assert path.read_text() == before
        assert os.listdir(tmp_path) == ["checkpoint.json"]

    def test_replaces_atomically_and_round_trips(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        save_document({"v": 1}, path)
        save_document({"v": 2}, path)
        assert json.loads(path.read_text()) == {"v": 2}
        assert path.read_text().endswith("\n")
        assert os.listdir(tmp_path) == ["checkpoint.json"]


class TestBlobStore:
    def test_collision_names_both_images(self):
        store = BlobStore()
        store.put("ab" * 20, b"first-image")
        with pytest.raises(SnapshotError) as err:
            store.put("ab" * 20, b"second-image!")
        message = str(err.value)
        assert hashlib.sha1(b"first-image").hexdigest() in message
        assert hashlib.sha1(b"second-image!").hexdigest() in message
        assert str(len(b"first-image")) in message
        assert str(len(b"second-image!")) in message

    def test_stats_and_publish_gauges(self):
        store = BlobStore()
        store.put("aa" * 20, b"x" * 10)
        store.put("bb" * 20, b"y" * 30)
        assert store.stats() == {"blobs": 2, "bytes": 40}
        telemetry = Telemetry()
        store.publish(telemetry)
        dump = telemetry.registry.dump()
        assert validate_registry_dump(dump) == []
        gauges = {entry["name"]: entry["value"]
                  for entry in dump["metrics"]
                  if entry["kind"] == "gauge"}
        assert gauges["snapshot.blobs"] == 2
        assert gauges["snapshot.bytes"] == 40
        # publishing is read-only for the store itself
        assert store.stats() == {"blobs": 2, "bytes": 40}

    def test_shared_images_encode_and_decode_like_unshared(self):
        """Encoding once per image object and decoding once per string
        object changes sharing only, never the encoded document."""
        image, other = bytes(range(256)) * 8, b"\x01" * 100
        shared, unshared = BlobStore(), BlobStore()
        for key, data in (("dd" * 20, image), ("aa" * 20, image),
                          ("cc" * 20, other), ("bb" * 20, image)):
            shared.put(key, data)
            unshared.put(key, bytes(bytearray(data)))
        encoded = shared.encode()
        assert encoded == unshared.encode()
        assert list(encoded) == sorted(encoded)
        assert encoded["aa" * 20] is encoded["bb" * 20]
        copies = {key: text.encode().decode()
                  for key, text in encoded.items()}
        assert copies["aa" * 20] is not copies["bb" * 20]
        from_shared = BlobStore.decode(encoded)
        from_copies = BlobStore.decode(copies)
        for key in encoded:
            assert from_shared.get(key) == from_copies.get(key) \
                == shared.get(key)
        assert from_shared.get("aa" * 20) is from_shared.get("dd" * 20)
        assert from_shared.stats() == from_copies.stats() == shared.stats()
        assert from_shared.encode() == encoded

    def test_subset_skips_absent_keys(self):
        store = BlobStore()
        store.put("aa" * 20, b"x")
        subset = store.subset(["aa" * 20, "ff" * 20])
        assert len(subset) == 1
        assert subset.get("aa" * 20) == b"x"


class TestDeltaChain:
    def test_chain_folds_to_the_full_snapshot(self):
        swarm = build_swarm()
        swarm.sweep()
        chain, full = capture_chain(swarm, 2)
        for delta in chain[1:]:
            assert validate_snapshot_delta(delta) == []
            assert delta["schema"] == SNAPSHOT_DELTA_SCHEMA_ID
        assert canonical(materialize_chain(chain)) == canonical(full)

    def test_delta_records_use_chunk_mode_for_dirty_regions(self):
        swarm = build_swarm()
        swarm.sweep()
        chain, _ = capture_chain(swarm, 1)
        modes = set()
        for session in _session_states(chain[1]["state"], "swarm"):
            for record in session["device"]["regions"]:
                modes.add(record["delta"]["mode"])
        assert "chunks" in modes      # the rewritten RAM
        assert "unchanged" in modes   # everything untouched

    def test_chunk_delta_is_much_smaller_than_full(self):
        swarm = build_swarm()
        swarm.sweep()
        chain, full = capture_chain(swarm, 1)
        assert len(canonical(chain[1])) * 2 < len(canonical(full))

    def test_without_trees_falls_back_to_blob_mode(self):
        swarm = build_swarm(incremental=False)
        swarm.sweep()
        chain, full = capture_chain(swarm, 1)
        modes = set()
        for session in _session_states(chain[1]["state"], "swarm"):
            for record in session["device"]["regions"]:
                modes.add(record["delta"]["mode"])
        assert "blob" in modes
        assert "chunks" not in modes
        assert canonical(materialize_chain(chain)) == canonical(full)

    def test_compact_equals_materialize(self, tmp_path):
        """``repro snapshot compact`` writes what ``materialize_chain``
        folds: the full snapshot of the tip."""
        swarm = build_swarm()
        swarm.sweep()
        chain = [swarm.snapshot()]
        for round_index in range(2):
            rewrite(swarm, round_index)
            swarm.sweep()
            # parent_id hashes the parent with its meta, so each link's
            # parent_path is in place before the next capture.
            chain.append(swarm.snapshot(parent=chain[-1]))
            chain[-1]["meta"] = {"parent_path": f"{round_index}.json"}
        for position, document in enumerate(chain):
            save_document(document, tmp_path / f"{position}.json")
        out = tmp_path / "compacted.json"
        assert main(["snapshot", "compact", str(tmp_path / "2.json"),
                     "--out", str(out)]) == 0
        assert (canonical(load_document(out))
                == canonical(materialize_chain(chain))
                == canonical(swarm.snapshot()))

    def test_restore_plus_continue_equals_uninterrupted(self):
        live = build_swarm(seed="delta-continue")
        live.sweep()
        chain, _ = capture_chain(live, 2)
        resumed = build_swarm(seed="delta-continue")
        resumed.restore(materialize_chain(chain))
        assert live.sweep() == resumed.sweep()
        assert (live.merged_trace_records()
                == resumed.merged_trace_records())
        assert (live.freshness_fingerprint()
                == resumed.freshness_fingerprint())

    def test_verify_chain_rejects_broken_linkage(self):
        swarm = build_swarm()
        swarm.sweep()
        chain, _ = capture_chain(swarm, 2)
        with pytest.raises(SnapshotError, match="parent"):
            verify_chain([chain[0], chain[2]])
        with pytest.raises(SnapshotError):
            verify_chain(chain[1:])          # delta cannot root a chain

    def test_delta_against_wrong_fleet_refuses(self):
        a = build_swarm(seed="fleet-a")
        b = build_swarm(size=4, seed="fleet-b")
        a.sweep()
        b.sweep()
        parent = a.snapshot()
        with pytest.raises(SnapshotError):
            b.snapshot(parent=parent)

    def test_document_id_is_content_addressed(self):
        swarm = build_swarm()
        swarm.sweep()
        document = swarm.snapshot()
        round_tripped = json.loads(json.dumps(document))
        assert document_id(document) == document_id(round_tripped)
        mutated = json.loads(json.dumps(document))
        mutated["state"]["sweeps_run"] += 1
        assert document_id(mutated) != document_id(document)

    def test_load_chain_follows_parent_paths(self, tmp_path):
        # parent_id hashes the parent *with* its meta, so each link's
        # parent_path must be in place before the next capture.
        swarm = build_swarm()
        swarm.sweep()
        root = swarm.snapshot()
        rewrite(swarm, 0)
        swarm.sweep()
        d1 = swarm.snapshot(parent=root)
        d1["meta"] = {"parent_path": "root.json"}
        rewrite(swarm, 1)
        swarm.sweep()
        d2 = swarm.snapshot(parent=d1)
        d2["meta"] = {"parent_path": "d1.json"}
        save_document(root, tmp_path / "root.json")
        save_document(d1, tmp_path / "d1.json")
        save_document(d2, tmp_path / "d2.json")
        loaded = load_chain(tmp_path / "d2.json")
        assert [document_id(doc) for doc in loaded] == \
            [document_id(doc) for doc in (root, d1, d2)]

    def test_load_chain_without_parent_path_refuses(self, tmp_path):
        swarm = build_swarm()
        swarm.sweep()
        chain, _ = capture_chain(swarm, 1)
        save_document(chain[1], tmp_path / "orphan.json")
        with pytest.raises(SnapshotError, match="parent_path"):
            load_chain(tmp_path / "orphan.json")

    @pytest.mark.parametrize("case, entry", [
        (case, entry)
        for case in ("truncated", "not-utf8", "int-parent", "list-parent")
        for entry in ("load_document", "load_chain", "cli")
        # load_document reads one file; it never follows parent_path.
        if not (entry == "load_document" and case.endswith("parent"))])
    def test_unreadable_file_raises_snapshot_error(self, tmp_path, capsys,
                                                   case, entry):
        """A file that is not JSON, or a delta whose parent_path is not
        a string, is refused with a ``SnapshotError`` naming the path
        (``repro snapshot restore``: ``error: ...``, exit 1) instead of
        a JSONDecodeError/UnicodeDecodeError/TypeError traceback."""
        path = tmp_path / "bad.json"
        if case == "truncated":
            path.write_text("{")
        elif case == "not-utf8":
            path.write_bytes(b"\xff\xfe")
        else:
            swarm = build_swarm()
            swarm.sweep()
            chain, _ = capture_chain(swarm, 1)
            chain[1]["meta"] = {"parent_path": 5 if case == "int-parent"
                                else ["root.json"]}
            save_document(chain[1], path)
        if entry == "cli":
            assert main(["snapshot", "restore", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(path) in err
        else:
            loader = load_document if entry == "load_document" \
                else load_chain
            with pytest.raises(SnapshotError, match=re.escape(str(path))):
                loader(path)


def continuation(target):
    """The next sweep of a restored fleet and everything it leaves
    observable: report, merged trace, registry, freshness state."""
    view = {"report": target.sweep(),
            "trace": target.merged_trace_records(),
            "registry": target.merged_registry().dump()}
    if isinstance(target, Swarm):
        view["freshness"] = target.freshness_fingerprint()
    else:
        view["states"] = target.device_states()
    return view


def session_continuation(session):
    """A session's next round and everything it leaves observable."""
    verifier = session.verifier
    return {"result": session.attest_once(),
            "trace": [event.as_dict() for event in session.telemetry.trace],
            "registry": session.telemetry.registry.dump(),
            "freshness": [verifier.freshness_state.next_counter,
                          rng_state(verifier.freshness_state.rng),
                          rng_state(verifier._challenge_rng)]}


class TestRestoreFromChain:
    """``restore(chain)`` equals ``restore(materialize_chain(chain))``:
    a chain handed straight to restore opens to the same state its
    folded full document does."""

    def test_session_chain(self):
        def build():
            return build_swarm(size=1, seed="chain-session").members[0] \
                .session

        live = build()
        live.attest_once()
        chain = [live.snapshot()]
        for round_index in range(2):
            live.device.ram.load(128, bytes([round_index]) * 300)
            live.attest_once()
            chain.append(live.snapshot(parent=chain[-1]))
        assert chain[-1]["kind"] == "session"
        from_chain, from_document = build(), build()
        from_chain.restore(chain)
        from_document.restore(materialize_chain(chain))
        assert (session_continuation(from_chain)
                == session_continuation(from_document)
                == session_continuation(live))

    def test_swarm_chain(self):
        live = build_swarm(seed="chain-swarm")
        live.sweep()
        chain, _ = capture_chain(live, 2)
        from_chain = build_swarm(seed="chain-swarm")
        from_document = build_swarm(seed="chain-swarm")
        from_chain.restore(chain)
        from_document.restore(materialize_chain(chain))
        assert (continuation(from_chain) == continuation(from_document)
                == continuation(live))

    def test_fleet_chain(self):
        spec = FleetSpec(size=4,
                         device_config=DeviceConfig(ram_size=8 * 1024,
                                                    flash_size=16 * 1024,
                                                    app_size=2 * 1024),
                         observe=True, seed="chain-fleet")
        with FleetEngine(spec, workers=2) as engine:
            engine.sweep()
            chain = [engine.snapshot()]
            for _ in range(2):
                engine.sweep()
                chain.append(engine.snapshot(parent=chain[-1]))
            expected = continuation(engine)
        views = []
        for documents in (chain, materialize_chain(chain)):
            with FleetEngine(spec, workers=2) as resumed:
                resumed.restore(documents)
                views.append(continuation(resumed))
        assert views[0] == views[1] == expected
        # The same chain is a swarm chain: it restores into a sequential
        # swarm, which continues as the engine did.
        sequential = []
        for documents in (chain, materialize_chain(chain)):
            swarm = spec.build()
            swarm.restore(documents)
            sequential.append(continuation(swarm))
        assert sequential[0] == sequential[1]
        shared = ("report", "trace", "registry")
        assert [{key: view[key] for key in shared} for view in sequential] \
            == [{key: expected[key] for key in shared}] * 2


def log_records(document):
    """Every append-only log record of a document, by instance."""
    return {ident: box[field] for ident, (box, field)
            in _log_instances(document["state"], document["kind"]).items()}


def relink(chain):
    """Re-point every ``parent_id`` at the document before it, so a
    tampered document still links into its chain."""
    for position in range(1, len(chain)):
        chain[position]["parent_id"] = document_id(chain[position - 1])
    return chain


def channel(document, member=0):
    return _session_states(document["state"],
                           document["kind"])[member]["channel"]


def trace(document, member=0):
    """A member's event-trace record: the front-evicting log."""
    return _session_states(document["state"],
                           document["kind"])[member]["telemetry"]["trace"]


class TestLogTails:
    def test_delta_logs_are_tails(self):
        swarm = build_swarm()
        swarm.sweep()
        chain, full = capture_chain(swarm, 2)
        records = log_records(chain[-1])
        names = {ident[2] for ident in records}
        assert {"channel.transcript", "verifier_node.results",
                "anchor.busy_intervals", "telemetry.trace.records",
                "device.interrupts.dispatched", "breakers.*.transitions",
                "trace_marks"} <= names
        assert all(isinstance(record, dict) for record in records.values())
        assert all(isinstance(record, list)
                   for record in log_records(chain[0]).values())
        tail = channel(chain[-1])["transcript"]
        assert tail["base"] == len(channel(chain[1])["transcript"]["tail"]) \
            + channel(chain[1])["transcript"]["base"]
        assert canonical(materialize_chain(chain)) == canonical(full)

    def test_state_bytes_stay_flat_across_links(self):
        """Per-link non-blob bytes track the work of the link, not the
        length of the run: link 8 within 10% of link 2."""
        swarm = build_swarm(seed="delta-growth")
        swarm.sweep()
        chain = [swarm.snapshot()]
        state_bytes = []
        for _ in range(8):
            swarm.sweep()
            chain.append(swarm.snapshot(parent=chain[-1]))
            text = canonical(chain[-1])
            blobs = sum(len(blob) for blob in chain[-1]["blobs"].values())
            state_bytes.append(len(text) - blobs)
        assert state_bytes[7] <= state_bytes[1] * 1.10
        assert canonical(materialize_chain(chain)) == \
            canonical(swarm.snapshot())

    @pytest.mark.parametrize("max_events", [12, 4])
    def test_front_evicting_trace(self, max_events):
        """A bounded trace tails with its evictions counted; when a
        link appends more than the bound holds, the new entries were
        evicted too and the record falls back to the whole trace."""
        swarm = build_swarm(size=2, seed="delta-trace-evict")
        for member in swarm.members:
            member.session.telemetry.trace.max_events = max_events
        swarm.sweep()
        chain, full = capture_chain(swarm, 3)
        records = [record for ident, record in log_records(chain[-1]).items()
                   if ident[2] == "telemetry.trace.records"]
        assert len(records) == 2
        for record in records:
            if max_events == 12:
                assert record["evicted"] > 0
            else:
                assert isinstance(record, list)
        assert canonical(materialize_chain(chain)) == canonical(full)

    def test_shorter_live_log_falls_back_to_a_full_record(self):
        swarm = build_swarm(seed="delta-shrunk")
        swarm.sweep()
        parent = swarm.snapshot()
        swarm.sweep()
        del swarm.members[0].session.channel.transcript._entries[:40]
        delta = swarm.snapshot(parent=parent)
        assert isinstance(channel(delta, 0)["transcript"], list)
        assert isinstance(channel(delta, 1)["transcript"], dict)
        assert canonical(materialize_chain([parent, delta])) == \
            canonical(swarm.snapshot())

    def test_deltas_with_full_logs_still_fold(self):
        """Delta documents written before tails existed carry whole
        logs; they fold exactly as before."""
        swarm = build_swarm(seed="delta-old-format")
        swarm.sweep()
        chain, full = capture_chain(swarm, 3)
        old = json.loads(json.dumps(chain))
        for position in range(1, len(old)):
            folded = log_records(materialize_chain(chain[:position + 1]))
            for ident, (box, field) in _log_instances(
                    old[position]["state"], "swarm").items():
                box[field] = folded[ident]
        relink(old)
        assert all(isinstance(record, list)
                   for record in log_records(old[-1]).values())
        assert canonical(materialize_chain(old)) == canonical(full)

    def test_trace_length_reads_tails(self):
        swarm = build_swarm(seed="delta-trace-length")
        swarm.sweep()
        chain, full = capture_chain(swarm, 2)
        assert checkpoint_trace_length(chain[-1]) == \
            checkpoint_trace_length(full)


class TestHostileTails:
    """Malformed tail records fail with a typed error and never mutate
    the documents handed in."""

    @pytest.fixture(scope="class")
    def chain(self):
        swarm = build_swarm(seed="delta-hostile")
        swarm.sweep()
        chain, _ = capture_chain(swarm, 2)
        return chain

    @staticmethod
    def tampered(chain, position, mutate):
        copy = json.loads(json.dumps(chain))
        mutate(copy[position])
        return relink(copy)

    @staticmethod
    def refused(chain, match, tmp_path):
        """``materialize_chain`` and ``load_chain`` both refuse."""
        before = [canonical(document) for document in chain]
        with pytest.raises(SnapshotError, match=match):
            materialize_chain(chain)
        assert [canonical(document) for document in chain] == before
        saved = json.loads(json.dumps(chain))
        for position in range(1, len(saved)):
            saved[position]["meta"] = {"parent_path": f"{position - 1}.json"}
            saved[position]["parent_id"] = document_id(saved[position - 1])
        for position, document in enumerate(saved):
            save_document(document, tmp_path / f"{position}.json")
        with pytest.raises(SnapshotError, match=match):
            load_chain(tmp_path / f"{len(saved) - 1}.json")

    @staticmethod
    def parent_refused(parent, match):
        swarm = build_swarm(seed="delta-hostile")
        swarm.sweep()
        before = canonical(parent)
        with pytest.raises(SnapshotError, match=match):
            swarm.snapshot(parent=parent)
        assert canonical(parent) == before

    def test_base_differing_from_the_parent_count(self, chain, tmp_path):
        def mutate(document):
            channel(document)["transcript"]["base"] += 1
        self.refused(self.tampered(chain, 2, mutate),
                     "does not match the parent's cumulative count",
                     tmp_path)

    def test_tail_in_a_root_document(self, chain, tmp_path):
        def mutate(document):
            records = channel(document)["transcript"]
            channel(document)["transcript"] = {"base": 0, "tail": records}
        bad = self.tampered(chain, 0, mutate)
        self.refused(bad, "tail record in the chain root", tmp_path)
        self.parent_refused(bad[0], "tail record in a full parent")

    def test_negative_base(self, chain, tmp_path):
        def mutate(document):
            channel(document)["transcript"]["base"] = -1
        bad = self.tampered(chain, 2, mutate)
        self.refused(bad, "non-negative", tmp_path)
        self.parent_refused(bad[2], "non-negative")

    def test_too_large_base(self, chain, tmp_path):
        def mutate(document):
            channel(document)["transcript"]["base"] = 10 ** 9
        bad = self.tampered(chain, 2, mutate)
        self.refused(bad, "does not match the parent's cumulative count",
                     tmp_path)
        # Against it as a parent, capture cannot prove the live log
        # extends it, so it stores the full log instead of failing.
        swarm = build_swarm(seed="delta-hostile")
        swarm.sweep()
        delta = swarm.snapshot(parent=bad[2])
        assert isinstance(channel(delta)["transcript"], list)

    def test_tail_that_is_not_a_list(self, chain, tmp_path):
        def mutate(document):
            channel(document)["transcript"]["tail"] = "not-a-list"
        bad = self.tampered(chain, 2, mutate)
        self.refused(bad, "must be a list", tmp_path)
        self.parent_refused(bad[2], "must be a list")

    def test_more_evictions_than_the_parent_held(self, chain, tmp_path):
        held = len(trace(chain[0])["records"])

        def mutate(document):
            box = trace(document)
            box["records"]["evicted"] += held + 1
            # Enough new entries that the counter stays below the
            # cumulative count: only the eviction claim is wrong.
            box["records"]["tail"] += trace(chain[0])["records"] * 2
            box["dropped_events"] += held + 1
        self.refused(self.tampered(chain, 1, mutate),
                     "evicts .* entries but the parent held", tmp_path)

    def test_counter_beyond_the_cumulative_count(self, chain, tmp_path):
        def mutate(document):
            trace(document)["dropped_events"] = 10 ** 6
        bad = self.tampered(chain, 2, mutate)
        self.refused(bad, "exceeds the log's cumulative count", tmp_path)
        self.parent_refused(bad[2], "exceeds the log's cumulative count")


def regions(document, member=0):
    """A member's region records by name."""
    session = _session_states(document["state"], document["kind"])[member]
    return {record["name"]: record for record in session["device"]["regions"]}


def ota(swarm, round_index):
    """One fleet-shared flash update: every member gets the same bytes
    at the same places, each in its own rotated write order, so region
    contents stay equal while write-chain fingerprints diverge."""
    size = swarm.members[0].session.device.flash.size
    writes = [(offset, bytes((round_index * 7 + offset + i) % 256
                             for i in range(200)))
              for offset in (0, 4096 + 100, 3 * 4096 + 7, size - 200)]
    for member in swarm.members:
        shift = member.index % len(writes)
        for offset, data in writes[shift:] + writes[:shift]:
            member.session.device.flash.load(offset, data)


def ota_chain(swarm, links):
    chain = [swarm.snapshot()]
    for round_index in range(links):
        ota(swarm, round_index)
        swarm.sweep()
        chain.append(swarm.snapshot(parent=chain[-1]))
    return chain, swarm.snapshot()


def histories(chain):
    """Distinct region histories of a chain: root fingerprint plus each
    link's delta record (and fingerprint, for whole-blob links)."""
    found = set()
    for member in range(len(_session_states(chain[0]["state"], "swarm"))):
        for name, root in regions(chain[0], member).items():
            links = tuple(
                (canonical(record["delta"]),
                 record["fingerprint"] if record["delta"]["mode"] == "blob"
                 else None)
                for record in (regions(document, member)[name]
                               for document in chain[1:]))
            found.add((name, root["fingerprint"], links))
    return found


class TestFoldMemo:
    """Members with one region history fold once and share the image;
    every check still sees every distinct image."""

    @staticmethod
    def spy(monkeypatch):
        calls = []
        fold = delta_module._fold_region

        def spying(name, records, doc_blobs):
            calls.append(name)
            return fold(name, records, doc_blobs)
        monkeypatch.setattr(delta_module, "_fold_region", spying)
        return calls

    def test_shuffled_ota_folds_each_history_once(self, monkeypatch):
        swarm = build_swarm(size=4, seed="delta-ota")
        swarm.sweep()
        chain, full = ota_chain(swarm, 2)
        flash = [regions(full, member)["flash"]["fingerprint"]
                 for member in range(4)]
        assert len(set(flash)) == 4                       # histories diverge
        assert len({full["blobs"][fp] for fp in flash}) == 1   # bytes do not
        calls = self.spy(monkeypatch)
        folded = materialize_chain(chain)
        assert canonical(folded) == canonical(full)
        assert calls.count("flash") == 1
        assert len(calls) == len(histories(chain)) < 4 * len(regions(full))

    def test_one_differing_chunk_folds_apart(self, monkeypatch):
        swarm = build_swarm(size=2, seed="delta-ota-apart")
        swarm.sweep()
        chain = [swarm.snapshot()]
        ota(swarm, 0)
        swarm.members[1].session.device.flash.load(2 * 4096, b"\x5a" * 64)
        swarm.sweep()
        chain.append(swarm.snapshot(parent=chain[-1]))
        ota(swarm, 1)
        swarm.sweep()
        chain.append(swarm.snapshot(parent=chain[-1]))
        full = swarm.snapshot()
        dirty = [regions(chain[1], member)["flash"]["delta"]["dirty"]
                 for member in range(2)]
        assert set(dirty[1]) - set(dirty[0]) == {2}
        calls = self.spy(monkeypatch)
        assert canonical(materialize_chain(chain)) == canonical(full)
        assert calls.count("flash") == 2
        images = [full["blobs"][regions(full, member)["flash"]
                                ["fingerprint"]] for member in range(2)]
        assert images[0] != images[1]

    def test_corrupt_chunk_shared_by_every_member_is_refused(self):
        swarm = build_swarm(size=4, seed="delta-ota-corrupt")
        swarm.sweep()
        chain, _ = ota_chain(swarm, 2)
        bad = json.loads(json.dumps(chain))
        tip = bad[-1]
        delta = regions(tip)["flash"]["delta"]
        assert all(regions(tip, member)["flash"]["delta"] == delta
                   for member in range(4))
        index = unb64(tip["blobs"][delta["index"]])
        chunk = delta["dirty"][0]
        key = index[chunk * 20:(chunk + 1) * 20].hex()
        payload = bytearray(unb64(tip["blobs"][key]))
        payload[0] ^= 0x01
        tip["blobs"][key] = b64(bytes(payload))
        before = [canonical(document) for document in bad]
        with pytest.raises(SnapshotError,
                           match="does not match the tip checkpoint"):
            materialize_chain(bad)
        assert [canonical(document) for document in bad] == before

    def test_truncated_tip_index_is_refused(self):
        """The end-to-end check covers every chunk of the window: a tip
        index cut to one digest must not let a corrupt root image
        through an ``unchanged`` region."""
        swarm = build_swarm(size=2, seed="delta-short-index")
        swarm.sweep()
        root = swarm.snapshot()
        rewrite(swarm, 0)
        swarm.sweep()
        chain = [root, swarm.snapshot(parent=root)]
        assert regions(chain[1])["flash"]["delta"]["mode"] == "unchanged"

        def tampered(truncate):
            bad = json.loads(json.dumps(chain))
            fingerprint = regions(bad[0])["flash"]["fingerprint"]
            image = bytearray(unb64(bad[0]["blobs"][fingerprint]))
            image[-1] ^= 0xFF
            bad[0]["blobs"][fingerprint] = b64(bytes(image))
            if truncate:
                key = regions(bad[1])["flash"]["delta"]["index"]
                bad[1]["blobs"][key] = b64(unb64(bad[1]["blobs"][key])[:20])
            return relink(bad)

        with pytest.raises(SnapshotError,
                           match="chunk-digest index at chain document 1 "
                                 "has 1 entries"):
            materialize_chain(tampered(truncate=True))
        with pytest.raises(SnapshotError,
                           match="does not match the tip checkpoint"):
            materialize_chain(tampered(truncate=False))


class TestHostileRegionDeltas:
    """Type-confused region delta records fail with a typed error and
    never mutate the documents handed in."""

    @pytest.fixture(scope="class")
    def chain(self):
        swarm = build_swarm(seed="delta-hostile-regions")
        swarm.sweep()
        chain, _ = capture_chain(swarm, 2)
        return chain

    @staticmethod
    def refused(chain, mutate, match):
        bad = json.loads(json.dumps(chain))
        record = regions(bad[1])["ram"]
        assert record["delta"]["mode"] == "chunks"
        mutate(record)
        relink(bad)
        before = [canonical(document) for document in bad]
        with pytest.raises(SnapshotError, match=match):
            materialize_chain(bad)
        assert [canonical(document) for document in bad] == before

    @pytest.mark.parametrize("field, value, match", [
        ("chunk_size", 0, "chunk_size .* must be a positive integer"),
        ("chunk_size", -4096, "chunk_size .* must be a positive integer"),
        ("chunk_size", "4096", "chunk_size .* must be a positive integer"),
        ("chunk_size", True, "chunk_size .* must be a positive integer"),
        ("chunk_size", [4096], "chunk_size .* must be a positive integer"),
        ("dirty", [[0]], "dirty .* must be a list of chunk numbers"),
        ("dirty", "0", "dirty .* must be a list of chunk numbers"),
        ("dirty", [1.0], "dirty .* must be a list of chunk numbers"),
        ("dirty", {"0": 0}, "dirty .* must be a list of chunk numbers"),
        ("dirty", [10 ** 6], "dirty chunk 1000000 out of range"),
        ("index", 5, "index .* must be a hex string"),
        ("index", ["ab"], "index .* must be a hex string"),
        ("index", "zz", "missing blob"),
        ("mode", ["chunks"], "unknown delta mode"),
        ("mode", None, "unknown delta mode"),
    ])
    def test_bad_field(self, chain, field, value, match):
        def mutate(record):
            record["delta"][field] = value
        self.refused(chain, mutate, match)

    @pytest.mark.parametrize("field", ["chunk_size", "index", "dirty"])
    def test_missing_field(self, chain, field):
        def mutate(record):
            del record["delta"][field]
        self.refused(chain, mutate, field if field != "index"
                     else "no chunk-digest index|must be a hex string")

    @pytest.mark.parametrize("value", ["chunks", ["chunks"], 7])
    def test_delta_that_is_not_an_object(self, chain, value):
        def mutate(record):
            record["delta"] = value
        self.refused(chain, mutate, "delta record .* must be an object")


class TestIndexedFullParent:
    """A full record of a tree-bearing region carries its chunk-digest
    index, so the first delta against a full parent diffs leaf digests
    instead of re-hashing the parent's images."""

    @staticmethod
    def members(document):
        return range(len(_session_states(document["state"],
                                          document["kind"])))

    def test_full_records_carry_the_chunk_index(self):
        swarm = build_swarm(seed="delta-indexed-root")
        swarm.sweep()
        root = swarm.snapshot()
        ram = swarm.members[0].session.device.ram
        record = regions(root)["ram"]
        assert record["chunk_size"] == DEFAULT_CHUNK_SIZE
        assert unb64(root["blobs"][record["index"]]) == b"".join(
            ram.digest_tree.leaf_digests(ram._data))
        assert "rom" not in regions(root)   # ROM travels as a fingerprint

    def test_capture_needs_no_parent_image(self):
        swarm = build_swarm(seed="delta-imageless-root")
        swarm.sweep()
        root = swarm.snapshot()
        stripped = json.loads(json.dumps(root))
        for member in self.members(stripped):
            for record in regions(stripped, member).values():
                stripped["blobs"].pop(record["fingerprint"], None)
        rewrite(swarm, 0)
        swarm.sweep()
        delta = swarm.snapshot(parent=stripped)
        modes = {record["delta"]["mode"] for member in self.members(delta)
                 for record in regions(delta, member).values()}
        assert "chunks" in modes and "blob" not in modes
        direct = swarm.snapshot(parent=root)
        assert delta["blobs"] == direct["blobs"]
        assert delta["state"] == direct["state"]
        assert canonical(materialize_chain([root, direct])) == \
            canonical(swarm.snapshot())

    @staticmethod
    def forge_live_index(bad, swarm):
        """Each member's root RAM index claims the member's *live*
        leaves, so capture sees no dirty chunk where the root image
        differs from live memory."""
        for member in swarm.members:
            ram = member.session.device.ram
            payload = b"".join(ram.digest_tree.leaf_digests(ram._data))
            key = hashlib.sha1(payload).hexdigest()
            bad["blobs"][key] = b64(payload)
            regions(bad, member.index)["ram"]["index"] = key

    @pytest.mark.parametrize("tamper", ["truncated", "misaligned",
                                        "chunk-size", "scrambled",
                                        "forged"])
    def test_bad_parent_index_folds_exactly_or_refuses(self, tamper):
        swarm = build_swarm(seed=f"delta-bad-index-{tamper}")
        swarm.sweep()
        bad = swarm.snapshot()
        rewrite(swarm, 0)
        swarm.sweep()
        if tamper == "forged":
            self.forge_live_index(bad, swarm)
        else:
            for member in self.members(bad):
                record = regions(bad, member)["ram"]
                payload = unb64(bad["blobs"][record["index"]])
                if tamper == "chunk-size":
                    record["chunk_size"] = DEFAULT_CHUNK_SIZE // 2
                    continue
                payload = {"truncated": payload[:20],
                           "misaligned": payload[:-1],
                           "scrambled": payload[20:] + payload[:20],
                           }[tamper]
                record["index"] = hashlib.sha1(payload).hexdigest()
                bad["blobs"][record["index"]] = b64(payload)
        chain = [bad, swarm.snapshot(parent=bad)]
        modes = {regions(chain[1], member)["ram"]["delta"]["mode"]
                 for member in self.members(bad)}
        before = [canonical(document) for document in chain]
        if tamper == "forged":
            assert modes == {"chunks"}
            with pytest.raises(SnapshotError,
                               match="does not match the tip checkpoint"):
                materialize_chain(chain)
        else:
            assert modes == ({"chunks"} if tamper == "scrambled"
                             else {"blob"})
            assert canonical(materialize_chain(chain)) == \
                canonical(swarm.snapshot())
        assert [canonical(document) for document in chain] == before


class TestCorruptBase64:
    """Every base64 field of a document fails with a typed error:
    malformed text, non-ASCII text, or a payload of the wrong size."""

    SEED = "delta-b64"

    @pytest.fixture(scope="class")
    def document(self):
        swarm = build_swarm(size=2, seed=self.SEED)
        swarm.sweep()
        return swarm.snapshot()

    @staticmethod
    def locate(document, field):
        """``(box, key)`` holding the field's base64 text."""
        if field == "blob":
            return document["blobs"], next(iter(document["blobs"]))
        if field == "prefix":
            return regions(document)["ram"], "prefix"
        session = _session_states(document["state"], "swarm")[0]
        if field == "mpu":
            return session["device"], "mpu"
        if field == "outstanding":
            request = b64(AttestationRequest(challenge=b"c" * 20).to_bytes())
            session["verifier_node"]["outstanding"] = [request]
            return session["verifier_node"]["outstanding"], 0
        transcript = channel(document)["transcript"]
        assert transcript
        return transcript[0]["message"], "data"

    @pytest.mark.parametrize("field", ["blob", "prefix", "mpu", "message",
                                       "outstanding"])
    @pytest.mark.parametrize("value", ["abc", "\u00e9", "truncated"])
    def test_typed_error(self, document, field, value):
        bad = json.loads(json.dumps(document))
        box, key = self.locate(bad, field)
        if value == "truncated":
            value = b64(unb64(box[key])[:-1])
        box[key] = value
        before = canonical(bad)
        if field == "blob":
            with pytest.raises(SnapshotError):
                materialize_chain([bad])
        with pytest.raises(SnapshotError):
            build_swarm(size=2, seed=self.SEED).restore(bad)
        assert canonical(bad) == before


class TestInvalidateTimesDeltaRestore:
    def test_restored_trees_rebuild_byte_identical_roots(self):
        """Restore invalidates every digest tree; the lazily rebuilt
        roots and leaf rows must match a from-scratch tree over the
        same bytes -- stale leaves would silently corrupt the *next*
        delta capture."""
        live = build_swarm(seed="delta-trees")
        live.sweep()
        chain, _ = capture_chain(live, 2)
        resumed = build_swarm(seed="delta-trees")
        resumed.restore(materialize_chain(chain))
        for member in resumed.members:
            for region in member.session.device.memory:
                tree = getattr(region, "digest_tree", None)
                if tree is None:
                    continue
                fresh = DigestTree(tree.window_start, tree.window_size,
                                   chunk_size=tree.chunk_size,
                                   arity=tree.arity)
                assert tree.root(region._data) == \
                    fresh.root(region._data)
                assert tree.leaf_digests(region._data) == \
                    fresh.leaf_digests(region._data)

    def test_next_delta_after_restore_matches_uninterrupted(self):
        live = build_swarm(seed="delta-trees-2")
        live.sweep()
        chain, _ = capture_chain(live, 1)
        resumed = build_swarm(seed="delta-trees-2")
        resumed.restore(materialize_chain(chain))
        rewrite(live, 7)
        rewrite(resumed, 7)
        live.sweep()
        resumed.sweep()
        live_delta = live.snapshot(parent=chain[-1])
        resumed_delta = resumed.snapshot(parent=chain[-1])
        assert canonical(live_delta) == canonical(resumed_delta)


class TestShardedFleetDelta:
    def test_shard_parallel_chain_folds_and_restores(self):
        spec = FleetSpec(size=4,
                         device_config=DeviceConfig(ram_size=8 * 1024,
                                                    flash_size=16 * 1024,
                                                    app_size=2 * 1024),
                         observe=True, incremental=True,
                         seed="delta-fleet-test")
        with FleetEngine(spec, workers=2) as engine:
            engine.sweep()
            chain = [engine.snapshot()]
            engine.sweep()
            chain.append(engine.snapshot(parent=chain[-1]))
            full = engine.snapshot()
            continued = engine.sweep()
        folded = materialize_chain(chain)
        assert canonical(folded) == canonical(full)
        with FleetEngine(spec, workers=2) as resumed:
            resumed.restore(folded)
            assert resumed.sweep() == continued

    def test_delta_against_another_worker_count(self):
        """A parent captured on two workers serves a delta captured on
        one or three, equal to the sequential swarm's delta."""
        spec = FleetSpec(size=4, incremental=True, seed="delta-fleet-wc")
        with FleetEngine(spec, workers=2) as engine:
            engine.sweep()
            parent = engine.snapshot()
        sequential = spec.build()
        sequential.sweep()
        sequential.sweep()
        expected = canonical(sequential.snapshot(parent=parent))
        for workers in (1, 3):
            with FleetEngine(spec, workers=workers) as other:
                other.sweep()
                other.sweep()
                assert canonical(other.snapshot(parent=parent)) == expected


class TestBisect:
    @staticmethod
    def run_with_checkpoints(seed, sweeps):
        recorded = build_swarm(size=2, seed=seed)
        documents = [recorded.snapshot()]
        for _ in range(sweeps):
            recorded.sweep()
            documents.append(recorded.snapshot(parent=documents[-1]))
        truth = build_swarm(size=2, seed=seed)
        for _ in range(sweeps):
            truth.sweep()
        return documents, truth.merged_trace_records()

    def test_finds_the_exact_first_flip_cheaper_than_linear(self):
        documents, records = self.run_with_checkpoints("bisect-unit", 12)
        threshold = records[-1]["time"] * 0.8
        predicate = lambda record: record["time"] >= threshold
        expected = next(r for r in records if predicate(r))
        found = bisect_replay(build_swarm(size=2, seed="bisect-unit"),
                              documents, predicate)
        assert found["seq"] == expected["seq"]
        assert found["record"] == expected
        assert found["probes"] > 0
        baseline = linear_scan(build_swarm(size=2, seed="bisect-unit"),
                               documents[0], predicate)
        assert baseline["seq"] == expected["seq"]
        assert found["events_replayed"] < baseline["events_replayed"]

    def test_chain_and_materialized_checkpoints_bisect_alike(self):
        documents, records = self.run_with_checkpoints("bisect-chain", 3)
        assert [document["schema"] for document in documents[1:]] == \
            [SNAPSHOT_DELTA_SCHEMA_ID] * 3
        materialized = [materialize_chain(documents[:position + 1])
                        for position in range(len(documents))]
        threshold = records[-1]["time"] * 0.5
        predicate = lambda record: record["time"] >= threshold
        found = [bisect_replay(build_swarm(size=2, seed="bisect-chain"),
                               checkpoints, predicate)
                 for checkpoints in (documents, materialized)]
        assert found[0] == found[1]
        assert found[0]["seq"] == next(r for r in records
                                       if predicate(r))["seq"]

    def test_checkpoint_trace_length_anchors_the_axis(self):
        documents, records = self.run_with_checkpoints("bisect-len", 2)
        assert checkpoint_trace_length(documents[0]) == 0
        assert checkpoint_trace_length(documents[-1]) == len(records)

    def test_unobserved_checkpoints_refuse(self):
        swarm = build_swarm(size=2, observe=False, seed="bisect-blind")
        swarm.sweep()
        with pytest.raises(SnapshotError, match="observe"):
            bisect_replay(build_swarm(size=2, observe=False,
                                      seed="bisect-blind"),
                          [swarm.snapshot()], lambda record: True)

    def test_never_matching_predicate_refuses(self):
        documents, _ = self.run_with_checkpoints("bisect-never", 1)
        with pytest.raises(SnapshotError, match="never matched"):
            bisect_replay(build_swarm(size=2, seed="bisect-never"),
                          documents, lambda record: False, max_sweeps=2)


class TestRoundTripProperties:
    @given(profile_index=st.integers(min_value=0,
                                     max_value=len(ALL_PROFILES) - 1),
           clock_kind=st.sampled_from(["hw64", "hw32div", "sw", "none"]),
           links=st.integers(min_value=1, max_value=3),
           size=st.integers(min_value=2, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_chain_identity_across_profiles_and_clocks(
            self, profile_index, clock_kind, links, size):
        profile = ALL_PROFILES[profile_index]
        seed = f"hyp-delta:{profile.name}:{clock_kind}:{links}:{size}"

        def build():
            return Swarm(size, profile=profile,
                         device_config=DeviceConfig(clock_kind=clock_kind),
                         observe=True, incremental=True, seed=seed)

        live = build()
        live.sweep()
        chain, full = capture_chain(live, links)
        assert canonical(materialize_chain(chain)) == canonical(full)
        resumed = build()
        resumed.restore(materialize_chain(chain))
        assert live.sweep() == resumed.sweep()
        assert (live.freshness_fingerprint()
                == resumed.freshness_fingerprint())
