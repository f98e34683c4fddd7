"""Envelope validation: ``validate_snapshot`` and document plumbing."""

import pytest

from repro.errors import SnapshotError
from repro.obs.schema import SNAPSHOT_SCHEMA_ID, validate_snapshot
from repro.snapshot import (BlobStore, load_document, make_document,
                            save_document)
from repro.snapshot.delta import open_chain
from repro.snapshot.document import open_document


def minimal_session_document():
    state = {"sim": {}, "device": {}, "channel": {}, "verifier": {},
             "verifier_node": {}, "anchor": {}, "telemetry": None}
    return make_document("session", state, BlobStore())


class TestValidateSnapshot:
    def test_minimal_documents_validate(self):
        assert validate_snapshot(minimal_session_document()) == []
        swarm = make_document(
            "swarm", {"sweeps_run": 0, "members": [], "breakers": {}},
            BlobStore())
        assert validate_snapshot(swarm) == []

    def test_fleet_kind_flagged(self):
        """A sharded fleet writes swarm documents; the per-shard
        ``fleet`` kind is gone, so a document claiming it is invalid."""
        fleet = make_document(
            "fleet", {"workers": 2, "sweeps_run": 0, "shards": []},
            BlobStore())
        assert any("kind" in error for error in validate_snapshot(fleet))
        with pytest.raises(SnapshotError, match="kind"):
            open_chain(fleet)

    def test_schema_id_pinned(self):
        assert minimal_session_document()["schema"] == SNAPSHOT_SCHEMA_ID

    def test_missing_required_keys_flagged(self):
        document = minimal_session_document()
        del document["blobs"]
        assert validate_snapshot(document)

    def test_unknown_kind_flagged(self):
        document = minimal_session_document()
        document["kind"] = "universe"
        assert validate_snapshot(document)

    def test_non_hex_blob_key_flagged(self):
        document = minimal_session_document()
        document["blobs"]["not hex!"] = "AAAA"
        assert validate_snapshot(document)

    def test_non_string_blob_value_flagged(self):
        document = minimal_session_document()
        document["blobs"]["00ff"] = 17
        assert validate_snapshot(document)

    def test_missing_state_keys_flagged(self):
        """The session table's keys are the required ones; the document
        gate names the one missing."""
        document = minimal_session_document()
        open_document(document, "document", "session")
        del document["state"]["anchor"]
        with pytest.raises(SnapshotError, match="'anchor'"):
            open_document(document, "document", "session")


class TestDocumentPlumbing:
    def test_open_rejects_kind_mismatch(self):
        with pytest.raises(SnapshotError, match="kind"):
            open_chain(minimal_session_document(), "swarm")

    def test_open_rejects_invalid_document(self):
        with pytest.raises(SnapshotError):
            open_chain({"schema": "nope"}, "session")

    def test_disk_round_trip(self, tmp_path):
        blobs = BlobStore()
        blobs.put("0102", b"payload")
        document = make_document(
            "swarm", {"sweeps_run": 3, "members": [], "breakers": {},
                      "trace_marks": None},
            blobs, meta={"spec": {"size": 1}})
        path = tmp_path / "checkpoint.json"
        save_document(document, path)
        assert load_document(path) == document

    def test_load_rejects_invalid_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "wrong"}')
        with pytest.raises(SnapshotError):
            load_document(path)


class TestBlobStore:
    def test_put_is_idempotent_for_equal_content(self):
        blobs = BlobStore()
        blobs.put("aa", b"same")
        blobs.put("aa", b"same")
        assert len(blobs) == 1

    def test_collision_refuses(self):
        blobs = BlobStore()
        blobs.put("aa", b"one")
        with pytest.raises(SnapshotError, match="collision"):
            blobs.put("aa", b"two")

    def test_missing_fingerprint_refuses(self):
        with pytest.raises(SnapshotError):
            BlobStore().get("bb")

    def test_encode_decode_round_trip(self):
        blobs = BlobStore()
        blobs.put("10", b"alpha")
        blobs.put("20", b"beta")
        decoded = BlobStore.decode(blobs.encode())
        assert decoded.get("10") == b"alpha"
        assert decoded.get("20") == b"beta"
