"""Snapshot documents: versioned JSON envelopes, file I/O, fleet merge.

Every snapshot -- session, swarm or fleet -- ships in one envelope::

    {"schema": "repro.snapshot/v1",
     "kind": "session" | "swarm" | "fleet",
     "blobs": {fingerprint-hex: base64-image, ...},
     "state": {...kind-specific payload...},
     "meta": {...optional caller extras, e.g. the CLI rebuild spec...}}

The envelope is plain JSON (no pickling, no arbitrary types), so
snapshots are diffable, greppable, and safe to load from untrusted
disks: restore rebuilds objects deterministically and only *overwrites*
fields, it never instantiates types named by the document.

A fleet document records per-shard swarm payloads (each with its own
state-digest cache), so restoring into a :class:`FleetEngine` with the
same shard partition resumes every worker exactly -- including cache
hit/miss accounting.  :func:`flatten_fleet_state` merges the shards
into a single swarm payload for sequential restore on any machine,
dropping only the per-shard caches (host-side accounting; the restored
sequential swarm runs uncached like the seed path).
"""

from __future__ import annotations

import json
import os
import tempfile

from ..errors import SnapshotError
from ..obs.schema import (SNAPSHOT_DELTA_SCHEMA_ID, SNAPSHOT_SCHEMA_ID,
                          validate_snapshot, validate_snapshot_delta)
from .blobs import BlobStore

__all__ = ["make_document", "unwrap_document", "save_document",
           "load_document", "flatten_fleet_state", "swarm_spec",
           "build_swarm_from_spec", "check_spec"]


def make_document(kind: str, state: dict, blobs: BlobStore,
                  meta: dict | None = None) -> dict:
    document = {"schema": SNAPSHOT_SCHEMA_ID, "kind": kind,
                "blobs": blobs.encode(), "state": state}
    if meta is not None:
        document["meta"] = meta
    return document


def unwrap_document(document: dict, kind: str) -> tuple[dict, BlobStore]:
    """Validate an envelope and return ``(state, blobs)``."""
    errors = validate_snapshot(document)
    if errors:
        raise SnapshotError("invalid snapshot document: "
                            + "; ".join(errors))
    if document["kind"] != kind:
        raise SnapshotError(
            f"snapshot kind mismatch: document is {document['kind']!r}, "
            f"expected {kind!r}")
    return document["state"], BlobStore.decode(document["blobs"])


def save_document(document: dict, path: str) -> None:
    """Write ``document`` atomically: an interrupted save (crash, kill,
    serialization error mid-write) can never leave a truncated document
    at ``path`` -- the bytes land in a same-directory temp file first and
    are published with one ``os.replace``."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(document, handle, sort_keys=True)
            handle.write("\n")
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"{path} is not a JSON document: {exc}") \
            from None
    if (isinstance(document, dict)
            and document.get("schema") == SNAPSHOT_DELTA_SCHEMA_ID):
        errors = validate_snapshot_delta(document)
    else:
        errors = validate_snapshot(document)
    if errors:
        raise SnapshotError(f"invalid snapshot document {path}: "
                            + "; ".join(errors))
    return document


def flatten_fleet_state(state: dict) -> dict:
    """Merge a fleet document's shard payloads into one swarm payload.

    Members concatenate in shard order (shards are contiguous index
    blocks, so this is global member order), breakers union, and the
    per-shard digest caches are dropped -- the flattened payload
    restores into an *uncached* sequential swarm.
    """
    members = []
    breakers = {}
    for shard in state["shards"]:
        members.extend(shard["swarm"]["members"])
        breakers.update(shard["swarm"]["breakers"])
    shard_marks = [shard["swarm"].get("trace_marks")
                   for shard in state["shards"]]
    if any(marks is not None for marks in shard_marks):
        # Sweep s of the flattened fleet = the shards' sweep-s
        # watermarks concatenated in shard (== member) order.
        trace_marks = [[mark for marks in shard_marks
                        for mark in marks[sweep]]
                       for sweep in range(len(shard_marks[0]))]
    else:
        trace_marks = None
    return {"sweeps_run": state["sweeps_run"], "members": members,
            "breakers": breakers, "state_cache": None,
            "trace_marks": trace_marks}


# ---------------------------------------------------------------------------
# CLI rebuild specs: enough plain JSON to rebuild the swarm a snapshot
# was taken from, so ``repro snapshot restore`` needs no re-typed flags.
# ---------------------------------------------------------------------------

def swarm_spec(*, size: int, profile: str = "roam-hardened",
               auth_scheme: str = "speck-64/128-cbc-mac",
               policy: str = "counter", ram_kb: int = 16,
               flash_kb: int = 32, app_kb: int = 4, retry: bool = False,
               faults: bool = False, incremental: bool = False,
               stagger_seconds: float = 0.0,
               seed: str = "cli-snapshot") -> dict:
    """A JSON-ready description of a CLI-built fleet."""
    return {"size": size, "profile": profile, "auth_scheme": auth_scheme,
            "policy": policy, "ram_kb": ram_kb, "flash_kb": flash_kb,
            "app_kb": app_kb, "retry": retry, "faults": faults,
            "incremental": incremental,
            "stagger_seconds": stagger_seconds, "seed": seed}


#: Field types of a :func:`swarm_spec` (``incremental`` may be absent).
_SWARM_SPEC_FIELDS = {"size": int, "profile": str, "auth_scheme": str,
                      "policy": str, "ram_kb": int, "flash_kb": int,
                      "app_kb": int, "retry": bool, "faults": bool,
                      "incremental": bool, "stagger_seconds": float,
                      "seed": str}


def check_spec(spec, fields: dict, optional: tuple = ()) -> None:
    """Refuse a rebuild spec read from a document unless it is an
    object carrying every field of ``fields`` (name -> type) with a
    value of that type; only names in ``optional`` may be absent.
    ``int`` excludes ``bool``; ``float`` accepts any JSON number."""
    if not isinstance(spec, dict):
        raise SnapshotError(f"rebuild spec must be an object, got "
                            f"{type(spec).__name__}")
    for name, kind in fields.items():
        if name not in spec:
            if name in optional:
                continue
            raise SnapshotError(f"rebuild spec is missing field {name!r}")
        value = spec[name]
        if kind is float:
            ok = type(value) in (int, float)
        elif kind is int:
            ok = type(value) is int
        else:
            ok = isinstance(value, kind)
        if not ok:
            raise SnapshotError(
                f"rebuild spec field {name!r} must be "
                f"{'a number' if kind is float else kind.__name__}, "
                f"got {value!r}")


def build_swarm_from_spec(spec: dict):
    """Deterministically rebuild the swarm a spec describes.

    Same spec, same swarm: the builder funnels every parameter through
    the deterministic constructors, so a snapshot taken from one build
    restores cleanly into another.  A malformed spec raises
    :class:`~repro.errors.SnapshotError` naming the field.
    """
    from ..core.resilience import JITTERED_RETRY
    from ..mcu.device import DeviceConfig
    from ..mcu.profiles import ALL_PROFILES
    from ..net.faults import lossy_link
    from ..services.swarm import Swarm

    check_spec(spec, _SWARM_SPEC_FIELDS, optional=("incremental",))
    profiles = {p.name: p for p in ALL_PROFILES}
    try:
        profile = profiles[spec["profile"]]
    except KeyError:
        raise SnapshotError(
            f"unknown protection profile {spec['profile']!r}") from None
    return Swarm(spec["size"], profile=profile,
                 auth_scheme=spec["auth_scheme"],
                 policy_name=spec["policy"],
                 device_config=DeviceConfig(
                     ram_size=spec["ram_kb"] * 1024,
                     flash_size=spec["flash_kb"] * 1024,
                     app_size=spec["app_kb"] * 1024),
                 retry=JITTERED_RETRY if spec["retry"] else None,
                 adversary_factory=lossy_link if spec["faults"] else None,
                 observe=True,
                 incremental=spec.get("incremental", False),
                 seed=spec["seed"])
