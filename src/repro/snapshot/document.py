"""Snapshot documents: versioned JSON envelopes and file I/O.

Every snapshot -- session, swarm or service -- ships in one envelope::

    {"schema": "repro.snapshot/v1",
     "kind": "session" | "swarm" | "service",
     "blobs": {fingerprint-hex: base64-image, ...},
     "state": {...kind-specific payload...},
     "meta": {...optional caller extras, e.g. the CLI rebuild spec...}}

The envelope is plain JSON (no pickling, no arbitrary types), so
snapshots are diffable, greppable, and safe to load from untrusted
disks: restore rebuilds objects deterministically and only *overwrites*
fields, it never instantiates types named by the document.

A document holds simulated state only.  Host memos -- the state-digest
cache above all -- never travel: restore starts them cold, so a
document can restore memory but never vouch for it.  A sharded
:class:`~repro.perf.fleet.FleetEngine` therefore writes the same
``swarm`` document a sequential swarm does, byte for byte, and either
restores it at any worker count.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from ..errors import SnapshotError
from ..obs.schema import (SNAPSHOT_DELTA_SCHEMA_ID, SNAPSHOT_SCHEMA_ID,
                          validate_snapshot, validate_snapshot_delta)
from .blobs import BlobStore
from .codec import BOOL, INT, NUMBER, STRING
from .service import SERVICE
from .session import SESSION
from .swarm import SWARM

#: The field table of each document kind's ``state``.
KINDS = {"session": SESSION, "swarm": SWARM, "service": SERVICE}

__all__ = ["KINDS", "make_document", "document_id", "is_delta",
           "open_document", "save_document", "load_document", "swarm_spec",
           "build_swarm_from_spec", "check_spec"]


def document_id(document: dict) -> str:
    """Content address of a snapshot document: SHA-1 of its canonical
    JSON (sorted keys, no whitespace).  Saving and reloading a document
    preserves its id -- ``save_document`` writes sorted keys and JSON
    scalars round-trip exactly."""
    payload = json.dumps(document, sort_keys=True,
                         separators=(",", ":")).encode()
    return hashlib.sha1(payload).hexdigest()


def make_document(kind: str, state: dict, blobs: BlobStore,
                  meta: dict | None = None, parent_id: str | None = None
                  ) -> dict:
    """Assemble a full envelope, or with ``parent_id`` (the
    :func:`document_id` of the document this state was captured
    against) a ``repro.snapshot.delta/v1`` envelope."""
    document = {"schema": (SNAPSHOT_SCHEMA_ID if parent_id is None
                           else SNAPSHOT_DELTA_SCHEMA_ID),
                "kind": kind, "blobs": blobs.encode(), "state": state}
    if parent_id is not None:
        document["parent_id"] = parent_id
    if meta is not None:
        document["meta"] = meta
    return document


def is_delta(document) -> bool:
    """Whether ``document`` claims the delta schema (it is validated as
    one); anything else is validated as a full snapshot."""
    return (isinstance(document, dict)
            and document.get("schema") == SNAPSHOT_DELTA_SCHEMA_ID)


def open_document(document, what: str, kind: str | None = None,
                  select=None) -> tuple[dict, BlobStore]:
    """The one gate every snapshot read passes: validate ``document``
    against the full or the delta schema (:func:`is_delta` chooses),
    refuse a ``kind`` other than the expected one and a ``state``
    missing a top-level key of its kind's table (:data:`KINDS`), and
    decode its blobs -- all of them, or only the keys ``select(state)``
    names.  Returns ``(state, blobs)``; ``what`` names the document in
    errors."""
    if is_delta(document):
        errors = validate_snapshot_delta(document)
    else:
        errors = validate_snapshot(document)
    if errors:
        raise SnapshotError(f"invalid {what}: " + "; ".join(errors))
    if kind is not None and document["kind"] != kind:
        raise SnapshotError(
            f"snapshot kind mismatch: {what} is {document['kind']!r}, "
            f"expected {kind!r}")
    state, encoded = document["state"], document["blobs"]
    for key in KINDS[document["kind"]].names:
        if key not in state:
            raise SnapshotError(f"invalid {what}: {document['kind']} state "
                                f"is missing key {key!r}")
    if select is not None:
        encoded = {key: encoded[key] for key in select(state)
                   if key in encoded}
    return state, BlobStore.decode(encoded)


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
    """Read and validate one document file; its blobs stay encoded
    until the document is opened (:func:`repro.snapshot.delta.\
open_chain`)."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"{path} is not a JSON document: {exc}") \
            from None
    open_document(document, f"snapshot document {path}",
                  select=lambda state: ())
    return document


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


#: Field codecs of a :func:`swarm_spec` (``incremental`` may be absent).
_SWARM_SPEC_FIELDS = {"size": INT, "profile": STRING, "auth_scheme": STRING,
                      "policy": STRING, "ram_kb": INT, "flash_kb": INT,
                      "app_kb": INT, "retry": BOOL, "faults": BOOL,
                      "incremental": BOOL, "stagger_seconds": NUMBER,
                      "seed": STRING}


def check_spec(spec, fields: dict, optional: tuple = ()) -> None:
    """Refuse a rebuild spec read from a document unless it is an
    object carrying every field of ``fields`` (name -> value codec)
    with a value its codec takes; only names in ``optional`` may be
    absent."""
    if not isinstance(spec, dict):
        raise SnapshotError(f"rebuild spec must be an object, got "
                            f"{type(spec).__name__}")
    for name, codec in fields.items():
        if name not in spec:
            if name in optional:
                continue
            raise SnapshotError(f"rebuild spec is missing field {name!r}")
        try:
            codec.decode(spec[name])
        except TypeError as exc:
            raise SnapshotError(f"rebuild spec field {name!r} {exc}") \
                from None


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
