"""Delta checkpoints: O(dirty) snapshots chained off a parent document.

A full ``repro.snapshot/v1`` document stores every region window image.
At fleet scale that is O(members * writable bytes) of hashing and
encoding per checkpoint even when only a few freshness words moved
since the last one.  This module adds ``repro.snapshot.delta/v1``: a
checkpoint captured *against a parent document* that records, per
region, only the chunks whose :class:`~repro.incremental.DigestTree`
leaves changed since the parent -- the same dirty-leaf machinery that
makes incremental measurement O(dirty + log N) makes checkpointing
O(dirty) too.

Per-region delta record (the ``delta`` key on a region record):

``{"mode": "unchanged"}``
    The region's write-chain fingerprint equals the parent's: nothing
    stored at all (equal fingerprints imply byte-identical contents at
    and above the exclude bound).
``{"mode": "chunks", "chunk_size": C, "index": H, "dirty": [i, ...]}``
    Only chunks whose leaf digests differ from the parent's are stored,
    each keyed in the :class:`~repro.snapshot.blobs.BlobStore` by its
    own SHA-1 (its *content address*) -- so the identical OTA payload
    applied across a fleet is stored once no matter how many members
    dirtied it.  ``index`` keys the concatenated 20-byte leaf-digest
    row, which both materialization and the *next* delta capture read.
``{"mode": "blob"}``
    Whole-window fallback: no digest tree attached (or its geometry
    does not span the fingerprinted window), or the parent record
    carries no chunk-digest index that fits the window.  The window
    travels under the region fingerprint exactly like a full snapshot.

Every record of a tree-bearing region carries the ``chunk_size`` /
``index`` pair, whatever its mode: on the ``delta`` entry of a delta
record, on the record itself in a full document.  Capture diffs against
the parent's pair and never re-hashes a parent image.

The per-member excluded prefix (IDT / ``counter_R`` / ``Clock_MSB``)
always travels verbatim on the region record -- it is tiny, genuinely
per-device, and below the fingerprint bound, so no chunk diffing
applies.

Append-only logs (the channel transcript, verifier results, busy
intervals, interrupt logs, breaker transitions, event traces; see
:data:`LOGS`) travel as **tails** in a delta instead of whole
lists:

``{"base": B, "tail": [...]}``
    ``B`` is the log's cumulative entry count at the parent; ``tail``
    holds only the entries appended since.
``{"base": B, "evicted": E, "tail": [...]}``
    Front-evicting logs additionally record how many entries fell off
    the front since the parent.

Capture writes a tail only when the parent's recorded counts prove the
live log was merely appended to (and front-evicted) since then; any
other history -- a count below the parent's -- falls back to the plain
full list, which folding accepts anywhere.  So a delta costs O(dirty
chunks + new entries), not O(history).

Chain identity: every document is addressed by :func:`document_id`, the
SHA-1 of its canonical JSON; a delta's ``parent_id`` must equal its
parent's id, so a chain is verified end to end before any folding.
Every restore reads through :func:`open_chain` (a full document is a
chain of one); :func:`materialize_chain` envelopes its result as a full
document **byte-identical** to one captured directly (the equivalence
gates in ``tests/gates/test_delta.py`` and ``repro.perf.snapshot``
enforce this).
"""

from __future__ import annotations

import hashlib
import json
import os

from ..errors import SnapshotError
from .blobs import BlobStore
from .document import (document_id, is_delta, load_document,
                       make_document, open_document)
from .session import SESSION
from .swarm import SWARM

__all__ = ["DeltaBase", "LOGS", "ParentMember", "load_chain",
           "materialize_chain", "open_chain", "parent_blob_keys",
           "unwrap_parent", "verify_chain"]

_DIGEST_LEN = 20

#: The log column of the field tables (see :class:`~repro.snapshot.codec.
#: Table`): each log a delta stores as a tail, by dotted path from its
#: scope's state, to ``(scope, eviction counter)``.
LOGS = {**SESSION.logs, **SWARM.logs}


def unwrap_parent(document: dict, kind: str) -> tuple[dict, BlobStore]:
    """Validate a parent document (full *or* delta) and return
    ``(state, blobs)``.  Diffing only needs the parent's fingerprints
    and chunk-digest indexes, so ``blobs`` holds only the index rows;
    region images are never decoded."""
    state, blobs = open_document(
        document, "delta parent document", kind,
        select=lambda state: _index_keys(_session_states(state, kind)))
    if not is_delta(document):
        _check_whole_logs(state, kind, "a full parent document")
    return state, blobs


def _session_states(state: dict, kind: str) -> list[dict]:
    """The per-member session payloads of a document state, in fleet
    order."""
    if kind == "session":
        return [state]
    return [member["session"] for member in state["members"]]


def _swarm_states(state: dict, kind: str) -> list[dict]:
    """The swarm-scope payloads of a document state: the state itself
    for a swarm, none otherwise (a service records no swarm-scope
    log)."""
    return [state] if kind == "swarm" else []


def _identity(state: dict, kind: str) -> list | None:
    if kind == "session":
        return None
    return [(member["device_id"], member["index"])
            for member in state["members"]]


def _index_box(record: dict):
    """Where a region record keeps its ``chunk_size``/``index`` pair:
    the ``delta`` entry of a delta record, the record itself in a full
    document."""
    return record["delta"] if "delta" in record else record


class ParentMember:
    """One member's view of a parent checkpoint: its region records,
    the parent's blob store (for chunk-digest indexes) and its
    session-scope log counts (see :class:`repro.snapshot.codec.Log`)."""

    __slots__ = ("regions", "blobs", "logs")

    def __init__(self, regions: dict, blobs: BlobStore, logs: dict):
        self.regions = regions
        self.blobs = blobs
        self.logs = logs

    def chunk_digests(self, name: str, chunk_size: int,
                      window_size: int) -> list[bytes] | None:
        """The parent's per-chunk leaf digests for region ``name``,
        read from the chunk-digest index its record carries, or
        ``None`` when it carries none that fits the geometry (capture
        then falls back to a whole blob)."""
        record = self.regions.get(name)
        if record is None:
            return None
        box = _index_box(record)
        if (not isinstance(box, dict) or box.get("chunk_size") != chunk_size
                or not isinstance(box.get("index"), str)):
            return None
        try:
            payload = self.blobs.get(box["index"])
        except SnapshotError:
            return None
        leaves = (window_size + chunk_size - 1) // chunk_size
        if len(payload) != leaves * _DIGEST_LEN:
            return None
        return [payload[i:i + _DIGEST_LEN]
                for i in range(0, len(payload), _DIGEST_LEN)]


class DeltaBase:
    """A parent checkpoint unpacked for delta capture.

    Holds one :class:`ParentMember` per member session (sharing the
    parent's blob store), the member identity list used to refuse
    capture against a mismatched fleet, and the swarm-scope log counts
    (empty unless built from a swarm payload).  It references none of
    the parent's log entries, so a fleet ships each shard worker its
    own slice of the parent at O(members) cost.
    """

    __slots__ = ("_members", "identity", "logs")

    def __init__(self, members: list[ParentMember], identity: list | None,
                 logs: dict):
        self._members = members
        self.identity = identity
        self.logs = logs

    def member(self, index: int) -> ParentMember:
        return self._members[index]

    def __len__(self) -> int:
        return len(self._members)

    @classmethod
    def from_document(cls, document: dict, kind: str) -> "DeltaBase":
        state, blobs = unwrap_parent(document, kind)
        return cls._from_state(state, kind, blobs)

    @classmethod
    def for_swarm_state(cls, state: dict, blobs: BlobStore) -> "DeltaBase":
        """Build from a bare swarm-kind state payload (a fleet builds
        one per shard slice of its parent this way and ships it to the
        shard's worker)."""
        return cls._from_state(state, "swarm", blobs)

    @classmethod
    def _from_state(cls, state: dict, kind: str,
                    blobs: BlobStore) -> "DeltaBase":
        members = []
        for session in _session_states(state, kind):
            regions = {record["name"]: record
                       for record in session["device"]["regions"]}
            members.append(ParentMember(regions, blobs,
                                        _log_counts(session, "session")))
        logs = _log_counts(state, "swarm") if kind == "swarm" else {}
        return cls(members, _identity(state, kind), logs)


def _index_keys(sessions) -> list[str]:
    """The chunk-digest index keys named by the region records of
    ``sessions``, each once, in first-seen order."""
    keys = {}
    for session in sessions:
        for record in session["device"]["regions"]:
            box = _index_box(record)
            key = box.get("index") if isinstance(box, dict) else None
            if isinstance(key, str):
                keys[key] = None
    return list(keys)


def parent_blob_keys(swarm_state: dict) -> list[str]:
    """Every blob key a swarm-kind parent state may reference during
    delta capture: its chunk-digest indexes.  Used to ship each fleet
    shard only the parent payloads its members need."""
    return _index_keys(_session_states(swarm_state, "swarm"))


# ---------------------------------------------------------------------------
# Append-only logs: tail records
# ---------------------------------------------------------------------------

def _log_slots(scope_state: dict, name: str) -> list[tuple]:
    """Where log ``name`` lives in one scope payload: ``(key, box,
    field)`` per instance (``key`` is the ``*`` dict key, else
    ``None``).  Absent or ``None`` logs (no telemetry, no watermarks)
    yield nothing."""
    *path, field = name.split(".")
    boxes = [(None, scope_state)]
    for part in [*path, None]:
        found = []
        for key, box in boxes:
            if not isinstance(box, dict):
                raise SnapshotError(f"log {name}: expected an object on "
                                    f"its path, got {type(box).__name__}")
            if part is None:
                if box.get(field) is not None:
                    found.append((key, box, field))
            elif part == "*":
                found.extend(box.items())
            elif box.get(part) is not None:
                found.append((key, box[part]))
        boxes = found
    return boxes


def _label(name: str, key) -> str:
    return f"log {name}" if key is None else f"log {name}[{key}]"


def _count(box: dict, key: str | None, where: str) -> int:
    if key is None:
        return 0
    value = box.get(key, 0)
    if type(value) is not int or value < 0:
        raise SnapshotError(f"{where}: {key} must be a non-negative "
                            f"integer, got {value!r}")
    return value


def _tail_parts(record, fifo: bool, where: str) -> tuple[int, list, int]:
    """Validate a tail record; returns ``(base, tail, evicted)``."""
    if not isinstance(record, dict):
        raise SnapshotError(f"{where}: record must be a list or a tail "
                            f"object, got {type(record).__name__}")
    expected = {"base", "tail", "evicted"} if fifo else {"base", "tail"}
    if set(record) != expected:
        raise SnapshotError(f"{where}: tail record keys "
                            f"{sorted(record)}, expected {sorted(expected)}")
    base, tail = record["base"], record["tail"]
    evicted = record.get("evicted", 0)
    for label, value in (("base", base), ("evicted", evicted)):
        if type(value) is not int or value < 0:
            raise SnapshotError(f"{where}: tail {label} must be a "
                                f"non-negative integer, got {value!r}")
    if not isinstance(tail, list):
        raise SnapshotError(f"{where}: tail must be a list, got "
                            f"{type(tail).__name__}")
    return base, tail, evicted


def _record_counts(box: dict, name: str, where: str) -> tuple[int, int]:
    """``(cumulative, evicted)`` of one recorded log, full list or
    tail, read from its own document alone."""
    return _read_record(box, name, where)[:2]


def _read_record(box: dict, name: str, where: str) -> tuple:
    """``(cumulative, evicted, tail)`` of one recorded log; ``tail`` is
    :func:`_tail_parts` of a tail record, ``None`` for a full list."""
    counter = LOGS[name][1]
    evicted = _count(box, counter, where)
    record = box[name.rsplit(".", 1)[-1]]
    if isinstance(record, list):
        return evicted + len(record), evicted, None
    tail = _tail_parts(record, counter is not None, where)
    cumulative = tail[0] + len(tail[1])
    if evicted > cumulative:
        raise SnapshotError(
            f"{where}: {counter} {evicted} exceeds the log's "
            f"cumulative count {cumulative}")
    return cumulative, evicted, tail


def _scope_logs(payload: dict, scope: str):
    """``(name, key, box, field)`` for every log of ``scope`` recorded
    in one scope payload."""
    for name, (log_scope, _) in LOGS.items():
        if log_scope == scope:
            for key, box, field in _log_slots(payload, name):
                yield name, key, box, field


def _log_counts(payload: dict, scope: str) -> dict:
    """``{(name, key): (cumulative, evicted)}`` for every log of
    ``scope`` recorded in a parent payload."""
    return {(name, key): _record_counts(box, name, _label(name, key))
            for name, key, box, _ in _scope_logs(payload, scope)}


def _log_instances(state: dict, kind: str) -> dict:
    """Every log recorded in a document state, keyed by ``(scope,
    payload index, name, key)`` -> ``(box, field)``."""
    instances = {}
    for scope, payloads_of in (("session", _session_states),
                               ("swarm", _swarm_states)):
        for index, payload in enumerate(payloads_of(state, kind)):
            for name, key, box, field in _scope_logs(payload, scope):
                instances[(scope, index, name, key)] = (box, field)
    return instances


def _where(ident: tuple) -> str:
    scope, index, name, key = ident
    return f"{scope} {index} {_label(name, key)}"


def _check_whole_logs(state: dict, kind: str, what: str) -> None:
    """A full snapshot stores whole logs: refuse any log of ``state``
    that is a tail record, or neither a list nor a tail."""
    # Streamed, not via _log_instances: a chain of one is checked on
    # every restore, and a dict of every log instance would keep
    # thousands of objects alive and trigger collections over the heap.
    for scope, payloads_of in (("session", _session_states),
                               ("swarm", _swarm_states)):
        for index, payload in enumerate(payloads_of(state, kind)):
            for name, key, box, field in _scope_logs(payload, scope):
                if not isinstance(box[field], list):
                    where = _where((scope, index, name, key))
                    _read_record(box, name, where)
                    raise SnapshotError(f"{where}: tail record in {what}; "
                                        f"a full snapshot stores whole logs")


def _check_log_links(documents: list[dict]) -> list[dict]:
    """Every log record must be a list or a tail, the root's a list,
    and every tail must extend its parent's log exactly: its base
    equals the parent's cumulative count, it evicts no more than the
    parent held, and the document's eviction counter agrees.  Each
    record is read once; its counts serve as the next document's parent
    counts.  Returns each document's :func:`_log_instances`."""
    kind = documents[0]["kind"]
    _check_whole_logs(documents[0]["state"], kind, "the chain root")
    if len(documents) == 1:
        return []       # a chain of one has no links and folds nothing
    chain = []
    parent_counts = {}
    for position, document in enumerate(documents):
        current = _log_instances(document["state"], kind)
        counts = {}
        for ident, (box, _) in current.items():
            where = f"{_where(ident)} at chain document {position}"
            cumulative, counter, tail = _read_record(box, ident[2], where)
            counts[ident] = cumulative, counter
            if tail is None:
                continue
            base, _, evicted = tail
            parent = parent_counts.get(ident)
            if parent is None:
                raise SnapshotError(f"{where}: tail has no parent log to "
                                    f"extend")
            parent_cumulative, parent_counter = parent
            if base != parent_cumulative:
                raise SnapshotError(
                    f"{where}: tail base {base} does not match the "
                    f"parent's cumulative count {parent_cumulative}")
            if evicted > parent_cumulative - parent_counter:
                raise SnapshotError(
                    f"{where}: tail evicts {evicted} entries but the "
                    f"parent held {parent_cumulative - parent_counter}")
            if counter != parent_counter + evicted:
                raise SnapshotError(
                    f"{where}: eviction counter {counter} disagrees with "
                    f"the parent's {parent_counter} plus {evicted} evicted")
        chain.append(current)
        parent_counts = counts
    return chain


def _fold_logs(chain: list[dict]) -> None:
    """Replace every tail record of the last document in ``chain`` (log
    instances per document, the last over a private copy of the tip
    state) by the full log: the newest full list in the chain with each
    later tail applied.  Links were checked by :func:`_check_log_links`."""
    for ident, (box, field) in chain[-1].items():
        tails = []
        record = box[field]
        position = len(chain) - 1
        while not isinstance(record, list):
            tails.append(record)
            position -= 1
            parent_box, _ = chain[position][ident]
            record = parent_box[field]
        if not tails:
            continue
        entries = list(record)
        start = 0
        for tail in reversed(tails):
            start += tail.get("evicted", 0)
            entries.extend(tail["tail"])
        # The entries are shared with the input documents; a JSON
        # round trip keeps the folded document independent of them.
        box[field] = json.loads(json.dumps(entries[start:]))


# ---------------------------------------------------------------------------
# Chains: open, materialize, verify, load
# ---------------------------------------------------------------------------

def open_chain(documents, kind: str | None = None) -> tuple[dict, BlobStore]:
    """The one way into a checkpoint: one document (a chain of one) or
    a root-first chain, opened into the tip's full state plus a
    :class:`BlobStore` of raw images.

    Every document-only check runs before this returns, so before any
    restore mutates anything: :func:`verify_chain`'s, every log of the
    opened state a list, and every region record well-typed with its
    prefix, image and chunk-digest index at their lengths.  ``kind=None``
    takes the root's kind.  A chain of one is not folded, copied or
    hashed.
    """
    if isinstance(documents, dict):
        documents = [documents]
    opened, chain_logs = _open_links(documents, kind)
    kind = documents[0]["kind"]
    if len(documents) == 1:
        state, blobs = opened[0]
    else:
        state, blobs = _fold(kind, opened, chain_logs)
    _check_images(state, kind, blobs)
    return state, blobs


def materialize_chain(documents: list[dict]) -> dict:
    """Fold a root-first delta chain into one full document.

    The result is byte-identical (canonical JSON) to a full snapshot
    captured at the tip: the tip's non-region state travels verbatim,
    each log tail is appended to its log as folded so far, and each
    region image is the root image with every chunk overlay applied in
    chain order, verified against the tip's chunk-digest index when one
    was recorded (the output records and blobs carry that index, as a
    full capture's do).  Each distinct region history (see
    :func:`_fold_key`) is folded and verified once; members sharing it
    share the image.  ``meta`` is the tip's minus its ``parent_path``.
    """
    state, blobs = open_chain(documents)
    meta = {key: value for key, value in
            (documents[-1].get("meta") or {}).items() if key != "parent_path"}
    return make_document(documents[0]["kind"], state, blobs, meta or None)


def verify_chain(documents: list[dict]) -> None:
    """Check a root-first document list is a well-formed delta chain:
    full root, delta descendants of one kind, each ``parent_id``
    matching the :func:`document_id` of the document before it, and
    each log tail extending its parent's log."""
    _open_links(documents, None)


def _open_links(documents: list[dict], kind: str | None) -> tuple:
    """:func:`verify_chain`, returning each document's ``(state,
    blobs)`` and :func:`_check_log_links`' log instances."""
    if not documents:
        raise SnapshotError("delta chain is empty")
    opened = []
    for position, document in enumerate(documents):
        what = f"chain document {position}" if position else "chain root"
        opened.append(open_document(document, what, kind))
        kind = documents[0]["kind"]
        if is_delta(document) != (position > 0):
            raise SnapshotError(
                f"{what} is a {'delta' if position == 0 else 'full'} "
                f"document; a chain is one full snapshot followed by "
                f"its delta descendants")
        if position:
            parent_id = document_id(documents[position - 1])
            if document["parent_id"] != parent_id:
                raise SnapshotError(
                    f"chain broken at document {position}: parent_id "
                    f"{document['parent_id']} does not match the previous "
                    f"document's id {parent_id}")
    return opened, _check_log_links(documents)


def _regions(session, position: int) -> dict:
    """A session payload's region records by name, each an object with
    a string name and fingerprint and integer ``0 <= exclude <= size``,
    none of them ROM (which travels as the device's ``rom``
    fingerprint, never as an image)."""
    device = session.get("device") if isinstance(session, dict) else None
    records = device.get("regions") if isinstance(device, dict) else None
    if not isinstance(records, list):
        raise SnapshotError(f"device regions at chain document {position} "
                            f"must be a list")
    found = {}
    for record in records:
        if not (isinstance(record, dict)
                and isinstance(record.get("name"), str)
                and isinstance(record.get("fingerprint"), str)
                and type(record.get("size")) is int
                and type(record.get("exclude")) is int
                and 0 <= record["exclude"] <= record["size"]):
            raise SnapshotError(f"malformed region record at chain "
                                f"document {position}")
        if record["name"] == "rom":
            raise SnapshotError(f"ROM region record at chain document "
                                f"{position}: a checkpoint carries ROM "
                                f"as its fingerprint, never its image")
        found[record["name"]] = record
    return found


def _check_images(state: dict, kind: str, blobs: BlobStore) -> None:
    """Every region record of an opened state has a prefix that is
    base64 of the excluded length, and its image -- and its chunk-digest
    index, if it records one -- present at the window's length."""
    for session in _session_states(state, kind):
        for name, record in _regions(session, 0).items():
            exclude = record["exclude"]
            window = record["size"] - exclude
            image = blobs.get(record["fingerprint"])
            if len(image) != window:
                raise SnapshotError(f"region {name!r}: image is "
                                    f"{len(image)} bytes, window is "
                                    f"{window}")
            if len(blobs.prefix(record.get("prefix"))) != exclude:
                raise SnapshotError(f"region {name!r}: prefix is not "
                                    f"{exclude} bytes")
            chunk_size, index = _index_fields(name, record, 0)
            if index is not None:
                leaves = (window + chunk_size - 1) // chunk_size
                if len(blobs.get(index)) != leaves * _DIGEST_LEN:
                    raise SnapshotError(
                        f"region {name!r}: chunk-digest index does not "
                        f"hold one digest per chunk of the window")


def _fold(kind: str, opened: list[tuple], chain_logs: list[dict]
          ) -> tuple[dict, BlobStore]:
    """The tip's full state and images of a checked chain of two or
    more documents (``opened``: each one's ``(state, blobs)``)."""
    # Deep copy via JSON round-trip: the fold strips "delta" keys from
    # the tip's region records and replaces its log tails in place, and
    # must not mutate the input.
    state = json.loads(json.dumps(opened[-1][0]))
    chain_logs[-1] = _log_instances(state, kind)
    _fold_logs(chain_logs)
    doc_sessions = [_session_states(doc_state, kind)
                    for doc_state, _ in opened[:-1]]
    doc_sessions.append(_session_states(state, kind))
    doc_blobs = [blobs for _, blobs in opened]
    member_count = len(doc_sessions[0])
    for position, sessions in enumerate(doc_sessions):
        if len(sessions) != member_count:
            raise SnapshotError(
                f"chain document {position} has {len(sessions)} members; "
                f"root has {member_count}")
    out = BlobStore()
    # Members with one region history (an OTA update every member got,
    # whatever the write order) fold once and share the image object,
    # which BlobStore.encode then base64-encodes once.
    folded = {}
    for m in range(member_count):
        record_maps = [_regions(sessions[m], position)
                       for position, sessions in enumerate(doc_sessions)]
        for name, record in record_maps[-1].items():
            records = []
            for position, record_map in enumerate(record_maps):
                link = record_map.get(name)
                if link is None:
                    raise SnapshotError(
                        f"region {name!r} missing from chain document "
                        f"{position}")
                records.append(link)
            key = _fold_key(name, records)
            image = folded.get(key)
            if image is None:
                image = folded[key] = _fold_region(name, records, doc_blobs)
            fields = {field: value
                      for field, value in _index_box(record).items()
                      if field in ("chunk_size", "index")}
            record.pop("delta", None)
            record.update(fields)
            if fields:
                out.put(fields["index"], doc_blobs[-1].get(fields["index"]))
            # Collision-checked: members sharing a fingerprint must
            # fold to identical images or the chain is corrupt.
            out.put(record["fingerprint"], image)
    return state, out


_DELTA_MODES = ("unchanged", "chunks", "blob")


def _fold_key(name: str, records: list[dict]) -> tuple:
    """Everything :func:`_fold_region` reads from one region's records
    (root first, each checked by :func:`_regions`), type-checked.
    Equal keys fold to equal images: every blob a key names is looked
    up in the same chain document."""
    base = records[0]
    size, exclude = base["size"], base["exclude"]
    key = [name, size, exclude, base["fingerprint"]]
    for position, record in enumerate(records[1:], start=1):
        if record["size"] != size or record["exclude"] != exclude:
            raise SnapshotError(
                f"region {name!r} geometry changed at chain document "
                f"{position}; delta chains require stable geometry")
        delta = record.get("delta")
        if delta is None:
            raise SnapshotError(
                f"region {name!r} has no delta record in chain document "
                f"{position}")
        chunk_size, index = _index_fields(name, delta, position)
        mode = delta.get("mode")
        if mode not in _DELTA_MODES:
            raise SnapshotError(
                f"region {name!r}: unknown delta mode {mode!r} at chain "
                f"document {position}")
        dirty = fingerprint = None
        if mode == "chunks":
            dirty = delta.get("dirty")
            if index is None:
                raise SnapshotError(
                    f"region {name!r}: chunks delta at chain document "
                    f"{position} carries no chunk-digest index")
            if (not isinstance(dirty, list)
                    or any(type(i) is not int for i in dirty)):
                raise SnapshotError(
                    f"region {name!r}: dirty at chain document {position} "
                    f"must be a list of chunk numbers, got {dirty!r}")
            dirty = tuple(dirty)
        elif mode == "blob":
            fingerprint = record["fingerprint"]
        key.append((mode, chunk_size, index, dirty, fingerprint))
    return tuple(key)


def _index_fields(name: str, box, position: int) -> tuple:
    """``(chunk_size, index)`` of a region record's :func:`_index_box`,
    type-checked; both ``None`` when it records no chunk-digest index."""
    if not isinstance(box, dict):
        raise SnapshotError(f"region {name!r}: delta record at chain "
                            f"document {position} must be an object")
    if "index" not in box and "chunk_size" not in box:
        return None, None
    chunk_size, index = box.get("chunk_size"), box.get("index")
    if type(chunk_size) is not int or chunk_size <= 0:
        raise SnapshotError(
            f"region {name!r}: chunk_size at chain document {position} "
            f"must be a positive integer, got {chunk_size!r}")
    if not isinstance(index, str):
        raise SnapshotError(
            f"region {name!r}: index at chain document {position} must "
            f"be a hex string, got {index!r}")
    return chunk_size, index


def _index_digests(name: str, box: dict, blobs: BlobStore,
                   window_size: int, position: int) -> list[bytes]:
    """The 20-byte leaf digests of a chunk-digest index, which must
    cover the window exactly under the record's chunk size."""
    chunk_size = box["chunk_size"]
    payload = blobs.get(box["index"])
    if len(payload) % _DIGEST_LEN:
        raise SnapshotError(
            f"region {name!r}: malformed chunk-digest index at chain "
            f"document {position}")
    digests = [payload[i:i + _DIGEST_LEN]
               for i in range(0, len(payload), _DIGEST_LEN)]
    expected = (window_size + chunk_size - 1) // chunk_size
    if len(digests) != expected:
        raise SnapshotError(
            f"region {name!r}: chunk-digest index at chain document "
            f"{position} has {len(digests)} entries, window needs "
            f"{expected}")
    return digests


def _fold_region(name: str, records: list[dict],
                 doc_blobs: list[BlobStore]) -> bytes:
    """Root image plus every link's overlay, verified against the tip's
    digest index; ``records`` were checked by :func:`_fold_key`."""
    base = records[0]
    window_size = base["size"] - base["exclude"]
    image = bytearray(doc_blobs[0].get(base["fingerprint"]))
    if len(image) != window_size:
        raise SnapshotError(
            f"region {name!r}: root image is {len(image)} bytes, window "
            f"is {window_size}")
    for position, (record, blobs) in enumerate(
            zip(records[1:], doc_blobs[1:]), start=1):
        delta = record["delta"]
        mode = delta["mode"]
        if mode == "unchanged":
            continue
        if mode == "blob":
            image = bytearray(blobs.get(record["fingerprint"]))
            if len(image) != window_size:
                raise SnapshotError(
                    f"region {name!r}: blob at chain document {position} "
                    f"is {len(image)} bytes, window is {window_size}")
            continue
        chunk_size = delta["chunk_size"]
        digests = _index_digests(name, delta, blobs, window_size, position)
        for i in delta["dirty"]:
            if not 0 <= i < len(digests):
                raise SnapshotError(
                    f"region {name!r}: dirty chunk {i} out of range at "
                    f"chain document {position}")
            chunk = blobs.get(digests[i].hex())
            lo = i * chunk_size
            if len(chunk) != min(chunk_size, window_size - lo):
                raise SnapshotError(
                    f"region {name!r}: chunk {i} at chain document "
                    f"{position} has wrong length")
            image[lo:lo + len(chunk)] = chunk
    tip = _index_box(records[-1])
    if "index" in tip:
        # End-to-end check: the folded image must hash chunk-for-chunk
        # to the tip's recorded leaf digests, every chunk of them.
        chunk_size = tip["chunk_size"]
        digests = _index_digests(name, tip, doc_blobs[-1],
                                 window_size, len(records) - 1)
        with memoryview(image) as view:
            for i, digest in enumerate(digests):
                lo = i * chunk_size
                if hashlib.sha1(view[lo:lo + chunk_size]).digest() != digest:
                    raise SnapshotError(
                        f"region {name!r}: folded chunk {i} does not "
                        f"match the tip checkpoint's digest index")
    return bytes(image)


def load_chain(path: str) -> list[dict]:
    """Load a delta document and every ancestor, following each
    document's ``meta.parent_path`` (relative to the file that names
    it) until a full snapshot roots the chain.  Returns the documents
    root-first, checked by :func:`verify_chain`."""
    documents = []
    seen = set()
    current = os.path.abspath(os.fspath(path))
    while True:
        if current in seen:
            raise SnapshotError(f"delta parent chain cycles at {current}")
        seen.add(current)
        document = load_document(current)
        documents.append(document)
        if not is_delta(document):
            break
        parent_path = (document.get("meta") or {}).get("parent_path")
        if parent_path is None:
            raise SnapshotError(
                f"delta document {current} carries no meta.parent_path; "
                f"pass its parent explicitly")
        if not isinstance(parent_path, str):
            raise SnapshotError(
                f"delta document {current}: meta.parent_path must be a "
                f"string, got {type(parent_path).__name__}")
        current = os.path.normpath(
            os.path.join(os.path.dirname(current), parent_path))
    documents.reverse()
    verify_chain(documents)
    return documents
