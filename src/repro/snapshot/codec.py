"""Field tables: one declaration per snapshotted class.

Each snapshotted class lists its state once, as a :class:`Table` in the
module that captures it: per row the document key, the attribute path
(``freshness_state.next_counter``), the :class:`Codec` and whether the
field may be ``null``.  One :func:`capture` and one :func:`stage` walk
every table.  A value codec decodes the document's value into what the
commit assigns; an in-place codec -- a nested table, a :class:`Keyed`
dict of one, :class:`Members`, a :data:`SAME` value of the rebuild or
a hand-written hook (region images, MPU registers, runtime contexts,
channel adversaries) -- stages onto the live object at the path.

:func:`stage` checks each value against its codec and refuses ``null``
wherever a row is not nullable; a row with a ``present`` predicate
holds an optional record (a clock, telemetry), ``null`` exactly when
the rebuilt object lacks it.  A stage only checks and decodes, and the
commits it appends only assign (see :func:`staged`): restore is
deterministic rebuild plus overwrite, never deserialization.
"""

from __future__ import annotations

import binascii
import gc
from collections import deque
from operator import attrgetter
from typing import NamedTuple

from ..core.messages import AttestationRequest, AttestationResponse
from ..errors import ConfigurationError, ProtocolError, SnapshotError
from ..net.channel import PassthroughAdversary
from ..net.faults import FaultModel, FaultPipeline, GilbertElliottLoss

__all__ = ["Table", "Field", "Codec", "SAME", "SAME_HEX", "Nested", "Keyed",
           "Members", "Entry", "Log", "NUMBER", "INT", "BOOL", "OPT_BOOL",
           "STRING", "HEX", "HEX_SET", "HEX_DEQUE", "LIST", "COUNTS", "RNG",
           "ADVERSARY", "capture", "captured", "stage", "staged", "paused",
           "json_list", "b64", "unb64", "rng_state", "encode_message",
           "decode_message"]


def paused(function, *args):
    """``function(*args)`` with the garbage collector paused.  A capture
    or a stage builds only objects that outlive it, and the system it
    reads stays alive: a collection in between would rescan both and
    free nothing."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return function(*args)
    finally:
        if collecting:
            gc.enable()


def captured(table: "Table", obj, blobs, parent=None) -> dict:
    """:func:`capture` with the collector paused.  One collection of the
    two young generations after it stands in for those the capture
    deferred."""
    state = paused(capture, table, obj, blobs, parent)
    gc.collect(1)
    return state


def staged(stage, *args):
    """Run ``stage(*args, commits)`` -- a restore's one read of its
    document, which checks and decodes and appends ``commit`` closures
    that only assign -- and return one commit running them all.  A
    lookup, type, value or attribute error raised while reading the
    document becomes a :class:`SnapshotError`."""
    commits = []
    try:
        paused(stage, *args, commits)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise SnapshotError(f"malformed snapshot document: "
                            f"{type(exc).__name__}: {exc}") from None

    def commit():
        for commit_part in commits:
            commit_part()
    return commit


# ---------------------------------------------------------------------------
# Codecs
# ---------------------------------------------------------------------------

class Codec:
    """How one field crosses a checkpoint, as JSON of type ``json``:
    ``decode``/``encode`` for a value codec (``encode=None``: already
    JSON), or ``capture(live, blobs, parent, key)``/``stage(live, state,
    blobs, commits)`` for an in-place one, whose stage may return a
    replacement for the commit to assign."""

    decode = encode = capture = stage = None
    tables = ()         #: the field tables an in-place codec nests

    def __init__(self, json, decode=None, encode=None, *, capture=None,
                 stage=None):
        self.json, self.decode, self.encode = json, decode, encode
        self.capture, self.stage = capture, stage


def _expect(what: str, *types):
    def check(value):
        if type(value) in types:
            return value
        raise TypeError(f"must be {what}, got {type(value).__name__} "
                        f"{value!r:.40}")
    return check


json_list = _expect("a list", list)
_object = _expect("an object", dict)

NUMBER = Codec("number", _expect("a number", int, float))
INT = Codec("number", _expect("int", int))
BOOL = Codec("bool", _expect("a bool", bool))
OPT_BOOL = Codec("bool", _expect("a bool or null", bool, type(None)))
STRING = Codec("string", _expect("a string", str))
HEX = Codec("string", bytes.fromhex, bytes.hex)
HEX_SET = Codec("list", lambda value: set(map(bytes.fromhex,
                                              json_list(value))),
                lambda value: sorted(item.hex() for item in value))
HEX_DEQUE = Codec("list", lambda value: deque(map(bytes.fromhex,
                                                  json_list(value))),
                  lambda value: [item.hex() for item in value])
LIST = Codec("list", lambda value: list(json_list(value)), list)
COUNTS = Codec("object", lambda value: {
    key: NUMBER.decode(count) for key, count in _object(value).items()}, dict)


def _same(live, state, blobs, commits: list) -> None:
    if live != state:
        raise ValueError(f"snapshot has {state!r}, rebuilt target has "
                         f"{live!r}")


#: A value of the rebuilt object the document must agree with:
#: captured, compared on restore, never written.
SAME = Codec(None, stage=_same)
#: A :data:`SAME` value held as bytes, travelling as lowercase hex.
SAME_HEX = Codec("string", encode=bytes.hex,
                 stage=lambda live, state, blobs, commits: _same(
                     live.hex(), state, blobs, commits))


class Nested(Codec):
    """A field table of the live object at the path.  With ``pick``,
    the live object chooses which of ``tables`` describes it."""

    json = "object"

    def __init__(self, *tables, pick=None):
        self.tables, self.pick = tables, pick

    def table(self, live) -> "Table":
        return self.tables[0] if self.pick is None else self.pick(live)


class Keyed(Codec):
    """A dict of one table (a breaker per device, a bucket per tenant)
    whose keys must equal the rebuilt object's."""

    json = "object"

    def __init__(self, table: "Table", what: str):
        self.tables, self.what = (table,), what

    def capture(self, live, blobs, parent, key):
        return {item_key: capture(self.tables[0], item, blobs, parent,
                                  item_key)
                for item_key, item in live.items()}

    def stage(self, live, state, blobs, commits):
        if set(_object(state)) != set(live):
            raise SnapshotError(f"{self.what} set mismatch")
        for item_key, item_state in state.items():
            stage(self.tables[0], live[item_key], item_state, blobs, commits)


class Members(Codec):
    """A fleet's members, one table each, whose :data:`SAME` rows are the
    member identity; a delta parent's and the document's must equal it,
    for the whole list before any member stages."""

    json = "list"

    def __init__(self, table: "Table", what: str):
        self.tables, self.what = (table,), what
        self.identity = [(row.name, attrgetter(row.path))
                         for row in table.rows if row.codec is SAME]

    def rebuilt(self, members) -> list:
        return [tuple(get(member) for _, get in self.identity)
                for member in members]

    def capture(self, live, blobs, parent, key):
        if parent is not None and parent.identity != self.rebuilt(live):
            raise SnapshotError(
                f"delta parent member set mismatch: parent has "
                f"{parent.identity}, {self.what} has {self.rebuilt(live)}")
        return [capture(self.tables[0], member, blobs,
                        None if parent is None else parent.member(i))
                for i, member in enumerate(live)]

    def stage(self, live, state, blobs, commits):
        recorded = [tuple(record[name] for name, _ in self.identity)
                    for record in json_list(state)]
        rebuilt = self.rebuilt(live)
        if recorded != rebuilt:
            raise SnapshotError(
                f"member set mismatch: snapshot has {recorded}, rebuilt "
                f"{self.what} has {rebuilt}")
        for member, record in zip(live, state):
            stage(self.tables[0], member, record, blobs, commits)


class Entry(Codec):
    """A log entry's shape: a JSON list holding one element per value
    codec, decoded to ``build(elements)``.  With ``width`` -- ``owner ->
    int``, the object holding the log -- the entry is that many elements
    of the one codec."""

    json = "list"

    def __init__(self, *codecs, build=tuple, encode=list, width=None):
        self.codecs, self.build, self.encode = codecs, build, encode
        self.width = width

    def decode(self, row, width: int | None = None):
        codecs = self.codecs if width is None else self.codecs * width
        if type(row) is not list or len(row) != len(codecs):
            raise TypeError(f"log entry must be a list of {len(codecs)}, "
                            f"got {row!r:.40}")
        return self.build([codec.decode(value)
                           for codec, value in zip(codecs, row)])


class Log(Codec):
    """An append-only log, encoded entry by entry through ``entry`` (an
    :class:`Entry` shape, or a codec of one record), and against a delta
    parent only its tail (see :mod:`repro.snapshot.delta`); ``counter``
    names the sibling row counting entries evicted from the front.  The
    scope-root table above sets ``name``, its dotted path."""

    json = "list"

    def __init__(self, entry: Codec, counter: str | None = None):
        self.encode_entry, self.decode_entry = entry.encode, entry.decode
        self.width = getattr(entry, "width", None)
        self.counter = counter
        self.name: str | None = None

    def decode(self, value) -> list:
        decode = self.decode_entry
        return [decode(entry) for entry in json_list(value)]

    def stage_owned(self, owner, value, blobs, commits) -> list:
        """Decode entries whose width the log's owner sets."""
        decode, width = self.decode_entry, self.width(owner)
        return [decode(entry, width) for entry in json_list(value)]

    def capture(self, entries, blobs, parent, key):
        evicted = 0
        if self.counter is not None:
            entries, evicted = entries
        encode = self.encode_entry
        counts = (parent.logs.get((self.name, key)) if parent is not None
                  else None)
        if counts is not None:
            base, parent_evicted = counts
            size = len(entries)
            appended = evicted + size - base
            gone = evicted - parent_evicted
            if 0 <= gone <= base - parent_evicted and 0 <= appended <= size:
                record = {"base": base,
                          "tail": [encode(entry)
                                   for entry in entries[size - appended:]]}
                if self.counter is not None:
                    record["evicted"] = gone
                return record
        return [encode(entry) for entry in entries]


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

class Field(NamedTuple):
    """One row of a :class:`Table`."""

    name: str               #: document key
    path: str               #: attribute path on the live object ("": it)
    codec: Codec
    nullable: bool = False  #: may the document hold ``null`` here
    present: object = None  #: ``obj -> bool``: is the optional record there


class Table:
    """The fields of one snapshotted class, compiled once.  ``check(obj,
    parent)`` runs before a capture (the quiescence checks).  A table
    with a ``scope`` (``"session"`` or ``"swarm"``) roots the logs below
    it: ``logs`` maps each one's dotted path to ``(scope, counter)``."""

    def __init__(self, name: str, *rows, check=None, scope: str | None = None):
        self.name, self.check, self.scope = name, check, scope
        self.rows = tuple(Field(*row) for row in rows)
        self.names = tuple(row.name for row in self.rows)
        paths = dict(zip(self.names, (row.path for row in self.rows)))
        plain, self._capture, self._stage = [], [], []
        for row in self.rows:
            codec = row.codec
            get = attrgetter(row.path) if row.path else _itself
            if getattr(codec, "counter", None) is not None:
                get = attrgetter(row.path, paths[codec.counter])
            sub = codec if isinstance(codec, Nested) else None
            if sub is codec.encode is codec.capture is row.present is None:
                plain.append(row)   # already JSON: read by one getter
            else:
                self._capture.append((row.name, get, codec.encode,
                                      codec.capture, sub, row.present))
            owner, _, attr = row.path.rpartition(".")
            owner = attrgetter(owner) if owner else None
            decode, hook = codec.decode, codec.stage
            if getattr(codec, "width", None) is not None:
                # The entries' width is the owner's: stage through it.
                get, decode, hook = owner or _itself, None, codec.stage_owned
            self._stage.append((
                row.name, row.nullable or row.present is not None,
                row.present, get, owner, attr, decode, hook, sub))
        self._plain_names = tuple(row.name for row in plain)
        # One getter for them all; it returns a bare value for one path,
        # so the last path repeats (zip stops at the names).
        paths = [row.path for row in plain] or ["__class__"]
        self._plain = attrgetter(*paths, paths[-1])
        self.logs = _name_logs(self, "", {}, scope) if scope else {}


def _itself(obj):
    return obj


def _name_logs(table: Table, prefix: str, logs: dict, scope: str) -> dict:
    for row in table.rows:
        codec = row.codec
        if isinstance(codec, Log):
            codec.name = prefix + row.name
            logs[codec.name] = (scope, codec.counter)
        segment = ".*." if isinstance(codec, Keyed) else "."
        for sub in codec.tables:
            if sub.scope is None:
                _name_logs(sub, prefix + row.name + segment, logs, scope)
    return logs


def capture(table: Table, obj, blobs, parent=None, key=None) -> dict:
    """Capture ``obj`` as ``table`` declares it; region images go to
    ``blobs``.  With a ``parent`` (a delta base) logs record only their
    tails and regions only their dirty chunks; ``key``, the dict key of
    a :class:`Keyed` item, keys its logs' parent counts."""
    if table.check is not None:
        table.check(obj, parent)
    out = dict(zip(table._plain_names, table._plain(obj)))
    for name, get, encode, hook, sub, present in table._capture:
        if present is not None and not present(obj):
            out[name] = None
            continue
        value = get(obj)
        if value is not None:
            if sub is not None:
                value = capture(sub.table(value), value, blobs, parent, key)
            elif encode is not None:
                value = encode(value)
            elif hook is not None:
                value = hook(value, blobs, parent, key)
        out[name] = value
    return out


def stage(table: Table, obj, state, blobs, commits: list) -> None:
    """Stage overwriting ``obj`` with ``state``, a capture of ``table``:
    check every value against its codec, refuse ``null`` in a row that
    is not nullable and an optional record whose presence disagrees with
    the rebuild, then append one commit assigning what was decoded."""
    _object(state)
    writes = []
    for name, nullable, present, get, owner, attr, decode, hook, sub \
            in table._stage:
        value = state[name]
        if present is not None:
            if present(obj) != (value is not None):
                raise SnapshotError(f"{table.name}.{name}: only the " + (
                    "rebuilt target has one" if value is None
                    else "snapshot has one"))
            if value is None:
                continue
        elif value is None and not nullable:
            raise SnapshotError(f"{table.name}.{name} must not be null")
        try:
            if sub is not None:
                live = get(obj)
                stage(sub.table(live), live, value, blobs, commits)
                continue
            if decode is not None:
                new = None if value is None else decode(value)
            else:
                new = hook(get(obj), value, blobs, commits)
                if new is None:
                    continue
        except (TypeError, ValueError, ConfigurationError) as exc:
            raise SnapshotError(f"{table.name}.{name}: {exc}") from None
        writes.append((obj if owner is None else owner(obj), attr, new))
    if writes:
        def commit():
            for target, attr, value in writes:
                setattr(target, attr, value)
        commits.append(commit)


# ---------------------------------------------------------------------------
# Bytes, RNG streams and wire messages
# ---------------------------------------------------------------------------

def b64(data: bytes) -> str:
    return binascii.b2a_base64(data, newline=False).decode("ascii")


def unb64(text: str) -> bytes:
    """Decode a base64 field of a snapshot document; a non-string or
    malformed payload raises :class:`SnapshotError`."""
    if not isinstance(text, str):
        raise SnapshotError(f"base64 payload must be a string, got "
                            f"{type(text).__name__}")
    try:
        return binascii.a2b_base64(text)
    except ValueError as exc:   # binascii.Error, or non-ASCII text
        raise SnapshotError(f"malformed base64 payload: {exc}") from None


#: A :class:`~repro.crypto.rng.DeterministicRng`'s HMAC-chain state.
RNG = Nested(Table("rng", ("key", "_key", HEX), ("value", "_value", HEX),
                   ("root_key", "_root_key", HEX),
                   ("root_value", "_root_value", HEX)))


def rng_state(rng) -> dict:
    """Capture a :class:`DeterministicRng`'s full HMAC-chain state."""
    return capture(RNG.tables[0], rng, None)


def encode_message(message) -> dict:
    """Encode a request/response via its exact wire representation."""
    if isinstance(message, AttestationRequest):
        return {"kind": "req", "data": b64(message.to_bytes())}
    if isinstance(message, AttestationResponse):
        return {"kind": "rsp", "data": b64(message.to_bytes())}
    raise SnapshotError(
        f"cannot snapshot message of type {type(message).__name__}")


def decode_message(record: dict):
    if record["kind"] == "req":
        message_type = AttestationRequest
    elif record["kind"] == "rsp":
        message_type = AttestationResponse
    else:
        raise SnapshotError(f"unknown message kind {record['kind']!r}")
    try:
        return message_type.from_bytes(unb64(record["data"]))
    except ProtocolError as exc:
        raise SnapshotError(f"malformed {record['kind']} message: "
                            f"{exc}") from None


# ---------------------------------------------------------------------------
# Channel adversaries / fault models
# ---------------------------------------------------------------------------

def _stage_adversary(adversary, state, blobs, commits: list) -> None:
    table = _adversary_table(adversary)
    if state is not None:
        stage(table, adversary, state, blobs, commits)
    elif table is not _PASSTHROUGH:
        raise SnapshotError(f"snapshot has no adversary state but the "
                            f"rebuilt session has a "
                            f"{type(adversary).__name__}")


def _stage_models(models, states, blobs, commits: list) -> None:
    if len(models) != len(json_list(states)):
        raise SnapshotError("fault pipeline length mismatch")
    for model, model_state in zip(models, states):
        ADVERSARY.stage(model, model_state, blobs, commits)


#: A channel adversary's type tag and runtime state (RNG positions, the
#: Gilbert-Elliott burst flag); its parameters are rebuilt by the same
#: factory.  ``null`` or a bare tag stands for a pass-through.
ADVERSARY = Codec("object", capture=lambda adversary, blobs, parent, key:
                  capture(_adversary_table(adversary), adversary, blobs),
                  stage=_stage_adversary)
_TYPE = ("type", "__class__.__name__", SAME)
_PASSTHROUGH = Table("adversary", _TYPE)
_FAULT_MODEL = Table("adversary", _TYPE, ("rng", "_rng", RNG))
_BURSTY = Table("adversary", _TYPE, ("rng", "_rng", RNG),
                ("in_burst", "in_burst", BOOL))
_PIPELINE = Table("adversary", _TYPE, ("models", "models", Codec(
    "list", capture=lambda models, blobs, parent, key: [
        ADVERSARY.capture(model, blobs, parent, key) for model in models],
    stage=_stage_models)))


def _adversary_table(adversary) -> Table:
    if isinstance(adversary, GilbertElliottLoss):
        return _BURSTY
    if isinstance(adversary, FaultModel):
        return _FAULT_MODEL
    if isinstance(adversary, FaultPipeline):
        return _PIPELINE
    if isinstance(adversary, PassthroughAdversary):
        return _PASSTHROUGH
    raise SnapshotError(
        f"cannot snapshot adversary type {type(adversary).__name__}")
