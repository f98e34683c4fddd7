"""Low-level value codecs shared by every snapshot layer.

Snapshots are dependency-free JSON documents, so every non-JSON value
gets an explicit, reversible encoding here:

* raw bytes -- base64 (``b64``/``unb64``) for bulk payloads, hex for
  20-byte fingerprints and nonces (readable in diffs);
* :class:`~repro.crypto.rng.DeterministicRng` -- its four 20-byte HMAC
  chain values, so a restored stream continues *exactly* where the
  captured one stopped (and its ``substream`` children stay anchored to
  the same root);
* wire messages -- their canonical ``to_bytes`` encodings, which
  round-trip exactly (``ATRQ``/``ATRP`` magics);
* channel adversaries -- a type-tagged record of only the *mutable*
  state (RNG positions, Gilbert-Elliott burst flag); the configuration
  itself is rebuilt by the caller, and restore refuses a type mismatch.

Every ``stage_*`` function checks and decodes a captured state against
an already-rebuilt object and appends the *commit* that overwrites it
(see :func:`staged`): restore is deterministic rebuild plus overwrite,
never deserialization of arbitrary types.
"""

from __future__ import annotations

import binascii
import gc

from ..core.messages import AttestationRequest, AttestationResponse
from ..errors import ProtocolError, SnapshotError

__all__ = ["b64", "unb64", "rng_state", "stage_rng", "encode_message",
           "decode_message", "encode_adversary", "stage_adversary",
           "overwrite", "staged"]


def staged(stage, *args):
    """Run ``stage(*args, commits)`` -- a restore's one read of its
    document, which checks and decodes and appends ``commit`` closures
    that only assign -- and return one commit running them all.  A
    lookup, type, value or attribute error raised while reading the
    document becomes a :class:`SnapshotError`."""
    commits = []
    # A stage builds only objects that outlive it, and the target's old
    # state stays alive until the commit: a collection in between would
    # rescan both and free nothing, so the collector pauses.
    collecting = gc.isenabled()
    gc.disable()
    try:
        stage(*args, commits)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise SnapshotError(f"malformed snapshot document: "
                            f"{type(exc).__name__}: {exc}") from None
    finally:
        if collecting:
            gc.enable()

    def commit():
        for commit_part in commits:
            commit_part()
    return commit


def overwrite(commits: list, target, /, **fields) -> None:
    """Stage setting ``target``'s attributes to ``fields``, values the
    caller has already read and decoded.

    A scalar field must keep the JSON type of the attribute it replaces
    -- number (``int`` or ``float``, never ``bool``), ``bool`` or ``str``
    -- or the stage raises :class:`SnapshotError`.  Attributes holding
    ``None`` or anything else go unchecked, and ``None`` may replace any
    value (an optional field, such as the time of a last result, returns
    to it when a target that already ran is restored to an earlier
    point)."""
    for name, value in fields.items():
        live = _json_scalar_type(getattr(target, name, None))
        if (live is not None and value is not None
                and _json_scalar_type(value) != live):
            raise SnapshotError(
                f"{type(target).__name__}.{name} must be a {live}, got "
                f"{type(value).__name__} {value!r:.40}")

    def commit():
        for name, value in fields.items():
            setattr(target, name, value)
    commits.append(commit)


def _json_scalar_type(value) -> str | None:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return None


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


# ---------------------------------------------------------------------------
# Deterministic RNG streams
# ---------------------------------------------------------------------------

def rng_state(rng) -> dict:
    """Capture a :class:`DeterministicRng`'s full HMAC-chain state."""
    return {"key": rng._key.hex(), "value": rng._value.hex(),
            "root_key": rng._root_key.hex(),
            "root_value": rng._root_value.hex()}


def stage_rng(rng, state: dict, commits: list) -> None:
    """Stage overwriting ``rng`` with a captured chain state."""
    overwrite(commits, rng, _key=bytes.fromhex(state["key"]),
              _value=bytes.fromhex(state["value"]),
              _root_key=bytes.fromhex(state["root_key"]),
              _root_value=bytes.fromhex(state["root_value"]))


# ---------------------------------------------------------------------------
# Wire messages
# ---------------------------------------------------------------------------

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

def encode_adversary(adversary) -> dict | None:
    """Capture the mutable state of a channel adversary.

    Only state that evolves at runtime is recorded; static parameters
    (loss rates, delays) are reproduced by rebuilding the session with
    the same factory.  ``None`` and stateless pass-through adversaries
    encode as type tags with no payload.
    """
    from ..net.faults import FaultModel, FaultPipeline, GilbertElliottLoss
    if adversary is None:
        return None
    name = type(adversary).__name__
    if isinstance(adversary, FaultPipeline):
        return {"type": name,
                "models": [encode_adversary(m) for m in adversary.models]}
    if isinstance(adversary, GilbertElliottLoss):
        return {"type": name, "rng": rng_state(adversary._rng),
                "in_burst": adversary.in_burst}
    if isinstance(adversary, FaultModel):
        return {"type": name, "rng": rng_state(adversary._rng)}
    if name == "PassthroughAdversary":
        return {"type": name}
    raise SnapshotError(f"cannot snapshot adversary type {name}")


def stage_adversary(adversary, state: dict | None, commits: list) -> None:
    """Stage overwriting the mutable state of a rebuilt adversary."""
    from ..net.faults import FaultModel, FaultPipeline, GilbertElliottLoss
    if state is None:
        if adversary is not None and not _is_passthrough(adversary):
            raise SnapshotError(
                "snapshot has no adversary state but the rebuilt session "
                f"has a {type(adversary).__name__}")
        return
    name = type(adversary).__name__
    if name != state["type"]:
        raise SnapshotError(
            f"adversary type mismatch: snapshot has {state['type']}, "
            f"rebuilt session has {name}")
    if isinstance(adversary, FaultPipeline):
        if len(adversary.models) != len(state["models"]):
            raise SnapshotError("fault pipeline length mismatch")
        for model, model_state in zip(adversary.models, state["models"]):
            stage_adversary(model, model_state, commits)
    elif isinstance(adversary, FaultModel):
        stage_rng(adversary._rng, state["rng"], commits)
    if isinstance(adversary, GilbertElliottLoss):
        overwrite(commits, adversary, in_burst=state["in_burst"])
    # A stateless pass-through has nothing to overwrite.


def _is_passthrough(adversary) -> bool:
    return type(adversary).__name__ == "PassthroughAdversary"
