"""Wire formats of the attestation protocol.

The protocol of Section 3: the verifier sends an attestation request
(``attreq``) carrying a challenge plus optional freshness fields (nonce,
counter, timestamp -- Section 4.2) and an authentication tag (Section
4.1); the prover's trust anchor answers with the measurement of its
writable memory, authenticated under ``K_Attest``.

Messages serialise to a fixed, deterministic byte layout so that MACs and
signatures are computed over exactly the bytes on the wire, and so that a
replayed message is byte-identical to the original (which is what makes
replay detection purely a freshness-state problem).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..errors import ProtocolError

__all__ = ["AttestationRequest", "AttestationResponse"]

_REQ_MAGIC = b"ATRQ"
_RSP_MAGIC = b"ATRP"

#: Sentinel for "field not present" in the fixed wire layout.
_ABSENT = 0xFFFFFFFFFFFFFFFF


_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U64_PAIR = struct.Struct(">QQ")


class _Cursor:
    """Bounds-checked sequential reader for wire parsing."""

    __slots__ = ("_data", "_offset", "_kind")

    def __init__(self, data: bytes, *, kind: str):
        if not isinstance(data, (bytes, bytearray)):
            raise ProtocolError(f"{kind} must be bytes")
        # Fields are slices of the buffer; a bytearray is copied once so
        # they cannot alias the caller's mutable bytes.
        self._data = data if type(data) is bytes else bytes(data)
        self._offset = 0
        self._kind = kind

    def take(self, length: int) -> bytes:
        start = self._offset
        end = start + length
        if end > len(self._data):
            raise ProtocolError(f"{self._kind} truncated")
        self._offset = end
        return self._data[start:end]

    def unpack(self, layout: struct.Struct) -> tuple:
        start = self._offset
        end = start + layout.size
        if end > len(self._data):
            raise ProtocolError(f"{self._kind} truncated")
        self._offset = end
        return layout.unpack_from(self._data, start)

    def take_sized(self, layout: struct.Struct) -> bytes:
        """A length-prefixed field: a ``layout`` length, then the bytes."""
        data, start = self._data, self._offset + layout.size
        if start > len(data):
            raise ProtocolError(f"{self._kind} truncated")
        (length,) = layout.unpack_from(data, self._offset)
        end = start + length
        if end > len(data):
            raise ProtocolError(f"{self._kind} truncated")
        self._offset = end
        return data[start:end]

    def expect(self, magic: bytes) -> None:
        if self.take(len(magic)) != magic:
            raise ProtocolError(f"{self._kind} has wrong magic")

    def expect_end(self) -> None:
        if self._offset != len(self._data):
            raise ProtocolError(f"{self._kind} has trailing garbage")


@dataclass(frozen=True)
class AttestationRequest:
    """One ``attreq`` message.

    Attributes
    ----------
    challenge:
        Verifier-chosen bytes bound into the prover's response MAC.
    counter:
        Monotonic counter (None when the deployment uses another
        freshness feature).
    timestamp_ticks:
        Verifier timestamp, in prover clock ticks (None if unused).
    nonce:
        Verifier nonce (None if unused).
    auth_scheme:
        Request authentication scheme name (see
        :data:`repro.crypto.costmodel.REQUEST_MESSAGE_BITS`), or
        ``"none"``.
    auth_tag:
        MAC bytes or DER-ish encoded ECDSA pair over
        :meth:`signed_payload`.
    """

    challenge: bytes
    counter: int | None = None
    timestamp_ticks: int | None = None
    nonce: bytes | None = None
    auth_scheme: str = "none"
    auth_tag: bytes = b""

    def __post_init__(self):
        if len(self.challenge) > 0xFFFF:
            raise ProtocolError("challenge too long")
        if self.nonce is not None and len(self.nonce) > 0xFF:
            raise ProtocolError("nonce too long")
        if self.counter is not None and not 0 <= self.counter < _ABSENT:
            raise ProtocolError("counter out of range")
        if (self.timestamp_ticks is not None
                and not 0 <= self.timestamp_ticks < _ABSENT):
            raise ProtocolError("timestamp out of range")

    def signed_payload(self) -> bytes:
        """The bytes the authentication tag covers (everything but the tag)."""
        counter = self.counter if self.counter is not None else _ABSENT
        timestamp = (self.timestamp_ticks if self.timestamp_ticks is not None
                     else _ABSENT)
        nonce = self.nonce if self.nonce is not None else b""
        scheme = self.auth_scheme.encode("ascii")
        return (_REQ_MAGIC
                + struct.pack(">QQ", counter, timestamp)
                + struct.pack(">B", len(nonce)) + nonce
                + struct.pack(">H", len(self.challenge)) + self.challenge
                + struct.pack(">B", len(scheme)) + scheme)

    def to_bytes(self) -> bytes:
        """Full wire encoding (payload + tag)."""
        return (self.signed_payload()
                + struct.pack(">H", len(self.auth_tag)) + self.auth_tag)

    @classmethod
    def from_bytes(cls, data: bytes) -> "AttestationRequest":
        """Parse a wire-encoded request; raises :class:`ProtocolError` on
        malformed input.

        Round-trips :meth:`to_bytes` exactly: the signed payload of the
        parsed message is byte-identical to the original, so tags verify
        across the parse boundary.
        """
        cursor = _Cursor(data, kind="attreq")
        cursor.expect(_REQ_MAGIC)
        counter, timestamp = cursor.unpack(_U64_PAIR)
        nonce = cursor.take_sized(_U8)
        challenge = cursor.take_sized(_U16)
        scheme_bytes = cursor.take_sized(_U8)
        tag = cursor.take_sized(_U16)
        cursor.expect_end()
        try:
            scheme = scheme_bytes.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ProtocolError("attreq scheme is not ASCII") from exc
        return cls(challenge=challenge,
                   counter=None if counter == _ABSENT else counter,
                   timestamp_ticks=None if timestamp == _ABSENT else timestamp,
                   nonce=nonce if nonce else None,
                   auth_scheme=scheme, auth_tag=tag)

    def with_tag(self, tag: bytes) -> "AttestationRequest":
        """A copy of this request carrying ``tag``."""
        return AttestationRequest(
            challenge=self.challenge, counter=self.counter,
            timestamp_ticks=self.timestamp_ticks, nonce=self.nonce,
            auth_scheme=self.auth_scheme, auth_tag=tag)

    def describe(self) -> str:
        parts = [f"challenge={self.challenge.hex()[:8]}"]
        if self.counter is not None:
            parts.append(f"counter={self.counter}")
        if self.timestamp_ticks is not None:
            parts.append(f"ts={self.timestamp_ticks}")
        if self.nonce is not None:
            parts.append(f"nonce={self.nonce.hex()[:8]}")
        parts.append(f"auth={self.auth_scheme}")
        return "attreq(" + ", ".join(parts) + ")"


@dataclass(frozen=True)
class AttestationResponse:
    """The prover's answer: an authenticated memory measurement.

    ``measurement`` is the digest of all writable prover memory and
    ``tag`` is the HMAC-SHA1 under ``K_Attest`` over (challenge,
    measurement, freshness echo).  Splitting digest and tag (instead of
    SMART's single keyed MAC over memory) lets the verifier check
    authenticity without holding a byte-exact copy of prover memory; the
    prover-side cycle cost is the same (one extra short HMAC), so the
    paper's DoS numbers are unaffected.  ``request_counter`` /
    ``request_timestamp`` echo the request's freshness fields for
    verifier-side matching.
    """

    challenge: bytes
    measurement: bytes
    request_counter: int | None = None
    request_timestamp: int | None = None
    tag: bytes = b""

    def tagged_payload(self) -> bytes:
        """The bytes the response tag covers."""
        counter = (self.request_counter if self.request_counter is not None
                   else _ABSENT)
        timestamp = (self.request_timestamp
                     if self.request_timestamp is not None else _ABSENT)
        return (_RSP_MAGIC
                + struct.pack(">H", len(self.challenge)) + self.challenge
                + struct.pack(">H", len(self.measurement)) + self.measurement
                + struct.pack(">QQ", counter, timestamp))

    def to_bytes(self) -> bytes:
        return (self.tagged_payload()
                + struct.pack(">H", len(self.tag)) + self.tag)

    @classmethod
    def from_bytes(cls, data: bytes) -> "AttestationResponse":
        """Parse a wire-encoded response (inverse of :meth:`to_bytes`)."""
        cursor = _Cursor(data, kind="attresp")
        cursor.expect(_RSP_MAGIC)
        challenge = cursor.take_sized(_U16)
        measurement = cursor.take_sized(_U16)
        counter, timestamp = cursor.unpack(_U64_PAIR)
        tag = cursor.take_sized(_U16)
        cursor.expect_end()
        return cls(challenge=challenge, measurement=measurement,
                   request_counter=None if counter == _ABSENT else counter,
                   request_timestamp=(None if timestamp == _ABSENT
                                      else timestamp),
                   tag=tag)

    def with_tag(self, tag: bytes) -> "AttestationResponse":
        return AttestationResponse(
            challenge=self.challenge, measurement=self.measurement,
            request_counter=self.request_counter,
            request_timestamp=self.request_timestamp, tag=tag)
