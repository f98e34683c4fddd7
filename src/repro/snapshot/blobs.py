"""Content-addressed memory-image store for snapshot documents.

A fleet snapshot would naively cost O(N * writable_bytes): every member
carries a full RAM + flash image (ROM travels as its fingerprint only).
But fleet members are built
from one :class:`~repro.mcu.device.DeviceConfig` and mostly share byte
ranges -- the firmware image in flash is identical across the fleet and
honest RAM above the reserved words never diverges.  The repo already
has an exact sharing witness: each region's write-chain
:attr:`~repro.mcu.memory.MemoryRegion.content_fingerprint`, whose seed
binds the region name/geometry and which advances with every mutation
at or above ``fingerprint_exclude_below``.  Equal fingerprints therefore
imply byte-identical contents at and above that bound.

:class:`BlobStore` keys each region image (the bytes at/above the
exclude bound) by its fingerprint, so a 256-member fleet snapshot
stores O(unique region histories) images instead of 256 of each.  The
per-member excluded prefix (IDT / ``counter_R`` / ``Clock_MSB``) is
tiny and genuinely per-device, so it travels with the member record,
not the store.
"""

from __future__ import annotations

import hashlib

from ..errors import SnapshotError
from .codec import b64, unb64

__all__ = ["BlobStore"]


class BlobStore:
    """Deduplicated ``fingerprint-hex -> bytes`` map for region images."""

    def __init__(self):
        self._blobs: dict[str, bytes] = {}
        self._prefixes: dict[str, bytes] = {}   # see prefix()

    def __len__(self) -> int:
        return len(self._blobs)

    @property
    def total_bytes(self) -> int:
        """Stored payload size after deduplication."""
        return sum(len(blob) for blob in self._blobs.values())

    def put(self, fingerprint_hex: str, data: bytes) -> None:
        """Store ``data`` under its fingerprint; idempotent for equal
        content, loud for a collision (which would mean the write-chain
        sharing argument is broken)."""
        existing = self._blobs.get(fingerprint_hex)
        if existing is None:
            self._blobs[fingerprint_hex] = bytes(data)
        elif existing != data:
            raise SnapshotError(
                f"blob collision on fingerprint {fingerprint_hex}: two "
                f"different images claim the same write chain (stored: "
                f"{len(existing)} bytes, sha1 "
                f"{hashlib.sha1(existing).hexdigest()}; incoming: "
                f"{len(data)} bytes, sha1 "
                f"{hashlib.sha1(bytes(data)).hexdigest()})")

    def get(self, fingerprint_hex: str) -> bytes:
        try:
            return self._blobs[fingerprint_hex]
        except KeyError:
            raise SnapshotError(
                f"snapshot references missing blob {fingerprint_hex}") \
                from None

    def prefix(self, text) -> bytes:
        """A region record's base64 ``prefix``, decoded once per distinct
        text (checked by ``open_chain``, written by the device stage)."""
        if not isinstance(text, str) or text not in self._prefixes:
            self._prefixes[text] = unb64(text)
        return self._prefixes[text]

    def merge(self, other: "BlobStore") -> None:
        """Union another store in (collision-checked)."""
        for fingerprint_hex, data in other._blobs.items():
            self.put(fingerprint_hex, data)

    def subset(self, keys) -> "BlobStore":
        """A new store holding only the given keys that are present.

        Absent keys are skipped, not an error: delta capture falls back
        to a whole blob when a parent's chunk-digest index is
        unavailable.  Used to ship each fleet shard only the parent
        payloads its members reference.
        """
        store = BlobStore()
        for key in keys:
            data = self._blobs.get(key)
            if data is not None:
                store._blobs[key] = data
        return store

    def stats(self) -> dict:
        """JSON-ready size counters (no mutation, nothing evicted)."""
        return {"blobs": len(self._blobs), "bytes": self.total_bytes}

    def publish(self, telemetry) -> None:
        """Export the size counters as gauges on a telemetry registry.

        Sets ``snapshot.blobs`` / ``snapshot.bytes`` (names registered
        in :mod:`repro.obs.schema`).  Deliberately not called from
        ``put``: snapshot capture must not perturb registry dumps, or
        restored runs would diverge from uninterrupted ones.  Call it
        when a report wants a checkpoint-size snapshot.
        """
        telemetry.set_gauge("snapshot.blobs", len(self._blobs))
        telemetry.set_gauge("snapshot.bytes", self.total_bytes)

    def encode(self) -> dict:
        """JSON form: base64 images keyed by fingerprint hex.

        Members that share one image object (a folded chain gives every
        member with the same region history the same ``bytes``) share
        one encoded string: each distinct object is encoded once.
        """
        encoded = {}
        texts = {}      # id(image) -> its base64 text
        for fingerprint_hex, data in sorted(self._blobs.items()):
            text = texts.get(id(data))
            if text is None:
                text = texts[id(data)] = b64(data)
            encoded[fingerprint_hex] = text
        return encoded

    @classmethod
    def decode(cls, encoded: dict) -> "BlobStore":
        """Inverse of :meth:`encode`; each distinct string object is
        decoded once, so images encoded once stay shared."""
        store = cls()
        images = {}     # id(text) -> its decoded bytes
        for fingerprint_hex, text in encoded.items():
            data = images.get(id(text))
            if data is None:
                data = images[id(text)] = unb64(text)
            store.put(fingerprint_hex, data)
        return store
