"""Device-level snapshot: every mutable hardware block of the prover.

The capture/restore contract mirrors Simics-style checkpointing:
*restore never constructs a device*.  The caller rebuilds a device from
the same :class:`~repro.mcu.device.DeviceConfig` (construction,
provisioning and boot are deterministic); staging :data:`DEVICE`
checks and decodes a captured state against it, and its commit then
overwrites exactly the state that evolves at runtime:

* the contents and write-chain fingerprints of the writable regions,
  RAM and flash (images deduplicated through a
  :class:`~repro.snapshot.blobs.BlobStore`);
* the EA-MPU register file (written behind the lockdown check -- this
  is the checkpoint mechanism restoring hardware flops, not software
  reconfiguring a locked MPU) and its decoded-rule cache;
* CPU cycle count, battery/energy accounting, boot log;
* clock and timer state (counter offsets, software-clock wrap counts);
* interrupt-controller queues, logs and the mask register;
* execution contexts created after boot (e.g. malware contexts).

Region images, MPU registers and runtime contexts are hand-written
hooks of the :data:`DEVICE` table.

ROM is never written: the rebuild burns the same boot code, ``K_Attest``
and boot reference, so the document carries only the ROM's write-chain
fingerprint, a :data:`~repro.snapshot.codec.SAME` value the stage
compares with the rebuilt ROM's.  On a key-in-ROM build (the default)
the fingerprint binds ``K_Attest``: a checkpoint holds no key, and a
document of a build with another master key or firmware is refused
instead of overwriting the target's key.  A key-in-flash build keeps
``K_Attest`` in flash, which travels: its ROM fingerprint binds only
the firmware and the boot reference, so a document of another master
key passes the check and its flash image overwrites the target's key.

Deliberately **not** captured: ``mpu._violations`` -- a host-side
diagnostic list of raised exceptions, never read back by simulated
code; restored runs start with an empty list -- and the attached
:class:`~repro.mcu.statecache.StateDigestCache`, a host memo of digests
keyed by fingerprint.  The region commit clears it, because the
fingerprints it reinstates come from the document: a checkpoint can
restore memory, never vouch for it.
"""

from __future__ import annotations

import hashlib

from ..errors import SnapshotError
from ..mcu.cpu import ExecutionContext
from .codec import (INT, LIST, NUMBER, SAME, SAME_HEX, STRING, Codec, Entry,
                    Field, Log, Nested, Table, b64, json_list, unb64)

__all__ = ["DEVICE", "capture_region_delta", "chunk_index"]

#: Contexts recreated by deterministic construction + boot; anything
#: else in ``device._contexts`` was made at runtime and must travel.
_BUILTIN_CONTEXTS = frozenset({"boot", "Code_Attest", "Code_Clock", "app"})


# ---------------------------------------------------------------------------
# Region images and MPU registers
# ---------------------------------------------------------------------------

def chunk_index(region, blobs) -> tuple[list | None, dict]:
    """The region's leaf digests and its ``chunk_size``/``index``
    record fields, storing the index row in ``blobs``; ``(None, {})``
    when no digest tree spans exactly the fingerprinted window (its
    leaves would not address the bytes the fingerprint witnesses)."""
    exclude = region.fingerprint_exclude_below
    tree = region.digest_tree
    if (tree is None or tree.window_start != exclude
            or tree.window_size != region.size - exclude):
        return None, {}
    leaves = tree.leaf_digests(region._data)
    payload = b"".join(leaves)
    key = hashlib.sha1(payload).hexdigest()
    blobs.put(key, payload)
    return leaves, {"chunk_size": tree.chunk_size, "index": key}


def capture_region_delta(region, parent, blobs) -> dict:
    """Record one region against a parent checkpoint; returns the
    ``delta`` entry for the region record, storing chunk payloads and
    the leaf-digest index into ``blobs`` as needed."""
    exclude = region.fingerprint_exclude_below
    window_size = region.size - exclude
    fingerprint_hex = region._fingerprint.hex()
    leaves, fields = chunk_index(region, blobs)
    parent_record = parent.regions.get(region.name)
    geometry_matches = (parent_record is not None
                        and parent_record["size"] == region.size
                        and parent_record["exclude"] == exclude)
    if geometry_matches and parent_record["fingerprint"] == fingerprint_hex:
        delta = {"mode": "unchanged"}
    else:
        parent_leaves = None
        if geometry_matches and leaves is not None:
            parent_leaves = parent.chunk_digests(
                region.name, fields["chunk_size"], window_size)
        if parent_leaves is not None:
            chunk_size = fields["chunk_size"]
            dirty = [i for i, (old, new)
                     in enumerate(zip(parent_leaves, leaves)) if old != new]
            window = memoryview(region._data)[exclude:]
            for i in dirty:
                lo = i * chunk_size
                hi = min(lo + chunk_size, window_size)
                blobs.put(leaves[i].hex(), bytes(window[lo:hi]))
            delta = {"mode": "chunks", "dirty": dirty}
        else:   # the whole window, as a full snapshot stores it
            blobs.put(fingerprint_hex, bytes(region._data[exclude:]))
            delta = {"mode": "blob"}
    delta.update(fields)
    return delta


def _capture_regions(device, blobs, parent, key) -> list:
    """One record per writable region, its image in ``blobs``, with the
    :func:`chunk_index` pair of a region whose digest tree spans its
    window; against a ``parent``, a :func:`capture_region_delta` entry
    instead.  The per-member prefix below the fingerprint-exclude bound
    always travels verbatim."""
    regions = []
    for region in device.memory.writable_regions():
        exclude = region.fingerprint_exclude_below
        fingerprint = region._fingerprint.hex()
        record = {"name": region.name, "size": region.size,
                  "exclude": exclude, "fingerprint": fingerprint,
                  "prefix": b64(bytes(region._data[:exclude]))}
        if parent is not None:
            record["delta"] = capture_region_delta(region, parent, blobs)
        else:
            blobs.put(fingerprint, bytes(region._data[exclude:]))
            record.update(chunk_index(region, blobs)[1])
        regions.append(record)
    return regions


def _stage_regions(device, records, blobs, commits: list) -> None:
    """Stage overwriting every writable region's bytes and fingerprint.
    The records must name exactly the rebuilt device's writable regions,
    in address order: ROM is checked by fingerprint, never written.
    Region prefixes and images are read from ``blobs``, where
    :func:`repro.snapshot.delta.open_chain` checked their lengths."""
    writable = device.memory.writable_regions()
    names = [record["name"] for record in json_list(records)]
    if names != [region.name for region in writable]:
        raise SnapshotError(
            f"snapshot regions {names} are not the rebuilt device's "
            f"writable regions {[region.name for region in writable]}")
    writes = []
    for region, record in zip(writable, records):
        if (region.size != record["size"]
                or region.fingerprint_exclude_below != record["exclude"]):
            raise SnapshotError(
                f"region {record['name']!r} geometry mismatch")
        writes.append((region, record["exclude"],
                       blobs.prefix(record["prefix"]),
                       blobs.get(record["fingerprint"]),
                       bytes.fromhex(record["fingerprint"])))

    def commit():
        for region, exclude, prefix, image, fingerprint in writes:
            # Direct overwrite, *not* store(): the write chain is not
            # recomputable from content, so the captured fingerprint is
            # reinstated verbatim alongside the bytes it witnesses.
            region._data[:exclude] = prefix
            region._data[exclude:] = image
            region._fingerprint = fingerprint
            # The overwrite bypassed note_write, so any attached digest
            # tree no longer describes the bytes.  Roots are pure
            # functions of content, so invalidate-and-rebuild on next use
            # is byte-identical to a round-tripped tree -- no tree state
            # in the document.
            if region.digest_tree is not None:
                region.digest_tree.invalidate()
        # The fingerprints just reinstated come from the document, so a
        # digest the attached cache learned before (at the target's
        # spin-up, or from another member) could vouch for bytes nobody
        # measured.  Start it cold: the next measurement reads memory.
        if device._state_cache is not None:
            device._state_cache.clear()
    commits.append(commit)


def _stage_mpu(mpu, text, blobs, commits: list) -> None:
    registers = unb64(text)
    if len(registers) != len(mpu._registers):
        raise SnapshotError("MPU register file size mismatch")

    def commit():
        mpu._registers[:] = registers
        mpu._decoded = None
    commits.append(commit)


#: The EA-MPU register file, base64.
MPU = Codec("string", capture=lambda mpu, blobs, parent, key: b64(
    bytes(mpu._registers)), stage=_stage_mpu)


# ---------------------------------------------------------------------------
# Runtime execution contexts
# ---------------------------------------------------------------------------

def _encode_context(ctx: ExecutionContext) -> dict:
    return {"name": ctx.name, "start": ctx.code_start, "end": ctx.code_end,
            "uninterruptible": ctx.uninterruptible,
            "entry_points": (list(ctx.entry_points)
                             if ctx.entry_points is not None else None)}


def _decode_context(record: dict) -> ExecutionContext:
    entry_points = record["entry_points"]
    return ExecutionContext(
        record["name"], record["start"], record["end"],
        uninterruptible=record["uninterruptible"],
        entry_points=(tuple(entry_points) if entry_points is not None
                      else None))


def _stage_contexts(contexts, records, blobs, commits: list) -> dict:
    """The rebuilt device's built-in contexts plus the document's
    runtime ones, for the commit to assign."""
    staged = {name: ctx for name, ctx in contexts.items()
              if name in _BUILTIN_CONTEXTS}
    for record in json_list(records):
        staged[record["name"]] = _decode_context(record)
    return staged


#: Contexts created after boot, sorted by name; ``entry_points`` is
#: ``null`` for a context that may be entered anywhere.
CONTEXTS = Codec("list", capture=lambda contexts, blobs, parent, key: [
    _encode_context(ctx) for name, ctx in sorted(contexts.items())
    if name not in _BUILTIN_CONTEXTS], stage=_stage_contexts)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

BATTERY = Table("battery", ("consumed_mj", "consumed_mj", NUMBER),
                ("active_cycles", "active_cycles", NUMBER),
                ("sleep_seconds", "sleep_seconds", NUMBER))

COUNTER = Table("counter", ("base", "_base", NUMBER),
                ("last_unwrapped", "_last_unwrapped", NUMBER))

_CLOCK_ROWS = (("kind", "kind", SAME),
               ("counter", "counter", Nested(COUNTER)))
CLOCK = Table("clock", *_CLOCK_ROWS)
SOFTWARE_CLOCK = Table("clock", *_CLOCK_ROWS,
                       ("wraps_signalled", "wraps_signalled", NUMBER),
                       ("wraps_serviced", "wraps_serviced", NUMBER))

INTERRUPTS = Table(
    "interrupts",
    ("pending", "_pending", LIST),
    ("mask_bits", "mask._bits", NUMBER),
    # (cycle, irq), (cycle, irq, context) and (cycle, irq, reason).
    ("coalesced", "coalesced_log", Log(Entry(INT, INT))),
    ("dispatched", "dispatch_log", Log(Entry(INT, INT, STRING))),
    ("dropped", "dropped_log", Log(Entry(INT, INT, STRING))))

#: A device's mutable state.
DEVICE = Table(
    "device",
    Field("boot_profile", "boot_profile.name", SAME,
          present=lambda device: device.boot_profile is not None),
    ("boot_log", "boot_log", LIST),
    ("cpu_cycles", "cpu.cycle_count", NUMBER),
    ("energy_last_cycle", "battery.last_cycle", NUMBER),
    # Rebuilt, never restored: the boot code, K_Attest and the boot
    # reference the rebuild burned must be the captured ones.
    ("rom", "rom._fingerprint", SAME_HEX),
    ("battery", "battery", Nested(BATTERY)),
    ("regions", "", Codec("list", capture=_capture_regions,
                          stage=_stage_regions)),
    ("mpu", "mpu", MPU),
    ("contexts", "_contexts", CONTEXTS),
    Field("clock", "clock",
          Nested(CLOCK, SOFTWARE_CLOCK,
                 pick=lambda clock: (SOFTWARE_CLOCK
                                     if clock.kind == "software" else CLOCK)),
          present=lambda device: device.clock is not None),
    ("interrupts", "interrupts", Nested(INTERRUPTS)))
