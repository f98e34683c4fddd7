"""Device-level snapshot: every mutable hardware block of the prover.

The capture/restore contract mirrors Simics-style checkpointing:
*restore never constructs a device*.  The caller rebuilds a device from
the same :class:`~repro.mcu.device.DeviceConfig` (construction,
provisioning and boot are deterministic); :func:`stage_device` checks
and decodes a captured state against it, and its commit then
overwrites exactly the state that evolves at runtime:

* memory region contents and their write-chain fingerprints (images
  deduplicated through a :class:`~repro.snapshot.blobs.BlobStore`);
* the EA-MPU register file (written behind the lockdown check -- this
  is the checkpoint mechanism restoring hardware flops, not software
  reconfiguring a locked MPU) and its decoded-rule cache;
* CPU cycle count, battery/energy accounting, boot log;
* clock and timer state (counter offsets, software-clock wrap counts);
* interrupt-controller queues, logs and the mask register;
* execution contexts created after boot (e.g. malware contexts).

Deliberately **not** captured: ``mpu._violations`` -- a host-side
diagnostic list of raised exceptions, never read back by simulated
code; restored runs start with an empty list -- and the attached
:class:`~repro.mcu.statecache.StateDigestCache`, a host memo of digests
keyed by fingerprint.  The commit clears it, because the fingerprints
it reinstates come from the document: a checkpoint can restore memory,
never vouch for it.
"""

from __future__ import annotations

from ..errors import SnapshotError
from ..mcu.cpu import ExecutionContext
from .blobs import BlobStore
from .codec import b64, overwrite, unb64
from .delta import capture_log, capture_region_delta, chunk_index

__all__ = ["snapshot_device", "stage_device"]

#: Contexts recreated by deterministic construction + boot; anything
#: else in ``device._contexts`` was made at runtime and must travel.
_BUILTIN_CONTEXTS = frozenset({"boot", "Code_Attest", "Code_Clock", "app"})


def snapshot_device(device, blobs: BlobStore, parent=None) -> dict:
    """Capture ``device``'s mutable state; region images go to ``blobs``.

    A region whose digest tree spans its window also records its
    ``chunk_size`` and the key of its leaf-digest ``index`` row (see
    :func:`repro.snapshot.delta.chunk_index`), so a later delta against
    this document diffs leaf digests instead of re-hashing the image.

    With a ``parent`` (:class:`repro.snapshot.delta.ParentMember`),
    region records carry a ``delta`` entry instead of putting the whole
    window image into ``blobs`` -- only chunks whose digest-tree leaves
    changed since the parent checkpoint are stored (see
    :func:`repro.snapshot.delta.capture_region_delta`), and interrupt
    logs carry only the entries added since it.  The per-member prefix
    (below the fingerprint-exclude bound) always travels verbatim
    either way.
    """
    regions = []
    for region in device.memory:
        if region._data is None:
            continue  # MMIO: peripheral state is captured below
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
    snap = {
        "boot_profile": (device.boot_profile.name
                         if device.boot_profile is not None else None),
        "boot_log": list(device.boot_log),
        "cpu_cycles": device.cpu.cycle_count,
        "energy_last_cycle": device._energy_last_cycle,
        "battery": {"consumed_mj": device.battery.consumed_mj,
                    "active_cycles": device.battery.active_cycles,
                    "sleep_seconds": device.battery.sleep_seconds},
        "regions": regions,
        "mpu": b64(bytes(device.mpu._registers)),
        "contexts": [_encode_context(ctx)
                     for name, ctx in sorted(device._contexts.items())
                     if name not in _BUILTIN_CONTEXTS],
        "clock": _snapshot_clock(device.clock),
        "interrupts": _snapshot_interrupts(device.interrupts, parent),
    }
    return snap


def stage_device(device, snap: dict, blobs: BlobStore,
                 commits: list) -> None:
    """Stage overwriting a freshly rebuilt ``device`` with captured
    state.  Region prefixes and images are read from ``blobs``, where
    :func:`repro.snapshot.delta.open_chain` checked their lengths."""
    profile = (device.boot_profile.name
               if device.boot_profile is not None else None)
    if profile != snap["boot_profile"]:
        raise SnapshotError(
            f"boot profile mismatch: snapshot has {snap['boot_profile']!r},"
            f" rebuilt device booted {profile!r}")

    writes = []
    for record in snap["regions"]:
        region = (device.memory.region(record["name"])
                  if record["name"] in device.memory else None)
        if region is None or region._data is None:   # absent, or MMIO
            raise SnapshotError(
                f"snapshot region {record['name']!r} is not a memory "
                f"region of the rebuilt device")
        if (region.size != record["size"]
                or region.fingerprint_exclude_below != record["exclude"]):
            raise SnapshotError(
                f"region {record['name']!r} geometry mismatch")
        writes.append((region, record["exclude"],
                       blobs.prefix(record["prefix"]),
                       blobs.get(record["fingerprint"]),
                       bytes.fromhex(record["fingerprint"])))
    registers = unb64(snap["mpu"])
    if len(registers) != len(device.mpu._registers):
        raise SnapshotError("MPU register file size mismatch")

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
        device.mpu._registers[:] = registers
        device.mpu._decoded = None
        # The fingerprints just reinstated come from the document, so a
        # digest the attached cache learned before (at the target's
        # spin-up, or from another member) could vouch for bytes nobody
        # measured.  Start it cold: the next measurement reads memory.
        if device._state_cache is not None:
            device._state_cache.clear()
    commits.append(commit)

    contexts = {name: ctx for name, ctx in device._contexts.items()
                if name in _BUILTIN_CONTEXTS}
    for record in snap["contexts"]:
        contexts[record["name"]] = _decode_context(record)
    overwrite(commits, device, boot_log=list(snap["boot_log"]),
              _energy_last_cycle=snap["energy_last_cycle"],
              _contexts=contexts)
    overwrite(commits, device.cpu, cycle_count=snap["cpu_cycles"])
    battery = snap["battery"]
    overwrite(commits, device.battery, consumed_mj=battery["consumed_mj"],
              active_cycles=battery["active_cycles"],
              sleep_seconds=battery["sleep_seconds"])
    _stage_clock(device.clock, snap["clock"], commits)
    _stage_interrupts(device.interrupts, snap["interrupts"], commits)


# ---------------------------------------------------------------------------
# Pieces
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


def _snapshot_counter(counter) -> dict:
    return {"base": counter._base,
            "last_unwrapped": counter._last_unwrapped}


def _snapshot_clock(clock) -> dict | None:
    if clock is None:
        return None
    state = {"kind": clock.kind, "counter": _snapshot_counter(clock.counter)}
    if clock.kind == "software":
        state["wraps_signalled"] = clock.wraps_signalled
        state["wraps_serviced"] = clock.wraps_serviced
    return state


def _stage_clock(clock, state: dict | None, commits: list) -> None:
    if state is None:
        if clock is not None:
            raise SnapshotError("snapshot has no clock state but the "
                                "rebuilt device has a clock")
        return
    if clock is None or clock.kind != state["kind"]:
        raise SnapshotError("clock kind mismatch between snapshot and "
                            "rebuilt device")
    overwrite(commits, clock.counter, _base=state["counter"]["base"],
              _last_unwrapped=state["counter"]["last_unwrapped"])
    if clock.kind == "software":
        overwrite(commits, clock, wraps_signalled=state["wraps_signalled"],
                  wraps_serviced=state["wraps_serviced"])


def _snapshot_interrupts(interrupts, parent=None) -> dict:
    return {"pending": list(interrupts._pending),
            "mask_bits": interrupts.mask._bits,
            "coalesced": capture_log(interrupts.coalesced_log, list, parent,
                                     "device.interrupts.coalesced"),
            "dispatched": capture_log(interrupts.dispatch_log, list, parent,
                                      "device.interrupts.dispatched"),
            "dropped": capture_log(interrupts.dropped_log, list, parent,
                                   "device.interrupts.dropped")}


def _stage_interrupts(interrupts, state: dict, commits: list) -> None:
    overwrite(commits, interrupts, _pending=list(state["pending"]),
              coalesced_log=[tuple(entry) for entry in state["coalesced"]],
              dispatch_log=[tuple(entry) for entry in state["dispatched"]],
              dropped_log=[tuple(entry) for entry in state["dropped"]])
    overwrite(commits, interrupts.mask, _bits=state["mask_bits"])
