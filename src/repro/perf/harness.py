"""Plumbing shared by the ``repro.perf`` benchmark harnesses.

The wall-clock, fleet, incremental, snapshot and service harnesses all
build the same benchmark members, drive the same OTA-style update
rounds, and embed the same host block in reports they write the same
way; this module holds the one copy of each.  Nothing here reads a host
clock -- timing stays in the harness modules that report it.
"""

from __future__ import annotations

import json
import pathlib
import platform

from ..crypto.rng import DeterministicRng
from ..crypto.sha1 import SHA1
from ..errors import ConfigurationError
from ..incremental import DEFAULT_CHUNK_SIZE
from ..mcu.device import DeviceConfig

__all__ = ["bench_device_config", "apply_update", "learn_update",
           "host_info", "write_report"]


def bench_device_config(ram_kb: int) -> DeviceConfig:
    """A benchmark member: ``ram_kb`` of RAM plus an equally large flash
    window (capped by the 1 MB memory-map window) and a 2 KB app, so the
    host hash dominates each attestation -- the work the digest caches,
    digest trees and delta checkpoints remove."""
    return DeviceConfig(ram_size=ram_kb * 1024,
                        flash_size=min(ram_kb, 1024) * 1024,
                        app_size=2 * 1024)


def _attested_windows(device) -> list[tuple[object, int, int]]:
    """(region, region-relative window start, window size) per attested
    span."""
    windows = []
    for start, end in device.attested_spans():
        if end <= start:
            continue
        region = device.memory.find(start)
        windows.append((region, start - region.start, end - start))
    return windows


def apply_update(swarm, round_index: int, dirty_fraction: float, *,
                 shared: bool = True) -> int:
    """Deliver one OTA-style update round; returns the bytes rewritten
    per member, in whole digest-tree leaf chunks
    (:data:`~repro.incremental.DEFAULT_CHUNK_SIZE`).

    ``shared=True`` is a fleet-wide update: content is derived from the
    round index alone, so after the round every member's attested memory
    is byte-identical again.  Each member receives its chunks in a
    member-specific shuffled order with its first chunk fragmented at a
    member-specific packet boundary (real distributors stripe and
    fragment updates), so every member's *write history* -- and
    therefore its write-chain fingerprint -- is unique (shuffles of a
    small dirty set can collide; the fragmentation offset cannot).

    ``shared=False`` derives the payload from the member's global index
    as well, in chunk order: no two members share a post-update byte,
    so content-addressed chunk storage dedups nothing across the fleet.

    Writes go through ``region.load`` (host-side provisioning, untimed),
    the same path a planted compromise uses, so nothing here can bypass
    fingerprint or digest-tree accounting.  Member indices are global,
    so a shard of a fleet receives exactly the writes its members would
    in one in-process fleet.
    """
    if not 0.0 < dirty_fraction <= 1.0:
        raise ConfigurationError("dirty_fraction must be in (0, 1]")
    chunk_size = DEFAULT_CHUNK_SIZE
    payloads: dict[tuple[str, int], bytes] = {}
    per_member = 0
    for member in swarm.members:
        per_member = 0
        fragmented = not shared
        for region, win_start, win_size in _attested_windows(
                member.session.device):
            chunks = (win_size + chunk_size - 1) // chunk_size
            dirty = min(chunks, max(1, int(dirty_fraction * chunks + 0.5)))
            order = list(range(dirty))
            if shared:
                DeterministicRng(
                    f"ota-order:{member.index}:{round_index}:{region.name}"
                ).shuffle(order)
                seed = f"ota-content:{round_index}:{region.name}"
            else:
                seed = (f"unique-ota:{member.index}:{round_index}:"
                        f"{region.name}")
            content_rng = None
            for chunk in order:
                offset = win_start + chunk * chunk_size
                length = min(chunk_size, win_size - chunk * chunk_size)
                payload = payloads.get((region.name, chunk))
                if payload is None:
                    if content_rng is None:
                        content_rng = DeterministicRng(seed)
                    payload = content_rng.substream(str(chunk)).bytes(length)
                    if shared:
                        payloads[(region.name, chunk)] = payload
                if not fragmented and length >= 2:
                    split = 1 + member.index % (length - 1)
                    region.load(offset, payload[:split])
                    region.load(offset + split, payload[split:])
                    fragmented = True
                else:
                    region.load(offset, payload)
                per_member += length
    return per_member


def _attested_digest(device) -> bytes:
    digest = SHA1()
    for region, win_start, win_size in _attested_windows(device):
        digest.update(region.raw_read(win_start, win_size))
    return digest.digest()


def learn_update(swarm, *, shared: bool = True) -> None:
    """Teach every member's verifier its expected post-update digest.

    The verifier distributed the update, so it knows the bytes; this is
    the OTA reference-rotation flow of
    :meth:`repro.core.verifier.Verifier.learn_reference`, computed
    host-side from attested bytes -- verifier knowledge, no simulated
    work, no prover-side cache warming.  With ``shared=True`` every
    member is byte-identical after :func:`apply_update`, so one clean
    member's digest serves the whole fleet; otherwise each member gets
    its own.
    """
    digest = None
    for member in swarm.members:
        if digest is None or not shared:
            digest = _attested_digest(member.session.device)
        member.session.verifier.learn_reference(digest)


def host_info() -> dict:
    """The host block every perf report embeds, so reports stay
    comparable."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }


def write_report(report: dict, path) -> pathlib.Path:
    """Write ``report`` as indented JSON; returns the path."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return path
