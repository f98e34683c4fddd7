"""Dynamic key-confidentiality check: the canary leak-hunt.

The static analyzer (:mod:`repro.analysis.taint`) has documented blind
spots -- subscript stores, module-global caches, closures -- so the
confidentiality claim is cross-checked *dynamically*, in the spirit of
the invariant verifier's static-vs-dynamic gate: provision a fleet and
a service tier with a high-entropy canary master key, run real
attestation rounds, then scan every serialized artifact (registry
dumps, merged traces, snapshot documents, session summaries, service
request records) for any encoding of the master or per-device keys
(hex in both cases, base64, ``repr`` of the bytes).

The snapshot *blob payloads* -- memory images -- are scanned apart:
decoded, then searched for the raw key bytes.  The default build keeps
``K_Attest`` in ROM, and a checkpoint carries ROM only as its
fingerprint, so its decoded blobs must hold no key.  The *control* is
a build with ``key_in_rom=False``: its key sits in flash, which is
writable and travels, so the hunt must find the raw key in that
build's decoded blobs -- proving the scanner is sharp enough for its
verdict on everything else to mean something.

``leak=True`` plants a deliberate telemetry-event leak (the key's hex
in a trace payload) so the smoke test can verify the hunt and the
static analyzer agree on seeded trees too.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass

__all__ = ["CANARY_MASTER_KEY", "CanaryHit", "CanaryReport",
           "needles_for_key", "scan_text", "scan_blobs", "run_canary_hunt"]

#: A fixed high-entropy 16-byte master key (not derivable from any
#: string the artifacts would naturally contain).
CANARY_MASTER_KEY = bytes.fromhex("9f3ac81d5e72640bd1c7a9558e02f4b6")


def needles_for_key(label: str, key: bytes) -> dict[str, str]:
    """Every textual encoding of ``key`` the scan looks for."""
    return {
        f"{label}/hex": key.hex(),
        f"{label}/HEX": key.hex().upper(),
        f"{label}/base64": base64.b64encode(key).decode("ascii"),
        f"{label}/repr": repr(key),
    }


def scan_text(artifact: str, text: str,
              needles: dict[str, str]) -> list["CanaryHit"]:
    hits = []
    for label, needle in sorted(needles.items()):
        if needle in text:
            hits.append(CanaryHit(artifact=artifact, needle=label))
    return hits


@dataclass(frozen=True)
class CanaryHit:
    artifact: str
    needle: str


@dataclass(frozen=True)
class CanaryReport:
    leak_planted: bool
    artifacts_scanned: tuple[str, ...]
    hits: tuple[CanaryHit, ...]
    control_hit: bool        # raw key found in a key-in-flash build's blobs

    @property
    def clean(self) -> bool:
        return not self.hits

    def as_dict(self) -> dict:
        return {
            "leak_planted": self.leak_planted,
            "artifacts_scanned": list(self.artifacts_scanned),
            "hits": [{"artifact": h.artifact, "needle": h.needle}
                     for h in self.hits],
            "control_hit": self.control_hit,
            "clean": self.clean,
        }


def _scrub_blobs(document: dict) -> tuple[str, dict]:
    """Canonical JSON of a snapshot doc minus blob payloads + the blobs."""
    blobs = document.get("blobs", {})
    scrubbed = {key: value for key, value in document.items()
                if key != "blobs"}
    scrubbed["blobs"] = sorted(blobs)       # fingerprints stay visible
    return json.dumps(scrubbed, sort_keys=True, default=repr), blobs


def scan_blobs(artifact: str, blobs: dict,
               raw_keys: dict[str, bytes]) -> list["CanaryHit"]:
    """Hits for every raw key found in a snapshot's decoded blob
    payloads; base64 is decoded first so alignment can't hide it."""
    payloads = [base64.b64decode(payload) for payload in blobs.values()]
    return [CanaryHit(artifact=artifact, needle=f"{label}/raw")
            for label, key in sorted(raw_keys.items())
            if any(key in raw for raw in payloads)]


def run_canary_hunt(*, size: int = 3, sweeps: int = 2, waves: int = 2,
                    leak: bool = False,
                    master_key: bytes = CANARY_MASTER_KEY) -> CanaryReport:
    """Provision, attest, serialize, scan.  Deterministic throughout."""
    from ..crypto.kdf import derive_device_key
    from ..mcu.device import DeviceConfig
    from ..services.attestd import AttestationService, build_schedule
    from ..services.swarm import Swarm

    needles: dict[str, str] = {}
    needles.update(needles_for_key("master", master_key))
    raw_keys = {"master": master_key}
    for index in range(size):
        device_id = f"device-{index:03d}"
        device_key = derive_device_key(master_key, device_id)
        needles.update(needles_for_key(device_id, device_key))
        raw_keys[device_id] = device_key

    swarm = Swarm(size, master_key=master_key, observe=True,
                  seed="canary")
    for _ in range(sweeps):
        swarm.sweep()
    if leak:
        # The seeded failure mode: raw key hex in a trace payload, the
        # exact shape KEY001 flags statically on the leaky fixture.
        session = swarm.members[0].session
        session.telemetry.event("monitor-event", session.sim.now,
                                note=session.key.hex())

    service = AttestationService(size, tenants=1, backends=2,
                                 master_key=master_key, seed="canary-svc")
    records = service.serve_schedule(
        build_schedule(size, waves=waves, seed="canary-load"))

    artifacts: dict[str, str] = {}
    artifacts["swarm-registry"] = json.dumps(
        swarm.merged_registry().dump(), sort_keys=True, default=repr)
    artifacts["swarm-trace"] = "\n".join(
        json.dumps(record, sort_keys=True, default=repr)
        for record in swarm.merged_trace_records())
    artifacts["swarm-summaries"] = json.dumps(
        [member.session.summary() for member in swarm.members],
        sort_keys=True, default=repr)
    swarm_doc_text, swarm_blobs = _scrub_blobs(swarm.snapshot())
    artifacts["swarm-snapshot"] = swarm_doc_text
    artifacts["service-registry"] = json.dumps(
        service.merged_registry().dump(), sort_keys=True, default=repr)
    artifacts["service-records"] = "\n".join(repr(r) for r in records)
    artifacts["service-freshness"] = json.dumps(
        service.freshness_fingerprint(), sort_keys=True, default=repr)
    service_doc_text, service_blobs = _scrub_blobs(service.snapshot())
    artifacts["service-snapshot"] = service_doc_text

    hits: list[CanaryHit] = []
    for name in sorted(artifacts):
        hits.extend(scan_text(name, artifacts[name], needles))
    # The images of a key-in-ROM build: ROM travels as its fingerprint,
    # so no key may be found in them.
    hits.extend(scan_blobs("swarm-snapshot-blobs", swarm_blobs, raw_keys))
    hits.extend(scan_blobs("service-snapshot-blobs", service_blobs,
                           raw_keys))

    # Control: a key-in-flash build's images MUST contain every raw
    # device key, since flash is writable memory and travels.
    flash_keyed = Swarm(size, master_key=master_key,
                        device_config=DeviceConfig(key_in_rom=False),
                        seed="canary-flash")
    flash_keyed.sweep()
    device_keys = {label: key for label, key in raw_keys.items()
                   if label != "master"}
    control_hit = len(scan_blobs(
        "control-snapshot-blobs", flash_keyed.snapshot()["blobs"],
        device_keys)) == len(device_keys)

    return CanaryReport(
        leak_planted=leak,
        artifacts_scanned=tuple(sorted([*artifacts, "swarm-snapshot-blobs",
                                        "service-snapshot-blobs"])),
        hits=tuple(hits),
        control_hit=control_hit)
