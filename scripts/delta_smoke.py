#!/usr/bin/env python
"""Smoke-test delta checkpoints, chain compaction and replay bisection.

Seven independent gates, any of which fails CI:

1. **Chain identity** -- across every protection profile and every
   clock kind, capture a root snapshot plus a chain of delta
   checkpoints (with real memory writes between links), fold the chain
   with ``materialize_chain``, and require the result byte-identical
   (canonical JSON) to a direct full snapshot of the same instant.
2. **Restore-and-continue** -- restore the folded chain into a freshly
   built twin and drive both onward: sweep reports, device states and
   merged traces must match an uninterrupted run exactly.
3. **Sharded fleet** -- the same chain-identity + continue contract
   through a 256-member :class:`repro.perf.fleet.FleetEngine` with
   multiple shard workers, deltas captured shard-parallel.
4. **Compaction** -- ``compact_chain`` squashes a chain into one full
   document that byte-matches the folded chain and restores
   identically after a disk round trip.
5. **Bisection** -- on a fault-injected observed fleet checkpointed
   every sweep, ``bisect_replay`` must find (a) the exact first
   ``breaker-state`` trace event and (b) the exact first record at or
   past a simulated-time threshold deep in the run -- same seq and
   record as a scan of an uninterrupted twin -- and the deep search
   must re-generate strictly fewer events than ``linear_scan`` from
   the oldest checkpoint.
6. **Log tails** -- no delta captured by the gates above stores a
   whole append-only log where a tail applies, and over eight links of
   identical work the non-blob bytes of a delta stay flat (link 8
   within 10% of link 2) instead of growing with the run.
7. **Shuffled OTA fleet** -- every member receives the same flash
   update in its own write order (equal contents, divergent write-chain
   fingerprints, so folding shares one image among many members); the
   chain must fold byte-identical to a direct full snapshot and restore
   into a continued run equal to the uninterrupted one.

Exit status: 0 on success, 1 with diagnostics on any failure.

Usage::

    PYTHONPATH=src python scripts/delta_smoke.py [--fleet-size N]
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def canonical(document) -> str:
    return json.dumps(document, sort_keys=True)


def rewrite(swarm, round_index: int) -> None:
    """Dirty a few chunks of every member's RAM through the provisioning
    path (fingerprints and digest trees account for every byte)."""
    for member in swarm.members:
        ram = member.session.device.ram
        payload = bytes((round_index + member.index + offset) % 256
                        for offset in range(256))
        ram.load(64, payload)
        ram.load(ram.size // 2, payload)


def shuffled_ota(swarm, round_index: int) -> None:
    """One fleet-shared flash update: the same bytes at the same places
    for every member, each writing them in its own rotated order."""
    size = swarm.members[0].session.device.flash.size
    offsets = [0, 4096 + 100, 3 * 4096 + 7, size // 2 + 33, size - 256]
    writes = [(offset, bytes((round_index * 11 + offset + i) % 256
                             for i in range(256)))
              for offset in offsets]
    for member in swarm.members:
        shift = member.index % len(writes)
        for offset, data in writes[shift:] + writes[:shift]:
            member.session.device.flash.load(offset, data)


def full_logs(document) -> list:
    """Append-only logs a delta stores whole instead of as a tail."""
    from repro.snapshot.delta import _log_instances
    return [ident for ident, (box, field)
            in _log_instances(document["state"], document["kind"]).items()
            if isinstance(box[field], list)]


def state_bytes(document) -> int:
    """Encoded size of a document outside its blob payloads."""
    return (len(canonical(document))
            - sum(len(blob) for blob in document["blobs"].values()))


def capture_chain(swarm, links: int):
    """Root full snapshot, then ``links`` deltas with writes+sweeps
    between; returns (chain, direct full snapshot of the tip state)."""
    chain = [swarm.snapshot()]
    for round_index in range(links):
        rewrite(swarm, round_index)
        swarm.sweep()
        chain.append(swarm.snapshot(parent=chain[-1]))
    return chain, swarm.snapshot()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=3,
                        help="swarm size for the profile/clock gates")
    parser.add_argument("--links", type=int, default=2,
                        help="delta links per captured chain")
    parser.add_argument("--fleet-size", type=int, default=256,
                        help="fleet size for the sharded engine gate")
    parser.add_argument("--workers", type=int, default=2,
                        help="shard workers for the engine gate")
    args = parser.parse_args(argv)

    try:
        from repro.core.resilience import RetryPolicy
        from repro.mcu.device import DeviceConfig
        from repro.mcu.profiles import ALL_PROFILES
        from repro.perf.fleet import FleetEngine, FleetSpec, lossy_link
        from repro.perf.snapshot import _update_engine
        from repro.services.swarm import Swarm
        from repro.snapshot import (bisect_replay, compact_chain,
                                    linear_scan, load_document,
                                    materialize_chain, save_document)
    except Exception as exc:  # pragma: no cover - import-time breakage
        print(f"delta-smoke: FAIL: cannot import repro: {exc}",
              file=sys.stderr)
        return 1

    failures = []
    variants = 0
    deltas = []     # every delta the gates capture, for gate 6

    # Gates 1 + 2: chain identity and restore-and-continue, across
    # every protection profile and every clock kind.
    builds = [(f"profile={profile.name}", {"profile": profile})
              for profile in ALL_PROFILES]
    builds += [(f"clock={kind}",
                {"device_config": DeviceConfig(clock_kind=kind)})
               for kind in ("hw64", "hw32div", "sw", "none")]
    for label, kwargs in builds:
        variants += 1

        def build():
            return Swarm(args.size, observe=True, incremental=True,
                         seed=f"delta-smoke:{label}", **kwargs)

        live = build()
        live.sweep()
        chain, full = capture_chain(live, args.links)
        deltas.extend((label, delta) for delta in chain[1:])
        folded = materialize_chain(chain)
        if canonical(folded) != canonical(full):
            failures.append(f"{label}: folded chain differs from the "
                            f"direct full snapshot")
            continue
        resumed = build()
        resumed.restore(folded)
        if live.sweep() != resumed.sweep():
            failures.append(f"{label}: sweep reports diverge after "
                            f"chain restore")
        if live.merged_trace_records() != resumed.merged_trace_records():
            failures.append(f"{label}: merged traces diverge after "
                            f"chain restore")
        if live.freshness_fingerprint() != resumed.freshness_fingerprint():
            failures.append(f"{label}: freshness fingerprints diverge "
                            f"after chain restore")

    # Gate 4: compaction (reuses the last chain) -- one standalone full
    # document, byte-identical through a disk round trip, restorable.
    compacted = compact_chain(chain)
    if canonical(compacted) != canonical(full):
        failures.append("compact: squashed chain differs from the "
                        "direct full snapshot")
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "compacted.json"
        save_document(compacted, path)
        if load_document(path) != compacted:
            failures.append("compact: document does not survive a disk "
                            "round trip unchanged")
    resumed = build()
    resumed.restore(compacted)
    if live.sweep() != resumed.sweep():
        failures.append("compact: sweep reports diverge after restoring "
                        "the compacted document")

    # Gate 3: sharded fleet engine -- shard-parallel delta capture.
    spec = FleetSpec(size=args.fleet_size,
                     device_config=DeviceConfig(ram_size=8 * 1024,
                                                flash_size=16 * 1024,
                                                app_size=2 * 1024),
                     incremental=True, seed="delta-smoke-fleet")
    with FleetEngine(spec, workers=args.workers) as engine:
        engine.sweep()
        fleet_chain = [engine.snapshot()]
        for round_index in range(args.links):
            _update_engine(engine, round_index, 0.10, 4096, True)
            engine.sweep()
            fleet_chain.append(engine.snapshot(parent=fleet_chain[-1]))
        fleet_full = engine.snapshot()
        continued = engine.sweep()
        continued_states = engine.device_states()
    deltas.extend(("fleet engine", delta) for delta in fleet_chain[1:])
    fleet_folded = materialize_chain(fleet_chain)
    if canonical(fleet_folded) != canonical(fleet_full):
        failures.append(f"fleet engine: folded chain differs from the "
                        f"direct full snapshot at size {args.fleet_size}")
    with FleetEngine(spec, workers=args.workers) as engine:
        engine.restore(fleet_folded)
        if engine.sweep() != continued:
            failures.append("fleet engine: sweep reports diverge after "
                            "sharded chain restore")
        if engine.device_states() != continued_states:
            failures.append("fleet engine: device states diverge after "
                            "sharded chain restore")
    delta_bytes = len(canonical(fleet_chain[-1]))
    full_bytes = len(canonical(fleet_full))
    if delta_bytes * 2 >= full_bytes:
        failures.append(
            f"fleet engine: delta checkpoint ({delta_bytes} B) is not "
            f"meaningfully smaller than the full one ({full_bytes} B)")

    # Gate 5: bisection on a fault-injected fleet, checkpointed every
    # sweep, against ground truth from an uninterrupted twin.  Two
    # searches: the first breaker transition (an early, non-monotone
    # anomaly query -- correctness only) and the first record at or
    # past a simulated-time threshold deep in the run (the canonical
    # monotone first-flip, where bisection must also beat the linear
    # scan on events re-generated).
    def build_faulted():
        return Swarm(5, retry=RetryPolicy(attempt_timeout_seconds=5.0,
                                          max_retries=2,
                                          base_backoff_seconds=1.0,
                                          jitter_fraction=0.5),
                     adversary_factory=lossy_link, observe=True,
                     incremental=True, seed="delta-smoke-bisect")

    sweeps = 24
    recorded = build_faulted()
    documents = [recorded.snapshot()]
    for _ in range(sweeps):
        recorded.sweep()
        documents.append(recorded.snapshot(parent=documents[-1]))

    deltas.extend(("bisect", delta) for delta in documents[1:])
    truth = build_faulted()
    for _ in range(sweeps):
        truth.sweep()
    truth_records = truth.merged_trace_records()
    deep_time = truth_records[-1]["time"] * 0.8
    queries = [
        ("breaker", lambda r: r["kind"] == "breaker-state", False),
        ("deep-time", lambda r: r["time"] >= deep_time, True),
    ]
    found = baseline = expected = None
    for name, predicate, costed in queries:
        expected = next((record for record in truth_records
                         if predicate(record)), None)
        if expected is None:
            failures.append(f"bisect[{name}]: scenario produced no "
                            f"matching event to search for")
            continue
        try:
            found = bisect_replay(build_faulted(), documents, predicate)
        except Exception as exc:
            failures.append(f"bisect[{name}]: raised {exc}")
            continue
        if found["seq"] != expected["seq"]:
            failures.append(
                f"bisect[{name}]: converged on seq {found['seq']}, "
                f"ground truth is seq {expected['seq']}")
        if found["record"] != expected:
            failures.append(f"bisect[{name}]: matched record differs "
                            f"from the ground-truth record")
        if not costed:
            continue
        try:
            baseline = linear_scan(build_faulted(), documents[0],
                                   predicate)
        except Exception as exc:
            failures.append(f"bisect[{name}]: linear scan raised {exc}")
            continue
        if baseline["seq"] != expected["seq"]:
            failures.append(
                f"bisect[{name}]: linear baseline found seq "
                f"{baseline['seq']}, ground truth {expected['seq']}")
        if found["events_replayed"] >= baseline["events_replayed"]:
            failures.append(
                f"bisect[{name}]: replayed {found['events_replayed']} "
                f"event(s), not fewer than the linear scan's "
                f"{baseline['events_replayed']}")

    # Gate 6: log tails, and state bytes that track the work of a link
    # rather than the length of the run.
    flat = Swarm(args.size, observe=True, incremental=True,
                 seed="delta-smoke-flat")
    flat.sweep()
    flat_chain = [flat.snapshot()]
    for _ in range(8):
        flat.sweep()
        flat_chain.append(flat.snapshot(parent=flat_chain[-1]))
    deltas.extend(("flat", delta) for delta in flat_chain[1:])
    for label, delta in deltas:
        whole = full_logs(delta)
        if whole:
            failures.append(f"tails[{label}]: {len(whole)} log(s) stored "
                            f"whole where a tail applies, e.g. {whole[0]}")
            break
    link_bytes = [state_bytes(delta) for delta in flat_chain[1:]]
    if link_bytes[7] > link_bytes[1] * 1.10:
        failures.append(f"tails: delta state bytes grow with the run "
                        f"(link 2: {link_bytes[1]} B, link 8: "
                        f"{link_bytes[7]} B)")
    if canonical(materialize_chain(flat_chain)) != \
            canonical(flat.snapshot()):
        failures.append("tails: folded 8-link chain differs from the "
                        "direct full snapshot")

    # Gate 7: a shuffled-order OTA fleet -- equal contents under
    # divergent fingerprints -- folds exactly and continues exactly.
    # One member per rotation of the five writes: every order differs.
    def build_ota():
        return Swarm(5, observe=True, incremental=True,
                     seed="delta-smoke-ota")

    ota_live = build_ota()
    ota_live.sweep()
    ota_chain = [ota_live.snapshot()]
    for round_index in range(args.links):
        shuffled_ota(ota_live, round_index)
        ota_live.sweep()
        ota_chain.append(ota_live.snapshot(parent=ota_chain[-1]))
    ota_full = ota_live.snapshot()
    flash = [record["fingerprint"]
             for member in ota_full["state"]["members"]
             for record in member["session"]["device"]["regions"]
             if record["name"] == "flash"]
    if (len(set(flash)) != len(flash)
            or len({ota_full["blobs"][fp] for fp in flash}) != 1):
        failures.append("ota: members do not share flash contents under "
                        "divergent fingerprints; the gate tests nothing")
    ota_folded = materialize_chain(ota_chain)
    if canonical(ota_folded) != canonical(ota_full):
        failures.append("ota: folded chain differs from the direct full "
                        "snapshot")
    ota_resumed = build_ota()
    ota_resumed.restore(ota_folded)
    if ota_live.sweep() != ota_resumed.sweep():
        failures.append("ota: sweep reports diverge after chain restore")
    if (ota_live.merged_trace_records()
            != ota_resumed.merged_trace_records()):
        failures.append("ota: merged traces diverge after chain restore")
    if (ota_live.freshness_fingerprint()
            != ota_resumed.freshness_fingerprint()):
        failures.append("ota: freshness fingerprints diverge after chain "
                        "restore")

    if failures:
        for failure in failures:
            print(f"delta-smoke: FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"delta-smoke: OK (chain == full across {variants} "
          f"profile/clock variants, sharded x {args.workers} workers at "
          f"size {args.fleet_size}, compaction exact, bisect found seq "
          f"{expected['seq']} replaying {found['events_replayed']} vs "
          f"linear {baseline['events_replayed']} event(s), {len(deltas)} "
          f"deltas all tails, state {link_bytes[1]} -> {link_bytes[7]} B "
          f"over links 2..8, shuffled OTA fleet of {len(flash)} folds "
          f"and continues exactly)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
