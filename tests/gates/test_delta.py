"""Delta checkpoint gates: chains, compaction, bisection, log tails.

1. **Chain identity** -- across every protection profile and every clock
   kind, a root snapshot plus a chain of delta checkpoints (real memory
   writes between links) folds with ``materialize_chain`` to exactly
   (canonical JSON) a direct full snapshot of the same instant.
2. **Restore-and-continue** -- the folded chain restored into a freshly
   built twin continues like the uninterrupted run: sweep reports,
   merged traces and freshness fingerprints match.
3. **Sharded fleet** -- the same contract through a 256-member
   :class:`repro.perf.fleet.FleetEngine` with two shard workers, deltas
   captured shard-parallel, and a delta at most half a full snapshot.
4. **Compaction** -- ``compact_chain`` squashes a chain into one full
   document that byte-matches the folded chain, survives a disk round
   trip and restores identically.
5. **Bisection** -- on a fault-injected fleet checkpointed every sweep,
   ``bisect_replay`` finds the exact first ``breaker-state`` event and
   the exact first record past a simulated-time threshold deep in the
   run (same seq and record as an uninterrupted twin), and the deep
   search re-generates strictly fewer events than ``linear_scan``.
6. **Log tails** -- no delta captured by gates 1-5 stores a whole
   append-only log where a tail applies, and over eight links of
   identical work the non-blob bytes of a delta stay flat (link 8
   within 10% of link 2).
7. **Shuffled OTA fleet** -- every member receives the same flash update
   in its own write order (equal contents, divergent write-chain
   fingerprints); the chain folds exactly and continues exactly.
"""

import json

import pytest

from repro.core.resilience import RetryPolicy
from repro.mcu import device as device_module
from repro.mcu.device import DeviceConfig
from repro.mcu.profiles import ALL_PROFILES
from repro.net.faults import lossy_link
from repro.perf.fleet import FleetEngine, FleetSpec
from repro.perf.harness import apply_update, learn_update
from repro.perf.snapshot import build_report
from repro.services.swarm import Swarm
from repro.snapshot import (bisect_replay, compact_chain, linear_scan,
                            load_document, materialize_chain, save_document)
from repro.snapshot.delta import _log_instances

SIZE = 3          # swarm size for the profile/clock gates
LINKS = 2         # delta links per captured chain
FLEET_SIZE = 256  # fleet size for the sharded engine gate
WORKERS = 2       # shard workers for the engine gate
BISECT_SWEEPS = 24

BUILDS = ([(f"profile={profile.name}", {"profile": profile})
           for profile in ALL_PROFILES]
          + [(f"clock={kind}", {"device_config": DeviceConfig(clock_kind=kind)})
             for kind in ("hw64", "hw32div", "sw", "none")])

FLEET_SPEC = FleetSpec(size=FLEET_SIZE,
                       device_config=DeviceConfig(ram_size=8 * 1024,
                                                  flash_size=16 * 1024,
                                                  app_size=2 * 1024),
                       incremental=True, seed="delta-smoke-fleet")


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


def build_variant(label: str, kwargs: dict) -> Swarm:
    return Swarm(SIZE, observe=True, incremental=True,
                 seed=f"delta-smoke:{label}", **kwargs)


def build_faulted() -> Swarm:
    return Swarm(5, retry=RetryPolicy(attempt_timeout_seconds=5.0,
                                      max_retries=2,
                                      base_backoff_seconds=1.0,
                                      jitter_fraction=0.5),
                 adversary_factory=lossy_link, observe=True,
                 incremental=True, seed="delta-smoke-bisect")


@pytest.fixture(scope="module")
def variants():
    """Per profile/clock variant: a captured chain, the direct full
    snapshot of its tip, and the uninterrupted run one sweep later."""
    runs = []
    for label, kwargs in BUILDS:
        live = build_variant(label, kwargs)
        live.sweep()
        chain, full = capture_chain(live, LINKS)
        runs.append({"label": label, "kwargs": kwargs, "chain": chain,
                     "full": full, "report": live.sweep(),
                     "trace": live.merged_trace_records(),
                     "freshness": live.freshness_fingerprint()})
    return runs


@pytest.fixture(scope="module")
def fleet():
    """A sharded fleet's delta chain, its tip, and the next sweep."""
    with FleetEngine(FLEET_SPEC, workers=WORKERS) as engine:
        engine.sweep()
        chain = [engine.snapshot()]
        for round_index in range(LINKS):
            engine.each(apply_update, round_index, 0.10)
            engine.each(learn_update)
            engine.sweep()
            chain.append(engine.snapshot(parent=chain[-1]))
        full = engine.snapshot()
        report = engine.sweep()
        states = engine.device_states()
    return {"chain": chain, "full": full, "report": report,
            "states": states}


@pytest.fixture(scope="module")
def bisect_documents():
    """A faulted fleet checkpointed (root + one delta) every sweep."""
    recorded = build_faulted()
    documents = [recorded.snapshot()]
    for _ in range(BISECT_SWEEPS):
        recorded.sweep()
        documents.append(recorded.snapshot(parent=documents[-1]))
    return documents


def test_chain_folds_to_the_full_snapshot(variants):
    for run in variants:
        assert (canonical(materialize_chain(run["chain"]))
                == canonical(run["full"])), (
            f"{run['label']}: folded chain differs from the direct full "
            f"snapshot")


def test_restored_chain_continues_like_the_live_run(variants):
    for run in variants:
        label = run["label"]
        resumed = build_variant(label, run["kwargs"])
        resumed.restore(materialize_chain(run["chain"]))
        assert resumed.sweep() == run["report"], \
            f"{label}: sweep reports diverge after chain restore"
        assert resumed.merged_trace_records() == run["trace"], \
            f"{label}: merged traces diverge after chain restore"
        assert resumed.freshness_fingerprint() == run["freshness"], \
            f"{label}: freshness fingerprints diverge after chain restore"


def test_sharded_fleet_chain_folds_and_continues(fleet):
    folded = materialize_chain(fleet["chain"])
    assert canonical(folded) == canonical(fleet["full"]), (
        f"fleet engine: folded chain differs from the direct full "
        f"snapshot at size {FLEET_SIZE}")
    with FleetEngine(FLEET_SPEC, workers=WORKERS) as engine:
        engine.restore(folded)
        assert engine.sweep() == fleet["report"], \
            "fleet engine: sweep reports diverge after sharded chain restore"
        assert engine.device_states() == fleet["states"], \
            "fleet engine: device states diverge after sharded chain restore"
    delta_bytes = len(canonical(fleet["chain"][-1]))
    full_bytes = len(canonical(fleet["full"]))
    assert delta_bytes * 2 < full_bytes, (
        f"fleet engine: delta checkpoint ({delta_bytes} B) is not "
        f"meaningfully smaller than the full one ({full_bytes} B)")


def test_compacted_chain_is_one_restorable_full_document(variants,
                                                         tmp_path):
    run = variants[-1]
    compacted = compact_chain(run["chain"])
    assert canonical(compacted) == canonical(run["full"]), \
        "compact: squashed chain differs from the direct full snapshot"
    path = tmp_path / "compacted.json"
    save_document(compacted, path)
    assert load_document(path) == compacted, \
        "compact: document does not survive a disk round trip unchanged"
    resumed = build_variant(run["label"], run["kwargs"])
    resumed.restore(compacted)
    assert resumed.sweep() == run["report"], \
        "compact: sweep reports diverge after restoring the compacted document"


def test_bisect_finds_the_first_match_cheaper_than_linear(
        bisect_documents):
    # Two searches: the first breaker transition (an early, non-monotone
    # anomaly query -- correctness only) and the first record at or past
    # a simulated-time threshold deep in the run (the canonical monotone
    # first-flip, where bisection must also beat the linear scan).
    truth = build_faulted()
    for _ in range(BISECT_SWEEPS):
        truth.sweep()
    truth_records = truth.merged_trace_records()
    deep_time = truth_records[-1]["time"] * 0.8
    queries = [
        ("breaker", lambda r: r["kind"] == "breaker-state", False),
        ("deep-time", lambda r: r["time"] >= deep_time, True),
    ]
    for name, predicate, costed in queries:
        expected = next((record for record in truth_records
                         if predicate(record)), None)
        assert expected is not None, (f"bisect[{name}]: scenario produced "
                                      f"no matching event to search for")
        found = bisect_replay(build_faulted(), bisect_documents, predicate)
        assert found["seq"] == expected["seq"], (
            f"bisect[{name}]: converged on seq {found['seq']}, ground "
            f"truth is seq {expected['seq']}")
        assert found["record"] == expected, (f"bisect[{name}]: matched "
                                             f"record differs from the "
                                             f"ground-truth record")
        if not costed:
            continue
        baseline = linear_scan(build_faulted(), bisect_documents[0],
                               predicate)
        assert baseline["seq"] == expected["seq"], (
            f"bisect[{name}]: linear baseline found seq "
            f"{baseline['seq']}, ground truth {expected['seq']}")
        assert found["events_replayed"] < baseline["events_replayed"], (
            f"bisect[{name}]: replayed {found['events_replayed']} "
            f"event(s), not fewer than the linear scan's "
            f"{baseline['events_replayed']}")


def test_deltas_store_log_tails_and_stay_flat(variants, fleet,
                                              bisect_documents):
    flat = Swarm(SIZE, observe=True, incremental=True,
                 seed="delta-smoke-flat")
    flat.sweep()
    flat_chain = [flat.snapshot()]
    for _ in range(8):
        flat.sweep()
        flat_chain.append(flat.snapshot(parent=flat_chain[-1]))
    deltas = ([(run["label"], delta) for run in variants
               for delta in run["chain"][1:]]
              + [("fleet engine", delta) for delta in fleet["chain"][1:]]
              + [("bisect", delta) for delta in bisect_documents[1:]]
              + [("flat", delta) for delta in flat_chain[1:]])
    for label, delta in deltas:
        whole = full_logs(delta)
        assert not whole, (f"tails[{label}]: {len(whole)} log(s) stored "
                           f"whole where a tail applies, e.g. {whole[0]}")
    link_bytes = [state_bytes(delta) for delta in flat_chain[1:]]
    assert link_bytes[7] <= link_bytes[1] * 1.10, (
        f"tails: delta state bytes grow with the run (link 2: "
        f"{link_bytes[1]} B, link 8: {link_bytes[7]} B)")
    assert (canonical(materialize_chain(flat_chain))
            == canonical(flat.snapshot())), \
        "tails: folded 8-link chain differs from the direct full snapshot"


def test_shuffled_ota_fleet_folds_and_continues_exactly():
    # One member per rotation of the five writes: every order differs.
    def build_ota():
        return Swarm(5, observe=True, incremental=True,
                     seed="delta-smoke-ota")

    live = build_ota()
    live.sweep()
    chain = [live.snapshot()]
    for round_index in range(LINKS):
        shuffled_ota(live, round_index)
        live.sweep()
        chain.append(live.snapshot(parent=chain[-1]))
    full = live.snapshot()
    flash = [record["fingerprint"]
             for member in full["state"]["members"]
             for record in member["session"]["device"]["regions"]
             if record["name"] == "flash"]
    assert (len(set(flash)) == len(flash)
            and len({full["blobs"][fp] for fp in flash}) == 1), (
        "ota: members do not share flash contents under divergent "
        "fingerprints; the gate tests nothing")
    folded = materialize_chain(chain)
    assert canonical(folded) == canonical(full), \
        "ota: folded chain differs from the direct full snapshot"
    resumed = build_ota()
    resumed.restore(folded)
    assert live.sweep() == resumed.sweep(), \
        "ota: sweep reports diverge after chain restore"
    assert live.merged_trace_records() == resumed.merged_trace_records(), \
        "ota: merged traces diverge after chain restore"
    assert live.freshness_fingerprint() == resumed.freshness_fingerprint(), \
        "ota: freshness fingerprints diverge after chain restore"


def test_report_geometry_is_the_measured_trees(monkeypatch):
    """The snapshot report's ``chunk_size`` is the leaf chunk of every
    digest tree its fleets built and checkpointed."""
    trees = []
    make = device_module.DigestTree

    def spy(*args, **kwargs):
        trees.append(make(*args, **kwargs))
        return trees[-1]
    monkeypatch.setattr(device_module, "DigestTree", spy)
    report = build_report(fleet_size=2, ram_kb=8, rounds=1, workers=1,
                          points=((0.10, True),), equivalence_size=2)
    assert trees
    assert {tree.chunk_size for tree in trees} == {report["chunk_size"]}
