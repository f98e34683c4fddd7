"""Delta-checkpoint benchmark: chained delta captures vs full snapshots.

The scenario is fleet operations under a rolling OTA campaign: every
round rewrites ``dirty_fraction`` of each member's attested memory,
then the operator checkpoints the whole :class:`FleetEngine`.  The full
path re-serializes every member's entire writable memory every time;
the delta path (``snapshot(parent=...)``) diffs each region's
digest-tree leaves against the previous checkpoint and ships only the
dirty chunks -- content-addressed, so fleet-shared update payloads are
stored once per fleet, not once per member.

Shared-content points model the realistic campaign (every member
receives the same bytes, in member-shuffled order); the
``shared_content: false`` point rewrites member-unique bytes instead --
the honest worst case where content-addressing dedups nothing across
the fleet and the delta win comes from dirty-chunk selection alone.

Three artefacts come out of this module:

* :func:`measure_point` -- paired full/delta capture timings at one
  dirty fraction, with the folded chain asserted byte-identical to the
  final full snapshot before any number is reported;
* :func:`equivalence_check` -- materialize a depth-``rounds`` chain,
  byte-compare it to a direct full capture, then restore it into a
  fresh sharded engine and prove the continued run matches an
  uninterrupted one (sweep report, merged trace, merged registry);
* :func:`build_report` -- the schema-validated ``BENCH_snapshot.json``
  payload with the headline >= 3x wall-clock / >= 10x bytes-written
  gate at <= 10% dirty.

Everything timed here is *host* time (capture plus canonical JSON
serialization -- what actually hits disk); simulated observables are
part of the equivalence invariant, never a knob.  See
``docs/checkpoint.md``.
"""

from __future__ import annotations

import json
import pathlib
import time

from ..crypto.rng import DeterministicRng
from ..crypto.sha1 import SHA1
from ..errors import ConfigurationError
from ..incremental import DEFAULT_CHUNK_SIZE
from ..mcu.device import DeviceConfig
from ..snapshot import materialize_chain
from . import fleet as fleet_mod
from .fleet import FleetEngine, FleetSpec
from .incremental import _attested_windows, apply_update, learn_update
from .wallclock import host_info

__all__ = ["REPORT_SCHEMA_ID", "DEFAULT_POINTS", "GATE_DIRTY_FRACTION",
           "GATE_SPEEDUP_THRESHOLD", "GATE_BYTES_THRESHOLD",
           "apply_unique_update", "learn_unique_update", "measure_point",
           "equivalence_check", "build_report", "write_report"]

REPORT_SCHEMA_ID = "repro.perf.snapshot/v1"

#: (dirty fraction, fleet-shared content?) of the default sweep.  The
#: 0.50/unique point is the deliberate anti-cherry-pick: member-unique
#: content at high dirt is where delta checkpoints win least.
DEFAULT_POINTS = ((0.02, True), (0.10, True), (0.50, True), (0.50, False))

#: The headline gate: at the largest measured *shared* dirty fraction
#: <= GATE_DIRTY_FRACTION, delta capture must be >=
#: GATE_SPEEDUP_THRESHOLD x faster and write >= GATE_BYTES_THRESHOLD x
#: fewer bytes than full capture.
GATE_DIRTY_FRACTION = 0.10
GATE_SPEEDUP_THRESHOLD = 3.0
GATE_BYTES_THRESHOLD = 10.0

_MASTER_KEY = b"snapshot-bench-master-key"


def _bench_spec(fleet_size: int, ram_kb: int, *, observe: bool = False,
                seed: str = "snapshot-bench") -> FleetSpec:
    """Members mirroring the incremental benchmark fleet: per-member
    derived HMAC-SHA1 keys, RAM plus an equally large flash window, and
    digest trees on (``incremental=True``) -- delta capture diffs the
    same trees the incremental sweep path maintains."""
    flash_kb = min(ram_kb, 1024)
    return FleetSpec(
        size=fleet_size,
        device_config=DeviceConfig(ram_size=ram_kb * 1024,
                                   flash_size=flash_kb * 1024,
                                   app_size=2 * 1024),
        auth_scheme="hmac-sha1",
        master_key=_MASTER_KEY,
        observe=observe,
        incremental=True,
        seed=seed)


def apply_unique_update(swarm, round_index: int,
                        dirty_fraction: float) -> int:
    """One update round of member-*unique* content; returns the bytes
    rewritten per member, in whole digest-tree leaf chunks.

    Unlike :func:`repro.perf.incremental.apply_update`, the payload is
    derived from the member's global index as well as the round, so no
    two members share a single post-update byte -- content-addressed
    chunk storage dedups nothing across the fleet and every stored
    chunk is unique.  Same ``region.load`` provisioning path, so
    fingerprints and digest trees account for every write.
    """
    if not 0.0 < dirty_fraction <= 1.0:
        raise ConfigurationError("dirty_fraction must be in (0, 1]")
    chunk_size = DEFAULT_CHUNK_SIZE
    per_member = 0
    for member in swarm.members:
        per_member = 0
        for region, win_start, win_size in _attested_windows(
                member.session.device):
            chunks = (win_size + chunk_size - 1) // chunk_size
            dirty = min(chunks, max(1, int(dirty_fraction * chunks + 0.5)))
            rng = DeterministicRng(
                f"unique-ota:{member.index}:{round_index}:{region.name}")
            for chunk in range(dirty):
                offset = win_start + chunk * chunk_size
                length = min(chunk_size, win_size - chunk * chunk_size)
                region.load(offset, rng.substream(str(chunk)).bytes(length))
                per_member += length
    return per_member


def learn_unique_update(swarm) -> None:
    """Teach each verifier its *own* member's post-update digest (the
    per-member flavour of
    :func:`repro.perf.incremental.learn_update` -- with unique content
    there is no fleet-shared reference to share)."""
    for member in swarm.members:
        device = member.session.device
        digest = SHA1()
        for region, win_start, win_size in _attested_windows(device):
            digest.update(region.raw_read(win_start, win_size))
        member.session.verifier.learn_reference(digest.digest())


def _apply_round(swarm, round_index: int, dirty_fraction: float,
                 shared: bool) -> None:
    if shared:
        apply_update(swarm, round_index, dirty_fraction)
        learn_update(swarm)
    else:
        apply_unique_update(swarm, round_index, dirty_fraction)
        learn_unique_update(swarm)


def _shard_update(round_index: int, dirty_fraction: float,
                  shared: bool) -> None:
    """Run one update round on the resident shard swarm (member indices
    are global, so shard-local updates are byte-for-byte the updates a
    single in-process fleet would apply)."""
    _apply_round(fleet_mod._SHARD, round_index, dirty_fraction, shared)


def _update_engine(engine: FleetEngine, round_index: int,
                   dirty_fraction: float, shared: bool) -> None:
    engine.start()
    if engine._swarm is not None:
        _apply_round(engine._swarm, round_index, dirty_fraction, shared)
    else:
        engine._gather(_shard_update, round_index, dirty_fraction, shared)


def _canonical(document: dict) -> str:
    """The canonical serialized form whose length is the bytes-written
    axis (``save_document`` writes exactly this plus a newline)."""
    return json.dumps(document, sort_keys=True)


def measure_point(fleet_size: int, ram_kb: int, dirty_fraction: float, *,
                  shared: bool = True, rounds: int = 2,
                  workers: int = 2) -> dict:
    """Paired full/delta checkpoint timings at one dirty fraction.

    One untimed settling sweep, one untimed warm-up round (trees build,
    first full measurement of the content lineage), then an untimed
    full parent plus an untimed first delta against it.  Each timed
    round updates, sweeps, then captures the engine twice: a full
    snapshot and a delta against the previous delta, both timed through
    canonical JSON serialization.  Refuses to return numbers unless folding the
    whole chain reproduces the final full snapshot byte for byte.
    """
    flavour = "shared" if shared else "unique"
    spec = _bench_spec(fleet_size, ram_kb,
                       seed=f"snapshot-bench:{dirty_fraction}:{flavour}")
    with FleetEngine(spec, workers=workers) as engine:
        engine.sweep()                      # settle spin-up, untimed
        _update_engine(engine, 0, dirty_fraction, shared)
        engine.sweep()                      # warm-up round, untimed
        root = engine.snapshot()            # full parent, untimed
        chain = [root, engine.snapshot(parent=root)]    # first delta
        full_seconds = 0.0
        delta_seconds = 0.0
        full_bytes = 0
        delta_bytes = 0
        last_full = None
        for round_index in range(1, rounds + 1):
            _update_engine(engine, round_index, dirty_fraction, shared)
            engine.sweep()
            begin = time.perf_counter()
            last_full = engine.snapshot()
            full_text = _canonical(last_full)
            full_seconds += time.perf_counter() - begin
            full_bytes += len(full_text)
            begin = time.perf_counter()
            delta = engine.snapshot(parent=chain[-1])
            delta_text = _canonical(delta)
            delta_seconds += time.perf_counter() - begin
            delta_bytes += len(delta_text)
            chain.append(delta)
        identical = _canonical(materialize_chain(chain)) == full_text
    if not identical:
        raise AssertionError(
            "folded delta chain is not byte-identical to the full "
            "snapshot -- refusing to report a speedup")
    return {
        "dirty_fraction": dirty_fraction,
        "shared_content": shared,
        "full_seconds": full_seconds,
        "delta_seconds": delta_seconds,
        "speedup": full_seconds / delta_seconds,
        "full_bytes": full_bytes,
        "delta_bytes": delta_bytes,
        "bytes_reduction": full_bytes / delta_bytes,
        "chain_identical": identical,
    }


def equivalence_check(*, size: int = 8, workers: int = 2, rounds: int = 3,
                      ram_kb: int = 16,
                      dirty_fraction: float = 0.25) -> dict:
    """Prove a delta chain is a real checkpoint, not just a diff.

    Runs a telemetry-on sharded fleet through ``rounds`` update+sweep
    rounds, capturing a delta after each; then (a) byte-compares the
    folded chain against a direct full capture of the same instant,
    and (b) restores the folded document into a *fresh* engine, sweeps
    both engines once more, and compares the sweep report, merged
    event trace and merged registry dump against the engine that never
    stopped.  Any mismatch names the field.
    """
    spec = _bench_spec(size, ram_kb, observe=True, seed="snapshot-eq")
    mismatched: list[str] = []
    with FleetEngine(spec, workers=workers) as engine:
        engine.sweep()
        chain = [engine.snapshot()]
        for round_index in range(rounds):
            _update_engine(engine, round_index, dirty_fraction, True)
            engine.sweep()
            chain.append(engine.snapshot(parent=chain[-1]))
        full = engine.snapshot()
        materialized = materialize_chain(chain)
        if _canonical(materialized) != _canonical(full):
            mismatched.append("materialized_document")
        continued_report = engine.sweep()
        continued_trace = engine.merged_trace_records()
        continued_registry = json.dumps(engine.merged_registry().dump(),
                                        sort_keys=True)
    with FleetEngine(spec, workers=workers) as resumed:
        resumed.restore(materialized)
        if resumed.sweep() != continued_report:
            mismatched.append("resumed_sweep_report")
        if resumed.merged_trace_records() != continued_trace:
            mismatched.append("resumed_trace")
        if json.dumps(resumed.merged_registry().dump(),
                      sort_keys=True) != continued_registry:
            mismatched.append("resumed_registry")
    return {"identical": not mismatched, "mismatched_fields": mismatched}


def build_report(*, fleet_size: int = 256, ram_kb: int = 64,
                 rounds: int = 2, workers: int = 2,
                 points: tuple = DEFAULT_POINTS,
                 gate_dirty_fraction: float = GATE_DIRTY_FRACTION,
                 gate_speedup: float = GATE_SPEEDUP_THRESHOLD,
                 gate_bytes: float = GATE_BYTES_THRESHOLD,
                 equivalence_size: int = 8) -> dict:
    """Assemble the full ``BENCH_snapshot.json`` payload.

    One :func:`measure_point` per (dirty fraction, shared?) pair (each
    internally chain-identity-checked), the restore-and-continue
    :func:`equivalence_check` block, and the headline gate: at the
    largest *shared-content* fraction <= ``gate_dirty_fraction``, delta
    capture must beat full capture by >= ``gate_speedup`` x wall-clock
    and >= ``gate_bytes`` x bytes written.
    """
    measured = [measure_point(fleet_size, ram_kb, fraction, shared=shared,
                              rounds=rounds, workers=workers)
                for fraction, shared in points]
    eligible = [point for point in measured
                if point["shared_content"]
                and point["dirty_fraction"] <= gate_dirty_fraction]
    if not eligible:
        raise ConfigurationError(
            f"no measured shared-content dirty fraction <= "
            f"{gate_dirty_fraction}")
    gate_point = max(eligible, key=lambda point: point["dirty_fraction"])
    equivalence = equivalence_check(size=equivalence_size, workers=workers)
    return {
        "schema": REPORT_SCHEMA_ID,
        "fleet_size": fleet_size,
        "ram_kb": ram_kb,
        "workers": workers,
        "rounds": rounds,
        "chunk_size": DEFAULT_CHUNK_SIZE,
        "host": host_info(),
        "points": measured,
        "gate": {
            "dirty_fraction": gate_point["dirty_fraction"],
            "speedup": gate_point["speedup"],
            "speedup_threshold": gate_speedup,
            "bytes_reduction": gate_point["bytes_reduction"],
            "bytes_threshold": gate_bytes,
            "passed": (gate_point["speedup"] >= gate_speedup
                       and gate_point["bytes_reduction"] >= gate_bytes),
        },
        "equivalence": equivalence,
    }


def write_report(report: dict, path):
    """Write ``report`` as indented JSON; returns the path."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return path
