"""Fleet-scale attestation engine: sharded parallel sweeps and cached
spin-up, proven byte-identical to the sequential seed path.

The paper's Section 3.1 asymmetry -- one verifier trivially saturates a
whole fleet of 24 MHz provers -- only becomes demonstrable at fleet
scale, and the sequential :class:`~repro.services.swarm.Swarm` loop
makes the *host* the bottleneck long before the simulated verifier is.
This module removes the host bottleneck twice over without changing a
single simulated observable:

**Sharded parallel sweeps.**  :class:`FleetEngine` partitions the fleet
into contiguous shards (:func:`partition`) and runs each shard's
:class:`~repro.services.swarm.Swarm` inside a dedicated single-process
:class:`~concurrent.futures.ProcessPoolExecutor` worker, where it lives
for the engine's lifetime -- circuit breakers, freshness state and
per-member telemetry persist across sweeps exactly as they do in one
big in-process swarm.  Per-member behaviour depends only on the swarm
seed and the member's *global* index (device id, derived key, retry
jitter substream, stagger slot -- see ``Swarm.member_indices``), so
shard outcomes concatenated in shard order equal the sequential
member-order outcome list, and one shared
:func:`~repro.services.swarm.fold_outcomes` reduction makes the merged
:class:`~repro.services.swarm.SweepReport` byte-identical, float
accumulation order included.

**Cached spin-up and sweeps.**  Each shard attaches a
:class:`~repro.mcu.statecache.StateDigestCache`, so the host computes
each unique memory-state digest once per shard instead of once per
member per round: spin-up drops from O(N * measure) to
O(unique_configs * measure + N * cheap), and steady-state sweeps skip
the dominant host hash entirely.  The cache is content-addressed by
write-chain fingerprints, so a compromised member misses the cache and
is detected exactly as on the seed path.

``workers=1`` (or ``REPRO_FLEET_WORKERS=1``) falls back to one plain
in-process ``Swarm`` -- the uncached sequential seed path that
:func:`equivalence_check` and ``BENCH_fleet.json``'s gate compare
against.  Everything here measures *host* time; simulated time lives in
the shard swarms and is part of the equivalence invariant, never a
knob.  See ``docs/fleet-scale.md``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import zip_longest

from ..core.resilience import RetryPolicy
from ..errors import ConfigurationError, SnapshotError
from ..mcu.device import DeviceConfig
from ..mcu.profiles import ProtectionProfile, ROAM_HARDENED
from ..mcu.statecache import StateDigestCache
from ..net.faults import BernoulliLoss, FaultPipeline, LatencyJitter
from ..obs.registry import MetricsRegistry
from ..services.swarm import Swarm, SweepReport, fold_outcomes
from .wallclock import host_info

__all__ = ["REPORT_SCHEMA_ID", "WORKERS_ENV", "FleetSpec", "FleetEngine",
           "partition", "resolve_workers", "lossy_link",
           "default_equivalence_spec", "equivalence_check", "build_report",
           "write_report"]

REPORT_SCHEMA_ID = "repro.perf.fleet/v1"

#: Environment override for the worker count (CLI/bench default source).
WORKERS_ENV = "REPRO_FLEET_WORKERS"


@dataclass(frozen=True)
class FleetSpec:
    """Everything needed to (re)build a fleet, in picklable form.

    The spec crosses the process boundary once per shard at spin-up;
    every field must therefore pickle, which is why ``adversary_factory``
    must be a module-level callable (like :func:`lossy_link`), not a
    lambda.  Two shards built from the same spec with disjoint
    ``member_indices`` are, member for member, the same fleet as one
    in-process build of the whole spec.
    """

    size: int
    profile: ProtectionProfile = ROAM_HARDENED
    auth_scheme: str = "speck-64/128-cbc-mac"
    policy_name: str = "counter"
    device_config: DeviceConfig | None = None
    member_configs: dict | None = None
    master_key: bytes | None = None
    retry: RetryPolicy | None = None
    degrade_after: int = 1
    quarantine_after: int = 3
    probe_every_sweeps: int = 4
    adversary_factory: object = None
    observe: bool = False
    incremental: bool = False
    seed: str = "swarm"

    def build(self, *, member_indices=None,
              state_cache: StateDigestCache | None = None) -> Swarm:
        """Instantiate the fleet (or the shard named by
        ``member_indices``) as a plain in-process :class:`Swarm`."""
        size = (self.size if member_indices is None
                else len(member_indices))
        return Swarm(size, profile=self.profile,
                     auth_scheme=self.auth_scheme,
                     policy_name=self.policy_name,
                     device_config=self.device_config,
                     member_configs=self.member_configs,
                     master_key=self.master_key, retry=self.retry,
                     degrade_after=self.degrade_after,
                     quarantine_after=self.quarantine_after,
                     probe_every_sweeps=self.probe_every_sweeps,
                     member_indices=member_indices,
                     adversary_factory=self.adversary_factory,
                     observe=self.observe, state_cache=state_cache,
                     incremental=self.incremental,
                     seed=self.seed)


def partition(size: int, shards: int) -> list[range]:
    """Contiguous, balanced shard index blocks covering ``range(size)``.

    Contiguity is what makes shard-order merging equal member-order
    merging; balance (block sizes differ by at most one, larger blocks
    first) keeps shard wall-clock even.
    """
    if size < 1:
        raise ConfigurationError("cannot partition an empty fleet")
    if shards < 1:
        raise ConfigurationError("need at least one shard")
    shards = min(shards, size)
    base, extra = divmod(size, shards)
    blocks: list[range] = []
    start = 0
    for shard in range(shards):
        count = base + (1 if shard < extra else 0)
        blocks.append(range(start, start + count))
        start += count
    return blocks


def resolve_workers(workers: int | None = None, *,
                    size: int | None = None) -> int:
    """Worker count: explicit arg > ``REPRO_FLEET_WORKERS`` > CPU count.

    Always at least 1 and never more than ``size`` (a shard with no
    members is pointless).
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ConfigurationError(
                    f"{WORKERS_ENV} must be an integer, got {env!r}")
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ConfigurationError("fleet needs at least one worker")
    if size is not None:
        workers = min(workers, size)
    return workers


def lossy_link(index: int, device_id: str):
    """Per-member fault pipeline keyed on device identity.

    Module-level (picklable) so specs carrying it survive the trip into
    shard workers; seeded per device so the fault schedule a member sees
    is identical whether it lives in a shard or in one big swarm.
    """
    return FaultPipeline(
        BernoulliLoss(0.2, seed=f"fleet-fault:{device_id}"),
        LatencyJitter(0.01, seed=f"fleet-jitter:{device_id}"))


# ---------------------------------------------------------------------------
# Shard worker side.  Each shard runs in a dedicated single-worker
# executor; the Swarm lives in this module-level slot between calls so
# breakers/freshness/telemetry persist across sweeps.
# ---------------------------------------------------------------------------

_SHARD: Swarm | None = None


def _shard_init(spec: FleetSpec, indices: tuple) -> None:
    global _SHARD
    _SHARD = spec.build(member_indices=indices,
                        state_cache=StateDigestCache())


def _shard_ready() -> int:
    return len(_SHARD)


def _shard_sweep(stagger_seconds: float, retry: RetryPolicy | None) -> list:
    return _SHARD.sweep_outcomes(stagger_seconds=stagger_seconds,
                                 retry=retry)


def _shard_states() -> dict:
    return _SHARD.device_states()


def _shard_battery() -> dict:
    return _SHARD.fleet_battery_report()


def _shard_total_attestations() -> int:
    return _SHARD.total_attestations()


def _shard_merged_registry_dump() -> dict:
    return _SHARD.merged_registry().dump()


def _shard_trace_segments() -> list:
    return _SHARD.trace_segments()


def _shard_cache_stats() -> dict:
    return _SHARD.state_cache.stats()


def _shard_snapshot() -> dict:
    """Capture the resident shard: its swarm payload plus its own
    deduplicated blob map (merged collision-checked by the parent)."""
    from ..snapshot import BlobStore, snapshot_swarm
    blobs = BlobStore()
    return {"swarm": snapshot_swarm(_SHARD, blobs),
            "blobs": blobs.encode()}


def _shard_restore(state: dict, blobs_encoded: dict) -> None:
    """Overwrite the resident shard (built at executor init) with
    captured state, including its state-digest cache and hit/miss
    counters -- spin-up accounting is replaced, not added to."""
    from ..snapshot import BlobStore, restore_swarm
    restore_swarm(_SHARD, state, BlobStore.decode(blobs_encoded))


def _shard_snapshot_delta(base) -> dict:
    """Capture the resident shard as a delta against its slice of a
    parent checkpoint.  ``base`` (a :class:`~repro.snapshot.DeltaBase`)
    ships pre-subset: this shard's region records, chunk-digest indexes
    and fallback images plus its parent log counts -- never the
    parent's log entries -- so O(shard), not O(fleet history), crosses
    the process boundary."""
    from ..snapshot import BlobStore, snapshot_swarm
    blobs = BlobStore()
    return {"swarm": snapshot_swarm(_SHARD, blobs, parent=base),
            "blobs": blobs.encode()}


class FleetEngine:
    """Sharded, cached drop-in for a sequential fleet ``Swarm``.

    ``workers > 1``: the fleet is split by :func:`partition` into that
    many contiguous shards, each resident in its own worker process with
    its own :class:`StateDigestCache`.  ``workers == 1``: one plain
    uncached in-process :class:`Swarm` -- the sequential seed path,
    bit-for-bit.  The engine mirrors the swarm's reading API
    (``sweep``/``device_states``/``total_attestations``/...), merging
    shard answers in shard order.

    Use as a context manager, or call :meth:`close` to release workers.
    """

    def __init__(self, spec: FleetSpec, *, workers: int | None = None):
        self.spec = spec
        self.workers = resolve_workers(workers, size=spec.size)
        self.spinup_seconds: float | None = None
        self.sweeps_run = 0
        self._swarm: Swarm | None = None
        self._executors: list[ProcessPoolExecutor] | None = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "FleetEngine":
        """Spin the fleet up (idempotent); records ``spinup_seconds``."""
        if self._swarm is not None or self._executors is not None:
            return self
        begin = time.perf_counter()
        if self.workers == 1:
            self._swarm = self.spec.build()
        else:
            context = multiprocessing.get_context("fork")
            self._executors = [
                ProcessPoolExecutor(max_workers=1, mp_context=context,
                                    initializer=_shard_init,
                                    initargs=(self.spec, tuple(block)))
                for block in partition(self.spec.size, self.workers)]
            # Worker processes start on first submit; submitting to
            # every executor before collecting any result makes all
            # shards build concurrently.
            built = sum(f.result() for f in
                        [pool.submit(_shard_ready)
                         for pool in self._executors])
            if built != self.spec.size:
                raise ConfigurationError(
                    f"shards built {built} members, expected "
                    f"{self.spec.size}")
        self.spinup_seconds = time.perf_counter() - begin
        return self

    def close(self) -> None:
        if self._executors is not None:
            for pool in self._executors:
                pool.shutdown()
        self._executors = None
        self._swarm = None

    def __enter__(self) -> "FleetEngine":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _gather(self, fn, *args) -> list:
        """Submit ``fn`` to every shard, collect results in shard order."""
        return [f.result() for f in
                [pool.submit(fn, *args) for pool in self._executors]]

    # -- the swarm API, merged ------------------------------------------

    def __len__(self) -> int:
        return self.spec.size

    def sweep(self, *, stagger_seconds: float = 0.0,
              retry: RetryPolicy | None = None) -> SweepReport:
        """One fleet-wide sweep; shards run concurrently, outcomes fold
        in shard (= member) order through the same reduction the
        sequential path uses."""
        self.start()
        if self._swarm is not None:
            report = self._swarm.sweep(stagger_seconds=stagger_seconds,
                                       retry=retry)
        else:
            outcomes = [outcome
                        for shard in self._gather(_shard_sweep,
                                                  stagger_seconds, retry)
                        for outcome in shard]
            report = fold_outcomes(outcomes)
        self.sweeps_run += 1
        return report

    def device_states(self) -> dict:
        self.start()
        if self._swarm is not None:
            return self._swarm.device_states()
        states: dict = {}
        for shard in self._gather(_shard_states):
            states.update(shard)
        return states

    def fleet_battery_report(self) -> dict:
        self.start()
        if self._swarm is not None:
            return self._swarm.fleet_battery_report()
        merged: dict = {}
        for shard in self._gather(_shard_battery):
            merged.update(shard)
        return merged

    def total_attestations(self) -> int:
        self.start()
        if self._swarm is not None:
            return self._swarm.total_attestations()
        return sum(self._gather(_shard_total_attestations))

    def merged_registry(self) -> MetricsRegistry:
        """One fleet registry, folded from shard pre-merged dumps.

        Each shard merges its own members in-process and ships a single
        dump; registry folding is exactly order-independent (error-free
        compensated float summation, with the sub-ulp remainder carried
        in the dump's residual terms), so the shard-tree fold is
        byte-identical to the sequential member-order fold.
        """
        self.start()
        if self._swarm is not None:
            return self._swarm.merged_registry()
        merged = MetricsRegistry()
        for dump in self._gather(_shard_merged_registry_dump):
            merged.merge(MetricsRegistry.from_dump(dump))
        return merged

    def merged_trace_records(self) -> list:
        """One fleet-wide trace with a monotonic ``seq``.

        Shards report sweep-major segments (see
        :meth:`~repro.services.swarm.Swarm.trace_segments`); the parent
        interleaves them sweep by sweep in shard order, which is exactly
        the order a single in-process build of the whole fleet produces.
        """
        self.start()
        if self._swarm is not None:
            return self._swarm.merged_trace_records()
        records: list = []
        shard_segments = self._gather(_shard_trace_segments)
        for row in zip_longest(*shard_segments, fillvalue=[]):
            for segment in row:
                for record in segment:
                    record["seq"] = len(records)
                    records.append(record)
        return records

    def cache_stats(self) -> dict:
        """Summed :class:`StateDigestCache` counters across shards (all
        zero on the ``workers=1`` uncached seed path)."""
        self.start()
        if self._swarm is not None:
            return {"hits": 0, "misses": 0, "evictions": 0, "entries": 0}
        totals = {"hits": 0, "misses": 0, "evictions": 0, "entries": 0}
        for stats in self._gather(_shard_cache_stats):
            for key in totals:
                totals[key] += stats[key]
        return totals

    # -- checkpoint / restore -------------------------------------------

    def snapshot(self, *, parent: dict | None = None) -> dict:
        """Capture the whole engine as one ``fleet`` document.

        Per-shard swarm payloads (each with its own digest cache) under
        one merged content-addressed blob map; restoring into an engine
        with the same spec and worker count resumes every shard
        exactly, and :meth:`Swarm.restore <repro.services.swarm.Swarm.\
restore>` accepts the same document for sequential resume.

        With ``parent`` (a fleet-kind document this engine descends
        from -- full or delta, same worker count and shard partition),
        every shard captures a ``repro.snapshot.delta/v1`` delta
        *in parallel* against its own slice of the parent: each worker
        receives only its members' parent region records and log
        counts, diffs its regions' digest-tree leaves, and ships back
        O(dirty) chunk blobs plus the log entries added since the
        parent.
        """
        from ..snapshot import (BlobStore, DeltaBase, document_id,
                                make_delta_document, make_document,
                                parent_blob_keys, snapshot_swarm,
                                unwrap_parent)
        self.start()
        blobs = BlobStore()
        blocks = partition(self.spec.size, self.workers)
        if parent is None:
            if self._swarm is not None:
                shards = [{"indices": [index for block in blocks
                                       for index in block],
                           "swarm": snapshot_swarm(self._swarm, blobs)}]
            else:
                shards = []
                for block, shard in zip(blocks,
                                        self._gather(_shard_snapshot)):
                    blobs.merge(BlobStore.decode(shard["blobs"]))
                    shards.append({"indices": list(block),
                                   "swarm": shard["swarm"]})
            state = {"workers": self.workers,
                     "sweeps_run": self.sweeps_run, "shards": shards}
            return make_document("fleet", state, blobs)

        parent_state, parent_blobs = unwrap_parent(parent, "fleet")
        if parent_state["workers"] != self.workers:
            raise SnapshotError(
                f"delta parent has {parent_state['workers']} shard(s), "
                f"engine resolved {self.workers}; delta capture needs "
                f"matching shard layouts")
        captured = [shard["indices"] for shard in parent_state["shards"]]
        if captured != [list(block) for block in blocks]:
            raise SnapshotError(
                "shard partition mismatch between delta parent and "
                "engine")
        if self._swarm is not None:
            base = DeltaBase.for_swarm_state(
                parent_state["shards"][0]["swarm"], parent_blobs)
            shards = [{"indices": captured[0],
                       "swarm": snapshot_swarm(self._swarm, blobs,
                                               parent=base)}]
        else:
            futures = []
            for pool, parent_shard in zip(self._executors,
                                          parent_state["shards"]):
                swarm_state = parent_shard["swarm"]
                base = DeltaBase.for_swarm_state(
                    swarm_state,
                    parent_blobs.subset(parent_blob_keys(swarm_state)))
                futures.append(pool.submit(_shard_snapshot_delta, base))
            shards = []
            for block, future in zip(blocks, futures):
                shard = future.result()
                blobs.merge(BlobStore.decode(shard["blobs"]))
                shards.append({"indices": list(block),
                               "swarm": shard["swarm"]})
        state = {"workers": self.workers, "sweeps_run": self.sweeps_run,
                 "shards": shards}
        return make_delta_document("fleet", state, blobs,
                                   document_id(parent))

    def restore(self, document: dict) -> None:
        """Overwrite this engine's shards from a ``fleet`` document.

        The engine must have been created with the same spec and
        resolve to the same worker count as the captured one (shard
        boundaries and digest caches are per-worker state); to resume a
        fleet document on different hardware, restore it into a
        sequential :class:`~repro.services.swarm.Swarm` instead.
        """
        from ..snapshot import unwrap_document
        state, blobs = unwrap_document(document, "fleet")
        self.start()
        if state["workers"] != self.workers:
            raise SnapshotError(
                f"worker-count mismatch: snapshot has {state['workers']} "
                f"shard(s), engine resolved {self.workers}; restore into "
                f"a sequential Swarm to repartition")
        blocks = partition(self.spec.size, self.workers)
        captured = [shard["indices"] for shard in state["shards"]]
        if captured != [list(block) for block in blocks]:
            raise SnapshotError("shard partition mismatch between "
                                "snapshot and engine")
        if self._swarm is not None:
            from ..snapshot import restore_swarm
            restore_swarm(self._swarm, state["shards"][0]["swarm"], blobs)
        else:
            encoded = blobs.encode()
            for pool, shard in zip(self._executors, state["shards"]):
                pool.submit(_shard_restore, shard["swarm"], encoded).result()
        self.sweeps_run = state["sweeps_run"]


# ---------------------------------------------------------------------------
# Equivalence gate and the BENCH_fleet.json report
# ---------------------------------------------------------------------------

def default_equivalence_spec(size: int = 8) -> FleetSpec:
    """A deliberately adversarial little fleet for the equivalence gate:
    lossy jittery links, retries with backoff *and* jitter, telemetry on
    -- every seed-path subtlety the shard merge must reproduce."""
    return FleetSpec(
        size=size,
        device_config=DeviceConfig(ram_size=8 * 1024,
                                   flash_size=16 * 1024,
                                   app_size=2 * 1024),
        retry=RetryPolicy(attempt_timeout_seconds=5.0, max_retries=2,
                          base_backoff_seconds=1.0, jitter_fraction=0.5),
        adversary_factory=lossy_link,
        observe=True,
        seed="fleet-equivalence")


def equivalence_check(spec: FleetSpec | None = None, *, workers: int = 2,
                      sweeps: int = 2,
                      stagger_seconds: float = 0.5) -> dict:
    """Prove a sharded parallel fleet is byte-identical to the
    sequential seed path.

    Runs ``sweeps`` staggered sweeps on (a) one plain in-process
    ``Swarm`` and (b) a :class:`FleetEngine` with ``workers`` shards,
    then compares every sweep's :class:`SweepReport`, final breaker
    states, total accepted attestations, the merged telemetry registry
    dump and the merged event trace.  Any mismatch names the field.
    """
    spec = spec if spec is not None else default_equivalence_spec()
    if workers < 2:
        raise ConfigurationError(
            "equivalence needs workers >= 2 (workers=1 IS the seed path)")
    mismatched: list[str] = []
    sequential = spec.build()
    with FleetEngine(spec, workers=workers) as engine:
        for index in range(sweeps):
            seq_report = sequential.sweep(stagger_seconds=stagger_seconds)
            par_report = engine.sweep(stagger_seconds=stagger_seconds)
            if seq_report != par_report:
                mismatched.append(f"sweep[{index}].report")
        if sequential.device_states() != engine.device_states():
            mismatched.append("device_states")
        if sequential.total_attestations() != engine.total_attestations():
            mismatched.append("total_attestations")
        if spec.observe:
            seq_registry = json.dumps(sequential.merged_registry().dump(),
                                      sort_keys=True)
            par_registry = json.dumps(engine.merged_registry().dump(),
                                      sort_keys=True)
            if seq_registry != par_registry:
                mismatched.append("registry")
            if (sequential.merged_trace_records()
                    != engine.merged_trace_records()):
                mismatched.append("trace")
        resolved = engine.workers
    return {"fleet_size": spec.size, "workers": resolved, "sweeps": sweeps,
            "identical": not mismatched, "mismatched_fields": mismatched}


def _bench_spec(fleet_size: int, ram_kb: int) -> FleetSpec:
    """Members whose writable memory (RAM plus an equally large flash,
    both capped by the 1 MB memory-map windows) maximises the host-hash
    share of each attestation -- the work the cache removes."""
    flash_kb = min(ram_kb, 1024)
    return FleetSpec(
        size=fleet_size,
        device_config=DeviceConfig(ram_size=ram_kb * 1024,
                                   flash_size=flash_kb * 1024,
                                   app_size=2 * 1024),
        seed="fleet-bench")


def build_report(*, fleet_size: int = 256, ram_kb: int = 1024,
                 sweeps: int = 2, workers: int | None = None,
                 equivalence_size: int = 6) -> dict:
    """Assemble the full ``BENCH_fleet.json`` payload.

    Times spin-up and ``sweeps`` full sweeps on the sequential seed path
    (one plain uncached ``Swarm``) and on a sharded cached
    :class:`FleetEngine`, refuses to report if their sweep reports
    differ, and embeds a fault-injected :func:`equivalence_check` block.
    ``speedup`` is the headline sequential/parallel sweep wall-clock
    ratio the benchmark gate asserts ``>= 2`` at fleet size >= 256.

    The parallel engine runs first: shard workers fork before the big
    sequential swarm exists, so copy-on-write faults over the parent
    heap do not tax shard spin-up.
    """
    resolved = resolve_workers(workers, size=fleet_size)
    resolved = max(2, min(resolved, fleet_size))
    spec = _bench_spec(fleet_size, ram_kb)

    with FleetEngine(spec, workers=resolved) as engine:
        engine.start()
        par_spinup = engine.spinup_seconds
        par_reports = []
        begin = time.perf_counter()
        for _ in range(sweeps):
            par_reports.append(engine.sweep())
        par_sweep = time.perf_counter() - begin
        cache = engine.cache_stats()

    # The cache's spin-up win, isolated from process-pool overhead: one
    # in-process build sharing a single StateDigestCache. Measured
    # before the sequential fleet exists so both spin-up timings run
    # against the same (near-empty) heap.
    begin = time.perf_counter()
    spec.build(state_cache=StateDigestCache())
    cached_spinup = time.perf_counter() - begin

    begin = time.perf_counter()
    sequential = spec.build()
    seq_spinup = time.perf_counter() - begin
    seq_reports = []
    begin = time.perf_counter()
    for _ in range(sweeps):
        seq_reports.append(sequential.sweep())
    seq_sweep = time.perf_counter() - begin
    del sequential

    if seq_reports != par_reports:
        raise AssertionError(
            "parallel sweep reports diverged from the sequential seed "
            "path -- refusing to write a perf report")

    equivalence = equivalence_check(
        default_equivalence_spec(equivalence_size), workers=2, sweeps=2)
    return {
        "schema": REPORT_SCHEMA_ID,
        "fleet_size": fleet_size,
        "ram_kb": ram_kb,
        "workers": resolved,
        "sweeps": sweeps,
        "host": {**host_info(), "cpus": os.cpu_count() or 1},
        "sequential": {
            "spinup_seconds": seq_spinup,
            "sweep_seconds": seq_sweep,
            "devices_per_second": fleet_size * sweeps / seq_sweep,
            "attempted": seq_reports[-1].attempted,
            "trusted": seq_reports[-1].trusted,
        },
        "parallel": {
            "spinup_seconds": par_spinup,
            "sweep_seconds": par_sweep,
            "devices_per_second": fleet_size * sweeps / par_sweep,
            "attempted": par_reports[-1].attempted,
            "trusted": par_reports[-1].trusted,
        },
        "speedup": seq_sweep / par_sweep,
        "spinup": {
            "sequential_seconds": seq_spinup,
            "parallel_seconds": par_spinup,
            "factor": seq_spinup / par_spinup,
            "cached_inprocess_seconds": cached_spinup,
            "cached_factor": seq_spinup / cached_spinup,
        },
        "cache": cache,
        "reports_identical": True,
        "equivalence": equivalence,
    }


def write_report(report: dict, path):
    """Write ``report`` as indented JSON; returns the path."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return path
