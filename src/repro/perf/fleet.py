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

**One checkpoint format.**  :meth:`FleetEngine.snapshot` writes the
``swarm`` document a sequential swarm writes, byte for byte, and
:meth:`FleetEngine.restore` cuts any swarm document into its own
shards, so a checkpoint moves between a sequential swarm and engines of
any worker count.  The shard caches never travel (host memos are not
state); a restore starts them cold.

``workers=1`` falls back to one plain in-process ``Swarm`` -- the
uncached sequential seed path that :func:`equivalence_check` and
``BENCH_fleet.json``'s gate compare against.  Either way every
operation goes through one dispatch path, :meth:`FleetEngine.each`.
Everything here measures *host* time; simulated time lives in the shard
swarms and is part of the equivalence invariant, never a knob.  See
``docs/fleet-scale.md``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import zip_longest

from ..core.resilience import JITTERED_RETRY, RetryPolicy
from ..errors import ConfigurationError, SnapshotError
from ..mcu.device import DeviceConfig
from ..mcu.profiles import ProtectionProfile, ROAM_HARDENED
from ..mcu.statecache import StateDigestCache
from ..net.faults import lossy_link
from ..obs.registry import MetricsRegistry
from ..services.swarm import Swarm, SweepReport, fold_outcomes
from .harness import bench_device_config, host_info

__all__ = ["REPORT_SCHEMA_ID", "FleetSpec", "FleetEngine", "partition",
           "default_equivalence_spec", "equivalence_check", "build_report"]

REPORT_SCHEMA_ID = "repro.perf.fleet/v1"


@dataclass(frozen=True)
class FleetSpec:
    """Everything needed to (re)build a fleet, in picklable form.

    The spec crosses the process boundary once per shard at spin-up;
    every field must therefore pickle, which is why ``adversary_factory``
    must be a module-level callable (like
    :func:`~repro.net.faults.lossy_link`), not a lambda.  Two shards
    built from the same spec with disjoint ``member_indices`` are,
    member for member, the same fleet as one in-process build of the
    whole spec.
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


# ---------------------------------------------------------------------------
# Shard worker side.  Each shard runs in a dedicated single-worker
# executor; the Swarm lives in this module-level slot between calls so
# breakers/freshness/telemetry persist across sweeps.
# ---------------------------------------------------------------------------

_SHARD: Swarm | None = None


def _shard_init(spec: FleetSpec, indices: tuple) -> None:
    global _SHARD
    # An incremental Swarm picks its own cache (unbounded, as evictions
    # would bring full walks back); every other shard gets a bounded one.
    cache = None if spec.incremental else StateDigestCache()
    _SHARD = spec.build(member_indices=indices, state_cache=cache)


def _shard_call(fn, *args, **kwargs):
    return fn(_SHARD, *args, **kwargs)


# Per-shard operations: module-level so they pickle into the workers.

def _registry_dump(swarm: Swarm) -> dict:
    return swarm.merged_registry().dump()


def _cache_stats(swarm: Swarm) -> dict:
    cache = swarm.state_cache
    return cache.stats() if cache is not None else {}


_STAGED = None     # this shard's staged restore, see FleetEngine.restore


def _stage(swarm: Swarm, state: dict, blobs) -> None:
    global _STAGED
    from ..snapshot.codec import stage, staged
    from ..snapshot.swarm import SWARM
    _STAGED = staged(stage, SWARM, swarm, state, blobs)


def _commit(swarm: Swarm, apply: bool) -> None:
    """Run (``apply``) or drop this shard's staged commit."""
    global _STAGED
    commit, _STAGED = _STAGED, None
    if apply:
        commit()


def _capture(swarm: Swarm, base=None) -> tuple:
    """Capture one shard (as a delta when ``base``, a
    :class:`~repro.snapshot.DeltaBase`, is given) with its own
    deduplicated blob store, merged collision-checked by the caller."""
    from ..snapshot import BlobStore
    from ..snapshot.codec import captured
    from ..snapshot.swarm import SWARM
    blobs = BlobStore()
    return captured(SWARM, swarm, blobs, base), blobs


class FleetEngine:
    """Sharded, cached drop-in for a sequential fleet ``Swarm``.

    ``workers > 1``: the fleet is split by :func:`partition` into that
    many contiguous shards (at most one per member), each resident in
    its own worker process with its own :class:`StateDigestCache`.
    ``workers == 1``: one plain uncached in-process :class:`Swarm` --
    the sequential seed path, bit-for-bit.  The engine mirrors the
    swarm's reading API (``sweep``/``device_states``/
    ``total_attestations``/...), merging shard answers in shard order;
    everything runs through :meth:`each`.

    Use as a context manager, or call :meth:`close` to release workers.
    """

    def __init__(self, spec: FleetSpec, *, workers: int):
        if workers < 1:
            raise ConfigurationError("fleet needs at least one worker")
        self.spec = spec
        self.workers = min(workers, spec.size)
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
        blocks = partition(self.spec.size, self.workers)
        if self.workers == 1:
            self._swarm = self.spec.build()
        else:
            context = multiprocessing.get_context("fork")
            self._executors = [
                ProcessPoolExecutor(max_workers=1, mp_context=context,
                                    initializer=_shard_init,
                                    initargs=(self.spec, tuple(block)))
                for block in blocks]
            # Worker processes start on first submit; submitting to
            # every executor before collecting any result makes all
            # shards build concurrently.
            built = sum(self._per_shard(len, [()] * len(blocks)))
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

    # -- the one dispatch path -------------------------------------------

    def _per_shard(self, fn, shard_args: list, **kwargs) -> list:
        """``fn(swarm, *shard_args[i], **kwargs)`` on shard ``i``; shards
        run concurrently, results come back in shard order."""
        if self._swarm is not None:
            return [fn(self._swarm, *args, **kwargs) for args in shard_args]
        futures = [pool.submit(_shard_call, fn, *args, **kwargs)
                   for pool, args in zip(self._executors, shard_args)]
        return [future.result() for future in futures]

    def each(self, fn, *args, **kwargs) -> list:
        """Run ``fn(swarm, *args, **kwargs)`` on every shard's resident
        swarm (the one in-process swarm when ``workers == 1``) and
        return the results in shard order.

        ``fn`` must be a module-level callable so it pickles into the
        shard workers; member indices are global, so a per-member
        operation applied shard by shard equals the same operation on
        one in-process fleet.
        """
        self.start()
        return self._per_shard(fn, [args] * self.workers, **kwargs)

    # -- the swarm API, merged ------------------------------------------

    def __len__(self) -> int:
        return self.spec.size

    def sweep(self, *, stagger_seconds: float = 0.0,
              retry: RetryPolicy | None = None) -> SweepReport:
        """One fleet-wide sweep; shards run concurrently, outcomes fold
        in shard (= member) order through the same reduction the
        sequential path uses."""
        outcomes = [outcome
                    for shard in self.each(Swarm.sweep_outcomes,
                                           stagger_seconds=stagger_seconds,
                                           retry=retry)
                    for outcome in shard]
        self.sweeps_run += 1
        return fold_outcomes(outcomes)

    def device_states(self) -> dict:
        states: dict = {}
        for shard in self.each(Swarm.device_states):
            states.update(shard)
        return states

    def fleet_battery_report(self) -> dict:
        merged: dict = {}
        for shard in self.each(Swarm.fleet_battery_report):
            merged.update(shard)
        return merged

    def total_attestations(self) -> int:
        return sum(self.each(Swarm.total_attestations))

    def merged_registry(self) -> MetricsRegistry:
        """One fleet registry, folded from shard pre-merged dumps.

        Each shard merges its own members and ships a single dump;
        registry folding is exactly order-independent (error-free
        compensated float summation, with the sub-ulp remainder carried
        in the dump's residual terms), so the shard-tree fold is
        byte-identical to the sequential member-order fold.
        """
        merged = MetricsRegistry()
        for dump in self.each(_registry_dump):
            merged.merge(MetricsRegistry.from_dump(dump))
        return merged

    def merged_trace_records(self) -> list:
        """One fleet-wide trace with a monotonic ``seq``.

        Shards report sweep-major segments (see
        :meth:`~repro.services.swarm.Swarm.trace_segments`); the parent
        interleaves them sweep by sweep in shard order, which is exactly
        the order a single in-process build of the whole fleet produces.
        """
        records: list = []
        for row in zip_longest(*self.each(Swarm.trace_segments),
                               fillvalue=[]):
            for segment in row:
                for record in segment:
                    record["seq"] = len(records)
                    records.append(record)
        return records

    def cache_stats(self) -> dict:
        """Summed :class:`StateDigestCache` counters across shards (all
        zero on the ``workers=1`` uncached seed path)."""
        totals = {"hits": 0, "misses": 0, "evictions": 0, "entries": 0}
        for stats in self.each(_cache_stats):
            for key in totals:
                totals[key] += stats.get(key, 0)
        return totals

    # -- checkpoint / restore -------------------------------------------

    def snapshot(self, *, parent: dict | None = None) -> dict:
        """Capture the whole engine as one ``swarm`` document, the one a
        sequential :class:`Swarm` of the same spec writes, byte for byte.

        Every shard captures its own members concurrently; their
        payloads join in shard order (members and breakers concatenate,
        each sweep's trace watermarks join into one row) under one
        merged content-addressed blob map.  No shard's digest cache
        travels: a checkpoint holds simulated state only.

        With ``parent`` (a swarm document this run descends from -- full
        or delta, captured at any worker count), each shard captures a
        ``repro.snapshot.delta/v1`` delta against its own slice of the
        parent: each worker receives only its members' parent region
        records and log counts, diffs its regions' digest-tree leaves,
        and ships back O(dirty) chunk blobs plus the log entries added
        since the parent.
        """
        from ..snapshot import (BlobStore, DeltaBase, document_id,
                                make_document, parent_blob_keys,
                                unwrap_parent)
        from ..snapshot.swarm import join_swarm_states, split_swarm_state
        if parent is None:
            captured = self.each(_capture)
        else:
            parent_state, parent_blobs = unwrap_parent(parent, "swarm")
            captured = self._per_shard(_capture, [
                (DeltaBase.for_swarm_state(
                    part, parent_blobs.subset(parent_blob_keys(part))),)
                for part in split_swarm_state(
                    parent_state, partition(self.spec.size, self.workers))])
        blobs = BlobStore()
        for _, shard_blobs in captured:
            blobs.merge(shard_blobs)
        state = join_swarm_states([part for part, _ in captured])
        return make_document("swarm", state, blobs, parent_id=(
            None if parent is None else document_id(parent)))

    def restore(self, documents) -> None:
        """Overwrite this engine's shards from a ``swarm`` document or a
        root-first chain of them, captured by a sequential swarm or an
        engine of any worker count: the opened state is cut into this
        engine's shards (:func:`partition`).  The engine must have been
        created with the same spec as the captured fleet.

        Every shard stages before any shard commits, so a document
        refused on one shard leaves every shard as it was.  Each shard's
        digest cache restarts cold (see :mod:`repro.snapshot.device`).
        """
        from ..snapshot.delta import open_chain
        from ..snapshot.swarm import split_swarm_state
        state, blobs = open_chain(documents, "swarm")
        parts = split_swarm_state(state,
                                  partition(self.spec.size, self.workers))
        self.start()
        try:
            self._per_shard(_stage, [(part, blobs) for part in parts])
        except SnapshotError:
            self.each(_commit, False)
            raise
        self.each(_commit, True)
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
        retry=JITTERED_RETRY,
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


def build_report(*, fleet_size: int = 256, ram_kb: int = 1024,
                 sweeps: int = 2, workers: int = 2,
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
    heap do not tax shard spin-up.  Members are
    :func:`~.harness.bench_device_config` devices, whose host hash
    dominates each attestation -- the work the cache removes.
    """
    if workers < 1:
        raise ConfigurationError("fleet needs at least one worker")
    resolved = max(2, min(workers, fleet_size))
    spec = FleetSpec(size=fleet_size,
                     device_config=bench_device_config(ram_kb),
                     seed="fleet-bench")

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

