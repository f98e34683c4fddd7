"""The benchmark's workloads, driven through the program's public API.

``fleet-ota``
    A 128-member fleet takes one fleet-shared OTA update per round, then
    one update sweep, three steady sweeps and a delta checkpoint.  The
    state cache, digest-tree refresh and chunk dedup do most of the work.
``fleet-churn``
    A 64-member fleet takes a member-unique rewrite per round, so both
    cache levels miss and checkpoints carry unique chunks.  It predicts
    "no change" for any cache or dedup optimisation, and it exercises the
    snapshot read path (materialize + restore).
``service-mix``
    A 512-device multi-tenant ``AttestationService`` serves waves of
    requests while one tenant asks for four times its budget and every
    eighth device is flooded with forged and replayed requests.

Every workload runs in-process: the sharded ``FleetEngine`` pool is
deliberately left out until it is steady enough to measure (see
``README.md``).  Each operation is checked against the outcome the
benchmark planted, and the simulated observables feed ``sim_digest``.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import resource
import statistics
import time
from dataclasses import asdict, dataclass

from repro import DeviceConfig, build_session
from repro.attacks import BogusRequestFlooder, ReplayAttacker
from repro.crypto.costmodel import CryptoCostModel
from repro.mcu.statecache import StateDigestCache
from repro.services.attestd import AttestationService, ServiceRequest
from repro.services.swarm import Swarm
from repro.snapshot import materialize_chain

import gen
import spans as spanlib
import stats
from spans import Tracer

#: Builds per run; ``setup_s`` reports their median.  The builds that do
#: not become the live system are the fresh targets restores need.
SETUP_REPEATS = 3
#: ``BENCHMARK.json``'s ``run_seconds``: at this run length each
#: workload runs exactly its shape's round count.
REFERENCE_SECONDS = 20

_now = time.perf_counter


@dataclass(frozen=True)
class FleetShape:
    members: int
    ram_kb: int
    flash_kb: int
    #: Rounds at ``REFERENCE_SECONDS``.
    rounds: int
    #: Fleet-shared OTA payload (True) or member-unique rewrites.
    shared: bool
    dirty: float
    steady_sweeps: int
    #: A restore check follows every ``restore_every``-th round.
    restore_every: int
    plant_rounds: int


@dataclass(frozen=True)
class ServiceShape:
    members: int
    ram_kb: int
    flash_kb: int
    tenants: int
    backends: int
    #: Timed waves at ``REFERENCE_SECONDS`` (one more warms up).
    waves: int
    #: The hostile tenant offers this many times its share per wave.
    hostile_factor: int
    #: Devices with ``index % flood_every == 0`` are flooded.
    flood_every: int
    forged: int
    replays: int
    ckpt_every: int
    restore_every: int


OTA = FleetShape(members=128, ram_kb=256, flash_kb=256, rounds=16,
                 shared=True, dirty=0.05, steady_sweeps=3, restore_every=4,
                 plant_rounds=4)
CHURN = FleetShape(members=64, ram_kb=256, flash_kb=256, rounds=16,
                   shared=False, dirty=0.10, steady_sweeps=2,
                   restore_every=4, plant_rounds=0)
SERVICE = ServiceShape(members=512, ram_kb=8, flash_kb=16, tenants=4,
                       backends=8, waves=16, hostile_factor=4, flood_every=8,
                       forged=2, replays=1, ckpt_every=2, restore_every=4)

SPECK = "speck-64/128-cbc-mac"
#: Virtual seconds between service waves; also each tenant's bucket
#: refill horizon, so a bucket is full again at every wave.
WAVE_SPACING_S = 60.0
#: Each tenant may trigger this many rounds per device per wave.  Not an
#: integer, so the hostile allowance sits far from a rounding boundary.
BUDGET_SHARE = 1.55
#: Simulated seconds one service round lasts (``Session.attest_once``'s
#: settle time); injections are timed to land inside it.
ROUND_WINDOW_S = 4.5
#: Counter carried by forged requests: far ahead of any genuine one, so
#: only the request tag can stop them.
FORGED_COUNTER = 1 << 40


def scaled(rounds: int, seconds: int, period: int = 1) -> int:
    """Round count for a run of ``seconds``: the shape's count at the
    reference length, scaled, and at least one ``period``."""
    return max(period, round(rounds * seconds / REFERENCE_SECONDS))


class Run:
    """Everything one workload run measures."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.ledger = stats.Ledger()
        self.digest = stats.SimDigest()
        self.build_s: list[float] = []
        self.warm_s = 0.0
        self.round_s: list[float] = []
        self.ckpt_s: list[float] = []
        self.ckpt_bytes = 0
        self.state_bytes = 0
        self.chunk_bytes = 0
        self.blobs = 0
        self.restore_s: list[float] = []
        #: Latency samples in batches, each of which gets its own tail:
        #: one batch per service wave, one for all of a fleet's steady
        #: sweeps (a fleet round holds only two or three).
        self.lat_ms: list[list[float]] = []
        #: Attestations completed, and host seconds spent, inside the
        #: timed ``sweep`` and ``serve_schedule`` calls.
        self.attested = 0
        self.attest_s = 0.0
        self.driver_s = 0.0
        self.load_bytes = 0
        self.injected = 0
        self.scrape_bytes = 0
        self.counters: dict[str, float] = {}

    def timed_build(self, build):
        """One set-up build, timed into ``build_s``."""
        start = _now()
        built = build()
        self.build_s.append(_now() - start)
        return built

    def checkpoint(self, capture) -> tuple[dict, str]:
        """Capture one checkpoint and encode it canonically (the bytes
        ``save_document`` would write), timing both."""
        start = _now()
        with self.tracer.span("snapshot.capture"):
            document = capture()
        with self.tracer.span("snapshot.encode"):
            text = json.dumps(document, sort_keys=True)
        self.ckpt_s.append(_now() - start)
        chunk = sum(len(blob) for blob in document["blobs"].values())
        self.ckpt_bytes += len(text)
        self.chunk_bytes += chunk
        self.state_bytes += len(text) - chunk
        self.blobs += len(document["blobs"])
        return document, text

    def end_to_end(self) -> dict:
        """The end-to-end metrics.  Rounds, checkpoints and restores grow
        with the round index, so they are reported as means; latencies
        at their slow quartile, and the tail as the mean of each batch's
        tail.  ``README.md`` says why none is a median."""
        samples = [ms for batch in self.lat_ms for ms in batch]
        _, tail, _ = stats.batch_tail(self.lat_ms)
        return {
            "setup_s": (statistics.median(self.build_s) + self.warm_s, "s"),
            "attest_per_s": (self.attested / self.attest_s, "1/s"),
            "round_mean_s": (statistics.fmean(self.round_s), "s"),
            "ckpt_mean_s": (statistics.fmean(self.ckpt_s), "s"),
            "ckpt_mb": (self.ckpt_bytes / 1e6, "MB"),
            "restore_mean_s": (statistics.fmean(self.restore_s), "s"),
            "lat_p75_ms": (stats.quantile(samples, stats.SLOW_QUARTILE),
                           "ms"),
            "lat_tail_ms": (tail, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
            "ok_frac": (self.ledger.ok_frac, "1"),
        }

    def details(self) -> dict:
        percentile, _, samples = stats.batch_tail(self.lat_ms)
        return {"rounds": len(self.round_s), "lat_samples": samples,
                "lat_batches": len(self.lat_ms),
                "lat_tail_percentile": round(percentile, 3),
                "ckpt_samples": len(self.ckpt_s),
                "restore_samples": len(self.restore_s),
                "setup_builds": len(self.build_s),
                "failures": self.ledger.failures}


def settle() -> None:
    """End set-up: collect, then freeze every surviving object out of
    the collector's reach until :func:`unsettle`.  The spare builds are
    the harness's own objects; without the freeze, each full collection
    inside a timed round would rescan them, and the pause would measure
    how many spares the harness holds rather than the program's own
    garbage."""
    gc.collect()
    gc.freeze()


def unsettle() -> None:
    """Hand the objects :func:`settle` froze back to the collector."""
    gc.unfreeze()


def _prover_totals(sessions) -> tuple[int, int]:
    accepted = rejected = 0
    for session in sessions:
        accepted += session.anchor.stats.accepted
        rejected += session.anchor.stats.rejected_total
    return accepted, rejected


def _device_totals(run: Run, members) -> None:
    """Feed each device's simulated cycle, energy and prover totals into
    the digest."""
    for member in members:
        device = member.session.device
        device.sync_energy()
        run.digest.add([member.device_id, device.cpu.cycle_count,
                        device.battery.consumed_mj,
                        asdict(member.session.anchor.stats)])


def _layer_counters(sessions, cache, *, trees: bool,
                    extra: dict | None = None) -> dict[str, float]:
    """Cumulative program counters, read from public state."""
    accepted, rejected = _prover_totals(sessions)
    out = {"statecache.hits": cache.hits if cache else 0,
           "statecache.misses": cache.misses if cache else 0,
           "prover.accepted": accepted, "prover.rejected": rejected,
           "incremental.leaf_hashes": 0, "incremental.full_builds": 0}
    if trees:
        for session in sessions:
            for region in session.device.memory.writable_regions():
                tree = region.digest_tree
                if tree is not None:
                    out["incremental.leaf_hashes"] += tree.leaf_hashes
                    out["incremental.full_builds"] += tree.full_builds
    out.update(extra or {})
    return out


# ---------------------------------------------------------------------------
# Fleets
# ---------------------------------------------------------------------------

def _sweep(run: Run, swarm: Swarm, kind: str, planted: str | None = None,
           timed: bool = True):
    """One sweep, checked member by member against the planted truth."""
    start = _now()
    with run.tracer.span("swarm.sweep", tag=kind):
        report = swarm.sweep()
    elapsed = _now() - start
    expected_untrusted = {planted} if planted else set()
    wrong = sorted((set(report.untrusted) ^ expected_untrusted)
                   | set(report.no_response) | set(report.refused)
                   | set(report.skipped_quarantined))
    run.ledger.tally(f"{kind} sweep verdict", len(swarm.members), wrong)
    run.digest.add([kind, asdict(report)])
    if timed:
        run.attested += report.attempted
        run.attest_s += elapsed
    if timed and kind == "steady":
        if not run.lat_ms:
            run.lat_ms.append([])
        run.lat_ms[0].append(elapsed * 1000.0)
    return report


def _apply(writes) -> int:
    loaded = 0
    for region, offset, data in writes:
        region.load(offset, data)
        loaded += len(data)
    return loaded


def _reference(mirror: list[tuple[gen.Window, bytearray]]) -> bytes:
    digest = hashlib.sha1()
    for _, image in mirror:
        digest.update(image)
    return digest.digest()


def _patch(mirror: list[tuple[gen.Window, bytearray]], writes) -> None:
    """Apply ``writes`` to the benchmark's own copy of a member's
    attested windows (how it knows each new reference digest)."""
    by_region = {id(window.region): (window, image)
                 for window, image in mirror}
    for region, offset, data in writes:
        window, image = by_region[id(region)]
        at = offset - window.start
        image[at:at + len(data)] = data


def run_fleet(shape: FleetShape, seed: int, seconds: int,
              tracer: Tracer) -> Run:
    run = Run(tracer)
    label = "fleet-ota" if shape.shared else "fleet-churn"
    rng = gen.stream(seed, label)
    params = dict(
        device_config=DeviceConfig(ram_size=shape.ram_kb * 1024,
                                   flash_size=shape.flash_kb * 1024,
                                   app_size=2 * 1024),
        auth_scheme="hmac-sha1", master_key=rng.randbytes(16),
        incremental=True, seed=f"{label}:{seed}")

    def build() -> Swarm:
        with run.tracer.span("setup.build"):
            return Swarm(shape.members, **params)

    builds = [run.timed_build(build) for _ in range(SETUP_REPEATS)]
    live = builds.pop()
    spares = builds

    start = _now()
    with run.tracer.span("setup.warm"):
        _sweep(run, live, "warm", timed=False)
        # The chain is kept as the encoded text a deployment would have
        # written; only the tip stays a live document, the parent of the
        # next delta.
        tip, text = run.checkpoint(live.snapshot)
        chain = [text]
        tip, text = run.checkpoint(lambda: live.snapshot(parent=tip))
        chain.append(text)
    run.warm_s = _now() - start
    run.ckpt_s.clear()  # the bootstrap pair is set-up, not a timed sample

    start = _now()
    windows = [gen.attested_windows(m.session.device) for m in live.members]
    tracked = [0] if shape.shared else range(len(live.members))
    mirrors = {i: [(w, bytearray(w.region.raw_read(w.start, w.size)))
                   for w in windows[i]] for i in tracked}
    references = {i: _reference(mirrors[i]) for i in tracked}
    rounds = scaled(shape.rounds, seconds, shape.restore_every)
    planted_at = gen.plants(rng, rounds, shape.members, shape.steady_sweeps,
                            windows[0], shape.plant_rounds)
    run.driver_s += _now() - start
    sessions = [m.session for m in live.members]
    settle()
    before = _layer_counters(sessions, live.state_cache, trees=True,
                             extra={"swarm.attestations":
                                    live.total_attestations()})

    for round_id in range(rounds):
        start = _now()
        if shape.shared:
            plans = gen.ota_update(rng, windows, shape.dirty)
        else:
            plans = [gen.unique_rewrite(rng, w, shape.dirty) for w in windows]
        rotations = []
        for i in tracked:
            _patch(mirrors[i], plans[i])
            new = _reference(mirrors[i])
            rotations.append((i, references[i], new))
            references[i] = new
        if shape.shared:
            rotations = [(m, rotations[0][1], rotations[0][2])
                         for m in range(len(live.members))]
        plant = planted_at.get(round_id)
        run.driver_s += _now() - start

        start = _now()
        with run.tracer.span("round", round_id=round_id):
            with run.tracer.span("mcu.load"):
                for writes in plans:
                    run.load_bytes += _apply(writes)
            with run.tracer.span("core.learn_reference"):
                for i, old, new in rotations:
                    live.members[i].session.verifier.rotate_reference(old, new)
            _sweep(run, live, "update")
            for sweep in range(shape.steady_sweeps):
                planted = None
                if plant is not None and plant.sweep == sweep:
                    planted = live.members[plant.member].device_id
                    region = windows[plant.member][plant.window].region
                    with run.tracer.span("mcu.load", tag="plant"):
                        original = region.raw_read(plant.offset,
                                                   len(plant.mask))
                        region.load(plant.offset, bytes(
                            a ^ b for a, b in zip(original, plant.mask)))
                _sweep(run, live, "steady", planted=planted)
                if planted is not None:
                    with run.tracer.span("mcu.load", tag="plant"):
                        region.load(plant.offset, original)
            tip, text = run.checkpoint(lambda: live.snapshot(parent=tip))
            chain.append(text)
        run.round_s.append(_now() - start)

        if (round_id + 1) % shape.restore_every == 0:
            target = spares.pop() if spares else build()
            with run.tracer.span("restore", round_id=round_id):
                start = _now()
                with run.tracer.span("snapshot.decode"):
                    documents = [json.loads(text) for text in chain]
                with run.tracer.span("snapshot.materialize"):
                    document = materialize_chain(documents)
                with run.tracer.span("snapshot.restore"):
                    target.restore(document)
                run.restore_s.append(_now() - start)
                restored = _sweep(run, target, "verify", timed=False)
                continued = _sweep(run, live, "verify", timed=False)
            run.ledger.check("restored fleet's next sweep",
                             asdict(continued), asdict(restored))
            del target, documents, document, restored

    run.counters = {
        key: value - before[key] for key, value in _layer_counters(
            sessions, live.state_cache, trees=True,
            extra={"swarm.attestations": live.total_attestations()}).items()}
    _device_totals(run, live.members)
    unsettle()
    return run


# ---------------------------------------------------------------------------
# Service
# ---------------------------------------------------------------------------

def _serve_wave(run: Run, service: AttestationService, requests, expected,
                timed: bool):
    """Serve one wave and check every record against its planted fate."""
    start = _now()
    with run.tracer.span("attestd.serve"):
        records = service.serve_schedule(requests, workers=1, clock=_now)
    elapsed = _now() - start
    wrong = []
    for record, admit in zip(records, expected):
        want = "trusted" if admit else "rejected-admission"
        if record.admitted != admit or record.verdict != want:
            wrong.append(f"request {record.request_id} to "
                         f"{record.device_id}: {record.verdict}")
    run.ledger.tally("admission and verdict", len(records), wrong)
    run.digest.add([record.fingerprint() for record in records])
    if timed:
        run.lat_ms.append([record.host_latency_seconds * 1000.0
                           for record in records if record.admitted])
        run.attested += sum(expected)
        run.attest_s += elapsed
    return records


def _scrape(run: Run, service: AttestationService) -> None:
    with run.tracer.span("obs.scrape"):
        text = json.dumps(service.merged_registry().dump(), sort_keys=True)
    run.scrape_bytes += len(text)


def run_service(shape: ServiceShape, seed: int, seconds: int,
                tracer: Tracer) -> Run:
    if shape.flood_every % shape.tenants:
        raise ValueError("flooded devices must all belong to tenant 0")
    run = Run(tracer)
    rng = gen.stream(seed, "service-mix")
    start = _now()
    config = DeviceConfig(ram_size=shape.ram_kb * 1024,
                          flash_size=shape.flash_kb * 1024, app_size=2 * 1024)
    # The admission charge is a public function of the device; the
    # budget is set from it so the hostile allowance is known exactly.
    probe = build_session(device_config=config, auth_scheme=SPECK)
    cost = CryptoCostModel(frequency_hz=config.frequency_hz).attestation_ms(
        probe.device.writable_memory_bytes) / 1000.0
    del probe
    per_tenant = shape.members // shape.tenants
    allowance = int(BUDGET_SHARE * per_tenant)
    params = dict(tenants=shape.tenants, backends=shape.backends,
                  duty_fraction=BUDGET_SHARE * cost / WAVE_SPACING_S,
                  burst_seconds=WAVE_SPACING_S, auth_scheme=SPECK,
                  device_config=config, master_key=rng.randbytes(16),
                  observe=True, seed=f"service-mix:{seed}")
    # Flooded devices all sit in tenant 0, so the hostile tenant is
    # picked from the others: a flooded device is always admitted and
    # its injections land inside a round it actually runs.
    hostile = rng.randrange(1, shape.tenants)
    hostile_devices = [i for i in range(shape.members)
                       if i % shape.tenants == hostile]
    flooded = list(range(0, shape.members, shape.flood_every))
    run.driver_s += _now() - start

    def build() -> AttestationService:
        with run.tracer.span("setup.build"):
            return AttestationService(
                shape.members, state_cache=StateDigestCache(), **params)

    builds = [run.timed_build(build) for _ in range(SETUP_REPEATS)]
    live = builds.pop()
    spares = builds
    run.ledger.check("admission charge", cost, live.round_cost_seconds[0])

    request_id = 0

    def wave(arrival: float, targets: list[int]) -> tuple[list, list[bool]]:
        nonlocal request_id
        requests, expected, offered = [], [], 0
        for index in targets:
            requests.append(ServiceRequest(arrival, index, request_id))
            request_id += 1
            if index % shape.tenants == hostile:
                expected.append(offered < allowance)
                offered += 1
            else:
                expected.append(True)
        return requests, expected

    start = _now()
    with run.tracer.span("setup.warm"):
        requests, expected = wave(0.0, list(range(shape.members)))
        _serve_wave(run, live, requests, expected, timed=False)
        _scrape(run, live)
    run.warm_s = _now() - start
    run.scrape_bytes = 0

    start = _now()
    injectors = {}
    for index in flooded:
        session = live.members[index].session
        injectors[index] = (
            session,
            BogusRequestFlooder(session.channel, session.sim,
                                auth_scheme=SPECK,
                                policy_fields={"counter": FORGED_COUNTER},
                                seed=f"service-mix:{seed}:flood:{index}"),
            ReplayAttacker(session.channel, session.sim))
    run.driver_s += _now() - start
    sessions = [m.session for m in live.members]
    settle()
    before = _layer_counters(sessions, live.state_cache, trees=False,
                             extra={"attestd.admitted": live.admitted,
                                    "attestd.rejected": live.rejected})
    waves = scaled(shape.waves, seconds, shape.restore_every)

    for wave_id in range(1, waves + 1):
        start = _now()
        requests, expected = wave(
            wave_id * WAVE_SPACING_S,
            gen.wave_schedule(rng, shape.members, hostile_devices,
                              shape.hostile_factor))
        floods = [(index,
                   gen.flood_delays(rng, shape.forged, ROUND_WINDOW_S),
                   [(rng.random(), delay) for delay in
                    gen.flood_delays(rng, shape.replays, ROUND_WINDOW_S)])
                  for index in flooded]
        admitted = [0] * shape.members
        for request, admit in zip(requests, expected):
            admitted[request.device_index] += admit
        counts = [(s.anchor.stats.accepted, s.anchor.stats.rejected_total)
                  for s in sessions]
        run.driver_s += _now() - start

        start = _now()
        with run.tracer.span("round", round_id=wave_id):
            with run.tracer.span("attacks.inject"):
                for index, forged, replays in floods:
                    session, flooder, replayer = injectors[index]
                    for delay in forged:
                        session.channel.inject(
                            "prover", flooder.forge_request(),
                            spoofed_sender="verifier", delay=delay)
                    recorded = replayer.recorded_requests()
                    for pick, delay in replays:
                        replayer.replay(recorded[int(pick * len(recorded))],
                                        delay=delay)
            _serve_wave(run, live, requests, expected, timed=True)
            _scrape(run, live)
        run.round_s.append(_now() - start)

        injected = {index: len(forged) + len(replays)
                    for index, forged, replays in floods}
        run.injected += sum(injected.values())
        unrejected, wrong_counters = [], []
        for index, session in enumerate(sessions):
            accepted = session.anchor.stats.accepted - counts[index][0]
            rejected = session.anchor.stats.rejected_total - counts[index][1]
            sent = injected.get(index, 0)
            device = live.members[index].device_id
            unrejected += [device] * max(0, sent - rejected)
            if (accepted, rejected) != (admitted[index], sent):
                wrong_counters.append(
                    f"{device}: accepted {accepted} of {admitted[index]}, "
                    f"rejected {rejected} of {sent}")
        run.ledger.tally("forged or replayed request rejected",
                         sum(injected.values()), unrejected)
        run.ledger.tally("prover counters match the admitted schedule",
                         len(sessions), wrong_counters)

        if wave_id % shape.ckpt_every == 0:
            with run.tracer.span("checkpoint", round_id=wave_id):
                document, _ = run.checkpoint(live.snapshot)
            if wave_id % shape.restore_every == 0:
                target = spares.pop() if spares else build()
                with run.tracer.span("restore", round_id=wave_id):
                    start = _now()
                    with run.tracer.span("snapshot.restore"):
                        target.restore(document)
                    run.restore_s.append(_now() - start)
                run.ledger.check("restored service freshness state",
                                 live.freshness_fingerprint(),
                                 target.freshness_fingerprint())
                run.ledger.check("restored service registry equal", True,
                                 live.merged_registry().dump()
                                 == target.merged_registry().dump())
                del target
            del document

    run.counters = {
        key: value - before[key] for key, value in _layer_counters(
            sessions, live.state_cache, trees=False,
            extra={"attestd.admitted": live.admitted,
                   "attestd.rejected": live.rejected}).items()}
    run.counters["attestd.peak_in_flight"] = live.peak_in_flight
    _device_totals(run, live.members)
    unsettle()
    return run


WORKLOADS = {
    "fleet-ota": functools.partial(run_fleet, OTA),
    "fleet-churn": functools.partial(run_fleet, CHURN),
    "service-mix": functools.partial(run_service, SERVICE),
}


# ---------------------------------------------------------------------------
# Per-layer report (traced runs)
# ---------------------------------------------------------------------------

#: Span names whose self time is reported as ``self.<name>_s``.
SELF_TIME_SPANS = ("round", "restore", "checkpoint", "setup.build",
                   "setup.warm", "mcu.load", "core.learn_reference",
                   "swarm.sweep", "snapshot.capture", "snapshot.encode",
                   "snapshot.decode", "snapshot.materialize",
                   "snapshot.restore",
                   "attestd.serve", "attacks.inject", "obs.scrape")


def per_layer(run: Run, gc_pause_s: float, gc_gen2: int) -> dict:
    spans = run.tracer.spans
    timed = [span for span in spans if span.round_id is not None]

    def p50(name, tag=None):
        samples = spanlib.durations(timed, name, tag)
        return statistics.median(samples) if samples else 0.0

    counters = run.counters
    lookups = counters["prover.accepted"]
    received = counters["prover.accepted"] + counters["prover.rejected"]
    coverage = spanlib.coverage(spans, "round")
    selfs = spanlib.self_times(spans)
    metrics = {
        "setup.build_s": (statistics.median(run.build_s), "s"),
        "setup.warm_s": (run.warm_s, "s"),
        "mcu.load_s": (sum(spanlib.durations(timed, "mcu.load")), "s"),
        "mcu.load_mb": (run.load_bytes / 1e6, "MB"),
        "swarm.sweep_update_p50_s": (p50("swarm.sweep", "update"), "s"),
        "swarm.sweep_steady_p50_s": (p50("swarm.sweep", "steady"), "s"),
        "swarm.attestations": (counters.get("swarm.attestations", 0), "count"),
        "statecache.hits": (counters["statecache.hits"], "count"),
        "statecache.misses": (counters["statecache.misses"], "count"),
        "statecache.hit_ratio": (counters["statecache.hits"] / lookups
                                 if lookups else 0.0, "1"),
        "incremental.leaf_hashes": (counters["incremental.leaf_hashes"],
                                    "count"),
        "incremental.full_builds": (counters["incremental.full_builds"],
                                    "count"),
        "snapshot.capture_p50_s": (p50("snapshot.capture"), "s"),
        "snapshot.encode_p50_s": (p50("snapshot.encode"), "s"),
        "snapshot.state_mb": (run.state_bytes / 1e6, "MB"),
        "snapshot.chunk_mb": (run.chunk_bytes / 1e6, "MB"),
        "snapshot.blobs": (run.blobs, "count"),
        "snapshot.decode_p50_s": (p50("snapshot.decode"), "s"),
        "snapshot.materialize_p50_s": (p50("snapshot.materialize"), "s"),
        "snapshot.restore_p50_s": (p50("snapshot.restore"), "s"),
        "attestd.serve_p50_s": (p50("attestd.serve"), "s"),
        "attestd.admitted": (counters.get("attestd.admitted", 0), "count"),
        "attestd.rejected": (counters.get("attestd.rejected", 0), "count"),
        "attestd.peak_in_flight": (counters.get("attestd.peak_in_flight", 0),
                                   "count"),
        "attacks.injected": (run.injected, "count"),
        "prover.accepted": (counters["prover.accepted"], "count"),
        "prover.rejected": (counters["prover.rejected"], "count"),
        "prover.rejected_ratio": (counters["prover.rejected"] / received
                                  if received else 0.0, "1"),
        "obs.scrape_p50_s": (p50("obs.scrape"), "s"),
        "obs.scrape_mb": (run.scrape_bytes / 1e6, "MB"),
        "host.gc_pause_s": (gc_pause_s, "s"),
        "host.gc_gen2": (gc_gen2, "count"),
        "driver_s": (run.driver_s, "s"),
        "trace.round_mean_s": (statistics.fmean(run.round_s), "s"),
        "trace.coverage_min": (min(coverage), "1"),
        "trace.spans": (len(spans), "count"),
        "trace.bookkeeping_s": (run.tracer.bookkeeping_s, "s"),
    }
    for name in SELF_TIME_SPANS:
        metrics[f"self.{name}_s"] = (selfs.get(name, 0.0), "s")
    return metrics


class GcClock:
    """Host garbage-collector pauses, observed from outside the program."""

    def __init__(self):
        self.pause_s = 0.0
        self.gen2 = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = _now()
        else:
            self.pause_s += _now() - self._started
            self.gen2 += info["generation"] == 2

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)
