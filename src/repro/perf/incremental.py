"""Incremental-attestation benchmark: dirty-region sweeps vs full walks.

The scenario is the fleet-operations case PR 5's history-keyed cache
cannot help with: a fleet-wide OTA-style content update.  Every round,
every member receives the *same* new content (so the fleet stays
byte-identical), but delivered in a per-member-shuffled chunk order --
exactly what a real update distributor does, and exactly what makes
every member's write-chain fingerprint unique.  The full-walk path then
re-hashes every member's whole writable memory every round; the
incremental path (:meth:`repro.mcu.device.Device.enable_incremental`)
refreshes each member's digest tree in O(dirty) and recognises the
fleet-shared content after a single full measurement.

Three artefacts come out of this module:

* :func:`measure_point` -- paired full/incremental sweep timings at one
  dirty fraction, with the sweep reports, attestation counts and
  simulated cycle totals asserted byte-identical between the paths;
* :func:`equivalence_check` -- the PR 5-style gate across honest,
  faulted and planted-compromise fleets;
* :func:`build_report` -- the schema-validated ``BENCH_incremental.json``
  payload with the headline >= 3x wall-clock gate at <= 10% dirty.

Everything timed here is *host* time; the simulated Table 1 numbers are
part of the equivalence invariant, never a knob.  See
``docs/performance.md`` for the incremental-measurement contract.
"""

from __future__ import annotations

import json
import time

from ..core.resilience import JITTERED_RETRY, RetryPolicy
from ..errors import ConfigurationError
from ..incremental import DEFAULT_ARITY, DEFAULT_CHUNK_SIZE
from ..mcu.statecache import StateDigestCache
from ..net.faults import lossy_link
from ..services.swarm import Swarm
from .harness import (apply_update, bench_device_config, host_info,
                      learn_update)

__all__ = ["REPORT_SCHEMA_ID", "DEFAULT_DIRTY_FRACTIONS",
           "GATE_DIRTY_FRACTION", "GATE_THRESHOLD", "build_swarm",
           "scenario_fingerprint", "measure_point", "equivalence_check",
           "build_report"]

REPORT_SCHEMA_ID = "repro.perf.incremental/v1"

#: Dirty fractions of the default benchmark sweep.
DEFAULT_DIRTY_FRACTIONS = (0.02, 0.05, 0.10, 0.25, 0.50)

#: The headline gate: >= GATE_THRESHOLD x sweep speedup at the largest
#: measured dirty fraction <= GATE_DIRTY_FRACTION.
GATE_DIRTY_FRACTION = 0.10
GATE_THRESHOLD = 3.0

_MASTER_KEY = b"incremental-bench-master-key"


def build_swarm(size: int, ram_kb: int, *, incremental: bool,
                seed: str = "incremental-bench",
                adversary_factory=None, retry: RetryPolicy | None = None,
                observe: bool = False) -> Swarm:
    """One benchmark fleet of :func:`~.harness.bench_device_config`
    members: per-member derived keys (so HMAC midstate pinning has real
    per-member work to batch) and HMAC-SHA1 response authentication.
    Full-walk and incremental fleets share everything but the
    ``incremental`` flag -- both get an unbounded shared
    :class:`StateDigestCache`, so the baseline is the PR 5 cached path,
    not a strawman.
    """
    return Swarm(size,
                 device_config=bench_device_config(ram_kb),
                 auth_scheme="hmac-sha1",
                 master_key=_MASTER_KEY,
                 state_cache=StateDigestCache(max_entries=0),
                 incremental=incremental,
                 adversary_factory=adversary_factory,
                 retry=retry, observe=observe, seed=seed)


def scenario_fingerprint(swarm: Swarm) -> dict:
    """Everything simulated the equivalence gate compares between the
    full-walk and incremental paths after identical scenario driving."""
    swarm_cycles = []
    swarm_energy = []
    for member in swarm.members:
        device = member.session.device
        device.sync_energy()
        swarm_cycles.append(device.cpu.cycle_count)
        swarm_energy.append(device.battery.consumed_mj)
    fingerprint = {
        "device_states": swarm.device_states(),
        "total_attestations": swarm.total_attestations(),
        "cycle_counts": swarm_cycles,
        "energy_mj": swarm_energy,
    }
    if swarm.observe:
        fingerprint["registry"] = json.dumps(
            swarm.merged_registry().dump(), sort_keys=True)
    return fingerprint


def _drive(swarm: Swarm, sweeps: int, dirty_fraction: float | None,
           compromise_member: int | None = None) -> list:
    """Run ``sweeps`` update+sweep rounds; returns the sweep reports.
    ``compromise_member`` plants malware in that member's flash before
    the final sweep."""
    reports = [swarm.sweep()]
    for round_index in range(sweeps):
        if dirty_fraction is not None:
            apply_update(swarm, round_index, dirty_fraction)
            learn_update(swarm)
        if (compromise_member is not None
                and round_index == sweeps - 1):
            member = swarm.members[compromise_member]
            member.session.device.flash.load(64, b"\xEB\xFE\x90")
        reports.append(swarm.sweep())
    return reports


def equivalence_check(*, size: int = 6, sweeps: int = 3,
                      ram_kb: int = 32,
                      dirty_fraction: float = 0.25) -> dict:
    """Prove incremental measurement changes no simulated observable.

    Drives three paired fleets (full walk vs incremental, same seed,
    same scenario) and compares every sweep report plus the final
    simulated fingerprint byte for byte:

    ``honest``
        Clean fleet with an OTA update round before every sweep -- the
        path where the incremental cache actually serves hits.
    ``faulted``
        Lossy, jittery links with a retry policy and telemetry attached
        (merged registry dumps must match too).
    ``compromised``
        Honest fleet with malware planted in one member's flash before
        the final sweep; both paths must flag exactly that member
        untrusted (``detected``) -- the cache must never mask a
        compromise.
    """
    scenarios: dict[str, dict] = {}
    identical = True
    plant = size - 1
    for name, kwargs, drive_kwargs in (
            ("honest", {}, {"dirty_fraction": dirty_fraction}),
            ("faulted", {"adversary_factory": lossy_link,
                         "retry": JITTERED_RETRY,
                         "observe": True},
             {"dirty_fraction": dirty_fraction}),
            ("compromised", {}, {"dirty_fraction": dirty_fraction,
                                 "compromise_member": plant})):
        full = build_swarm(size, ram_kb, incremental=False,
                           seed=f"incr-eq:{name}", **kwargs)
        incr = build_swarm(size, ram_kb, incremental=True,
                           seed=f"incr-eq:{name}", **kwargs)
        full_reports = _drive(full, sweeps, **drive_kwargs)
        incr_reports = _drive(incr, sweeps, **drive_kwargs)
        mismatched = []
        for index, (a, b) in enumerate(zip(full_reports, incr_reports)):
            if a != b:
                mismatched.append(f"sweep[{index}].report")
        full_fp = scenario_fingerprint(full)
        incr_fp = scenario_fingerprint(incr)
        mismatched.extend(sorted(key for key in full_fp
                                 if incr_fp[key] != full_fp[key]))
        entry = {"identical": not mismatched,
                 "mismatched_fields": mismatched}
        if name == "compromised":
            planted_id = full.members[plant].device_id
            entry["detected"] = (
                full_reports[-1].untrusted == [planted_id]
                and incr_reports[-1].untrusted == [planted_id])
            identical = identical and entry["detected"]
        scenarios[name] = entry
        identical = identical and not mismatched
    return {"identical": identical, "scenarios": scenarios}


def measure_point(fleet_size: int, ram_kb: int, dirty_fraction: float, *,
                  sweeps: int = 2) -> dict:
    """Paired sweep timings at one dirty fraction.

    Both fleets get one untimed settling sweep (spin-up digests) and one
    untimed warm-up round (first update: the incremental fleet builds
    its trees and pays its one full measurement of the new content
    lineage), then ``sweeps`` timed update+sweep rounds.  Refuses to
    return numbers if the two paths' sweep reports or simulated
    fingerprints differ.
    """
    results: dict[str, float] = {}
    reports: dict[str, list] = {}
    fingerprints: dict[str, dict] = {}
    caches: dict[str, dict] = {}
    tree_stats = None
    for mode in ("full", "incremental"):
        swarm = build_swarm(fleet_size, ram_kb,
                            incremental=(mode == "incremental"),
                            seed=f"incr-bench:{dirty_fraction}")
        swarm.sweep()                       # settle spin-up, untimed
        apply_update(swarm, 0, dirty_fraction)
        learn_update(swarm)
        swarm.sweep()                       # warm-up round, untimed
        elapsed = 0.0
        mode_reports = []
        for round_index in range(1, sweeps + 1):
            apply_update(swarm, round_index, dirty_fraction)
            learn_update(swarm)             # verifier-side, untimed
            begin = time.perf_counter()
            mode_reports.append(swarm.sweep())
            elapsed += time.perf_counter() - begin
        results[mode] = elapsed
        reports[mode] = mode_reports
        fingerprints[mode] = scenario_fingerprint(swarm)
        caches[mode] = swarm.state_cache.stats()
        if mode == "incremental":
            tree_stats = swarm.members[0].session.device.ram \
                .digest_tree.stats()
    if reports["full"] != reports["incremental"]:
        raise AssertionError(
            "incremental sweep reports diverged from the full walk -- "
            "refusing to report a speedup")
    if fingerprints["full"] != fingerprints["incremental"]:
        raise AssertionError(
            "incremental simulated accounting diverged from the full "
            "walk -- refusing to report a speedup")
    writable = 2 * min(ram_kb, 1024) * 1024
    return {
        "dirty_fraction": dirty_fraction,
        "dirty_kb": int(dirty_fraction * writable) // 1024,
        "full_seconds": results["full"],
        "incremental_seconds": results["incremental"],
        "speedup": results["full"] / results["incremental"],
        "full_cache": caches["full"],
        "incremental_cache": caches["incremental"],
        "tree": tree_stats,
    }


def build_report(*, fleet_size: int = 256, ram_kb: int = 1024,
                 sweeps: int = 2,
                 dirty_fractions: tuple = DEFAULT_DIRTY_FRACTIONS,
                 gate_dirty_fraction: float = GATE_DIRTY_FRACTION,
                 gate_threshold: float = GATE_THRESHOLD,
                 equivalence_size: int = 6) -> dict:
    """Assemble the full ``BENCH_incremental.json`` payload.

    One :func:`measure_point` per dirty fraction (each internally
    equivalence-checked), the three-scenario :func:`equivalence_check`
    block, and the headline gate: the speedup at the largest measured
    fraction <= ``gate_dirty_fraction`` must be >= ``gate_threshold``.
    ``chunk_size``/``arity`` record the geometry of every member tree
    (:class:`~repro.incremental.DigestTree` defaults).
    """
    points = [measure_point(fleet_size, ram_kb, fraction, sweeps=sweeps)
              for fraction in dirty_fractions]
    eligible = [p for p in points
                if p["dirty_fraction"] <= gate_dirty_fraction]
    if not eligible:
        raise ConfigurationError(
            f"no measured dirty fraction <= {gate_dirty_fraction}")
    gate_point = max(eligible, key=lambda p: p["dirty_fraction"])
    equivalence = equivalence_check(size=equivalence_size)
    return {
        "schema": REPORT_SCHEMA_ID,
        "fleet_size": fleet_size,
        "ram_kb": ram_kb,
        "writable_kb": 2 * min(ram_kb, 1024),
        "sweeps": sweeps,
        "chunk_size": DEFAULT_CHUNK_SIZE,
        "arity": DEFAULT_ARITY,
        "host": host_info(),
        "points": points,
        "gate": {
            "dirty_fraction": gate_point["dirty_fraction"],
            "speedup": gate_point["speedup"],
            "threshold": gate_threshold,
            "passed": gate_point["speedup"] >= gate_threshold,
        },
        "equivalence": equivalence,
    }

