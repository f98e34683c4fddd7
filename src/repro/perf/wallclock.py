"""Wall-clock benchmarks of the measurement engine, and the paired
fast/naive equivalence check.

The attestation measurement is re-executed by the host for every
simulated attestation, so host wall-clock of the measurement-heavy
experiments is dominated by :mod:`repro.crypto.sha1`.  This module times
that engine end to end (device build excluded, measurement only) under
each :mod:`repro.fastpath` engine, and packages the numbers as the
``BENCH_wallclock.json`` report written at the repository root by
``benchmarks/bench_wallclock.py`` -- the perf trajectory future changes
are judged against.

Every report embeds an **equivalence block**: the fast engine must
produce byte-identical digests, response MACs, consumed cycles,
:class:`~repro.core.prover.ProverStats` and telemetry registry dumps as
the naive reference on a full protocol scenario.  A report whose
equivalence block is not clean is a correctness regression, not a perf
number; ``tests/gates/test_perf.py`` fails CI on it.

All timings here are host time (``time.perf_counter``).  Simulated time
lives in :mod:`repro.crypto.costmodel` and never appears in this module
except as the invariant being checked.
"""

from __future__ import annotations

import json
import time

from .. import fastpath
from ..core.protocol import build_session
from ..crypto.hmac import HmacSha1, clear_hmac_midstate_cache
from ..mcu.device import Device, DeviceConfig
from ..mcu.firmware import derive_code
from ..obs.telemetry import Telemetry
from .harness import host_info

__all__ = ["REPORT_SCHEMA_ID", "DEFAULT_SWEEP_KB", "time_measurement",
           "hmac_cache_timing", "equivalence_check", "build_report"]

REPORT_SCHEMA_ID = "repro.perf.wallclock/v1"

#: RAM sizes (KB) of the default measurement sweep.
DEFAULT_SWEEP_KB = (64, 128, 256, 512, 1024)

_KEY = b"wallclock-key-16"
_CHALLENGE = b"wallclock-challenge"


def _build_device(ram_kb: int) -> tuple[Device, object]:
    """A provisioned, booted prover whose writable memory is dominated
    by ``ram_kb`` of RAM (flash kept small, as in the paper-scale
    benchmarks)."""
    config = DeviceConfig(ram_size=ram_kb * 1024, flash_size=16 * 1024,
                          app_size=2 * 1024)
    device = Device(config)
    device.install_app()
    device.provision(_KEY)
    device.boot()
    return device, device.context("Code_Attest")


def time_measurement(ram_kb: int, engine: str, *, repeats: int = 1) -> dict:
    """Time ``measure_writable_memory`` once per repeat; keep the best.

    Returns a sweep entry for the report: sizes, engine, best seconds,
    throughput, and the digest (hex) so entries are cross-checkable.
    """
    device, context = _build_device(ram_kb)
    writable = device.writable_memory_bytes
    best = None
    digest = b""
    with fastpath.forced(engine):
        for _ in range(max(1, repeats)):
            clear_hmac_midstate_cache()
            start = time.perf_counter()
            digest = device.measure_writable_memory(context, _KEY, _CHALLENGE)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
    return {
        "ram_kb": ram_kb,
        "writable_kb": writable // 1024,
        "engine": engine,
        "seconds": best,
        "mb_per_s": (writable / best) / 1e6,
        "digest": digest.hex(),
    }


def hmac_cache_timing(rounds: int = 500) -> dict:
    """Cold vs warm HMAC construction cost under the current fast engine.

    Cold constructs each :class:`HmacSha1` with an empty midstate cache
    (two key-pad blocks hashed per request); warm reuses the cached
    midstates.  Both then absorb and finalise a one-block message, the
    request-validation shape of Section 4.1.
    """
    message = b"m" * 64

    def run(warm: bool) -> float:
        clear_hmac_midstate_cache()
        if warm:
            HmacSha1(_KEY)  # populate the cache once
        start = time.perf_counter()
        for _ in range(rounds):
            if not warm:
                clear_hmac_midstate_cache()
            HmacSha1(_KEY, message).digest()
        return time.perf_counter() - start

    cold = run(warm=False)
    warm = run(warm=True)
    return {
        "rounds": rounds,
        "cold_seconds": cold,
        "warm_seconds": warm,
        "speedup": cold / warm if warm > 0 else 1.0,
    }


def _scenario_fingerprint(engine: str, ram_kb: int, rounds: int) -> dict:
    """Everything observable about one quickstart-style run: response
    MACs, measurement digest, consumed cycles, ProverStats, and the full
    telemetry registry dump.  Both memos start cold, so each engine
    derives its own firmware bytes and pad midstates."""
    with fastpath.forced(engine):
        clear_hmac_midstate_cache()
        derive_code.cache_clear()
        telemetry = Telemetry()
        session = build_session(
            device_config=DeviceConfig(ram_size=ram_kb * 1024),
            telemetry=telemetry, seed="perf-equivalence")
        reference = session.learn_reference_state()
        for _ in range(rounds):
            result = session.attest_once()
            assert result.trusted, "equivalence scenario must verify"
        # One direct round to capture the response MAC bytes themselves
        # (the channel consumes the responses of the rounds above).
        request = session.verifier.make_request()
        response, reason = session.anchor.handle_request(request)
        assert reason == "ok", f"direct round rejected: {reason}"
        session.device.sync_energy()
        stats = session.anchor.stats
        return {
            "reference_digest": reference.hex(),
            "response_measurement": response.measurement.hex(),
            "response_mac": response.tag.hex(),
            "cycle_count": session.device.cpu.cycle_count,
            "stats": {
                "received": stats.received,
                "accepted": stats.accepted,
                "rejected": dict(stats.rejected),
                "validation_cycles": stats.validation_cycles,
                "attestation_cycles": stats.attestation_cycles,
            },
            "registry": json.dumps(telemetry.registry.dump(),
                                   sort_keys=True),
        }


def equivalence_check(ram_kb: int = 16, rounds: int = 2,
                      engines: tuple = ("accel",)) -> dict:
    """Prove the fast engine changes no output and no simulated accounting.

    Runs the same seeded protocol scenario under ``naive`` and each
    engine in ``engines`` and compares response MACs, digests, consumed cycles,
    ``ProverStats`` and the telemetry registry dump byte for byte.
    """
    baseline = _scenario_fingerprint("naive", ram_kb, rounds)
    comparisons = {}
    identical = True
    for engine in engines:
        candidate = _scenario_fingerprint(engine, ram_kb, rounds)
        mismatches = sorted(key for key in baseline
                            if candidate[key] != baseline[key])
        comparisons[engine] = {"identical": not mismatches,
                               "mismatched_fields": mismatches}
        identical = identical and not mismatches
    return {
        "ram_kb": ram_kb,
        "rounds": rounds,
        "identical": identical,
        "engines": comparisons,
        "response_mac": baseline["response_mac"],
        "cycle_count": baseline["cycle_count"],
    }


def build_report(*, sweep_kb: tuple = DEFAULT_SWEEP_KB,
                 naive_kb: int = 512, repeats: int = 1,
                 equivalence_ram_kb: int = 16) -> dict:
    """Assemble the full ``BENCH_wallclock.json`` payload.

    * a fast-engine sweep over ``sweep_kb`` (cold HMAC cache each run);
    * the naive baseline at ``naive_kb`` and the headline speedup of the
      default engine against it on the same size;
    * cold-vs-warm HMAC midstate cache timing;
    * the paired equivalence block (see :func:`equivalence_check`).
    """
    default_engine = fastpath.engine()
    sweep = [time_measurement(kb, default_engine, repeats=repeats)
             for kb in sweep_kb]
    naive = time_measurement(naive_kb, "naive", repeats=repeats)
    fast_at_naive_size = next(
        (entry for entry in sweep if entry["ram_kb"] == naive_kb), None)
    if fast_at_naive_size is None:
        fast_at_naive_size = time_measurement(naive_kb, default_engine,
                                              repeats=repeats)
        sweep.append(fast_at_naive_size)
    if naive["digest"] != fast_at_naive_size["digest"]:
        raise AssertionError(
            "fast and naive measurement digests diverged at "
            f"{naive_kb} KB -- refusing to write a perf report")
    return {
        "schema": REPORT_SCHEMA_ID,
        "engine_default": default_engine,
        "host": host_info(),
        "sweep": sweep,
        "naive_baseline": naive,
        "speedup": {
            "ram_kb": naive_kb,
            "naive_seconds": naive["seconds"],
            "fast_seconds": fast_at_naive_size["seconds"],
            "factor": naive["seconds"] / fast_at_naive_size["seconds"],
        },
        "hmac_cache": hmac_cache_timing(),
        "equivalence": equivalence_check(ram_kb=equivalence_ram_kb),
    }

