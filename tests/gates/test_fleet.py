"""Fleet-scale engine gates.

1. **Parallel == sequential** -- a fault-injected fleet (lossy jittery
   links, retries with backoff and jitter, telemetry on) swept by a
   sharded :class:`repro.perf.fleet.FleetEngine` agrees byte for byte
   with the sequential seed path: sweep reports, breaker states,
   accepted attestations, merged registry dump and merged trace.
2. **Cache-hit spin-up** -- spinning a fleet up with one shared
   :class:`repro.mcu.statecache.StateDigestCache` measures exactly one
   member and serves the rest from the cache (``misses == 1``,
   ``hits == size - 1``), and is not slower than the uncached spin-up
   by more than 20 %.
3. **Report validity** -- a small ``BENCH_fleet.json`` generated into a
   temporary directory matches :data:`repro.obs.schema.FLEET_SCHEMA` and
   records clean equivalence and identical sequential/parallel reports.
"""

import time

import pytest

from repro.mcu.device import DeviceConfig
from repro.mcu.statecache import StateDigestCache
from repro.obs.schema import validate_fleet_report
from repro.perf.fleet import (FleetSpec, build_report,
                              default_equivalence_spec, equivalence_check,
                              write_report)

SIZE = 6          # fleet size for the equivalence gate
WORKERS = 2       # shard workers for the equivalence gate
SPINUP_SIZE = 8   # fleet size for the cached spin-up gate


def test_parallel_fleet_equals_sequential():
    equivalence = equivalence_check(default_equivalence_spec(SIZE),
                                    workers=WORKERS, sweeps=2)
    assert equivalence["identical"], (
        f"parallel/sequential divergence: "
        f"{equivalence['mismatched_fields']}")


def test_cached_spinup_measures_once():
    spec = FleetSpec(size=SPINUP_SIZE,
                     device_config=DeviceConfig(ram_size=512 * 1024,
                                                flash_size=512 * 1024,
                                                app_size=2 * 1024),
                     seed="fleet-smoke-spinup")
    begin = time.perf_counter()
    spec.build()
    uncached_seconds = time.perf_counter() - begin
    cache = StateDigestCache()
    begin = time.perf_counter()
    spec.build(state_cache=cache)
    cached_seconds = time.perf_counter() - begin
    assert (cache.misses, cache.hits) == (1, SPINUP_SIZE - 1), (
        f"cache spin-up arithmetic wrong: expected 1 miss / "
        f"{SPINUP_SIZE - 1} hits, got {cache.misses} / {cache.hits}")
    # Wall-clock is noisy on shared hosts; only catch a cache that makes
    # spin-up meaningfully *slower* than not having one.
    assert cached_seconds <= uncached_seconds * 1.2, (
        f"cached spin-up slower than uncached: {cached_seconds:.3f}s "
        f"vs {uncached_seconds:.3f}s")


def test_generated_report_is_valid_and_clean(tmp_path):
    try:
        report = build_report(fleet_size=8, ram_kb=64, sweeps=1, workers=2,
                              equivalence_size=4)
    except AssertionError as exc:
        pytest.fail(f"report generation refused: {exc}")
    write_report(report, tmp_path / "BENCH_fleet.json")
    errors = validate_fleet_report(report)
    assert not errors, "\n".join(f"report: {e}" for e in errors)
    assert report["reports_identical"] is True, \
        "report records non-identical sequential/parallel sweep reports"
    assert report["equivalence"]["identical"] is True, \
        "report records a broken parallel/sequential equivalence block"
