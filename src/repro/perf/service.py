"""Host-side load benchmark for the verifier service tier.

Drives :class:`~repro.services.attestd.AttestationService` with
deterministic request schedules and measures *host* wall-clock
throughput and latency -- how fast the Python process multiplexes
simulated attestation sessions, never simulated time.  Host clocks are
confined to this module (it is on the determinism lint's host-boundary
allowlist); the service itself receives the clock only as an injected
callable for latency stamping, so its deterministic path stays free of
host time.

The report (``BENCH_service.json``) carries:

* ``points`` -- offered-load points: offered / admitted / rejected
  counts, sessions per second, p50/p99 request latency, and the peak
  number of concurrently in-flight sessions;
* ``gate`` -- the scale gate: at least one point must hold >= 1000
  sessions in flight at once;
* ``equivalence`` -- the correctness gate: the serviced run at
  ``workers=1`` must produce request records, per-device freshness
  state and merged telemetry byte-identical to the sequential library
  path (:meth:`~repro.services.attestd.AttestationService.process`).
  :func:`build_report` refuses to emit a report when it does not.
"""

from __future__ import annotations

import json
import time

from ..mcu.device import DeviceConfig
from ..mcu.statecache import StateDigestCache
from ..services.attestd import AttestationService, build_schedule
from .harness import host_info

__all__ = ["REPORT_SCHEMA_ID", "run_load_point", "equivalence_check",
           "build_report"]

REPORT_SCHEMA_ID = "repro.perf.service/v1"

#: Small provers (the paper's low-end class) so big fleets spin up fast.
_BENCH_CONFIG = DeviceConfig(ram_size=8 * 1024, flash_size=16 * 1024,
                             app_size=2 * 1024)


def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation; deterministic)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1,
               max(0, int(fraction * len(ordered) + 0.5) - 1))
    return ordered[rank]


def _build_service(*, size: int, tenants: int, backends: int,
                   duty_fraction: float, burst_seconds: float,
                   observe: bool, seed: str,
                   shared_cache: bool = True) -> AttestationService:
    cache = StateDigestCache() if shared_cache else None
    return AttestationService(size, tenants=tenants, backends=backends,
                              duty_fraction=duty_fraction,
                              burst_seconds=burst_seconds,
                              device_config=_BENCH_CONFIG,
                              state_cache=cache, observe=observe, seed=seed)


def run_load_point(*, size: int, tenants: int = 4, backends: int = 4,
                   duty_fraction: float = 0.01,
                   burst_seconds: float = 600.0, waves: int = 1,
                   spacing_seconds: float = 60.0, workers: int = 1,
                   seed: str = "service-bench") -> dict:
    """Serve one deterministic schedule and measure it.

    The schedule offers ``waves`` bursts of ``size`` requests; each
    burst shares one arrival instant, so every admitted request of a
    burst is in flight together (that is the concurrency the gate
    counts).  Telemetry is off: observation costs are a separate story
    and the load numbers should be the service's own.
    """
    service = _build_service(size=size, tenants=tenants, backends=backends,
                             duty_fraction=duty_fraction,
                             burst_seconds=burst_seconds, observe=False,
                             seed=seed)
    schedule = build_schedule(size, waves=waves,
                              spacing_seconds=spacing_seconds,
                              seed=f"{seed}:schedule")
    begin = time.perf_counter()
    records = service.serve_schedule(schedule, workers=workers,
                                     clock=time.perf_counter)
    wall = time.perf_counter() - begin
    latencies = [record.host_latency_seconds for record in records
                 if record.admitted
                 and record.host_latency_seconds is not None]
    return {
        "offered": len(schedule),
        "admitted": service.admitted,
        "rejected": service.rejected,
        "peak_in_flight": service.peak_in_flight,
        "sessions_per_second": (service.admitted / wall) if wall else 0.0,
        "p50_latency_ms": _percentile(latencies, 0.50) * 1000.0,
        "p99_latency_ms": _percentile(latencies, 0.99) * 1000.0,
        "wall_seconds": wall,
        "waves": waves,
        "workers": workers,
    }


def equivalence_check(*, size: int = 24, tenants: int = 3,
                      backends: int = 4, duty_fraction: float = 0.001,
                      burst_seconds: float = 20.0, waves: int = 3,
                      spacing_seconds: float = 30.0, workers: int = 1,
                      seed: str = "service-equivalence") -> dict:
    """Prove the serviced path equals the sequential library path.

    Runs the same schedule through :meth:`AttestationService.serve`
    (``workers=1``) and :meth:`AttestationService.process` on two
    identically-built services, with a duty budget tight enough that
    both admission outcomes occur, and compares request records,
    per-device freshness state and the merged telemetry dump.
    """
    schedule = build_schedule(size, waves=waves,
                              spacing_seconds=spacing_seconds,
                              seed=f"{seed}:schedule")
    kwargs = dict(size=size, tenants=tenants, backends=backends,
                  duty_fraction=duty_fraction,
                  burst_seconds=burst_seconds, observe=True, seed=seed)
    serviced = _build_service(**kwargs)
    sequential = _build_service(**kwargs)
    served = serviced.serve_schedule(schedule, workers=workers)
    processed = sequential.process(schedule)
    mismatched = []
    if ([r.fingerprint() for r in served]
            != [r.fingerprint() for r in processed]):
        mismatched.append("records")
    if (serviced.freshness_fingerprint()
            != sequential.freshness_fingerprint()):
        mismatched.append("freshness")
    if (json.dumps(serviced.merged_registry().dump(), sort_keys=True)
            != json.dumps(sequential.merged_registry().dump(),
                          sort_keys=True)):
        mismatched.append("telemetry")
    return {
        "size": size,
        "workers": workers,
        "offered": len(schedule),
        "admitted": serviced.admitted,
        "rejected": serviced.rejected,
        "identical": not mismatched,
        "mismatched_fields": mismatched,
    }


def build_report(*, size: int = 1024, tenants: int = 4, backends: int = 8,
                 duty_fraction: float = 0.01,
                 required_in_flight: int = 1000) -> dict:
    """Assemble the full ``BENCH_service.json`` payload.

    Three offered-load points: a paced baseline (several spaced waves,
    everything admitted), an overloaded run (duty budget far below the
    offered load, so admission control visibly rejects), and the scale
    burst -- one wave of ``size`` simultaneous requests, which must put
    at least ``required_in_flight`` sessions in flight at once for the
    gate to pass.  Refuses to report at all if the serviced path is not
    byte-identical to the sequential library path at ``workers=1``.
    """
    equivalence = equivalence_check()
    if not equivalence["identical"]:
        raise AssertionError(
            "serviced run diverged from the sequential library path on "
            f"{equivalence['mismatched_fields']} -- refusing to write a "
            "perf report")
    points = [
        run_load_point(size=min(size, 128), tenants=tenants,
                       backends=backends, duty_fraction=duty_fraction,
                       waves=4, spacing_seconds=120.0,
                       seed="service-bench-paced"),
        run_load_point(size=min(size, 128), tenants=tenants,
                       backends=backends, duty_fraction=0.0005,
                       burst_seconds=30.0, waves=4, spacing_seconds=15.0,
                       seed="service-bench-overload"),
        run_load_point(size=size, tenants=tenants, backends=backends,
                       duty_fraction=duty_fraction, waves=1,
                       seed="service-bench-burst"),
    ]
    max_peak = max(point["peak_in_flight"] for point in points)
    return {
        "schema": REPORT_SCHEMA_ID,
        "size": size,
        "tenants": tenants,
        "backends": backends,
        "duty_fraction": duty_fraction,
        "host": host_info(),
        "points": points,
        "gate": {
            "max_peak_in_flight": max_peak,
            "required_in_flight": required_in_flight,
            "passed": max_peak >= required_in_flight,
        },
        "equivalence": equivalence,
    }

