"""Multi-tenant verifier service gates.

1. **Admission determinism** -- the same service spec and request
   schedule, served by two fresh builds, produce byte-identical request
   records, including duty-budget rejections (which must occur).
2. **Shard equivalence** -- the consistent-hash ring decides only
   *where* a session runs: 3 and 7 backends yield identical records,
   freshness state and merged telemetry.
3. **Restore-continue** -- a service snapshotted after the first waves,
   JSON round-tripped and restored into a fresh build, serves the
   remaining waves exactly like an uninterrupted run.
4. **Checked-in benchmark** -- ``BENCH_service.json`` validates against
   SERVICE_SCHEMA with the >= 1000-session concurrency gate passed and
   the serviced/sequential equivalence recorded as identical.
"""

import json

import pytest

from repro.obs.schema import validate_service_report
from repro.services.attestd import AttestationService, build_schedule
from tests.conftest import REPO

SIZE = 16    # fleet size for the equivalence gates
WAVES = 4    # request waves per schedule
SPACING = 30.0


def build(backends=3):
    # Duty budget tuned so the later waves overdraw it: both admission
    # outcomes must occur or the gates prove nothing.
    return AttestationService(SIZE, tenants=3, backends=backends,
                              duty_fraction=0.001, burst_seconds=30.0,
                              observe=True, seed="service-smoke")


def service_view(service) -> dict:
    return {
        "freshness": service.freshness_fingerprint(),
        "registry": json.dumps(service.merged_registry().dump(),
                               sort_keys=True),
        "admitted": service.admitted,
        "rejected": service.rejected,
    }


@pytest.fixture(scope="module")
def schedule():
    return build_schedule(SIZE, waves=WAVES, spacing_seconds=SPACING,
                          seed="service-smoke:schedule")


@pytest.fixture(scope="module")
def served(schedule):
    """The uninterrupted run: a 3-backend service and its records."""
    service = build()
    records = [r.fingerprint() for r in service.serve_schedule(schedule)]
    return service, records


def test_admission_is_deterministic(schedule, served):
    first, records = served
    second = build()
    assert [r.fingerprint() for r in second.serve_schedule(schedule)] \
        == records, ("admission: identical spec+schedule produced "
                     "different request records")
    assert first.rejected, ("admission: no rejections occurred; the duty "
                            "budget never bound and the gate proves nothing")
    assert service_view(second) == service_view(first), \
        "admission: freshness/telemetry diverge between identical runs"


def test_backend_count_changes_no_answer(schedule, served):
    first, records = served
    sharded = build(backends=7)
    assert [r.fingerprint() for r in sharded.serve_schedule(schedule)] \
        == records, ("sharding: records differ between 3 and 7 backends; "
                     "placement leaked into verdicts")
    assert service_view(sharded) == service_view(first), \
        "sharding: freshness/telemetry differ between 3 and 7 backends"


def test_restore_mid_load_continues_exactly(schedule, served):
    first, records = served
    split = max(1, WAVES // 2) * SPACING
    head = [r for r in schedule if r.arrival_seconds < split]
    tail = [r for r in schedule if r.arrival_seconds >= split]
    interrupted = build()
    interrupted.serve_schedule(head)
    resumed = build()
    resumed.restore(json.loads(json.dumps(interrupted.snapshot())))
    assert [r.fingerprint() for r in resumed.serve_schedule(tail)] \
        == records[len(head):], ("restore: continuation records differ "
                                 "from the uninterrupted run")
    assert service_view(resumed) == service_view(first), \
        "restore: freshness/telemetry diverge from the uninterrupted run"


def test_checked_in_benchmark_records_passing_gates():
    report = json.loads((REPO / "BENCH_service.json").read_text())
    errors = validate_service_report(report)
    assert not errors, "\n".join(f"bench: schema violation: {e}"
                                 for e in errors)
    assert report["gate"]["passed"], (
        f"bench: checked-in report failed its own concurrency gate "
        f"({report['gate']})")
    assert report["equivalence"]["identical"], ("bench: checked-in report "
                                                "records a serviced/"
                                                "sequential divergence")
