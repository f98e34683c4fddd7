"""Golden document bytes: the checkpoint format does not drift.

Round-trip tests compare a capture with its own restore, so a change
made the same way on both sides -- a renamed key, a reordered list, a
number written as a string -- passes them.  This gate pins the
canonical-JSON :func:`~repro.snapshot.document_id` of fixed documents
instead:

1. a session with a lossy link, a software clock and telemetry;
2. a full document of an observed, retrying swarm whose breakers
   changed state, and a delta of it one sweep later;
3. an observed service after two request waves;
4. a two-worker :class:`~repro.perf.fleet.FleetEngine` document.

A format change that is meant must re-pin these ids and say why.
"""

from repro.core.protocol import build_session
from repro.core.resilience import RetryPolicy
from repro.net.faults import lossy_link
from repro.obs.telemetry import Telemetry
from repro.perf.fleet import FleetEngine, FleetSpec
from repro.services.attestd import AttestationService, build_schedule
from repro.services.swarm import Swarm
from repro.snapshot import document_id
from tests.conftest import tiny_config

SESSION_ID = "c950945c706ac5902240de25caa4773db322dad1"
SWARM_ID = "915e5f4fc5247dd6e49c549dc61342257df305e5"
SWARM_DELTA_ID = "be9f0642a8d5076824d4c4a407877dacf9dea7ff"
SERVICE_ID = "ee7b83f3ec33dbfeb3ad074bd0e7c6e197c04156"
ENGINE_ID = "5e79b6f0641eb079db2f4dea8b8d5c425d9b8868"


def retry() -> RetryPolicy:
    return RetryPolicy(attempt_timeout_seconds=5.0, max_retries=1,
                       base_backoff_seconds=1.0, jitter_fraction=0.5)


def test_session_document_bytes():
    session = build_session(device_config=tiny_config(clock_kind="sw"),
                            adversary=lossy_link(0, "golden"),
                            telemetry=Telemetry(), seed="golden-session")
    session.learn_reference_state()
    for _ in range(3):
        session.attest_once(settle_seconds=10.0)
    document = session.snapshot()
    state = document["state"]
    assert state["device"]["clock"]["kind"] == "software"
    assert state["telemetry"] is not None
    assert document_id(document) == SESSION_ID


def test_swarm_full_and_delta_document_bytes():
    swarm = Swarm(3, device_config=tiny_config(), retry=retry(),
                  adversary_factory=lossy_link, observe=True,
                  seed="golden-swarm")
    for _ in range(3):
        swarm.sweep()
    full = swarm.snapshot()
    assert any(breaker["transitions"]
               for breaker in full["state"]["breakers"].values())
    swarm.sweep()
    delta = swarm.snapshot(parent=full)
    assert isinstance(delta["state"]["trace_marks"], dict)   # a tail
    assert document_id(full) == SWARM_ID
    assert document_id(delta) == SWARM_DELTA_ID


def test_service_document_bytes():
    service = AttestationService(3, tenants=2, backends=2,
                                 device_config=tiny_config(), observe=True,
                                 seed="golden-service")
    service.serve_schedule(build_schedule(3, waves=2))
    document = service.snapshot()
    assert document["state"]["service_registry"] is not None
    assert document_id(document) == SERVICE_ID


def test_engine_document_bytes():
    spec = FleetSpec(4, device_config=tiny_config(), retry=retry(),
                     adversary_factory=lossy_link, observe=True,
                     seed="golden-fleet")
    with FleetEngine(spec, workers=2) as engine:
        engine.sweep()
        engine.sweep()
        document = engine.snapshot()
    assert document_id(document) == ENGINE_ID
