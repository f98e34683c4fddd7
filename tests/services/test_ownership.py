"""Ownership gates: a dropped fleet is freed by reference counting.

Every kind of simulated system -- a session, a swarm, a service, and a
swarm restored from a sharded engine's checkpoint chain -- must form no
reference cycle.  With the collector off, dropping the last reference
frees every :class:`~repro.mcu.memory.MemoryRegion` at once (its weakref
is dead), and a collection afterwards finds no ``repro`` object left
over.  A heap frozen with ``gc.freeze()`` is never collected, so a fleet
that only the collector can free stays in memory for good.

The budget gates pin the collector-tracked objects each member costs.
A weak listener costs a weakref and a tuple, a weak endpoint a weakref:
four more objects per member, which in traced perfbench runs meant
seven more young collections and one more full collection during
set-up, and a ``service-mix`` ``setup_s`` 40 % higher (median 0.73 ->
1.03 s).  The pins are the counts of the cyclic design, so breaking the
cycles may cost no tracked object.
"""

import functools
import gc
import weakref

import pytest

from repro.core.protocol import build_session
from repro.core.resilience import JITTERED_RETRY
from repro.mcu.device import DeviceConfig
from repro.mcu.statecache import StateDigestCache
from repro.net.faults import lossy_link
from repro.obs.telemetry import Telemetry
from repro.perf.fleet import FleetEngine, FleetSpec
from repro.services.attestd import AttestationService, build_schedule
from repro.services.swarm import Swarm
from tests.conftest import tiny_config


def regions(system) -> list:
    """Weak references to every memory region of ``system``."""
    sessions = ([system] if not hasattr(system, "members")
                else [member.session for member in system.members])
    return [weakref.ref(region) for session in sessions
            for region in session.device.memory]


def leftover_repro_objects() -> list[str]:
    """Type names of the ``repro`` objects a collection finds."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = sorted({type(obj).__qualname__ for obj in gc.garbage
                        if type(obj).__module__.startswith("repro.")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return found


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def session(**kwargs):
    def build():
        live = build_session(**kwargs)
        live.learn_reference_state()
        for _ in range(2):
            live.attest_once(settle_seconds=10.0)
        return live
    return build


def swarm(device_config=None, **kwargs):
    def build():
        live = Swarm(2, device_config=device_config or tiny_config(),
                     **kwargs)
        for _ in range(2):
            live.sweep()
        return live
    return build


def service(**kwargs):
    def build():
        live = AttestationService(3, tenants=2, backends=2,
                                  device_config=tiny_config(), **kwargs)
        live.serve_schedule(build_schedule(3, waves=2))
        return live
    return build


FLEET = FleetSpec(size=4, device_config=tiny_config(), observe=True,
                  seed="ownership")


@functools.lru_cache(maxsize=None)
def engine_chain() -> tuple:
    """A full document and a delta, written by a two-worker engine."""
    with FleetEngine(FLEET, workers=2) as engine:
        engine.sweep()
        full = engine.snapshot()
        engine.sweep()
        return full, engine.snapshot(parent=full)


def restored_from_engine():
    engine_chain()      # the engine and its workers run outside the gate
    live = FLEET.build()
    live.restore(list(engine_chain()))
    live.sweep()
    return live


KINDS = {
    "session-observed": session(device_config=tiny_config(),
                                telemetry=Telemetry()),
    "session-lossy": session(device_config=tiny_config(),
                             adversary=lossy_link(0, "ownership")),
    "session-sw-clock": session(device_config=tiny_config(clock_kind="sw"),
                                telemetry=Telemetry()),
    "swarm-observed": swarm(observe=True),
    "swarm-retry-lossy": swarm(retry=JITTERED_RETRY,
                               adversary_factory=lossy_link, observe=True),
    "swarm-incremental": swarm(incremental=True),
    "swarm-cached": swarm(state_cache=StateDigestCache()),
    "swarm-hw32div": swarm(device_config=tiny_config(clock_kind="hw32div"),
                           observe=True),
    "swarm-sw-clock": swarm(device_config=tiny_config(clock_kind="sw"),
                            observe=True),
    "service-observed": service(observe=True),
    "service-cached": service(state_cache=StateDigestCache()),
    "swarm-restored-from-engine": restored_from_engine,
}


@pytest.mark.parametrize("build", KINDS.values(), ids=KINDS.keys())
def test_dropping_the_last_reference_frees_every_region(build,
                                                        collector_off):
    system = build()
    refs = regions(system)
    assert refs
    del system
    assert [ref() for ref in refs if ref() is not None] == []
    assert leftover_repro_objects() == []


def test_session_dropped_with_an_event_queued_frees_every_region(
        collector_off):
    """A queued delivery closes over the channel, which holds the
    simulation whose queue holds the delivery: the dropped session
    discards it, so nothing waits for the collector."""
    live = session(device_config=tiny_config(), telemetry=Telemetry())()
    live.verifier_node.request_attestation()
    assert live.sim.pending == 1
    refs = regions(live)
    assert len(refs) == 6
    del live
    assert [ref() for ref in refs if ref() is not None] == []
    assert leftover_repro_objects() == []


def test_build_sweep_drop_loop_holds_no_region(collector_off):
    live = weakref.WeakSet()
    for _ in range(20):
        fleet = Swarm(2, device_config=tiny_config(), observe=True,
                      seed="ownership-loop")
        fleet.sweep()
        live.update(ref() for ref in regions(fleet))
        del fleet
        assert len(live) == 0


def tracked_per_member(build, size: int = 64) -> float:
    """Collector-tracked objects one member adds to a warmed build."""
    build(size)         # warms the per-process memos first
    gc.collect()
    before = len(gc.get_objects())
    system = build(size)
    gc.collect()
    added = len(gc.get_objects()) - before
    del system
    return added / size


def test_swarm_member_tracked_object_budget():
    config = DeviceConfig(ram_size=8192, flash_size=16384, app_size=2048)
    per_member = tracked_per_member(
        lambda size: Swarm(size, device_config=config, observe=True,
                           seed="ownership-budget"))
    assert per_member <= 104.2


def test_service_member_tracked_object_budget():
    per_member = tracked_per_member(
        lambda size: AttestationService(size, tenants=4, backends=8,
                                        state_cache=StateDigestCache(),
                                        seed="ownership-budget"))
    assert per_member <= 102.4
