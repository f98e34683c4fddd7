"""A checkpoint holds simulated state only.

``Code_Attest`` measures the prover's actual memory (paper §3), so a
restored prover must be judged by the bytes the document restored, not
by a host memo of earlier measurements.  The state-digest cache answers
by region fingerprint, and a restore reinstates fingerprints verbatim
from the document: a document that rewrites a RAM image but keeps its
fingerprint would be vouched for by any cache entry under it -- one the
document carried, or one the rebuilt target learned at spin-up.  So no
document carries a cache, and a restore starts every attached cache
cold.

The same rule makes one checkpoint format serve every worker count: a
sharded :class:`FleetEngine` writes the swarm document a sequential
swarm writes, byte for byte, and either restores it at any worker
count.
"""

import json

import pytest

from repro.core.protocol import build_session
from repro.core.resilience import JITTERED_RETRY
from repro.errors import SnapshotError
from repro.mcu.statecache import StateDigestCache
from repro.net.faults import lossy_link
from repro.perf.fleet import FleetEngine, FleetSpec
from repro.services.attestd import AttestationService, build_schedule
from repro.services.swarm import Swarm
from repro.snapshot import materialize_chain
from repro.snapshot.codec import b64, unb64
from repro.snapshot.delta import _session_states
from tests.conftest import tiny_config

FORGED = "authentic; state NOT in reference set"


def canonical(document) -> str:
    return json.dumps(document, sort_keys=True)


def forge_ram(document) -> dict:
    """A copy of ``document`` with 16 bytes of every RAM image flipped
    and every region fingerprint kept."""
    forged = json.loads(json.dumps(document))
    keys = {record["fingerprint"]
            for session in _session_states(forged["state"], forged["kind"])
            for record in session["device"]["regions"]
            if record["name"] == "ram"}
    for key in keys:
        image = bytearray(unb64(forged["blobs"][key]))
        middle = len(image) // 2
        image[middle:middle + 16] = bytes(
            byte ^ 0xFF for byte in image[middle:middle + 16])
        forged["blobs"][key] = b64(bytes(image))
    return forged


def cached_session():
    session = build_session(device_config=tiny_config(), seed="memo")
    session.device.attach_state_cache(StateDigestCache())
    session.learn_reference_state()
    return session


def swarm_factory(**options):
    return lambda: Swarm(2, device_config=tiny_config(), seed="memo",
                         **options)


def service():
    return AttestationService(2, tenants=1, backends=1,
                              device_config=tiny_config(),
                              state_cache=StateDigestCache(), seed="memo")


def swarm_verdicts(swarm) -> list[str]:
    return [member.session.attest_once().detail for member in swarm.members]


class TestDocumentsCannotVouch:
    """Restore a forged document into a cached target: the next round
    measures the forged bytes and reports them."""

    def test_session(self):
        live = cached_session()
        live.attest_once()
        target = cached_session()
        target.restore(forge_ram(live.snapshot()))
        result = target.attest_once()
        assert not result.trusted and result.detail == FORGED

    @pytest.mark.parametrize("options", [
        {"state_cache": StateDigestCache()}, {"incremental": True}],
        ids=["history-keyed", "incremental"])
    def test_swarm(self, options):
        build = swarm_factory(**options)
        live = build()
        live.sweep()
        target = build()
        target.restore(forge_ram(live.snapshot()))
        report = target.sweep()
        assert report.trusted == 0 and len(report.untrusted) == 2
        assert swarm_verdicts(target) == [FORGED] * 2

    def test_uncached_document_into_a_cached_swarm(self):
        """A document from an uncached fleet: only the cache the target
        filled at its own spin-up could vouch, and restore clears it."""
        live = swarm_factory()()
        live.sweep()
        target = swarm_factory(state_cache=StateDigestCache())()
        target.restore(forge_ram(live.snapshot()))
        assert target.sweep().untrusted == ["device-000", "device-001"]

    def test_service(self):
        live = service()
        live.serve_schedule(build_schedule(2, waves=1))
        document = live.snapshot()
        assert "state_cache" not in document["state"]
        target = service()
        target.restore(forge_ram(document))
        records = target.serve_schedule(build_schedule(2, waves=1))
        assert [(record.verdict, record.detail) for record in records] \
            == [("untrusted", FORGED)] * 2

    def test_fleet_engine(self):
        spec = FleetSpec(size=2, device_config=tiny_config(), seed="memo")
        with FleetEngine(spec, workers=2) as live:
            live.sweep()
            document = live.snapshot()
        with FleetEngine(spec, workers=2) as target:
            target.restore(forge_ram(document))
            report = target.sweep()
        assert report.trusted == 0 and len(report.untrusted) == 2


# ---------------------------------------------------------------------------
# One format at any worker count
# ---------------------------------------------------------------------------

def fleet_spec(incremental: bool) -> FleetSpec:
    """A lossy, retrying, observed fleet whose size does not divide
    evenly by the worker counts under test."""
    return FleetSpec(size=5, device_config=tiny_config(),
                     retry=JITTERED_RETRY, adversary_factory=lossy_link,
                     observe=True, incremental=incremental,
                     seed=f"one-format:{incremental}")


def continuation(target) -> dict:
    """The next sweep and everything it leaves observable."""
    return {"report": target.sweep(),
            "trace": target.merged_trace_records(),
            "registry": target.merged_registry().dump(),
            "states": target.device_states()}


def run(target, root=None) -> list[dict]:
    """Sweep, capture a full checkpoint; sweep twice more, capture a
    delta against ``root`` (the target's own full checkpoint when
    ``None``).  Returns ``[full, delta]``."""
    target.sweep()
    full = target.snapshot()
    target.sweep()
    target.sweep()
    return [full, target.snapshot(parent=full if root is None else root)]


@pytest.fixture(scope="module", params=[False, True],
                ids=["trees-off", "trees-on"])
def captured(request):
    """The sequential swarm's chain and its continuation, plus the
    chain every sharded engine captured of the same run (its delta
    against the sequential root)."""
    spec = fleet_spec(request.param)
    live = spec.build()
    chain = run(live)
    engines = {}
    for workers in (2, 3):
        with FleetEngine(spec, workers=workers) as engine:
            engines[workers] = run(engine, root=chain[0])
    return {"spec": spec, "chain": chain, "engines": engines,
            "expected": continuation(live)}


def test_engine_checkpoint_equals_sequential(captured):
    """Full and delta documents of a sharded engine are the sequential
    swarm's, canonical JSON byte for byte."""
    expected = [canonical(document) for document in captured["chain"]]
    for workers, chain in captured["engines"].items():
        assert [canonical(document) for document in chain] == expected, \
            f"{workers} workers"
    assert captured["chain"][0]["kind"] == "swarm"
    assert "state_cache" not in captured["chain"][0]["state"]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_chain_restores_at_any_worker_count(captured, workers):
    """A chain captured on another worker count restores into a
    sequential swarm (1) or an engine of 2 or 3 workers, as a chain or
    folded, and the next sweep equals the live run's.  With trees on,
    ``workers=1`` is the incremental sequential restore of an engine
    chain that used to be refused."""
    spec = captured["spec"]
    chain = {1: captured["engines"][2], 2: captured["engines"][3],
             3: captured["chain"]}[workers]
    for documents in (chain, materialize_chain(chain)):
        if workers == 1:
            target = spec.build()
            target.restore(documents)
            view = continuation(target)
        else:
            with FleetEngine(spec, workers=workers) as target:
                target.restore(documents)
                view = continuation(target)
        assert view == captured["expected"]


def test_fleet_kind_documents_are_refused():
    live = swarm_factory()()
    live.sweep()
    document = live.snapshot()
    document["kind"] = "fleet"
    with pytest.raises(SnapshotError, match="kind"):
        swarm_factory()().restore(document)
