"""Table coverage: the field tables and the documents they write agree.

On fresh, observed, lossy and software-clock variants of a session, a
swarm and a service, every row's attribute path resolves on the live
object, and every captured document's key set equals its table's key
set at every nesting level: no undeclared key is written and no
declared key is missing.
"""

import json

import pytest

from repro.core.protocol import build_session
from repro.net.faults import GilbertElliottLoss, lossy_link
from repro.obs.telemetry import Telemetry
from repro.services.attestd import AttestationService, build_schedule
from repro.services.swarm import Swarm
from repro.snapshot.codec import Keyed, Log, Members, Nested, _adversary_table
from repro.snapshot.document import KINDS
from tests.conftest import tiny_config


def resolve(obj, path: str):
    """The live value at a row's attribute path ("" is the object)."""
    for part in path.split(".") if path else ():
        obj = getattr(obj, part)
    return obj


def check(table, obj, state, where: str) -> int:
    """Assert ``state`` is laid out as ``table`` declares for ``obj``;
    returns the number of rows checked."""
    assert isinstance(state, dict), where
    assert set(state) == set(table.names), where
    paths = {row.name: row.path for row in table.rows}
    checked = 0
    for row in table.rows:
        at = f"{where}.{row.name}"
        value = state[row.name]
        if row.present is not None and not row.present(obj):
            assert value is None, at
            continue
        live = resolve(obj, row.path)
        checked += 1
        codec = row.codec
        if isinstance(codec, Log) and codec.counter is not None:
            resolve(obj, paths[codec.counter])
        if value is None:
            assert row.nullable, at
        elif isinstance(codec, Nested):
            checked += check(codec.table(live), live, value, at)
        elif isinstance(codec, Keyed):
            assert set(value) == set(live), at
            for key, item in live.items():
                checked += check(codec.tables[0], item, value[key],
                                 f"{at}[{key}]")
        elif isinstance(codec, Members):
            assert len(value) == len(live), at
            for i, (member, record) in enumerate(zip(live, value)):
                checked += check(codec.tables[0], member, record,
                                 f"{at}[{i}]")
        elif row.name == "adversary":
            checked += check_adversary(live, value, at)
    return checked


def check_adversary(adversary, state, where: str) -> int:
    """A channel adversary's record, and each model of a pipeline."""
    checked = check(_adversary_table(adversary), adversary, state, where)
    assert state["type"] == type(adversary).__name__, where
    for i, model in enumerate(getattr(adversary, "models", ())):
        checked += check_adversary(model, state["models"][i],
                                   f"{where}.models[{i}]")
    return checked


def bursty_link(index, device_id):
    return GilbertElliottLoss(seed=f"burst:{device_id}")


def sessions():
    fresh = build_session(device_config=tiny_config(), seed="tables")
    observed = build_session(device_config=tiny_config(),
                             telemetry=Telemetry(), seed="tables")
    lossy = build_session(device_config=tiny_config(),
                          adversary=lossy_link(0, "tables"), seed="tables")
    software = build_session(device_config=tiny_config(clock_kind="sw"),
                             telemetry=Telemetry(), seed="tables")
    unclocked = build_session(device_config=tiny_config(clock_kind="none"),
                              seed="tables")
    for session in (observed, lossy, software):
        session.learn_reference_state()
        session.attest_once(settle_seconds=10.0)
    return [fresh, observed, lossy, software, unclocked]


def swarms():
    fresh = Swarm(2, device_config=tiny_config(), seed="tables")
    observed = Swarm(2, device_config=tiny_config(), observe=True,
                     seed="tables")
    lossy = Swarm(3, device_config=tiny_config(), observe=True,
                  adversary_factory=lossy_link, seed="tables")
    bursty = Swarm(2, device_config=tiny_config(clock_kind="sw"),
                   adversary_factory=bursty_link, seed="tables")
    for swarm in (observed, lossy, bursty):
        swarm.sweep()
    return [fresh, observed, lossy, bursty]


def services():
    fresh = AttestationService(2, tenants=1, backends=1,
                               device_config=tiny_config(), observe=False,
                               seed="tables")
    observed = AttestationService(3, tenants=2, backends=2,
                                  device_config=tiny_config(clock_kind="sw"),
                                  observe=True, seed="tables")
    observed.serve_schedule(build_schedule(3, waves=1))
    return [fresh, observed]


@pytest.mark.parametrize("kind, targets", [
    ("session", sessions), ("swarm", swarms), ("service", services)])
def test_documents_match_their_tables(kind, targets):
    for target in targets():
        document = json.loads(json.dumps(target.snapshot()))
        assert document["kind"] == kind
        assert check(KINDS[kind], target, document["state"], kind) > 20


def test_delta_documents_match_their_tables():
    """A delta keeps every key; its logs are tails, its regions carry
    a delta record."""
    swarm = Swarm(2, device_config=tiny_config(), observe=True,
                  adversary_factory=lossy_link, seed="tables-delta")
    swarm.sweep()
    parent = swarm.snapshot()
    swarm.sweep()
    delta = json.loads(json.dumps(swarm.snapshot(parent=parent)))
    state = delta["state"]
    assert set(state) == set(KINDS["swarm"].names)
    session = state["members"][0]["session"]
    assert set(session) == set(KINDS["session"].names)
    assert isinstance(session["channel"]["transcript"], dict)
