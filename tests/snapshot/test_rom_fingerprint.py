"""ROM is rebuilt and checked, never restored.

A checkpoint carries no ROM image: region records cover the writable
regions only (RAM and flash), and the device's ``rom`` row holds the
ROM's write-chain fingerprint, which a restore compares with the
rebuilt target's the way it compares the boot profile.  Every hostile
case below runs against each target kind -- a session, a swarm, a
service and a two-worker :class:`~repro.perf.fleet.FleetEngine` -- and
must end in a :class:`~repro.errors.SnapshotError` that leaves the
target equal to a never-restored twin:

* a document restored into a key-in-ROM target built with another
  master key, whose ROM (``K_Attest``) and so whose fingerprint
  differs;
* a ``rom`` record smuggled into ``regions``, with a well-formed image;
* a ``rom`` row that is missing, ``null`` or not hex.
"""

import contextlib
import json

import pytest

from repro.core.protocol import build_session
from repro.crypto.kdf import derive_device_key
from repro.errors import SnapshotError
from repro.perf.fleet import FleetEngine, FleetSpec
from repro.services.attestd import AttestationService, build_schedule
from repro.services.swarm import Swarm
from repro.snapshot import document_id
from repro.snapshot.codec import b64, unb64
from tests.conftest import tiny_config

KEY = bytes(range(16))
OTHER_KEY = bytes(range(16, 32))


@contextlib.contextmanager
def session(key):
    live = build_session(device_config=tiny_config(), key=key,
                         seed="rom-session")
    live.learn_reference_state()
    live.attest_once(settle_seconds=10.0)
    yield live


@contextlib.contextmanager
def swarm(key):
    live = Swarm(2, device_config=tiny_config(), master_key=key,
                 observe=True, seed="rom-swarm")
    live.sweep()
    yield live


@contextlib.contextmanager
def service(key):
    live = AttestationService(2, tenants=1, backends=1,
                              device_config=tiny_config(), master_key=key,
                              observe=True, seed="rom-service")
    live.serve_schedule(build_schedule(2, waves=1))
    yield live


@contextlib.contextmanager
def engine(key):
    spec = FleetSpec(4, device_config=tiny_config(), master_key=key,
                     observe=True, seed="rom-engine")
    with FleetEngine(spec, workers=2) as live:
        live.sweep()
        yield live


KINDS = {"session": session, "swarm": swarm, "service": service,
         "engine": engine}


def devices(document) -> list[dict]:
    """The device state of every member of a document."""
    state = document["state"]
    if document["kind"] == "session":
        return [state["device"]]
    return [member["session"]["device"] for member in state["members"]]


def view(target):
    """What a refused restore must leave as a never-restored twin has
    it: the target's own checkpoint (every simulated field, the ROM
    fingerprint included) and, in-process, the ROM bytes."""
    if isinstance(target, FleetEngine):
        roms = None     # the members live in the shard workers
    else:
        sessions = ([target] if not hasattr(target, "members")
                    else [member.session for member in target.members])
        roms = [bytes(s.device.rom._data) for s in sessions]
    return document_id(target.snapshot()), roms


def assert_refused(kind, key, document, match) -> None:
    with KINDS[kind](key) as target, KINDS[kind](key) as twin:
        with pytest.raises(SnapshotError, match=match):
            target.restore(document)
        assert view(target) == view(twin)


def captured(kind) -> dict:
    with KINDS[kind](KEY) as live:
        return json.loads(json.dumps(live.snapshot()))


def smuggle_rom(document) -> None:
    """Put the ROM back among the last member's regions, as the parent
    format carried it: a well-formed record whose image fits."""
    device = devices(document)[-1]
    with session(KEY) as donor:
        rom = donor.device.rom
        document["blobs"][device["rom"]] = b64(bytes(rom._data))
        device["regions"].insert(0, {
            "name": "rom", "size": rom.size, "exclude": 0,
            "fingerprint": device["rom"], "prefix": ""})


def set_rom(value):
    def mutate(document):
        devices(document)[-1]["rom"] = value
    return mutate


def drop_rom(document) -> None:
    del devices(document)[-1]["rom"]


MUTATIONS = {
    "rom-record": (smuggle_rom, "ROM region record"),
    "rom-missing": (drop_rom, "malformed snapshot document"),
    "rom-null": (set_rom(None), "device.rom must not be null"),
    "rom-not-hex": (set_rom("zz" * 20), "device.rom"),
}


def test_a_checkpoint_carries_no_rom_image_and_no_key():
    for kind in KINDS:
        document = captured(kind)
        for device in devices(document):
            assert [region["name"] for region in device["regions"]] == [
                "flash", "ram"]
            assert device["rom"] not in document["blobs"]
        keys = ([KEY] if kind == "session" else
                [derive_device_key(KEY, member["device_id"])
                 for member in document["state"]["members"]])
        images = [unb64(text) for text in document["blobs"].values()]
        assert not [key for key in keys if any(key in image
                                               for image in images)]


@pytest.mark.parametrize("kind", KINDS)
def test_another_master_key_is_refused(kind):
    document = captured(kind)
    assert_refused(kind, OTHER_KEY, document, "device.rom")


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("kind", KINDS)
def test_hostile_rom_fields_are_refused(kind, mutation):
    mutate, match = MUTATIONS[mutation]
    document = captured(kind)
    mutate(document)
    assert_refused(kind, KEY, document, match)


@pytest.mark.parametrize("kind", ["session", "swarm"])
def test_a_delta_checks_the_rom_of_its_tip(kind):
    """A delta carries the ``rom`` row in full, like every scalar."""
    with KINDS[kind](KEY) as live:
        root = live.snapshot()
        if kind == "swarm":
            live.sweep()
        else:
            live.attest_once(settle_seconds=10.0)
        delta = json.loads(json.dumps(live.snapshot(parent=root)))
    assert [device["rom"] for device in devices(delta)] == [
        device["rom"] for device in devices(root)]
    set_rom("00" * 20)(delta)
    assert_refused(kind, KEY, [root, delta], "device.rom")
