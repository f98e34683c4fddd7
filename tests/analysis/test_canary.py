"""Unit tests for the dynamic canary leak-hunt.

The hunt provisions a real fleet with a known canary master key, runs
real attestation rounds through the swarm and the asyncio service, then
scans every serialized artifact for any textual encoding of any key.
Both directions must hold: a clean build yields zero hits, its decoded
checkpoint images included (with the raw-bytes control on a key-in-flash
build proving the scanner *would* see a leak), and a build with a
planted leak is caught.
"""

from repro.analysis.canary import (CANARY_MASTER_KEY, needles_for_key,
                                   run_canary_hunt, scan_text)


class TestNeedles:
    def test_every_encoding_is_covered(self):
        key = bytes(range(16))
        needles = needles_for_key("k", key)
        assert set(needles) == {"k/hex", "k/HEX", "k/base64", "k/repr"}
        assert needles["k/hex"] == key.hex()
        assert needles["k/HEX"] == key.hex().upper()
        assert needles["k/repr"] == repr(key)

    def test_scan_reports_each_matching_needle(self):
        needles = needles_for_key("k", b"\xde\xad\xbe\xef")
        hits = scan_text("artifact", "blah deadbeef blah", needles)
        assert [(h.artifact, h.needle) for h in hits] == [
            ("artifact", "k/hex")]
        assert scan_text("artifact", "nothing here", needles) == []


class TestHunt:
    def test_clean_build_has_no_hits_and_a_live_control(self):
        report = run_canary_hunt(size=2, sweeps=1, waves=1)
        assert report.clean, [(h.artifact, h.needle) for h in report.hits]
        assert report.control_hit, (
            "raw key bytes missing from a key-in-flash build's decoded "
            "blobs -- the scanner is blind, a clean verdict proves nothing")
        assert not report.leak_planted
        assert len(report.artifacts_scanned) == 10

    def test_planted_leak_is_caught(self):
        report = run_canary_hunt(size=2, sweeps=1, waves=1, leak=True)
        assert report.leak_planted
        assert not report.clean
        artifacts = {h.artifact for h in report.hits}
        assert "swarm-trace" in artifacts

    def test_report_round_trips_to_dict(self):
        report = run_canary_hunt(size=2, sweeps=1, waves=1)
        d = report.as_dict()
        assert d["clean"] is True
        assert d["control_hit"] is True
        assert d["leak_planted"] is False
        assert d["artifacts_scanned"] == list(report.artifacts_scanned)

    def test_hunt_is_deterministic(self):
        a = run_canary_hunt(size=2, sweeps=1, waves=1)
        b = run_canary_hunt(size=2, sweeps=1, waves=1)
        assert a.as_dict() == b.as_dict()

    def test_canary_key_is_pinned(self):
        assert CANARY_MASTER_KEY == bytes.fromhex(
            "9f3ac81d5e72640bd1c7a9558e02f4b6")
        assert len(CANARY_MASTER_KEY) == 16
