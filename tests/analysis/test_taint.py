"""Unit tests for the key-confidentiality taint client.

The acceptance gates live in ``tests/gates/test_taint.py`` (clean tree,
seeded fixture, canary agreement, determinism); these tests pin the
analysis semantics one rule at a time against minimal sources, plus
policy loading/waiving/staleness mechanics.
"""

from pathlib import Path

import pytest

from repro.analysis.dataflow import MAX_ROUNDS, Program, analyze_program
from repro.analysis.taint import (EXCLUDED_SELF_MODULES,
                                  KNOWN_BOUNDARY_MODULES, BoundaryModule,
                                  KeyConfidentialityClient, PolicySink,
                                  TaintPolicy, analyze_taint_tree,
                                  load_policy)

REPO = Path(__file__).resolve().parents[2]
FIXTURE = REPO / "tests/analysis/fixtures/taint_seeded"


def rules_in(source: str, path: str = "src/repro/mod.py") -> list:
    program = Program.from_sources({path: source})
    return [v.rule for v in
            analyze_program(program, KeyConfidentialityClient()).violations]


class TestSources:
    def test_derive_device_key_is_a_source(self):
        source = ("def f(telemetry):\n"
                  "    k = derive_device_key(b'm', 'dev')\n"
                  "    telemetry.count('c', k)\n")
        assert rules_in(source) == ["KEY001"]

    def test_key_address_is_public_but_its_dereference_is_not(self):
        """The span object is the address token: telemetering it is fine
        (addresses are layout, not secrets), raw_read-ing it is not."""
        source = ("def ok(telemetry, layout):\n"
                  "    telemetry.count('c', layout.key_span)\n"
                  "def bad(telemetry, layout, bus):\n"
                  "    data = raw_read(bus, layout.key_span)\n"
                  "    telemetry.count('c', data)\n")
        assert rules_in(source) == ["KEY001"]

    def test_ordinary_raw_read_is_clean(self):
        source = ("def f(telemetry, bus):\n"
                  "    telemetry.count('c', raw_read(bus, 0x100))\n")
        assert rules_in(source) == []


class TestSanitizers:
    def test_hmac_output_is_public(self):
        source = ("def f(telemetry):\n"
                  "    tag = hmac_sha1(read_key(), b'nonce')\n"
                  "    telemetry.count('c', tag)\n")
        assert rules_in(source) == []

    def test_digest_method_on_tainted_receiver(self):
        source = ("def f(telemetry, h):\n"
                  "    h.update(read_key())\n"
                  "    telemetry.count('c', h.digest())\n")
        assert rules_in(source) == []


class TestSinks:
    def test_exception_text_is_a_sink(self):
        source = ("def f():\n"
                  "    raise ValueError(read_key())\n")
        assert rules_in(source) == ["KEY001"]

    def test_attribute_flow_is_name_joined(self):
        source = ("class S:\n"
                  "    def boot(self):\n"
                  "        self.key = read_key()\n"
                  "def f(telemetry, session):\n"
                  "    telemetry.count('c', session.key)\n")
        assert rules_in(source) == ["KEY001"]

    def test_key_decided_branch_near_telemetry(self):
        source = ("def f(telemetry):\n"
                  "    if read_key()[0] & 1:\n"
                  "        telemetry.count('c', 1)\n")
        assert rules_in(source) == ["KEY002"]

    def test_key_decided_branch_without_observer_is_fine(self):
        source = ("def f():\n"
                  "    if read_key()[0] & 1:\n"
                  "        x = 1\n")
        assert rules_in(source) == []


class TestSeededFixture:
    def test_all_three_rules_fire(self):
        report = analyze_taint_tree(FIXTURE)
        assert [v.rule for v in report.violations] == [
            "KEY001", "KEY002", "KEY001", "KEY003"]
        assert not report.clean

    def test_interprocedural_chain_is_witnessed(self):
        report = analyze_taint_tree(FIXTURE)
        chained = [v for v in report.violations if len(v.chain) > 1]
        assert chained, "helper-mediated leak lost its witness chain"
        assert all("leaky.py" in hop for hop in chained[0].chain)


class TestPolicy:
    def test_checked_in_policy_loads_with_reasons(self):
        policy = load_policy(REPO / "taint-policy.json")
        assert policy.sinks and policy.boundary_modules
        assert all(s.reason for s in policy.sinks)
        assert all(m.reason for m in policy.boundary_modules)

    def test_missing_file_is_empty_policy(self, tmp_path):
        policy = load_policy(tmp_path / "absent.json")
        assert policy == TaintPolicy((), ())

    def test_reasonless_sink_rejected(self, tmp_path):
        bad = tmp_path / "p.json"
        bad.write_text('{"policy_sinks": [{"kind": "blob-store", '
                       '"path": "x.py", "reason": ""}]}')
        with pytest.raises(ValueError, match="justification"):
            load_policy(bad)

    def test_reasonless_boundary_rejected(self, tmp_path):
        bad = tmp_path / "p.json"
        bad.write_text('{"boundary_modules": [{"path": "x.py"}]}')
        with pytest.raises(ValueError, match="justification"):
            load_policy(bad)

    def test_policy_sink_waives_matching_violation(self):
        policy = TaintPolicy(
            sinks=(PolicySink(kind="telemetry",
                              path="src/repro/leaky.py",
                              reason="test waiver"),),
            boundary_modules=())
        report = analyze_taint_tree(FIXTURE, policy=policy)
        assert [v.rule for v in report.violations] == ["KEY002", "KEY003"]
        assert [(v.rule, reason) for v, reason in report.waived] == [
            ("KEY001", "test waiver"), ("KEY001", "test waiver")]

    def test_declared_boundary_module_suppresses_key003(self):
        policy = TaintPolicy(
            sinks=(),
            boundary_modules=(BoundaryModule(
                path="src/repro/leaky.py", reason="test boundary"),))
        report = analyze_taint_tree(FIXTURE, policy=policy)
        assert "KEY003" not in [v.rule for v in report.violations]
        assert report.stale_policy == ()


class TestStalePolicy:
    def test_sink_matching_no_site_is_stale(self):
        policy = TaintPolicy(
            sinks=(PolicySink(kind="blob-store", path="src/repro/gone.py",
                              reason="was removed"),),
            boundary_modules=())
        report = analyze_taint_tree(FIXTURE, policy=policy)
        assert report.stale_policy == ({
            "kind": "policy-sink", "path": "src/repro/gone.py",
            "sink": "blob-store",
            "detail": "matches no catalogued sink site"},)

    def test_boundary_module_without_boundary_ops_is_stale(self):
        policy = TaintPolicy(
            sinks=(),
            boundary_modules=(BoundaryModule(path="src/repro/gone.py",
                                             reason="was removed"),))
        report = analyze_taint_tree(FIXTURE, policy=policy)
        assert [e["kind"] for e in report.stale_policy] == [
            "boundary-module"]

    def test_checked_in_policy_is_not_stale_on_the_real_tree(
            self, repo_taint):
        assert repo_taint.stale_policy == ()


class TestCleanTree:
    def test_repo_is_key_tight(self, repo_taint):
        assert repo_taint.clean, [v.as_dict() for v in repo_taint.violations]
        assert repo_taint.rounds < MAX_ROUNDS
        assert repo_taint.files_scanned > 50
        assert repo_taint.sinks  # the sink catalogue itself is non-empty

    def test_canary_module_is_self_excluded(self):
        """The leak hunter deliberately derives keys and encodes them
        every way a leak could; it is checked dynamically (by its own
        verdicts), not statically."""
        program = Program.from_tree(REPO, exclude=EXCLUDED_SELF_MODULES)
        assert "src/repro/analysis/canary.py" not in program.files
        assert "src/repro/analysis/taint.py" in program.files

    def test_known_boundary_modules_are_justified(self):
        for path, reason in KNOWN_BOUNDARY_MODULES.items():
            assert path.startswith("src/repro/"), path
            assert reason and len(reason) > 10, path
