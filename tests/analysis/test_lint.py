"""Unit tests for the determinism/consistency linter.

Each rule is exercised against a minimal seeded source string placed on
the path scope where the rule applies, plus the checked-in tainted
fixture tree, waiver mechanics, and the schema-validated combined
report.
"""

from pathlib import Path

import pytest

from repro.analysis.lint import (Waiver, lint_source, lint_tree,
                                 load_waivers)
from repro.analysis.report import build_report, render_report_json
from repro.obs.schema import validate_analysis_report

REPO = Path(__file__).resolve().parents[2]
SIM_PATH = "src/repro/fake_module.py"


def rules_in(source: str, path: str = SIM_PATH) -> set[str]:
    return {v.rule for v in lint_source(source, path)}


class TestDeterminismRules:
    def test_host_clock_flagged_in_simulated_path(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        assert "DET001" in rules_in(source)

    def test_datetime_now_flagged(self):
        source = ("from datetime import datetime\n"
                  "def f():\n    return datetime.now()\n")
        assert "DET001" in rules_in(source)

    def test_host_clock_allowed_in_perf(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        assert rules_in(source, "src/repro/perf/wallclock.py") == set()

    def test_host_clock_allowed_in_fleet_boundary(self):
        """repro.perf.fleet owns the host-parallel boundary and carries
        its own allowlist entry."""
        source = "import time\n\ndef f():\n    return time.perf_counter()\n"
        assert rules_in(source, "src/repro/perf/fleet.py") == set()

    def test_perf_directory_is_not_a_blanket_waiver(self):
        """A NEW module under src/repro/perf/ is flagged until it earns
        a justified HOST_BOUNDARY_MODULES entry -- the allowlist is
        per-module, not per-directory."""
        source = "import time\n\ndef f():\n    return time.time()\n"
        assert "DET001" in rules_in(source, "src/repro/perf/newmodule.py")
        assert "DET002" in rules_in("import random\n",
                                    "src/repro/perf/newmodule.py")

    def test_host_boundary_entries_are_justified(self):
        from repro.analysis.lint import HOST_BOUNDARY_MODULES
        assert "src/repro/perf/fleet.py" in HOST_BOUNDARY_MODULES
        for path, reason in HOST_BOUNDARY_MODULES.items():
            assert path.startswith("src/repro/"), path
            assert reason and len(reason) > 10, (
                f"{path} needs a real justification")

    def test_host_clock_allowed_outside_src(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        assert rules_in(source, "tests/test_something.py") == set()

    def test_stdlib_random_import_flagged(self):
        assert "DET002" in rules_in("import random\n")
        assert "DET002" in rules_in("from random import Random\n")

    def test_seeded_rng_not_flagged(self):
        source = "from repro.crypto.rng import DeterministicRng\n"
        assert rules_in(source) == set()


class TestFloatCycleRule:
    def test_true_division_in_cycle_function(self):
        source = "def hmac_cycles(n):\n    return n / 64\n"
        assert "FLT001" in rules_in(source)

    def test_float_literal_in_cycle_function(self):
        source = "def consume_cycles(n):\n    return n * 1.5\n"
        assert "FLT001" in rules_in(source)

    def test_float_conversion_in_cycle_function(self):
        source = "def attest_cycles(n):\n    return float(n)\n"
        assert "FLT001" in rules_in(source)

    def test_integer_ceil_div_is_clean(self):
        source = "def hmac_cycles(n):\n    return -(-n // 64)\n"
        assert rules_in(source) == set()

    def test_tick_functions_are_covered_too(self):
        source = "def read_ticks(raw):\n    return int(raw * 1.001)\n"
        assert "FLT001" in rules_in(source)

    def test_integer_tick_function_is_clean(self):
        source = ("def read_ticks(raw):\n"
                  "    return raw + raw * 1000 // 1_000_000\n")
        assert rules_in(source) == set()

    def test_wall_unit_conversions_are_the_sanctioned_boundary(self):
        source = ("def _ms_to_cycles(ms):\n    return int(ms * 24000.0)\n"
                  "def cycles_to_seconds(c):\n    return c / 24e6\n")
        assert rules_in(source) == set()

    def test_non_cycle_functions_unscoped(self):
        source = "def average(n):\n    return n / 2\n"
        assert rules_in(source) == set()


class TestTelemetryNameRule:
    def test_unknown_metric_name_flagged(self):
        source = "def f(telemetry):\n    telemetry.count('prover.nope')\n"
        assert "TEL001" in rules_in(source)

    def test_known_metric_name_clean(self):
        source = ("def f(telemetry):\n"
                  "    telemetry.count('prover.requests.received')\n")
        assert rules_in(source) == set()

    def test_unknown_event_kind_flagged(self):
        source = ("def f(telemetry):\n"
                  "    telemetry.event('definitely-not-a-kind', 0)\n")
        assert "TEL001" in rules_in(source)

    def test_known_event_kind_clean(self):
        source = ("def f(telemetry):\n"
                  "    telemetry.event('request-received', 0)\n")
        assert rules_in(source) == set()

    def test_dynamic_names_out_of_scope(self):
        source = ("def f(telemetry, prefix):\n"
                  "    telemetry.count(f'{prefix}.cycles')\n")
        assert rules_in(source) == set()

    def test_non_telemetry_receivers_ignored(self):
        source = "def f(bag):\n    bag.count('whatever')\n"
        assert rules_in(source) == set()


class TestOwnershipRule:
    def test_bound_method_registered_on_a_part_flagged(self):
        source = ("class Device:\n"
                  "    def __init__(self, cpu):\n"
                  "        self.cpu = cpu\n"
                  "        self.cpu.add_cycle_listener(self._drain)\n"
                  "    def _drain(self, now, elapsed):\n"
                  "        pass\n")
        assert "OWN001" in rules_in(source)

    def test_closure_over_self_on_a_hook_flagged(self):
        source = ("class Device:\n"
                  "    def attach(self, telemetry):\n"
                  "        def on_fault(violation):\n"
                  "            telemetry.seen = self.cpu\n"
                  "        self.mpu.on_violation = on_fault\n")
        assert "OWN001" in rules_in(source)

    def test_bound_method_passed_to_a_stored_constructor_flagged(self):
        source = ("class Clock:\n"
                  "    def __init__(self, cpu):\n"
                  "        self.counter = Counter(cpu, on_wrap=self._wrap)\n"
                  "    def _wrap(self, wraps):\n"
                  "        pass\n")
        assert "OWN001" in rules_in(source)

    def test_hooks_without_a_way_back_are_clean(self):
        """A part's own bound method, a closure over other locals, and
        a receiver the owner does not hold are all allowed."""
        source = ("class Device:\n"
                  "    def __init__(self, cpu):\n"
                  "        self.cpu = cpu\n"
                  "        self.cpu.add_cycle_listener(self.battery.drain)\n"
                  "        cpu.add_cycle_listener(self._drain)\n"
                  "        self.total = sum(self._drain(0, 0) for _ in ())\n"
                  "    def attach(self, telemetry):\n"
                  "        cpu = self.cpu\n"
                  "        def on_fault(violation):\n"
                  "            telemetry.seen = cpu\n"
                  "        self.mpu.on_violation = on_fault\n"
                  "    def _drain(self, now, elapsed):\n"
                  "        pass\n"
                  "    @property\n"
                  "    def level(self):\n"
                  "        return 1\n"
                  "    def gauge(self):\n"
                  "        self.meter = Meter(self.level)\n")
        assert rules_in(source) == set()

    def test_outside_src_unscoped(self):
        source = ("class Fixture:\n"
                  "    def setup(self):\n"
                  "        self.cpu.add_cycle_listener(self.tick)\n"
                  "    def tick(self, now, elapsed):\n"
                  "        pass\n")
        assert rules_in(source, "tests/test_something.py") == set()


class TestWaivers:
    def test_waiver_matches_rule_and_path(self):
        waiver = Waiver(rule="DET002", path=SIM_PATH, reason="test double")
        violations = lint_source("import random\n", SIM_PATH)
        assert violations and waiver.matches(violations[0])
        elsewhere = lint_source("import random\n", "src/repro/other.py")
        assert not waiver.matches(elsewhere[0])

    def test_load_waivers_requires_reason(self, tmp_path):
        bad = tmp_path / "waivers.json"
        bad.write_text('[{"rule": "DET002", "path": "x.py", "reason": ""}]')
        with pytest.raises(ValueError, match="justification"):
            load_waivers(bad)

    def test_load_waivers_rejects_unknown_rule(self, tmp_path):
        bad = tmp_path / "waivers.json"
        bad.write_text('[{"rule": "XXX999", "path": "x.py", '
                       '"reason": "because"}]')
        with pytest.raises(ValueError, match="unknown rule"):
            load_waivers(bad)

    def test_missing_waiver_file_means_no_waivers(self, tmp_path):
        assert load_waivers(tmp_path / "absent.json") == []

    def test_checked_in_waivers_load_and_apply(self, repo_lint):
        assert isinstance(load_waivers(REPO / "lint-waivers.json"), list)
        assert repo_lint.clean, [v.as_dict() for v in repo_lint.violations]
        assert all(v.waiver_reason for v in repo_lint.waived)


class TestAsyncHostClock:
    """DET001 covers the asyncio spellings of the host clock."""

    def test_asyncio_sleep_flagged(self):
        source = ("import asyncio\n"
                  "async def f():\n"
                  "    await asyncio.sleep(0.1)\n")
        assert "DET001" in rules_in(source)

    def test_loop_time_flagged(self):
        source = ("def f(loop):\n"
                  "    return loop.time()\n")
        assert "DET001" in rules_in(source)

    def test_attestd_is_clean(self):
        """Pin: the asyncio service tier must stay off the host clock --
        its scheduling runs on injected simulated time, and this test is
        the tripwire against an accidental asyncio.sleep sneaking in."""
        from repro.analysis.lint import lint_file
        violations = lint_file(REPO / "src/repro/services/attestd.py", REPO)
        det = [v for v in violations if v.rule == "DET001"]
        assert det == [], [v.as_dict() for v in det]


class TestStaleWaivers:
    def test_unused_waiver_reported_stale(self):
        ghost = Waiver(rule="DET002", path="src/repro/never/was.py",
                       reason="waives nothing")
        report = lint_tree(
            REPO, waivers=load_waivers(REPO / "lint-waivers.json") + [ghost])
        assert ghost in report.stale_waivers
        entries = report.as_dict()["stale_waivers"]
        assert {"rule": "DET002", "path": "src/repro/never/was.py",
                "reason": "waives nothing"} in entries

    def test_checked_in_waivers_are_all_live(self, repo_lint):
        assert repo_lint.stale_waivers == (), [
            (w.rule, w.path) for w in repo_lint.stale_waivers]

    def test_stale_does_not_unclean_report(self):
        """Staleness is a CLI exit-code concern (overridable with
        --allow-stale); the report itself stays clean so violation
        accounting is unchanged."""
        ghost = Waiver(rule="FLT001", path="gone.py", reason="stale")
        report = lint_tree(
            REPO, waivers=load_waivers(REPO / "lint-waivers.json") + [ghost])
        assert report.clean
        assert report.stale_waivers == (ghost,)


class TestTaintedFixtureTree:
    def test_every_seeded_rule_detected(self):
        report = lint_tree(REPO / "tests/analysis/fixtures/seeded")
        assert {v.rule for v in report.violations} == {
            "DET001", "DET002", "FLT001", "TEL001", "OWN001"}
        owned = [v for v in report.violations if v.rule == "OWN001"]
        assert len(owned) == 3
        assert not report.clean

    def test_fixture_does_not_taint_repo_root_lint(self, repo_lint):
        tainted = [v for v in repo_lint.violations
                   if "fixtures/seeded" in v.path]
        assert tainted == []


class TestCombinedReport:
    def test_report_validates_and_is_deterministic(self, shipped_profiles,
                                                   repo_lint):
        report = build_report(shipped_profiles, repo_lint)
        assert validate_analysis_report(report) == []
        assert (render_report_json(report)
                == render_report_json(build_report(shipped_profiles,
                                                   repo_lint)))

    def test_malformed_report_rejected(self):
        assert validate_analysis_report({"schema": "repro.analysis/v1"})
        clean_lint = {"files_scanned": 0, "clean": True,
                      "violations": [], "waived": []}
        assert validate_analysis_report({"schema": "nope", "profiles": [],
                                         "lint": clean_lint})
        bad_verdict = {"schema": "repro.analysis/v1", "lint": clean_lint,
                       "profiles": [{"profile": "baseline",
                                     "clock_kind": "hw64", "holds": True,
                                     "verdicts": [{"invariant": "bogus",
                                                   "holds": True,
                                                   "detail": "x"}]}]}
        assert any("invariant" in error
                   for error in validate_analysis_report(bad_verdict))
