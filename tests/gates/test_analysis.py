"""Static-analysis gates.

1. **Ground truth** -- statically verifying the shipped profiles
   reproduces the expected failure sets; mapped to
   ``tests/analysis/test_invariants.py::TestInvariantCatalog::
   test_expected_failures_match_all_profiles`` (every clock kind,
   including hw64 and sw).
2. **Clean tree** -- ``repro lint`` (run as CI would, in a subprocess)
   exits 0 on the repository with only the checked-in waivers.
3. **Determinism** -- the combined ``repro.analysis/v1`` report is
   schema-valid and byte-identical across two independent builds.
4. **Failure mode** -- linting the seeded fixture tree flags every
   seeded rule (DET001, DET002, FLT001, TEL001, OWN001); mapped to
   ``tests/analysis/test_lint.py::TestTaintedFixtureTree::
   test_every_seeded_rule_detected``.  The test below checks that the
   seeded-rule check gates at all.
"""

import pytest

from repro.analysis import (build_report, lint_tree, load_waivers,
                            render_report_json, verify_shipped_profiles)
from tests.conftest import REPO, run_cli

SEEDED_RULES = {"DET001", "DET002", "FLT001", "TEL001", "OWN001"}


def test_repo_lints_clean_through_the_cli():
    proc = run_cli("lint")
    assert proc.returncode == 0, (f"clean tree: 'repro lint' exited "
                                  f"{proc.returncode}:\n{proc.stdout}"
                                  f"{proc.stderr}")


def test_combined_report_is_deterministic(shipped_profiles, repo_lint):
    try:
        first = render_report_json(build_report(shipped_profiles, repo_lint))
        second = render_report_json(build_report(
            verify_shipped_profiles(clock_kinds=("hw64", "sw")),
            lint_tree(REPO, waivers=load_waivers(REPO / "lint-waivers.json"))))
    except ValueError as exc:
        pytest.fail(f"schema: combined report invalid: {exc}")
    assert first == second, ("determinism: two same-input report builds "
                             "differ byte-for-byte")


def test_seeded_rule_check_flags_a_clean_tree(tmp_path):
    """A tree without planted violations lints clean, so every seeded
    rule is reported missing: the failure-mode check cannot pass
    vacuously."""
    module = tmp_path / "src/repro/quiet.py"
    module.parent.mkdir(parents=True)
    module.write_text("def f(cycles):\n    return cycles // 2\n")
    report = lint_tree(tmp_path)
    assert report.files_scanned == 1
    assert report.clean
    assert not SEEDED_RULES & {v.rule for v in report.violations}
