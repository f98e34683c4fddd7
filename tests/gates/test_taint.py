"""Key-confidentiality gates: ``K_Attest`` never leaves the trust anchor.

1. **Clean tree** -- the repository with the checked-in
   ``taint-policy.json`` has zero KEY001/KEY002/KEY003 and zero stale
   policy entries; ``repro taint`` (run as CI would, in a subprocess)
   exits 1 on a deliberately staled policy, and ``--allow-stale`` is the
   only escape.
2. **Failure mode** -- the seeded fixture tree trips every rule (KEY001
   direct and helper-mediated, KEY002, KEY003) through the CLI; an
   analyzer that cannot see planted leaks proves nothing.
3. **Canary agreement** -- the dynamic leak hunt agrees with the static
   verdict both ways: a clean build scans clean, its decoded checkpoint
   images included, *with a live raw-bytes control* on a key-in-flash
   build, and a build with a planted leak is caught.
4. **Determinism** -- the combined ``repro.analysis/v1`` document
   (profiles + lint + taint) is schema-valid and byte-identical across
   two independent builds.
"""

import json

import pytest

from repro.analysis import (analyze_taint_tree, build_report, lint_tree,
                            load_policy, load_waivers, render_report_json,
                            run_canary_hunt, verify_shipped_profiles)
from repro.cli import main
from tests.conftest import REPO, run_cli

SEEDED_TREE = REPO / "tests/analysis/fixtures/taint_seeded"
SEEDED_RULES = ("KEY001", "KEY002", "KEY003")


def stale_policy_file(tmp_path):
    """The checked-in policy plus one sink entry that matches nothing."""
    policy = json.loads((REPO / "taint-policy.json").read_text())
    policy.setdefault("policy_sinks", []).append(
        {"kind": "blob-store", "path": "src/repro/does/not/exist.py",
         "reason": "deliberately stale (smoke gate)"})
    path = tmp_path / "stale-policy.json"
    path.write_text(json.dumps(policy))
    return path


def seeded_failures(root, capsys) -> list[str]:
    """Run ``repro taint`` over a tree that must trip every seeded rule;
    return the failure-mode diagnostics (empty when it does)."""
    status = main(["taint", "--root", str(root)])
    out = capsys.readouterr().out
    failures = []
    if status == 0:
        failures.append(f"failure mode: seeded tree {root} passed the "
                        f"taint gate")
    missing = [rule for rule in SEEDED_RULES if rule not in out]
    if missing:
        failures.append(f"failure mode: seeded rules {missing} not "
                        f"detected in {root}")
    if "via " not in out:
        failures.append("failure mode: helper-mediated leak carries no "
                        "interprocedural witness chain")
    return failures


def test_clean_tree_is_key_tight_and_stale_policy_gates(repo_taint,
                                                         tmp_path):
    assert repo_taint.clean, (
        "clean tree: expected zero violations, got "
        + "; ".join(f"{v.rule} {v.path}:{v.line}"
                    for v in repo_taint.violations))
    assert repo_taint.stale_policy == (), (
        f"clean tree: stale policy entries {repo_taint.stale_policy}")

    stale = stale_policy_file(tmp_path)
    strict = run_cli("taint", "--policy", str(stale))
    assert strict.returncode == 1, (
        f"stale policy: CLI exited {strict.returncode} despite a policy "
        f"entry matching nothing:\n{strict.stdout}{strict.stderr}")
    assert "stale" in strict.stdout + strict.stderr, \
        "stale policy: no stale diagnostic printed"
    waved = main(["taint", "--root", str(REPO), "--policy", str(stale),
                  "--allow-stale"])
    assert waved == 0, f"stale policy: --allow-stale still exited {waved}"


def test_seeded_tree_trips_every_rule(capsys):
    failures = seeded_failures(SEEDED_TREE, capsys)
    assert not failures, "\n".join(failures)


def test_seeded_check_flags_a_leak_free_tree(tmp_path, capsys):
    """The failure-mode check itself gates: a tree without planted leaks
    must be reported as missing every seeded rule."""
    module = tmp_path / "src/repro/quiet.py"
    module.parent.mkdir(parents=True)
    module.write_text("def f(telemetry):\n    telemetry.count('c', 1)\n")
    failures = seeded_failures(tmp_path, capsys)
    assert (f"failure mode: seeded rules {list(SEEDED_RULES)} not "
            f"detected in {tmp_path}") in failures
    assert len(failures) == 3, failures


def test_canary_agrees_with_the_static_verdict_both_ways():
    hunt = run_canary_hunt(size=2, sweeps=1, waves=1)
    assert hunt.clean, "canary: clean build leaked: " + ", ".join(
        f"{h.needle} in {h.artifact}" for h in hunt.hits)
    assert {"swarm-snapshot-blobs", "service-snapshot-blobs"} <= set(
        hunt.artifacts_scanned), "canary: decoded blobs were not scanned"
    assert hunt.control_hit, ("canary: raw-bytes control missing from a "
                              "key-in-flash build's decoded blobs -- the "
                              "scanner is blind")
    leaky = run_canary_hunt(size=2, sweeps=1, waves=1, leak=True)
    assert not leaky.clean, "canary: planted telemetry leak was not caught"


def render(*reports) -> str:
    try:
        return render_report_json(build_report(*reports))
    except ValueError as exc:
        pytest.fail(f"schema: combined report invalid: {exc}")


def test_combined_report_is_deterministic(shipped_profiles, repo_lint,
                                          repo_taint):
    first = render(shipped_profiles, repo_lint, repo_taint)
    second = render(
        verify_shipped_profiles(clock_kinds=("hw64", "sw")),
        lint_tree(REPO, waivers=load_waivers(REPO / "lint-waivers.json")),
        analyze_taint_tree(
            REPO, policy=load_policy(REPO / "taint-policy.json")))
    assert first == second, ("determinism: two same-input report builds "
                             "differ byte-for-byte")
