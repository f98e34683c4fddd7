"""Static analysis of the prover's protection configuration and codebase.

Two passes, one report:

``repro.analysis.invariants``
    Pure interval reasoning over a booted device's EA-MPU rule table:
    does this configuration actually stop ``Adv_roam``?  Verdicts map
    failing invariants onto the paper's attack names (key forgery,
    counter rollback, clock reset), with concrete counterexample
    addresses.
``repro.analysis.lint``
    AST-level determinism/consistency rules for the repo itself: no
    host clock or host RNG in simulated paths, exact integer cycle
    accounting, telemetry names drawn from the exported schema, no new
    uses of deprecated aliases.
``repro.analysis.dataflow`` / ``repro.analysis.taint``
    A reusable AST-based interprocedural dataflow engine (call graph,
    per-function transfer summaries, monotone fixpoint) and its
    key-confidentiality client: ``K_Attest`` must never reach a
    host-boundary sink (KEY001), shape a telemetered branch (KEY002),
    or leave through an undeclared export path (KEY003).
``repro.analysis.canary``
    The dynamic cross-check: provision a fleet with a canary key, run
    real rounds, scan every serialized artifact for any encoding of it.
``repro.analysis.report``
    Combines everything into the deterministic ``repro.analysis/v1``
    JSON document validated by :mod:`repro.obs.schema`.

CLI: ``repro verify-profile``, ``repro lint``, ``repro taint`` and the
unified ``repro analyze``; tier-1 gates: ``tests/gates/test_analysis.py``
and ``tests/gates/test_taint.py``.
"""

from .canary import (CANARY_MASTER_KEY, CanaryHit, CanaryReport,
                     needles_for_key, run_canary_hunt, scan_text)
from .dataflow import (DataflowClient, DataflowEngine, DataflowResult,
                       FunctionSummary, Program, SetLattice, Violation,
                       analyze_program)
from .invariants import (ATTACK_FOR_INVARIANT, EXPECTED_FAILURES,
                         INVARIANT_ORDER, Counterexample, InvariantVerdict,
                         MachineModel, ProfileReport, analyze_device,
                         analyze_model, expected_failures, verify_profile,
                         verify_shipped_profiles)
from .lint import (DEFAULT_LINT_DIRS, LintReport, LintViolation, Waiver,
                   lint_file, lint_source, lint_tree, load_waivers)
from .report import build_report, render_report_json
from .taint import (KNOWN_BOUNDARY_MODULES, KeyConfidentialityClient,
                    TaintPolicy, TaintReport, analyze_taint_tree,
                    load_policy)

__all__ = [
    "ATTACK_FOR_INVARIANT", "EXPECTED_FAILURES", "INVARIANT_ORDER",
    "Counterexample", "InvariantVerdict", "MachineModel", "ProfileReport",
    "analyze_device", "analyze_model", "expected_failures",
    "verify_profile", "verify_shipped_profiles",
    "DEFAULT_LINT_DIRS", "LintReport", "LintViolation", "Waiver",
    "lint_file", "lint_source", "lint_tree", "load_waivers",
    "build_report", "render_report_json",
    "DataflowClient", "DataflowEngine", "DataflowResult",
    "FunctionSummary", "Program", "SetLattice", "Violation",
    "analyze_program",
    "KNOWN_BOUNDARY_MODULES", "KeyConfidentialityClient", "TaintPolicy",
    "TaintReport", "analyze_taint_tree", "load_policy",
    "CANARY_MASTER_KEY", "CanaryHit", "CanaryReport", "needles_for_key",
    "run_canary_hunt", "scan_text",
]
