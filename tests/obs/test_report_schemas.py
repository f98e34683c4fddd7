"""Every report validator rejects a corrupted nested block, by exact path.

Each checked-in ``BENCH_*.json`` (and a hand-built ``repro.analysis/v1``
report) is corrupted in one field of one nested block at a time -- list
entries, gates, equivalence blocks, timing blocks -- and the validator
must name that field's full path in its error list.
"""

import copy
import json

import pytest

from repro.obs import schema
from tests.conftest import REPO


def analysis_report() -> dict:
    """A minimal analysis report with one entry in every nested list."""
    lint_entry = {"rule": "DET001", "path": "src/x.py", "line": 3,
                  "col": 0, "message": "host clock"}
    taint_entry = {"rule": "KEY001", "path": "src/y.py", "line": 7,
                   "message": "key reaches sink", "sink": "print",
                   "chain": []}
    return {
        "schema": "repro.analysis/v1",
        "profiles": [{"profile": "baseline", "clock_kind": "hw64",
                      "holds": True,
                      "verdicts": [{"invariant": "rule-budget",
                                    "holds": True, "detail": "ok"}]}],
        "lint": {"files_scanned": 2, "clean": False,
                 "violations": [lint_entry],
                 "waived": [dict(lint_entry, waiver_reason="why")]},
        "taint": {"files_scanned": 2, "clean": False,
                  "violations": [taint_entry],
                  "waived": [dict(taint_entry, waiver_reason="why")],
                  "sinks": [], "stale_policy": [], "rounds": 3},
    }


def artifact(name: str) -> dict:
    if name == "analysis":
        return analysis_report()
    return json.loads((REPO / f"BENCH_{name}.json").read_text())


VALIDATORS = {
    "wallclock": schema.validate_wallclock_report,
    "fleet": schema.validate_fleet_report,
    "incremental": schema.validate_incremental_report,
    "service": schema.validate_service_report,
    "snapshot": schema.validate_snapshot_report,
    "analysis": schema.validate_analysis_report,
}

#: (report, path to the corrupted field, the exact error expected).
#: Every corruption stores a string where the schema wants a number,
#: boolean or array.
CORRUPTIONS = [
    ("wallclock", ("sweep", 4, "seconds"),
     "wallclock.sweep[4].seconds: expected number, got str"),
    ("wallclock", ("naive_baseline", "mb_per_s"),
     "wallclock.naive_baseline.mb_per_s: expected number, got str"),
    ("wallclock", ("speedup", "factor"),
     "wallclock.speedup.factor: expected number, got str"),
    ("wallclock", ("equivalence", "identical"),
     "wallclock.equivalence.identical: expected boolean, got str"),
    ("fleet", ("sequential", "sweep_seconds"),
     "fleet.sequential.sweep_seconds: expected number, got str"),
    ("fleet", ("parallel", "trusted"),
     "fleet.parallel.trusted: expected integer, got str"),
    ("fleet", ("spinup", "factor"),
     "fleet.spinup.factor: expected number, got str"),
    ("fleet", ("cache", "misses"),
     "fleet.cache.misses: expected integer, got str"),
    ("fleet", ("equivalence", "mismatched_fields"),
     "fleet.equivalence.mismatched_fields: expected array, got str"),
    ("incremental", ("points", 2, "speedup"),
     "incremental.points[2].speedup: expected number, got str"),
    ("incremental", ("gate", "passed"),
     "incremental.gate.passed: expected boolean, got str"),
    ("incremental", ("equivalence", "identical"),
     "incremental.equivalence.identical: expected boolean, got str"),
    ("service", ("points", 2, "peak_in_flight"),
     "service.points[2].peak_in_flight: expected integer, got str"),
    ("service", ("gate", "passed"),
     "service.gate.passed: expected boolean, got str"),
    ("service", ("equivalence", "workers"),
     "service.equivalence.workers: expected integer, got str"),
    ("snapshot", ("points", 3, "delta_bytes"),
     "snapshot.points[3].delta_bytes: expected integer, got str"),
    ("snapshot", ("gate", "bytes_reduction"),
     "snapshot.gate.bytes_reduction: expected number, got str"),
    ("snapshot", ("equivalence", "identical"),
     "snapshot.equivalence.identical: expected boolean, got str"),
    ("analysis", ("profiles", 0, "holds"),
     "analysis.profiles[0].holds: expected boolean, got str"),
    ("analysis", ("profiles", 0, "verdicts", 0, "holds"),
     "analysis.profiles[0].verdicts[0].holds: expected boolean, got str"),
    ("analysis", ("lint", "files_scanned"),
     "analysis.lint.files_scanned: expected integer, got str"),
    ("analysis", ("lint", "violations", 0, "line"),
     "analysis.lint.violations[0].line: expected integer, got str"),
    ("analysis", ("lint", "waived", 0, "line"),
     "analysis.lint.waived[0].line: expected integer, got str"),
    ("analysis", ("taint", "clean"),
     "analysis.taint.clean: expected boolean, got str"),
    ("analysis", ("taint", "violations", 0, "line"),
     "analysis.taint.violations[0].line: expected integer, got str"),
    ("analysis", ("taint", "waived", 0, "line"),
     "analysis.taint.waived[0].line: expected integer, got str"),
]


@pytest.mark.parametrize("name", sorted(VALIDATORS))
def test_uncorrupted_report_validates(name):
    assert VALIDATORS[name](artifact(name)) == []


@pytest.mark.parametrize(
    "name, path, expected", CORRUPTIONS,
    ids=[f"{name}:{'.'.join(map(str, path))}"
         for name, path, _ in CORRUPTIONS])
def test_corrupted_block_is_rejected_by_path(name, path, expected):
    report = copy.deepcopy(artifact(name))
    *parents, leaf = path
    block = report
    for key in parents:
        block = block[key]
    assert leaf in block, f"{name}: no field {path} to corrupt"
    block[leaf] = "corrupt"
    assert expected in VALIDATORS[name](report)


def test_every_checked_in_artifact_is_covered():
    names = {path.name[len("BENCH_"):-len(".json")]
             for path in REPO.glob("BENCH_*.json")}
    assert names <= {name for name, _, _ in CORRUPTIONS}
