"""Schema validation of the ``BENCH_wallclock.json`` perf report."""

import copy

import pytest

from repro.obs import WALLCLOCK_SCHEMA, validate_wallclock_report
from repro.perf import REPORT_SCHEMA_ID


def minimal_report() -> dict:
    """A hand-built report matching what ``build_report`` emits."""
    entry = {"ram_kb": 16, "writable_kb": 24, "engine": "accel",
             "seconds": 0.001, "mb_per_s": 24.0, "digest": "ab" * 20}
    naive = dict(entry, engine="naive", seconds=0.5, mb_per_s=0.05)
    return {
        "schema": REPORT_SCHEMA_ID,
        "engine_default": "accel",
        "host": {"python": "3.11.0", "implementation": "CPython",
                 "machine": "x86_64"},
        "sweep": [entry],
        "naive_baseline": naive,
        "speedup": {"ram_kb": 16, "naive_seconds": 0.5,
                    "fast_seconds": 0.001, "factor": 500.0},
        "hmac_cache": {"rounds": 500, "cold_seconds": 0.01,
                       "warm_seconds": 0.002, "speedup": 5.0},
        "equivalence": {"ram_kb": 16, "rounds": 2, "identical": True,
                        "engines": {"accel": {"identical": True,
                                              "mismatched_fields": []}}},
    }


def test_minimal_report_validates():
    assert validate_wallclock_report(minimal_report()) == []


def test_harness_built_report_validates():
    from repro.perf import build_report

    report = build_report(sweep_kb=(8,), naive_kb=8, equivalence_ram_kb=8)
    assert validate_wallclock_report(report) == []


def test_schema_is_exported():
    assert WALLCLOCK_SCHEMA["properties"]["schema"]["enum"] \
        == [REPORT_SCHEMA_ID]


@pytest.mark.parametrize("corrupt, fragment", [
    (lambda r: r.pop("speedup"), "missing required key 'speedup'"),
    (lambda r: r["speedup"].pop("factor"), "missing required key 'factor'"),
    (lambda r: r.__setitem__("schema", "other/v9"), "not in allowed values"),
    (lambda r: r["sweep"][0].__setitem__("engine", "turbo"),
     "not in allowed values"),
    (lambda r: r["sweep"][0].__setitem__("seconds", "fast"),
     "expected number"),
    (lambda r: r["sweep"][0].__setitem__("ram_kb", 0), "below minimum"),
    (lambda r: r["naive_baseline"].__setitem__("engine", "accel"),
     "naive_baseline.engine"),
    (lambda r: r["equivalence"].__setitem__("identical", "yes"),
     "expected boolean"),
    (lambda r: r.__setitem__("sweep", "oops"), "expected array"),
])
def test_corrupted_reports_are_rejected(corrupt, fragment):
    report = copy.deepcopy(minimal_report())
    corrupt(report)
    errors = validate_wallclock_report(report)
    assert errors, "corruption not detected"
    assert any(fragment in error for error in errors), errors


def test_non_dict_rejected():
    assert validate_wallclock_report([]) \
        == ["wallclock: expected object, got list"]
