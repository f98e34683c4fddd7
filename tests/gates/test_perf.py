"""Fast measurement engine gates.

1. **Equivalence** -- a seeded protocol scenario (16 KB, two rounds) run
   under the naive reference and every fast engine agrees byte for byte
   on response MACs, digests, cycles, prover stats and the registry
   dump; mapped to ``tests/core/test_fastpath_equivalence.py::
   test_perf_harness_equivalence_check_is_clean``.
2. **Report validity** -- ``BENCH_wallclock.json`` matches
   :data:`repro.obs.schema.WALLCLOCK_SCHEMA`; mapped to
   ``tests/gates/test_bench_schema.py::
   test_every_checked_in_artifact_validates``.
3. **Report cleanliness** -- the report's own recorded equivalence block
   is clean, and its naive and fast digests agree at the naive
   baseline's size.
"""

import json

from tests.conftest import REPO


def test_checked_in_report_records_clean_equivalence():
    report = json.loads((REPO / "BENCH_wallclock.json").read_text())
    assert report["equivalence"]["identical"] is True, \
        "report records a broken fast/naive equivalence block"
    naive = report["naive_baseline"]
    # A sweep that skips the naive baseline's size has nothing to compare.
    fast = next((entry for entry in report["sweep"]
                 if entry["ram_kb"] == naive["ram_kb"]), naive)
    assert fast["digest"] == naive["digest"], (
        f"report digests diverge at {naive['ram_kb']} KB: naive "
        f"{naive['digest'][:16]}.. vs fast {fast['digest'][:16]}..")
