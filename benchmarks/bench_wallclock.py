"""Host wall-clock trajectory of the measurement engine.

Unlike every other benchmark in this directory, the numbers here are
*host* seconds, not simulated milliseconds: the paper's 754 ms for a
512 KB measurement (Table 1 / Section 3.1) comes from the cycle-cost
model and is asserted elsewhere.  This file tracks how fast the *host*
re-executes that measurement -- the quantity that bounds experiment
turnaround -- and proves the fast engines buy that speed without
touching a single simulated number.

Artefacts:

* ``BENCH_wallclock.json`` at the repository root (schema
  ``repro.perf.wallclock/v1``, validated by ``tests/gates/``), which
  holds every host figure: seconds, MB/s and speedup factors;
* ``benchmarks/results/wallclock_trajectory.txt``, the host-independent
  rendering: the engines measured and the gate verdicts, so the file
  regenerates byte-identically on any host that passes.

Acceptance gates asserted here:

* >= 3x host speedup of the default engine over the naive reference on
  the 512 KB measurement;
* the paired fast/naive equivalence block is clean (identical digests,
  response MACs, consumed cycles, stats, telemetry).
"""

from repro import fastpath
from repro.core.analysis import render_table
from repro.obs.schema import validate_wallclock_report
from repro.perf.wallclock import build_report

from _report import run_once, write_json_artifact, write_report

#: The paper's headline measurement size (512 KB RAM, Section 3.1).
HEADLINE_KB = 512


def test_report_wallclock_trajectory(benchmark):
    run_once(benchmark, lambda: None)
    report = build_report(naive_kb=HEADLINE_KB)

    assert not validate_wallclock_report(report)

    rows = [["ram (KB)", "engine", "verdict"]]
    for entry in [*report["sweep"], report["naive_baseline"]]:
        rows.append([str(entry["ram_kb"]), entry["engine"], "measured"])
    speedup = report["speedup"]
    equivalence = report["equivalence"]
    rows.append(["", "", ""])
    rows.append([f"speedup @{speedup['ram_kb']}KB",
                 f"{report['engine_default']} vs naive >= 3x",
                 "pass" if speedup["factor"] >= 3.0 else "FAIL"])
    rows.append(["fast/naive equivalence", "",
                 "clean" if equivalence["identical"] else "BROKEN"])
    write_report("wallclock_trajectory",
                 render_table(rows, title="Host wall-clock trajectory "
                                          "(timings in "
                                          "BENCH_wallclock.json)"))
    write_json_artifact("wallclock", report)

    assert report["engine_default"] == fastpath.engine()
    assert equivalence["identical"], (
        "fast engines changed observable outputs: "
        f"{equivalence['engines']}")
    assert speedup["factor"] >= 3.0, (
        f"host speedup regressed below 3x at {HEADLINE_KB} KB: "
        f"{speedup['factor']:.2f}x")
