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
  ``repro.perf.wallclock/v1``, validated by ``tests/gates/``);
* ``benchmarks/results/wallclock_trajectory.txt``, the human-readable
  rendering.

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

    rows = [["ram (KB)", "engine", "seconds", "MB/s"]]
    for entry in report["sweep"]:
        rows.append([str(entry["ram_kb"]), entry["engine"],
                     f"{entry['seconds']:.4f}", f"{entry['mb_per_s']:.1f}"])
    naive = report["naive_baseline"]
    rows.append([str(naive["ram_kb"]), naive["engine"],
                 f"{naive['seconds']:.4f}", f"{naive['mb_per_s']:.1f}"])
    speedup = report["speedup"]
    cache = report["hmac_cache"]
    equivalence = report["equivalence"]
    rows.append(["", "", "", ""])
    rows.append([f"speedup @{speedup['ram_kb']}KB",
                 f"{report['engine_default']} vs naive",
                 f"{speedup['factor']:.1f}x", ""])
    rows.append(["hmac midstate cache", "warm vs cold",
                 f"{cache['speedup']:.2f}x", ""])
    rows.append(["fast/naive equivalence", "",
                 "clean" if equivalence["identical"] else "BROKEN", ""])
    write_report("wallclock_trajectory",
                 render_table(rows, title="Host wall-clock trajectory "
                                          "(NOT simulated time)"))
    write_json_artifact("wallclock", report)

    assert report["engine_default"] == fastpath.engine()
    assert equivalence["identical"], (
        "fast engines changed observable outputs: "
        f"{equivalence['engines']}")
    assert speedup["factor"] >= 3.0, (
        f"host speedup regressed below 3x at {HEADLINE_KB} KB: "
        f"{speedup['factor']:.2f}x")
