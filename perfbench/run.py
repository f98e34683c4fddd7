"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet-ota --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` records spans
around every call into the program, writes them to
``perfbench/out/spans-<workload>-<seed>.json`` and prints the per-layer
metrics instead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries the run's ``sim_digest`` and sample counts.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The traced run fails its attribution gate below this share.
MIN_COVERAGE = 0.95


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fleet-ota", "fleet-churn", "service-mix"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    tracer = Tracer(enabled=bool(args.trace))
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        with workloads.GcClock() as gc_clock:
            run = workload(args.seed, args.seconds, tracer)
        metrics = workloads.per_layer(run, gc_clock.pause_s, gc_clock.gen2)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-{args.seed}.json")
        covered = metrics["trace.coverage_min"][0] >= MIN_COVERAGE
        run.ledger.check("child spans cover each round", True, covered)
    else:
        run = workload(args.seed, args.seconds, tracer)
        metrics = run.end_to_end()

    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "sim_digest": run.digest.hexdigest(),
              **run.details()}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": run.ledger.failed == 0,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
