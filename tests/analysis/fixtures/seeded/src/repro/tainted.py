"""Deliberately tainted module for the lint failure-mode gate.

This file lives under ``tests/analysis/fixtures/seeded`` and is linted
with that directory as the scan root, which puts it on the simulated
path (``src/repro/``) where every determinism rule applies.  Each
construct below must be flagged; ``tests/analysis/test_lint.py`` fails
if any goes undetected.  The real repo-root lint does *not* flag this file
because, relative to the repo, it is test data, not simulator source.
"""

import random
import time


def sample_jitter() -> float:
    # DET002 (stdlib random) and DET001 (host clock) in one expression.
    return random.random() * time.time()


def tainted_cycles(n: int) -> int:
    # FLT001 three ways: float(), true division, float literal.
    return int(float(n) / 2.0)


def emit(telemetry) -> None:
    # TEL001: neither name exists in the exported schema.
    telemetry.count("prover.bogus_metric", 1)
    telemetry.event("bogus-kind", 0.0)
