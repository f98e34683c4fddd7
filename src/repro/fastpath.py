"""Host-side fast-path engine selection.

The simulator separates two clocks that must never mix:

* **simulated time** -- the cycle costs charged to the modelled MCU
  (Table 1 calibration; see :mod:`repro.crypto.costmodel`).  These are
  the paper's numbers and every experiment depends on them;
* **host time** -- how long the Python process takes to re-execute a
  measurement.  Host time is pure overhead: fleet sweeps and flood
  scenarios re-run the 512 KB HMAC thousands of times.

This module selects how the *host* executes measurement-heavy work.
Two engines exist, producing bit-identical digests and identical
simulated accounting (``blocks_processed``, consumed cycles, telemetry):

``naive``
    The seed implementation: one from-scratch compression call per
    64-byte block, per-chunk copied bus reads.  Kept as the reference
    the fast path is continuously checked against, and as the baseline
    ``benchmarks/bench_wallclock.py`` reports speedups over.
``accel``
    The fast path and the default: bulk SHA-1 compression delegated to
    :mod:`hashlib` (same FIPS 180-4 function, C speed), zero-copy
    ``memoryview`` streaming, HMAC pad-midstate caching and bulk memory
    walks.  The from-scratch compression function remains the
    reference implementation, exercised by the ``naive`` engine and
    the cross-check tests.

Selection: the ``REPRO_FAST_PATH`` environment variable at import time
(``0``/``off``/``naive``, ``2``/``on``/``accel``; anything else selects
``accel``), or :func:`set_engine` / :func:`forced` at runtime.  See
``docs/performance.md``.
"""

from __future__ import annotations

import contextlib
import os

__all__ = ["ENGINES", "engine", "set_engine", "is_fast", "forced"]

ENGINES = ("naive", "accel")

_ENV_VAR = "REPRO_FAST_PATH"

_ALIASES = {
    "0": "naive", "off": "naive", "false": "naive", "no": "naive",
    "naive": "naive",
    "2": "accel", "on": "accel", "true": "accel", "yes": "accel",
    "accel": "accel", "": "accel",
}


def _from_env() -> str:
    raw = os.environ.get(_ENV_VAR, "accel").strip().lower()
    return _ALIASES.get(raw, "accel")


_engine = _from_env()


def engine() -> str:
    """The currently selected host execution engine."""
    return _engine


def set_engine(name: str) -> str:
    """Select the host engine; returns the previous selection.

    Only affects objects created afterwards -- in-flight hash objects
    keep the engine they were constructed with, so a mid-stream switch
    can never corrupt a digest.
    """
    if name not in ENGINES:
        raise ValueError(f"unknown fast-path engine {name!r}; "
                         f"expected one of {ENGINES}")
    global _engine
    previous = _engine
    _engine = name
    return previous


def is_fast() -> bool:
    """Whether the fast path (``accel``) is active."""
    return _engine != "naive"


@contextlib.contextmanager
def forced(name: str):
    """Context manager pinning the engine for a block (tests, benches)."""
    previous = set_engine(name)
    try:
        yield
    finally:
        set_engine(previous)

