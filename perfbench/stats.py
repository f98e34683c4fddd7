"""The benchmark's arithmetic: percentiles, ground-truth accounting and
the simulated-behaviour digest."""

from __future__ import annotations

import hashlib
import json
import math
import statistics

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10
#: Latencies are reported at this quantile of a run's samples: the
#: slower host speed, which nearly every run visits.
SLOW_QUARTILE = 0.75


def tail(samples: list[float], cap: float = 99.0) -> tuple[float, float, int]:
    """The highest percentile (at most ``cap``) that leaves at least
    ``TAIL_MIN_BEYOND`` samples strictly beyond its rank.

    Returns ``(percentile, value, sample_count)``.  Needs more than
    ``TAIL_MIN_BEYOND`` samples.
    """
    n = len(samples)
    if n <= TAIL_MIN_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_MIN_BEYOND} "
                         f"samples, got {n}")
    # Nearest rank r leaves n - r samples beyond it, so r <= n - 10.
    # Rounding before ceil keeps exact products such as 99 * 6000 / 100
    # from landing one rank high.
    rank = min(math.ceil(round(cap * n / 100.0, 9)), n - TAIL_MIN_BEYOND)
    return 100.0 * rank / n, sorted(samples)[rank - 1], n


def batch_tail(batches: list[list[float]]) -> tuple[float, float, int]:
    """The mean over ``batches`` of each batch's :func:`tail`.

    Returns ``(lowest percentile used, mean tail, total sample_count)``.
    Every batch needs more than ``TAIL_MIN_BEYOND`` samples.
    """
    tails = [tail(batch) for batch in batches]
    return (min(percentile for percentile, _, _ in tails),
            statistics.fmean(value for _, value, _ in tails),
            sum(count for _, _, count in tails))


def quantile(samples: list[float], q: float) -> float:
    """The nearest-rank ``q`` quantile (``0 < q <= 1``)."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(round(q * len(ordered), 9))) - 1]


class Ledger:
    """Counts operations against the outcome the benchmark planted.

    An operation fails only when its outcome contradicts the planted
    ground truth; the first few contradictions are kept for the report.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, what: str, expected, actual) -> bool:
        """Record one operation."""
        wrong = [] if expected == actual else [
            f"expected {expected!r}, got {actual!r}"]
        return self.tally(what, 1, wrong)

    def tally(self, what: str, attempted: int, wrong: list) -> bool:
        """Record ``attempted`` operations, of which those described in
        ``wrong`` contradicted the planted outcome."""
        self.attempted += attempted
        self.failed += len(wrong)
        for item in wrong[:8 - len(self.failures)]:
            self.failures.append(f"{what}: {item}")
        return not wrong

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted


class SimDigest:
    """SHA-1 over the simulated observables, fed in run order.

    Only simulated quantities go in (verdicts, reports, cycles, energy,
    prover counters), never host times or checkpoint document ids, so a
    change of checkpoint format or host speed leaves it unchanged.
    """

    def __init__(self):
        self._hash = hashlib.sha1()

    def add(self, value) -> None:
        self._hash.update(json.dumps(value, sort_keys=True,
                                     separators=(",", ":")).encode())
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
