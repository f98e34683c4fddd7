"""Discrete-event simulation kernel for protocol scenarios.

A minimal but complete event scheduler: events are (time, sequence,
callback) triples in a heap; :meth:`Simulation.run` pops them in
timestamp order.  Entities (verifier, prover node, adversary) schedule
future work -- message deliveries, replay firings, request floods -- and
the kernel keeps one coherent notion of wall-clock time that prover
devices synchronise their cycle counters against.

Determinism: ties break on insertion order, and all randomness comes from
:class:`repro.crypto.rng.DeterministicRng`, so a scenario with the same
seed replays identically.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from ..errors import SimulationError

__all__ = ["Simulation"]


class Simulation:
    """Event-driven simulation clock.

    >>> sim = Simulation()
    >>> fired = []
    >>> sim.schedule(2.0, lambda: fired.append("b"))
    >>> sim.schedule(1.0, lambda: fired.append("a"))
    >>> sim.run()
    >>> fired
    ['a', 'b']
    """

    def __init__(self):
        self.now = 0.0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self._running = False
        self.events_processed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at ``now + delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        heapq.heappush(self._queue,
                       (self.now + delay, next(self._sequence), callback))

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute simulated ``time``."""
        self.schedule(time - self.now, callback)

    @property
    def pending(self) -> int:
        return len(self._queue)

    def discard_pending(self) -> None:
        """Drop every scheduled event without running it."""
        self._queue.clear()

    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        if not self._queue:
            return False
        time, _seq, callback = heapq.heappop(self._queue)
        if time < self.now:
            raise SimulationError("event queue went backwards in time")
        self.now = time
        self.events_processed += 1
        callback()
        return True

    def run(self, until: float | None = None, max_events: int = 1_000_000) -> None:
        """Drain the event queue, optionally stopping at time ``until``.

        ``max_events`` guards against runaway self-scheduling loops.
        """
        if self._running:
            raise SimulationError("run() re-entered from within an event")
        self._running = True
        try:
            processed = 0
            while self._queue:
                next_time = self._queue[0][0]
                if until is not None and next_time > until:
                    break
                self.step()
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; runaway scenario?")
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
