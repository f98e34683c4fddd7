"""Deliberately cyclic module for the OWN001 failure-mode gate.

Linted with ``tests/analysis/fixtures/seeded`` as the scan root, so it
sits on the simulated path.  Each hook below holds its owner and is
handed to a part of that owner; ``tests/analysis/test_lint.py`` fails if
any goes undetected.
"""


class Part:
    def __init__(self, on_event=None):
        self.on_event = on_event
        self.listeners = []

    def add_listener(self, listener) -> None:
        self.listeners.append(listener)


class Owner:
    def __init__(self):
        # OWN001: a bound method of self registered on a part of self.
        self.part = Part()
        self.part.add_listener(self._tick)
        # OWN001: a bound method of self passed to a stored constructor.
        self.other = Part(on_event=self._tick)

    def watch(self) -> None:
        def on_event(value):
            self.seen = value

        # OWN001: a closure over self assigned to a part's on_* hook.
        self.part.on_event = on_event

    def _tick(self, value) -> None:
        self.seen = value
