"""Composable channel fault models: lossy links as channel adversaries.

Section 3.2 grants the external adversary Dolev-Yao powers -- drop,
insert, delay -- but a *benign* lossy radio link exercises the very same
powers without malice, and the paper's availability argument (Section
3.1: every received request costs the prover a full measurement) applies
identically to both.  This module therefore models faults as
:class:`~repro.net.channel.ChannelAdversary` implementations, so the
adversarial and the merely-unreliable share one mechanism and one
transcript/telemetry surface.

Models compose via :class:`FaultPipeline` (drop wins, delays add,
duplication merges) and every stochastic decision flows through a
:class:`~repro.crypto.rng.DeterministicRng` substream derived from the
model's seed -- the determinism contract (see ``docs/robustness.md``):
same seed, same message sequence, byte-identical fault schedule.  Each
model draws from its own substream, so composing an extra model never
perturbs the decisions of the others.
"""

from __future__ import annotations

from ..crypto.rng import DeterministicRng
from ..errors import ConfigurationError
from .channel import Verdict

__all__ = ["FaultModel", "BernoulliLoss", "GilbertElliottLoss",
           "LatencyJitter", "Duplicator", "Reorderer", "FaultPipeline",
           "lossy_link"]


def _check_probability(value: float, what: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{what} must be in [0, 1], got {value!r}")
    return value


class FaultModel:
    """Base class: a deterministic, seedable channel fault.

    Subclasses implement the :class:`~repro.net.channel.ChannelAdversary`
    protocol (``on_message``) and draw randomness only from substreams of
    their ``seed``.
    """

    def __init__(self, seed: str, stream: str):
        self._rng = DeterministicRng(seed).substream(stream)

    def on_message(self, message, sender: str, receiver: str,
                   time: float) -> Verdict:
        raise NotImplementedError


class BernoulliLoss(FaultModel):
    """Independent per-message loss with probability ``loss_rate``."""

    def __init__(self, loss_rate: float, *, seed: str = "faults"):
        super().__init__(seed, "bernoulli-loss")
        self.loss_rate = _check_probability(loss_rate, "loss rate")

    def on_message(self, message, sender, receiver, time) -> Verdict:
        if self._rng.random() < self.loss_rate:
            return Verdict("drop")
        return Verdict("forward")


class GilbertElliottLoss(FaultModel):
    """Two-state (good/burst) Markov loss: the classic bursty-link model.

    Each message first advances the channel state (good -> burst with
    ``p_enter_burst``, burst -> good with ``p_exit_burst``), then drops
    with the state's loss probability.  Long bursts (small
    ``p_exit_burst``) model fading/interference windows that defeat
    naive immediate retries -- exactly what exponential backoff exists
    to ride out.
    """

    def __init__(self, *, p_enter_burst: float = 0.05,
                 p_exit_burst: float = 0.25, loss_good: float = 0.0,
                 loss_burst: float = 1.0, seed: str = "faults"):
        super().__init__(seed, "gilbert-elliott")
        self.p_enter_burst = _check_probability(p_enter_burst, "p_enter_burst")
        self.p_exit_burst = _check_probability(p_exit_burst, "p_exit_burst")
        self.loss_good = _check_probability(loss_good, "loss_good")
        self.loss_burst = _check_probability(loss_burst, "loss_burst")
        self.in_burst = False

    def on_message(self, message, sender, receiver, time) -> Verdict:
        if self.in_burst:
            if self._rng.random() < self.p_exit_burst:
                self.in_burst = False
        else:
            if self._rng.random() < self.p_enter_burst:
                self.in_burst = True
        loss = self.loss_burst if self.in_burst else self.loss_good
        if loss > 0.0 and self._rng.random() < loss:
            return Verdict("drop")
        return Verdict("forward")


class LatencyJitter(FaultModel):
    """Adds uniform extra delay in ``[0, max_jitter_seconds)``."""

    def __init__(self, max_jitter_seconds: float, *, seed: str = "faults"):
        super().__init__(seed, "latency-jitter")
        if max_jitter_seconds < 0:
            raise ConfigurationError("jitter cannot be negative")
        self.max_jitter_seconds = max_jitter_seconds

    def on_message(self, message, sender, receiver, time) -> Verdict:
        if self.max_jitter_seconds == 0.0:
            return Verdict("forward")
        return Verdict("forward",
                       extra_delay=self._rng.uniform(
                           0.0, self.max_jitter_seconds))


class Duplicator(FaultModel):
    """Duplicates messages with probability ``duplicate_rate``.

    The copy is delivered ``duplicate_delay_seconds`` after the original
    (0 = back-to-back, the classic retransmit-storm shape; larger values
    model a delayed duplicate, which against a freshness policy is
    indistinguishable from a replay and must be rejected).
    """

    def __init__(self, duplicate_rate: float, *,
                 duplicate_delay_seconds: float = 0.0, seed: str = "faults"):
        super().__init__(seed, "duplicator")
        self.duplicate_rate = _check_probability(duplicate_rate,
                                                 "duplicate rate")
        if duplicate_delay_seconds < 0:
            raise ConfigurationError("duplicate delay cannot be negative")
        self.duplicate_delay_seconds = duplicate_delay_seconds

    def on_message(self, message, sender, receiver, time) -> Verdict:
        if self._rng.random() < self.duplicate_rate:
            return Verdict("duplicate",
                           duplicate_delay=self.duplicate_delay_seconds)
        return Verdict("forward")


class Reorderer(FaultModel):
    """Reorders by holding selected messages for ``hold_seconds``.

    A held message is overtaken by any message sent within the hold
    window -- reordering expressed as targeted delay, which keeps the
    discrete-event delivery machinery (and its determinism) untouched.
    """

    def __init__(self, reorder_rate: float, *, hold_seconds: float = 0.05,
                 seed: str = "faults"):
        super().__init__(seed, "reorderer")
        self.reorder_rate = _check_probability(reorder_rate, "reorder rate")
        if hold_seconds < 0:
            raise ConfigurationError("hold window cannot be negative")
        self.hold_seconds = hold_seconds

    def on_message(self, message, sender, receiver, time) -> Verdict:
        if self._rng.random() < self.reorder_rate:
            return Verdict("forward", extra_delay=self.hold_seconds)
        return Verdict("forward")


class FaultPipeline:
    """Composes fault models into one channel adversary.

    Every model is consulted for every message (so each model's random
    stream advances identically regardless of what the others decide --
    composition order never changes an individual model's schedule), and
    the verdicts merge:

    * any ``drop`` wins;
    * ``extra_delay`` values add;
    * any ``duplicate`` makes the merged verdict a duplicate, with the
      largest requested duplicate delay.
    """

    def __init__(self, *models):
        if not models:
            raise ConfigurationError("fault pipeline needs at least one model")
        self.models = tuple(models)

    def on_message(self, message, sender, receiver, time) -> Verdict:
        dropped = False
        duplicate = False
        extra_delay = 0.0
        duplicate_delay = 0.0
        for model in self.models:
            verdict = model.on_message(message, sender, receiver, time)
            if verdict.action == "drop":
                dropped = True
            elif verdict.action == "duplicate":
                duplicate = True
                duplicate_delay = max(duplicate_delay,
                                      verdict.duplicate_delay)
            extra_delay += verdict.extra_delay
        if dropped:
            return Verdict("drop")
        if duplicate:
            return Verdict("duplicate", extra_delay=extra_delay,
                           duplicate_delay=duplicate_delay)
        return Verdict("forward", extra_delay=extra_delay)


def lossy_link(index: int, device_id: str) -> FaultPipeline:
    """Per-member fault pipeline (20 % loss plus latency jitter) keyed on
    device identity, for fleet ``adversary_factory`` hooks.

    Module-level (picklable) so fleet specs carrying it survive the trip
    into shard worker processes; seeded per device so the fault schedule
    a member sees is identical whether it lives in a shard or in one big
    swarm.
    """
    return FaultPipeline(
        BernoulliLoss(0.2, seed=f"fleet-fault:{device_id}"),
        LatencyJitter(0.01, seed=f"fleet-jitter:{device_id}"))
