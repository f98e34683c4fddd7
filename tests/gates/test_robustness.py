"""Robustness layer gates.

A seeded end-to-end run over a faulty channel (Bernoulli loss composed
with latency jitter and duplication), attested under a
:class:`~repro.core.resilience.RetryPolicy`:

1. **Success rate** -- with 20 % loss and a 5-attempt retry budget the
   run still verifies at least five of its six rounds.
2. **Telemetry invariants** -- the drop/duplicate/timeout/retry counters
   are present and agree with the channel's own accounting, sends are
   conserved, and the exported trace and registry validate.
3. **Determinism** -- a second run with the same seed produces a
   byte-identical transcript, trace and registry dump.
4. **Pay-as-you-go** -- a run with *no* fault model records zero
   robustness counters.
"""

import pytest

from repro.core import build_session
from repro.core.resilience import RetryPolicy
from repro.crypto.rng import DeterministicRng
from repro.mcu import DeviceConfig
from repro.net.faults import (BernoulliLoss, Duplicator, FaultPipeline,
                              LatencyJitter)
from repro.obs.schema import validate_jsonl_trace, validate_registry_dump
from repro.obs.telemetry import Telemetry

LOSS = 0.2
ROUNDS = 6
SEED = "robustness-smoke"
MIN_OK = ROUNDS - 1


def run_campaign(*, loss: float, rounds: int, seed: str) -> dict:
    """One seeded lossy campaign; returns everything the gates inspect."""
    adversary = None
    if loss > 0:
        adversary = FaultPipeline(
            BernoulliLoss(loss, seed=f"{seed}-loss"),
            LatencyJitter(0.02, seed=f"{seed}-jitter"),
            Duplicator(0.25, duplicate_delay_seconds=0.1,
                       seed=f"{seed}-dup"))
    telemetry = Telemetry()
    session = build_session(
        device_config=DeviceConfig(ram_size=8 * 1024, flash_size=16 * 1024,
                                   app_size=2 * 1024),
        adversary=adversary, telemetry=telemetry, seed=seed)
    session.learn_reference_state()
    policy = RetryPolicy(attempt_timeout_seconds=2.0, max_retries=4,
                         base_backoff_seconds=0.25, backoff_factor=2.0,
                         jitter_fraction=0.1)
    backoff_rng = DeterministicRng(f"{seed}-backoff")
    ok = retries = timeouts = 0
    for _ in range(rounds):
        outcome = session.attest_resilient(policy, rng=backoff_rng)
        ok += 1 if outcome.trusted else 0
        retries += outcome.retries
        timeouts += outcome.timeouts
        session.sim.run(until=session.sim.now + 15.0)
    return {
        "ok": ok,
        "rounds": rounds,
        "retries": retries,
        "timeouts": timeouts,
        "channel": session.channel,
        "transcript": [(e.time, e.sender, e.receiver, e.outcome,
                        type(e.message).__name__)
                       for e in session.channel.transcript],
        "trace_jsonl": telemetry.trace.to_jsonl(),
        "registry": telemetry.registry.dump(),
    }


def counter_value(registry: dict, name: str) -> float:
    return sum(metric["value"] for metric in registry["metrics"]
               if metric["kind"] == "counter" and metric["name"] == name)


def success_failures(campaign: dict, min_ok: int) -> list[str]:
    if campaign["ok"] >= min_ok:
        return []
    return [f"success rate: {campaign['ok']}/{campaign['rounds']} verified "
            f"rounds, need >= {min_ok}"]


@pytest.fixture(scope="module")
def lossy():
    return run_campaign(loss=LOSS, rounds=ROUNDS, seed=SEED)


def test_lossy_campaign_verifies_within_its_retry_budget(lossy):
    failures = success_failures(lossy, MIN_OK)
    assert not failures, failures[0]


def test_success_gate_fails_an_impossible_demand(lossy):
    """The success-rate check gates: demanding more verified rounds than
    the campaign ran is reported."""
    assert success_failures(lossy, ROUNDS + 1) == [
        f"success rate: {lossy['ok']}/{ROUNDS} verified rounds, need >= "
        f"{ROUNDS + 1}"]


def test_telemetry_agrees_with_channel_accounting(lossy):
    channel = lossy["channel"]
    registry = lossy["registry"]
    errors = (validate_registry_dump(registry)
              + validate_jsonl_trace(lossy["trace_jsonl"]))
    assert not errors, "\n".join(f"schema: {e}" for e in errors)
    expectations = {
        "channel.dropped": channel.dropped,
        "channel.duplicated": channel.duplicated,
        "channel.delivered": channel.delivered,
        "session.timeouts": lossy["timeouts"],
        "session.retries": lossy["retries"],
        "verifier.timeouts": lossy["timeouts"],
    }
    for name, expected in expectations.items():
        actual = counter_value(registry, name)
        assert actual == expected, (f"counter {name}: registry says "
                                    f"{actual}, ground truth {expected}")
    assert channel.dropped, \
        "lossy run recorded no drops -- fault model not installed?"
    assert channel.duplicated, "lossy run recorded no duplicates"
    assert lossy["timeouts"] and lossy["retries"], \
        "lossy run recorded no timeouts/retries"
    # Every send is forwarded (eventually delivered) or dropped;
    # duplicates add deliveries without sends.
    sends = channel.transcript.filter(
        lambda e: e.outcome in ("forwarded", "delayed", "dropped"))
    assert len(sends) == (channel.delivered - channel.duplicated
                          + channel.dropped + channel.sim.pending), (
        f"conservation: {len(sends)} sends vs {channel.delivered} "
        f"delivered ({channel.duplicated} dup), {channel.dropped} "
        f"dropped, {channel.sim.pending} pending")


def test_same_seed_replays_byte_identically(lossy):
    replay = run_campaign(loss=LOSS, rounds=ROUNDS, seed=SEED)
    for key in ("transcript", "trace_jsonl", "registry"):
        assert lossy[key] == replay[key], (f"determinism: {key} differs "
                                           f"between two runs of seed "
                                           f"{SEED!r}")


def test_clean_run_records_no_robustness_counters():
    clean = run_campaign(loss=0.0, rounds=2, seed=SEED + "-clean")
    for name in ("channel.dropped", "channel.duplicated",
                 "session.timeouts", "session.retries",
                 "session.backoff_seconds"):
        value = counter_value(clean["registry"], name)
        assert value == 0, f"pay-as-you-go: clean run has {name}={value}"
    assert clean["ok"] == 2, f"clean run verified {clean['ok']}/2 rounds"
