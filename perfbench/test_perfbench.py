"""Self-tests for the benchmark's own arithmetic and bookkeeping.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import pathlib
import random

import pytest

import gen
import spans
import stats
import workloads
from repro import DeviceConfig
from repro.services.swarm import Swarm

ROOT = pathlib.Path(__file__).resolve().parent.parent

TINY_OTA = workloads.FleetShape(
    members=4, ram_kb=16, flash_kb=16, rounds=4, shared=True, dirty=0.25,
    steady_sweeps=3, restore_every=2, plant_rounds=2)
TINY_CHURN = workloads.FleetShape(
    members=3, ram_kb=16, flash_kb=16, rounds=2, shared=False, dirty=0.25,
    steady_sweeps=1, restore_every=2, plant_rounds=0)
TINY_SERVICE = workloads.ServiceShape(
    members=16, ram_kb=8, flash_kb=16, tenants=4, backends=2, waves=2,
    hostile_factor=4, flood_every=8, forged=2, replays=1, ckpt_every=1,
    restore_every=2)
REFERENCE = workloads.REFERENCE_SECONDS


def _run(shape, seed, trace=False):
    runner = (workloads.run_service
              if isinstance(shape, workloads.ServiceShape)
              else workloads.run_fleet)
    return runner(shape, seed, REFERENCE, spans.Tracer(enabled=trace))


# -- percentile rule ----------------------------------------------------------

@pytest.mark.parametrize("n", [11, 12, 20, 64, 100, 999, 1000, 1001, 6984])
def test_tail_leaves_ten_samples_beyond(n):
    samples = random.Random(n).sample(range(10 * n), n)
    percentile, value, count = stats.tail(samples)
    assert count == n
    rank = round(percentile * n / 100.0)
    assert sorted(samples)[rank - 1] == value
    beyond = sum(1 for x in samples if x > value)
    assert beyond == n - rank >= stats.TAIL_MIN_BEYOND
    # Highest such rank: one more would leave fewer than ten beyond, or
    # the rank is the nearest-rank p99 cap.
    assert beyond == stats.TAIL_MIN_BEYOND or (rank - 1) / n < 0.99 <= rank / n


def test_tail_exact_values():
    samples = list(range(1, 101))
    assert stats.tail(samples) == (90.0, 90, 100)
    many = list(range(1, 6001))
    assert stats.tail(many) == (99.0, 5940, 6000)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail(list(range(10)))


def test_batch_tail_is_mean_of_batch_tails():
    batches = [list(range(1, 101)), list(range(101, 201)),
               list(range(1, 6001))]
    assert stats.batch_tail(batches) == (90.0, (90 + 190 + 5940) / 3, 6200)
    with pytest.raises(ValueError):
        stats.batch_tail([list(range(100)), list(range(10))])


# -- spans --------------------------------------------------------------------

def _span(name, start, end, parent=None, round_id=0):
    return spans.Span(name, start, end, parent, round_id)


def test_self_time_subtracts_union_of_children():
    recorded = [
        _span("round", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),      # overlaps a
        _span("c", 8.0, 12.0, parent=0),     # runs past the parent
        _span("a", 2.0, 3.0, parent=1),      # grandchild, same name as a
    ]
    selfs = spans.self_times(recorded)
    assert selfs["round"] == pytest.approx(10.0 - 7.0)
    # Both "a" spans: 3 s minus its 1 s child, plus the 1 s grandchild.
    assert selfs["a"] == pytest.approx(2.0 + 1.0)
    assert selfs["b"] == pytest.approx(3.0)
    assert selfs["c"] == pytest.approx(4.0)
    assert spans.coverage(recorded, "round") == [pytest.approx(0.7)]


def test_tracer_nests_and_inherits_round():
    tracer = spans.Tracer(enabled=True)
    with tracer.span("round", round_id=7):
        with tracer.span("layer", tag="x"):
            pass
    with tracer.span("setup"):
        pass
    root, child, setup = tracer.spans
    assert (root.parent, child.parent, setup.parent) == (None, 0, None)
    assert (child.round_id, child.tag, setup.round_id) == (7, "x", None)
    assert root.start <= child.start <= child.end <= root.end
    assert spans.coverage(tracer.spans, "round")[0] <= 1.0


def test_disabled_tracer_records_nothing():
    tracer = spans.Tracer(enabled=False)
    with tracer.span("round", round_id=1):
        pass
    assert tracer.spans == []


# -- ground truth -------------------------------------------------------------

def test_ledger_counts_contradictions():
    ledger = stats.Ledger()
    ledger.tally("sweep", 10, [])
    ledger.check("restore", "same", "same")
    assert (ledger.attempted, ledger.failed, ledger.ok_frac) == (11, 0, 1.0)
    ledger.tally("sweep", 4, ["device-001", "device-003"])
    ledger.check("planted member", "untrusted", "trusted")
    assert (ledger.attempted, ledger.failed) == (16, 3)
    assert ledger.ok_frac == pytest.approx(13 / 16)
    assert len(ledger.failures) == 3


def test_wrong_expected_verdict_is_counted():
    """An honest member declared planted must count as one failure."""
    swarm = Swarm(2, device_config=DeviceConfig(
        ram_size=8 * 1024, flash_size=16 * 1024, app_size=2 * 1024),
        auth_scheme="hmac-sha1", master_key=b"k" * 16, incremental=True)
    run = workloads.Run(spans.Tracer(enabled=False))
    workloads._sweep(run, swarm, "steady")
    assert (run.ledger.attempted, run.ledger.failed) == (2, 0)
    workloads._sweep(run, swarm, "steady", planted="device-001")
    assert (run.ledger.attempted, run.ledger.failed) == (4, 1)
    assert "device-001" in run.ledger.failures[0]


# -- generation and determinism -----------------------------------------------

def test_ota_update_is_shared_but_delivered_differently():
    swarm = Swarm(3, device_config=DeviceConfig(
        ram_size=16 * 1024, flash_size=16 * 1024, app_size=2 * 1024))
    windows = [gen.attested_windows(m.session.device) for m in swarm.members]
    plans = gen.ota_update(gen.stream(1, "t"), windows, 0.5)
    for writes in plans:
        workloads._apply(writes)
    images = [[w.region.raw_read(w.start, w.size) for w in member]
              for member in windows]
    assert images[0] == images[1] == images[2]
    orders = [[(offset, len(data)) for _, offset, data in writes]
              for writes in plans]
    assert len({tuple(order) for order in orders}) > 1
    # The first chunk of every member arrives in two fragments.
    assert all(len(order) == len(orders[0]) for order in orders)
    assert len(orders[0]) == 1 + sum(
        len(gen.pick_chunks(random.Random(0), w, 0.5)) for w in windows[0])


def test_schedules_follow_the_seed():
    def schedule(seed):
        rng = gen.stream(seed, "service-mix")
        return (gen.wave_schedule(rng, 64, [1, 5, 9], 4),
                gen.flood_delays(rng, 4, 4.5),
                rng.randbytes(32))
    assert schedule(1) == schedule(1)
    assert schedule(1) != schedule(2)
    assert schedule(gen.DEFAULT_SEED) != schedule(gen.HELD_OUT_SEED)
    targets = schedule(1)[0]
    assert sorted(targets) == sorted(list(range(64)) + [1, 5, 9] * 3)


# Honest member-unique rewrites cost the same simulated cycles whatever
# their bytes, so a churn fleet's digest does not depend on the seed;
# plants and schedules make the other two seed-visible.
@pytest.mark.parametrize("shape,seed_visible", [
    (TINY_OTA, True), (TINY_CHURN, False), (TINY_SERVICE, True)],
    ids=["ota", "churn", "service"])
def test_same_seed_same_digest(shape, seed_visible):
    first = _run(shape, 1)
    again = _run(shape, 1, trace=True)
    other = _run(shape, 2)
    assert first.ledger.failed == 0, first.ledger.failures
    assert other.ledger.failed == 0, other.ledger.failures
    assert first.digest.hexdigest() == again.digest.hexdigest()
    assert (first.digest.hexdigest() != other.digest.hexdigest()) \
        == seed_visible
    assert first.ledger.ok_frac == 1.0


def test_tiny_service_plants_every_fate():
    run = _run(TINY_SERVICE, 3)
    assert run.ledger.failed == 0, run.ledger.failures
    assert run.counters["attestd.rejected"] > 0
    assert run.counters["prover.rejected"] == run.injected > 0


# -- output contract ----------------------------------------------------------

def test_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = _run(TINY_OTA, 1, trace=True)
    end_to_end = run.end_to_end()
    assert sorted(end_to_end) == sorted(
        m["name"] for m in declared["end_to_end"])
    for metric in declared["end_to_end"]:
        assert end_to_end[metric["name"]][1] == metric["unit"]
        assert end_to_end[metric["name"]][0] > 0
    layers = workloads.per_layer(run, 0.0, 0)
    assert sorted(layers) == sorted(m["name"] for m in declared["per_layer"])
    for metric in declared["per_layer"]:
        assert layers[metric["name"]][1] == metric["unit"]
    assert [w["name"] for w in declared["workloads"]] == list(
        workloads.WORKLOADS)
