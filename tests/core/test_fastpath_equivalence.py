"""Satellite guarantee of the fast measurement engine: a full protocol
run under the fast engine is observably identical to the naive seed.

"Observably" means everything that leaves the simulation: response MACs
and measurements, the verifier verdict, consumed *simulated* cycles,
prover stats, and the full telemetry registry dump.  Host wall-clock is
the only thing allowed to differ.
"""

import json
import subprocess
import sys

import pytest

from repro import fastpath
from repro.core import build_session
from repro.crypto.hmac import clear_hmac_midstate_cache
from repro.mcu.firmware import derive_code
from repro.obs import Telemetry

from ..conftest import tiny_config


def run_scenario(engine: str, rounds: int = 2) -> dict:
    """One seeded attestation scenario; returns every observable.

    Both memos start cold, so each engine derives its own firmware bytes
    and pad midstates instead of reusing the other engine's."""
    with fastpath.forced(engine):
        clear_hmac_midstate_cache()
        derive_code.cache_clear()
        telemetry = Telemetry()
        session = build_session(device_config=tiny_config(),
                                telemetry=telemetry,
                                seed="fastpath-equivalence")
        reference = session.learn_reference_state()
        verdicts = []
        for _ in range(rounds):
            verdicts.append(session.attest_once().trusted)
        request = session.verifier.make_request()
        response, reason = session.anchor.handle_request(request)
        stats = session.anchor.stats
        return {
            "reference": reference.hex(),
            "verdicts": verdicts,
            "reason": reason,
            "measurement": response.measurement.hex(),
            "mac": response.tag.hex(),
            "cycles": session.device.cpu.cycle_count,
            "stats": (stats.received, stats.accepted,
                      dict(stats.rejected), stats.validation_cycles,
                      stats.attestation_cycles),
            "registry": json.dumps(telemetry.registry.dump(),
                                   sort_keys=True),
        }


@pytest.mark.parametrize("engine", ["accel"])
def test_fast_engines_observably_identical_to_naive(engine):
    baseline = run_scenario("naive")
    candidate = run_scenario(engine)
    assert candidate == baseline
    # And the run actually attested successfully -- equality of two
    # broken runs would prove nothing.
    assert baseline["verdicts"] == [True, True]
    assert baseline["reason"] == "ok"


def test_env_flag_disables_fast_path_at_import():
    """``REPRO_FAST_PATH=0`` must select the naive engine in a fresh
    interpreter (the documented off switch)."""
    code = ("import repro.fastpath as f; "
            "print(f.engine(), f.is_fast())")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": "src", "REPRO_FAST_PATH": "0"},
        cwd=__import__("pathlib").Path(__file__).parents[2],
        check=True).stdout.split()
    assert out == ["naive", "False"]


def test_perf_harness_equivalence_check_is_clean():
    """The shipped harness agrees at its default size (16 KB, two
    rounds): its equivalence block is clean and covers the fast
    engine."""
    from repro.perf import equivalence_check

    result = equivalence_check()
    assert result["identical"] is True, (
        "fast/naive equivalence broken: "
        + str({engine: verdict["mismatched_fields"]
               for engine, verdict in result["engines"].items()
               if not verdict["identical"]}))
    assert set(result["engines"]) == {"accel"}
    for verdict in result["engines"].values():
        assert verdict["mismatched_fields"] == []
