"""Executable attack scenarios: the experiments behind Tables 2 and §5.

Every cell of the paper's security claims is *derived* here by running
the attack against a live simulated deployment and observing whether the
prover did unauthorised attestation work -- nothing is looked up from the
expected-answer tables (those are only used by the benchmarks to check
agreement).

Scenario families:

* :func:`run_table2_matrix` -- ``Adv_ext`` replay / reorder / delay
  against nonce / counter / timestamp freshness (Table 2);
* :func:`run_roaming_suite` -- three-phase ``Adv_roam`` counter-rollback
  and clock-reset against the protection-profile ladder (Section 5 /
  Section 6);
* :func:`run_dos_flood` -- verifier-impersonation floods quantifying the
  energy/time DoS for each request-authentication scheme (Section 3.1 /
  4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.analysis import AttackOutcome, MitigationMatrix
from ..core.protocol import Session, build_session
from ..mcu.device import DeviceConfig
from ..mcu.profiles import ProtectionProfile, ROAM_HARDENED
from .external import BogusRequestFlooder, DelayNthRequestAdversary, ReplayAttacker
from .roaming import RoamingAdversary, RoamingOutcome

__all__ = ["run_table2_matrix", "run_roaming_suite", "run_dos_flood",
           "RoamingRecord", "FloodResult", "TABLE2_ATTACKS",
           "TABLE2_FEATURES", "TABLE2_EXPECTED"]

TABLE2_ATTACKS = ("replay", "reorder", "delay")
TABLE2_FEATURES = ("nonce", "counter", "timestamp")

#: Table 2 as printed in the paper (used by benchmarks for agreement
#: checks, never by the scenarios themselves).
TABLE2_EXPECTED = {
    "nonce": {"replay"},
    "counter": {"replay", "reorder"},
    "timestamp": {"replay", "reorder", "delay"},
}

#: Window and spacing honouring Section 4.2's "sufficiently inter-spaced
#: genuine attestation requests" assumption (spacing > window).
_WINDOW_S = 1.0
_SPACING_S = 3.0


def _small_device() -> DeviceConfig:
    """A quick-to-simulate prover for protocol-level scenarios."""
    return DeviceConfig(ram_size=16 * 1024, flash_size=32 * 1024,
                        app_size=4 * 1024)


def _session(policy: str, adversary=None, *, seed: str,
             profile: ProtectionProfile = ROAM_HARDENED,
             auth_scheme: str = "hmac-sha1",
             clock_kind: str = "hw64",
             monotonic_timestamps: bool = False) -> Session:
    config = _small_device()
    config.clock_kind = clock_kind
    return build_session(profile=profile, auth_scheme=auth_scheme,
                         policy_name=policy, device_config=config,
                         adversary=adversary,
                         timestamp_window_seconds=_WINDOW_S,
                         monotonic_timestamps=monotonic_timestamps,
                         seed=seed)


# ---------------------------------------------------------------------------
# Table 2: Adv_ext vs freshness features
# ---------------------------------------------------------------------------

def _replay_cell(policy: str, auth_scheme: str, seed: str) -> AttackOutcome:
    """One genuine round, then a byte-identical replay after the window."""
    session = _session(policy, seed=seed, auth_scheme=auth_scheme)
    session.attest_once()
    accepted_before = session.anchor.stats.accepted
    cycles_before = session.device.cpu.cycle_count
    attacker = ReplayAttacker(session.channel, session.sim)
    attacker.replay_latest(delay=_SPACING_S)
    session.sim.run(until=session.sim.now + _SPACING_S + 5.0)
    succeeded = session.anchor.stats.accepted > accepted_before
    return AttackOutcome(
        attack="replay", defence=policy, succeeded=succeeded,
        prover_wasted_cycles=(session.device.cpu.cycle_count - cycles_before
                              if succeeded else 0),
        detail=f"replay after {_SPACING_S}s "
               f"{'accepted' if succeeded else 'rejected'}")


def _reorder_cell(policy: str, auth_scheme: str, seed: str) -> AttackOutcome:
    """Two inter-spaced genuine requests; the first is held back so it
    arrives after the second.  The attack succeeds when the out-of-order
    (first) request is still accepted."""
    adversary = DelayNthRequestAdversary(
        extra_delay=_SPACING_S + 1.0, target_index=0)
    session = _session(policy, adversary, seed=seed, auth_scheme=auth_scheme)
    session.sim.run(until=0.001)
    session.verifier_node.request_attestation()          # A (held back)
    session.sim.run(until=session.sim.now + _SPACING_S)
    session.verifier_node.request_attestation()          # B (passes A)
    session.sim.run(until=session.sim.now + _SPACING_S + 10.0)
    accepted = session.anchor.stats.accepted
    # B alone should be accepted; A's acceptance means reorder worked.
    succeeded = accepted >= 2
    slipped = ("out-of-order request slipped through" if succeeded
               else "late original rejected")
    return AttackOutcome(
        attack="reorder", defence=policy, succeeded=succeeded,
        detail=f"{accepted}/2 requests accepted ({slipped})")


def _delay_cell(policy: str, auth_scheme: str, seed: str) -> AttackOutcome:
    """A lone genuine request delayed beyond the freshness window."""
    delay = _SPACING_S + 2.0
    adversary = DelayNthRequestAdversary(extra_delay=delay, target_index=0)
    session = _session(policy, adversary, seed=seed, auth_scheme=auth_scheme)
    session.sim.run(until=0.001)
    session.verifier_node.request_attestation()
    session.sim.run(until=session.sim.now + delay + 10.0)
    succeeded = session.anchor.stats.accepted >= 1
    return AttackOutcome(
        attack="delay", defence=policy, succeeded=succeeded,
        detail=f"request delayed {delay}s "
               f"{'accepted' if succeeded else 'rejected'}")


_CELL_RUNNERS = {"replay": _replay_cell, "reorder": _reorder_cell,
                 "delay": _delay_cell}


def run_table2_matrix(*, auth_scheme: str = "hmac-sha1",
                      seed: str = "table2") -> MitigationMatrix:
    """Derive the full Table 2 attack-vs-feature matrix by simulation."""
    matrix = MitigationMatrix(attacks=list(TABLE2_ATTACKS),
                              features=list(TABLE2_FEATURES))
    for feature in TABLE2_FEATURES:
        for attack in TABLE2_ATTACKS:
            runner = _CELL_RUNNERS[attack]
            matrix.record(runner(feature, auth_scheme,
                                 seed=f"{seed}:{feature}:{attack}"))
    return matrix


# ---------------------------------------------------------------------------
# Section 5: the roaming adversary against the profile ladder
# ---------------------------------------------------------------------------

@dataclass
class RoamingRecord:
    """One roaming-attack run in the Section 5/6 grid."""

    strategy: str        # counter-rollback | clock-reset
    policy: str          # counter | timestamp
    profile: str         # baseline | ext-hardened | roam-hardened
    clock_kind: str
    outcome: RoamingOutcome

    @property
    def dos_succeeded(self) -> bool:
        return self.outcome.dos_succeeded

    @property
    def detectable(self) -> bool:
        return self.outcome.detectable_after_fact


def run_roaming_attack(*, strategy: str, policy: str,
                       profile: ProtectionProfile,
                       clock_kind: str = "hw64",
                       auth_scheme: str = "hmac-sha1",
                       monotonic_timestamps: bool = False,
                       seed: str = "roam") -> RoamingRecord:
    """One full three-phase roaming attack against one configuration."""
    session = _session(policy, seed=seed, profile=profile,
                       auth_scheme=auth_scheme, clock_kind=clock_kind,
                       monotonic_timestamps=monotonic_timestamps)
    golden = session.learn_reference_state()
    # Give the deployment enough history that t_i - delta stays positive.
    session.sim.run(until=60.0)
    session.attest_once()
    adversary = RoamingAdversary(session)
    # Phase II must act on the device's present: sync it to the sim clock.
    lag = session.sim.now - session.device.cpu.elapsed_seconds
    if lag > 0:
        session.device.idle_seconds(lag)
    outcome = adversary.execute(strategy, golden_digest=golden)
    return RoamingRecord(strategy=strategy, policy=policy,
                         profile=profile.name, clock_kind=clock_kind,
                         outcome=outcome)


def run_roaming_suite(*, profiles=None, clock_kinds=("hw64", "sw"),
                      seed: str = "roam-suite") -> list[RoamingRecord]:
    """The Section 5 grid: both strategies across the protection ladder.

    Counter rollback targets counter freshness (clock design irrelevant,
    run on hw64 only); clock reset targets timestamp freshness on every
    clock design in ``clock_kinds``.
    """
    from ..mcu.profiles import BASELINE, EXT_HARDENED, ROAM_HARDENED
    if profiles is None:
        profiles = (BASELINE, EXT_HARDENED, ROAM_HARDENED)
    records = []
    for profile in profiles:
        records.append(run_roaming_attack(
            strategy="counter-rollback", policy="counter", profile=profile,
            clock_kind="hw64", seed=f"{seed}:{profile.name}:counter"))
        for clock_kind in clock_kinds:
            records.append(run_roaming_attack(
                strategy="clock-reset", policy="timestamp", profile=profile,
                clock_kind=clock_kind,
                seed=f"{seed}:{profile.name}:clock:{clock_kind}"))
    return records


# ---------------------------------------------------------------------------
# Section 3.1 / 4.1: DoS floods and their energy cost
# ---------------------------------------------------------------------------

@dataclass
class FloodResult:
    """Impact of a bogus-request flood on the prover."""

    auth_scheme: str
    requests_sent: int
    accepted: int
    rejected: int
    active_cycles: int
    active_seconds: float
    energy_mj: float
    duration_seconds: float
    #: (start, end) seconds the trust anchor spent measuring, for
    #: real-time impact analysis.
    busy_intervals: list = field(default_factory=list)

    @property
    def duty_fraction(self) -> float:
        """Fraction of wall-clock time the flood kept the CPU busy."""
        return self.active_seconds / self.duration_seconds

    @property
    def energy_per_request_mj(self) -> float:
        return self.energy_mj / self.requests_sent if self.requests_sent else 0.0


def run_dos_flood(*, auth_scheme: str, rate_per_second: float = 1.0,
                  duration_seconds: float = 60.0,
                  device_config: DeviceConfig | None = None,
                  telemetry=None,
                  seed: str = "flood") -> FloodResult:
    """Flood one prover with forged requests and measure the damage.

    With ``auth_scheme="none"`` every request triggers a full memory
    measurement; with a MAC scheme each dies at validation cost; with
    ECDSA the validation *is* the DoS.  Pass a
    :class:`~repro.obs.telemetry.Telemetry` to observe the flood through
    the metrics registry (the DoS-energy benchmark reads its numbers
    from there).
    """
    config = device_config if device_config is not None else _small_device()
    session = build_session(
        profile=ROAM_HARDENED, auth_scheme=auth_scheme, policy_name="none",
        device_config=config, telemetry=telemetry, seed=seed)
    device = session.device

    flooder = BogusRequestFlooder(session.channel, session.sim,
                                  auth_scheme=auth_scheme,
                                  seed=seed + ":flooder")
    sent = flooder.flood(rate_per_second=rate_per_second,
                         duration_seconds=duration_seconds)
    session.sim.run(until=duration_seconds + 10.0)
    # Account trailing idle time so energy covers the whole window.
    lag = session.sim.now - device.cpu.elapsed_seconds
    if lag > 0:
        device.idle_seconds(lag)
    device.sync_energy()

    stats = session.anchor.stats
    active = device.battery.active_cycles
    result = FloodResult(
        auth_scheme=auth_scheme, requests_sent=sent,
        accepted=stats.accepted, rejected=stats.rejected_total,
        active_cycles=active,
        active_seconds=active / device.cpu.frequency_hz,
        energy_mj=device.battery.consumed_mj,
        duration_seconds=session.sim.now)
    result.busy_intervals = list(session.anchor.busy_intervals)
    return result


@dataclass
class LockoutResult:
    """Outcome of the rate-limit lock-out attack."""

    auth_scheme: str
    rate_limit_seconds: float
    genuine_sent: int
    genuine_accepted: int
    forged_measured: int
    rejected_rate_limited: int

    @property
    def genuine_service_ratio(self) -> float:
        return (self.genuine_accepted / self.genuine_sent
                if self.genuine_sent else 0.0)


def run_rate_limit_lockout(*, auth_scheme: str,
                           rate_limit_seconds: float = 10.0,
                           genuine_rounds: int = 5,
                           seed: str = "lockout") -> LockoutResult:
    """The naive alternative defence, attacked.

    The prover rate-limits attestation to once per ``rate_limit_seconds``.
    The adversary injects one forged request shortly *before* each genuine
    one.  Unauthenticated prover: the forgery claims the rate slot (and a
    full measurement), so every genuine request bounces off the limiter --
    the defence hands the adversary a cheap, precise lock-out.
    Authenticated prover: forgeries die before the limiter, genuine
    service is untouched.
    """
    session = build_session(
        profile=ROAM_HARDENED, auth_scheme=auth_scheme, policy_name="none",
        device_config=_small_device(), rate_limit_seconds=rate_limit_seconds,
        seed=seed)
    flooder = BogusRequestFlooder(session.channel, session.sim,
                                  auth_scheme=auth_scheme,
                                  seed=seed + ":flooder")
    spacing = rate_limit_seconds * 1.5
    for round_index in range(genuine_rounds):
        genuine_at = (round_index + 1) * spacing
        # The forgery lands just inside the rate window before the
        # genuine request.
        session.sim.schedule_at(
            genuine_at - rate_limit_seconds / 4,
            lambda: session.channel.inject(
                "prover", flooder.forge_request(),
                spoofed_sender="verifier"))
        session.sim.schedule_at(
            genuine_at,
            session.verifier_node.request_attestation)
    session.sim.run(until=(genuine_rounds + 2) * spacing)

    stats = session.anchor.stats
    # Forged requests' responses reach the verifier unsolicited and are
    # never validated; nothing on this channel tampers with a response,
    # so each validated response is a genuine request answered.
    genuine_accepted = session.verifier.responses_validated
    return LockoutResult(
        auth_scheme=auth_scheme, rate_limit_seconds=rate_limit_seconds,
        genuine_sent=genuine_rounds, genuine_accepted=genuine_accepted,
        forged_measured=stats.accepted - genuine_accepted,
        rejected_rate_limited=stats.rejected.get("rate-limited", 0))


@dataclass
class FloodTaskImpact:
    """Primary-task damage from a flood, measured by execution."""

    flood: FloodResult
    task_period_seconds: float
    released: int
    met: int
    skipped: int

    @property
    def miss_ratio(self) -> float:
        return self.skipped / self.released if self.released else 0.0


def run_flood_task_impact(*, auth_scheme: str,
                          rate_per_second: float = 1.0,
                          duration_seconds: float = 60.0,
                          task_period_seconds: float = 0.1,
                          task_job_seconds: float = 0.01,
                          device_config: DeviceConfig | None = None,
                          seed: str = "flood-task") -> FloodTaskImpact:
    """Flood a prover, then replay its actual attestation busy intervals
    against a periodic control task on the cooperative executive.

    Connects Section 3.1's two costs: the energy numbers of
    :func:`run_dos_flood` and the "takes Prv away from performing its
    primary tasks" claim, with deadline misses measured by execution
    rather than bound arithmetic.
    """
    from ..mcu.scheduler import CooperativeScheduler, PeriodicTask

    flood = run_dos_flood(auth_scheme=auth_scheme,
                          rate_per_second=rate_per_second,
                          duration_seconds=duration_seconds,
                          device_config=device_config, seed=seed)
    scheduler = CooperativeScheduler([
        PeriodicTask("control", task_period_seconds, task_job_seconds)])
    report = scheduler.run(duration_seconds,
                           busy_intervals=[
                               (start, end)
                               for start, end in flood.busy_intervals
                               if start < duration_seconds])
    return FloodTaskImpact(flood=flood,
                           task_period_seconds=task_period_seconds,
                           released=report.released, met=report.met,
                           skipped=report.skipped)
