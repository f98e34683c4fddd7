"""Static protection-invariant verifier for EA-MPU configurations.

The paper's defense against ``Adv_roam`` (Sections 5 and 6) is a
*configuration*: EA-MPU rules plus secure boot that make ``K_Attest``,
``counter_R`` and the real-time clock accessible only from the
attestation code region.  Until now the repo could only demonstrate a
:class:`~repro.mcu.profiles.ProtectionProfile` correct by *running* the
three-phase roaming attack.  This module checks the same properties
statically -- pure interval reasoning over the programmed
:class:`~repro.mcu.mpu.MPURule` table, no simulation -- in the spirit of
formally-verified RA co-designs (VRASED): the access-control matrix is
small enough to verify exhaustively.

The adversary model mirrors ``repro.attacks.roaming``: malware executes
from any writable, executable memory (low-end MCUs lack no-execute), may
position its code anywhere inside that memory, and issues arbitrary
reads/writes that the EA-MPU arbitrates.  Hardware/debug accesses bypass
the MPU and are out of scope, exactly as in the dynamic model.  When the
device lacks SMART-style entry-point enforcement
(``DeviceConfig.enforce_entry_points=False``), a code-reuse jump into
trusted code inherits its EA-MPU privileges, so trusted code ranges are
*added* to the attacker-reachable code set.

Each invariant yields an :class:`InvariantVerdict` with a concrete
:class:`Counterexample` (protected address + attacker code address) on
failure, and the attack-mapped invariants name the
``repro.attacks.roaming`` strategy / Table 2 row they correspond to --
``tests/analysis/test_static_vs_dynamic.py`` cross-checks the static
verdicts against the simulated ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mcu.device import Device, DeviceConfig
from ..mcu.mpu import (MPURule, intersect_intervals, merge_intervals,
                       subtract_intervals)
from ..mcu.profiles import ALL_PROFILES, ProtectionProfile
from ..obs.schema import INVARIANT_NAMES

__all__ = ["Span", "Counterexample", "InvariantVerdict", "ProfileReport",
           "MachineModel", "INVARIANT_ORDER", "ATTACK_FOR_INVARIANT",
           "EXPECTED_FAILURES", "expected_failures",
           "analyze_device", "analyze_model",
           "verify_profile", "verify_shipped_profiles"]

Span = tuple[int, int]

#: Stable presentation/report order of the invariant catalog.
INVARIANT_ORDER = (
    "rule-budget",
    "secure-boot-coverage",
    "mpu-lockdown",
    "no-widening-overlap",
    "key-confidentiality",
    "counter-rollback-protection",
    "clock-integrity",
)

#: Invariant -> the ``repro.attacks.roaming`` strategy whose Phase II
#: preparation succeeds exactly when the invariant fails (the Section
#: 5/6 grid; ``key-forgery`` is the key-extraction column of Table 2's
#: escalation argument).
ATTACK_FOR_INVARIANT = {
    "key-confidentiality": "key-forgery",
    "counter-rollback-protection": "counter-rollback",
    "clock-integrity": "clock-reset",
}

#: Ground truth for the four shipped profiles: which invariants each one
#: is *expected* to fail (clock-design independent).  ``repro
#: verify-profile`` and ``tests/analysis/test_invariants.py`` gate on this.
EXPECTED_FAILURES = {
    "unprotected": frozenset({"mpu-lockdown", "key-confidentiality",
                              "counter-rollback-protection",
                              "clock-integrity"}),
    "baseline": frozenset({"counter-rollback-protection",
                           "clock-integrity"}),
    "ext-hardened": frozenset({"clock-integrity"}),
    "roam-hardened": frozenset(),
}


def expected_failures(profile_name: str,
                      clock_kind: str = "hw64") -> frozenset[str]:
    """Ground-truth failure set adjusted for the clock design.

    A clockless device (``clock_kind="none"``) has no timestamp
    freshness to subvert, so ``clock-integrity`` holds vacuously there
    even on otherwise-unhardened profiles.
    """
    failures = EXPECTED_FAILURES[profile_name]
    if clock_kind == "none":
        failures = failures - {"clock-integrity"}
    return failures


@dataclass(frozen=True)
class Counterexample:
    """A concrete witness that an invariant is violated.

    ``address`` is the protected byte the adversary can touch;
    ``code_address`` is a location its code can execute from while doing
    so (``None`` when the violation is not an access, e.g. a blown rule
    budget).
    """

    address: int
    access: str                    # "read" | "write"
    code_address: int | None
    detail: str

    def as_dict(self) -> dict:
        entry = {"address": self.address, "access": self.access,
                 "detail": self.detail}
        if self.code_address is not None:
            entry["code_address"] = self.code_address
        return entry


@dataclass(frozen=True)
class InvariantVerdict:
    """Outcome of one invariant check against one machine model."""

    invariant: str
    holds: bool
    detail: str
    attack: str | None = None
    counterexample: Counterexample | None = None

    def as_dict(self) -> dict:
        entry = {"invariant": self.invariant, "holds": self.holds,
                 "detail": self.detail}
        if self.attack is not None:
            entry["attack"] = self.attack
        if self.counterexample is not None:
            entry["counterexample"] = self.counterexample.as_dict()
        return entry


@dataclass(frozen=True)
class ProfileReport:
    """All invariant verdicts for one booted configuration."""

    profile: str
    clock_kind: str
    verdicts: tuple[InvariantVerdict, ...]

    @property
    def holds(self) -> bool:
        return all(v.holds for v in self.verdicts)

    def verdict(self, invariant: str) -> InvariantVerdict:
        for v in self.verdicts:
            if v.invariant == invariant:
                return v
        raise KeyError(invariant)

    def failed(self) -> frozenset[str]:
        """Names of the invariants that do not hold."""
        return frozenset(v.invariant for v in self.verdicts if not v.holds)

    def failed_attacks(self) -> frozenset[str]:
        """Attack names enabled by the failing attack-mapped invariants."""
        return frozenset(v.attack for v in self.verdicts
                         if not v.holds and v.attack is not None)

    def as_dict(self) -> dict:
        return {"profile": self.profile, "clock_kind": self.clock_kind,
                "holds": self.holds,
                "verdicts": [v.as_dict() for v in self.verdicts]}


@dataclass(frozen=True)
class MachineModel:
    """Everything the static passes need to know about a configuration.

    Extracted from a booted :class:`~repro.mcu.device.Device` by
    :meth:`from_device`; tests may also construct models directly to
    seed misconfigurations no shipped boot path produces.
    """

    profile: str
    clock_kind: str                    # DeviceConfig vocabulary
    rules: tuple[MPURule, ...]
    mpu_enabled: bool
    mpu_locked: bool
    max_rules: int
    enforce_entry_points: bool
    trusted_code: dict[str, Span]      # boot / Code_Attest / Code_Clock
    attacker_code: tuple[Span, ...]    # where adversary code can execute
    rom_span: Span
    measured_spans: tuple[Span, ...]   # covered by the boot reference
    key_span: Span
    counter_span: Span
    mpu_register_span: Span
    clock_device_kind: str | None      # "hardware" | "software" | None
    clock_register_span: Span | None
    clock_msb_span: Span | None
    idt_span: Span | None
    irq_mask_span: Span | None

    @classmethod
    def from_device(cls, device: Device) -> "MachineModel":
        trusted = {name: device.firmware.span(name)
                   for name in ("boot", "Code_Attest", "Code_Clock")}
        attacker = merge_intervals(
            [(r.start, r.end) for r in device.memory.writable_regions()
             if r.executable])
        if not device.cpu.enforce_entry_points:
            # Without single-entry enforcement a code-reuse jump into
            # trusted code executes with its privileges (Section 6.2).
            attacker = merge_intervals(attacker + list(trusted.values()))
        clock = device.clock
        profile = (device.boot_profile.name
                   if device.boot_profile is not None else "unbooted")
        return cls(
            profile=profile,
            clock_kind=device.config.clock_kind,
            rules=tuple(device.mpu.rules()),
            mpu_enabled=device.mpu.enabled,
            mpu_locked=device.mpu.locked,
            max_rules=device.mpu.max_rules,
            enforce_entry_points=device.cpu.enforce_entry_points,
            trusted_code=trusted,
            attacker_code=tuple(attacker),
            rom_span=(device.rom.start, device.rom.end),
            measured_spans=(device.firmware.span("app"),),
            key_span=device.key_span,
            counter_span=device.counter_span,
            mpu_register_span=device.mpu_register_span,
            clock_device_kind=clock.kind if clock is not None else None,
            clock_register_span=device.clock_register_span,
            clock_msb_span=device.clock_msb_span,
            idt_span=device.idt_span,
            irq_mask_span=device.irq_mask_span,
        )


# ---------------------------------------------------------------------------
# Interval reachability: the core of every access invariant
# ---------------------------------------------------------------------------

def _rule_allows(rule: MPURule, access: str) -> bool:
    return rule.allow_read if access == "read" else rule.allow_write


def _code_reach(rule: MPURule, code: list[Span] | tuple[Span, ...]
                ) -> list[Span]:
    """Sub-spans of ``code`` from which ``rule``'s selector is matchable.

    Containment semantics: an execution context of at least one byte
    placed anywhere inside the intersection lies fully inside the rule's
    code range, so any non-empty intersection is reachable.  The empty
    selector (``code_start == code_end``) matches no software.
    """
    if rule.code_start == rule.code_end:
        return []
    return intersect_intervals([(rule.code_start, rule.code_end)],
                               list(code))


def attacker_reachable(model: MachineModel, span: Span,
                       access: str) -> list[Span]:
    """Sub-spans of ``span`` that adversary-resident code can ``access``.

    EA-MPU semantics (mirroring
    :meth:`~repro.mcu.mpu.ExecutionAwareMPU.check_access`): a byte
    covered by no rule is ordinary memory, accessible to anyone; a
    covered byte is accessible iff some covering rule allows the access
    kind *and* its code selector is reachable from attacker code.  With
    the MPU disabled everything is reachable.
    """
    lo, hi = span
    if lo >= hi:
        return []
    if not model.mpu_enabled:
        return [span]
    covered: list[Span] = []
    granted: list[Span] = []
    for rule in model.rules:
        overlap = rule.data_overlap(lo, hi)
        if overlap is None:
            continue
        covered.append(overlap)
        if _rule_allows(rule, access) and _code_reach(rule,
                                                      model.attacker_code):
            granted.append(overlap)
    uncovered = subtract_intervals([span], merge_intervals(covered))
    return merge_intervals(uncovered + granted)


def context_allowed(model: MachineModel, code_span: Span, span: Span,
                    access: str) -> bool:
    """Whether code executing in ``code_span`` may ``access`` all of
    ``span`` (the functional direction: the trust anchor must still be
    able to do its job)."""
    lo, hi = span
    if lo >= hi or not model.mpu_enabled:
        return True
    covered: list[Span] = []
    granted: list[Span] = []
    for rule in model.rules:
        overlap = rule.data_overlap(lo, hi)
        if overlap is None:
            continue
        covered.append(overlap)
        if _rule_allows(rule, access) and rule.code_matches(*code_span):
            granted.append(overlap)
    denied = subtract_intervals(merge_intervals(covered),
                                merge_intervals(granted))
    return not intersect_intervals(denied, [span])


def _witness(model: MachineModel, reachable: list[Span], span: Span,
             access: str, what: str) -> Counterexample:
    """Build a concrete counterexample for the first reachable byte."""
    address = reachable[0][0]
    code_address = None
    for rule in model.rules:
        if (rule.covers(address) and _rule_allows(rule, access)):
            reach = _code_reach(rule, model.attacker_code)
            if reach:
                code_address = reach[0][0]
                detail = (f"rule[{rule.index}] grants {access} of "
                          f"{what} byte {address:#x} to code at "
                          f"{code_address:#x}")
                return Counterexample(address, access, code_address, detail)
    if model.attacker_code:
        code_address = model.attacker_code[0][0]
    covered_state = ("EA-MPU disabled" if not model.mpu_enabled
                     else "no rule covers it")
    detail = (f"{what} byte {address:#x} is ordinary memory "
              f"({covered_state}): malware at "
              f"{code_address:#x} may {access} it"
              if code_address is not None else
              f"{what} byte {address:#x} is unprotected ({covered_state})")
    return Counterexample(address, access, code_address, detail)


# ---------------------------------------------------------------------------
# The invariant catalog
# ---------------------------------------------------------------------------

def _check_rule_budget(model: MachineModel) -> InvariantVerdict:
    """Active rules fit the hardware rule file (#r of Table 3)."""
    name = "rule-budget"
    count = len(model.rules)
    if count > model.max_rules:
        return InvariantVerdict(name, False,
                                f"{count} active rules exceed the "
                                f"hardware maximum of {model.max_rules}")
    bad = [r.index for r in model.rules
           if not (0 <= r.index < model.max_rules)]
    if bad:
        return InvariantVerdict(name, False,
                                f"rule indices {bad} outside the "
                                f"{model.max_rules}-slot register file")
    return InvariantVerdict(name, True,
                            f"{count}/{model.max_rules} rule slots used")


def _check_secure_boot_coverage(model: MachineModel) -> InvariantVerdict:
    """Attestation (and SW-clock) code is immutable or measured.

    Section 6.2: secure boot verifies that correct software is loaded
    before it programs the EA-MPU.  Trusted code must therefore live in
    ROM (hardware-immutable) or inside the span the boot reference
    measurement covers -- otherwise the rules anchor trust in code
    nothing vouches for.
    """
    name = "secure-boot-coverage"
    required = ["Code_Attest"]
    if model.clock_device_kind == "software":
        required.append("Code_Clock")
    vouched = merge_intervals([model.rom_span] + list(model.measured_spans))
    for module in required:
        span = model.trusted_code[module]
        uncovered = subtract_intervals([span], vouched)
        if uncovered:
            address = uncovered[0][0]
            return InvariantVerdict(
                name, False,
                f"{module} byte {address:#x} is neither in ROM nor "
                f"covered by the boot reference measurement",
                counterexample=Counterexample(
                    address, "write", None,
                    f"{module} partially outside ROM and the measured "
                    f"image"))
    return InvariantVerdict(name, True,
                            " and ".join(required) + " in ROM or within "
                            "the measured image")


def _check_mpu_lockdown(model: MachineModel) -> InvariantVerdict:
    """The EA-MPU's own configuration is immutable after boot.

    The Figure 1a lockdown idiom: either the sticky hardware lock is
    set, or a rule makes the register file read-only to all software.
    Without it, malware simply reprograms the rules away.
    """
    name = "mpu-lockdown"
    if not model.mpu_enabled:
        return InvariantVerdict(
            name, False, "EA-MPU disabled: no protection is in force and "
            "its configuration is freely writable",
            counterexample=Counterexample(
                model.mpu_register_span[0], "write",
                model.attacker_code[0][0] if model.attacker_code else None,
                "any software may write the EA-MPU register file"))
    if model.mpu_locked:
        return InvariantVerdict(name, True,
                                "sticky hardware lock bit set")
    reachable = attacker_reachable(model, model.mpu_register_span, "write")
    if reachable:
        return InvariantVerdict(
            name, False,
            "EA-MPU configuration registers writable by untrusted code",
            counterexample=_witness(model, reachable,
                                    model.mpu_register_span, "write",
                                    "EA-MPU register"))
    return InvariantVerdict(name, True,
                            "register file read-only to all software")


def _check_no_widening_overlap(model: MachineModel) -> InvariantVerdict:
    """No rule overlap re-grants an access another rule denies outright.

    EA-MPU grants are a union: any covering rule that matches grants the
    access, so a read-only rule (the Figure 1a lockdown idiom) is
    silently nullified by an overlapping rule that hands write access on
    the same bytes to attacker-reachable code.  Only outright denials
    count as the restrictive side: a narrow-selector *grant* (the
    SW-clock's ``Code_Clock`` write carve-out inside the all-software
    read-only ``Clock_MSB`` rule) expresses no exclusivity -- span
    exclusivity is what the key/counter/clock invariants check.
    """
    name = "no-widening-overlap"
    if not model.mpu_enabled:
        return InvariantVerdict(name, True, "EA-MPU disabled: vacuous")
    for restrictive in model.rules:
        for widening in model.rules:
            if widening.index == restrictive.index:
                continue
            overlap = widening.data_overlap(restrictive.data_start,
                                            restrictive.data_end)
            if overlap is None:
                continue
            for access in ("read", "write"):
                if _rule_allows(restrictive, access):
                    continue   # restrictive side must deny outright
                if not _rule_allows(widening, access):
                    continue
                reach = _code_reach(widening, model.attacker_code)
                if not reach:
                    continue
                address, code_address = overlap[0], reach[0][0]
                return InvariantVerdict(
                    name, False,
                    f"rule[{widening.index}] re-grants {access} of "
                    f"[{overlap[0]:#x}, {overlap[1]:#x}) that "
                    f"rule[{restrictive.index}] restricts",
                    counterexample=Counterexample(
                        address, access, code_address,
                        f"overlapping rule[{widening.index}] admits "
                        f"attacker code at {code_address:#x}"))
    return InvariantVerdict(name, True,
                            "no overlap widens access to untrusted code")


def _check_key_confidentiality(model: MachineModel) -> InvariantVerdict:
    """``K_Attest`` is unreadable outside ``Code_Attest`` (Section 6.1).

    Failure enables the key-forgery column of the Section 5 argument:
    with the key, ``Adv_roam`` mints authentic ``attreq`` messages and
    every freshness defence is moot.
    """
    name = "key-confidentiality"
    attack = ATTACK_FOR_INVARIANT[name]
    reachable = attacker_reachable(model, model.key_span, "read")
    if reachable:
        return InvariantVerdict(
            name, False, "K_Attest readable by untrusted code",
            attack=attack,
            counterexample=_witness(model, reachable, model.key_span,
                                    "read", "K_Attest"))
    if not context_allowed(model, model.trusted_code["Code_Attest"],
                           model.key_span, "read"):
        return InvariantVerdict(
            name, False, "over-restriction: Code_Attest itself cannot "
            "read K_Attest, so attestation cannot run", attack=attack)
    return InvariantVerdict(name, True,
                            "K_Attest readable only from Code_Attest",
                            attack=attack)


def _check_counter_rollback(model: MachineModel) -> InvariantVerdict:
    """``counter_R`` writable only by ``Code_Attest`` (Section 6).

    Failure enables Section 5's counter-rollback: Phase II malware
    rewinds the stored counter below an eavesdropped request's value,
    and the later replay is accepted -- undetectably after the fact.
    """
    name = "counter-rollback-protection"
    attack = ATTACK_FOR_INVARIANT[name]
    reachable = attacker_reachable(model, model.counter_span, "write")
    if reachable:
        return InvariantVerdict(
            name, False, "counter_R writable by untrusted code "
            "(rollback possible)", attack=attack,
            counterexample=_witness(model, reachable, model.counter_span,
                                    "write", "counter_R"))
    attest = model.trusted_code["Code_Attest"]
    if not (context_allowed(model, attest, model.counter_span, "read")
            and context_allowed(model, attest, model.counter_span,
                                "write")):
        return InvariantVerdict(
            name, False, "over-restriction: Code_Attest cannot update "
            "counter_R, so freshness state cannot advance", attack=attack)
    return InvariantVerdict(name, True,
                            "counter_R read/write confined to Code_Attest",
                            attack=attack)


def _check_clock_integrity(model: MachineModel) -> InvariantVerdict:
    """The real-time clock cannot be set back or stopped (Section 6.3).

    Failure enables Section 5's clock-reset: malware rewinds the clock
    by ``delta`` so a recorded request's timestamp falls back inside the
    acceptance window.  For the Figure 1b SW-clock the attack surface is
    threefold: the ``Clock_MSB`` word, the IDT entry of the wrap
    interrupt, and the interrupt mask register -- all three must be
    locked, and ``Code_Clock`` must retain its write path.
    """
    name = "clock-integrity"
    attack = ATTACK_FOR_INVARIANT[name]
    if model.clock_device_kind is None:
        return InvariantVerdict(
            name, True, "no real-time clock: timestamp freshness "
            "unavailable, nothing to protect", attack=attack)
    if model.clock_device_kind == "hardware":
        reachable = attacker_reachable(model, model.clock_register_span,
                                       "write")
        if reachable:
            return InvariantVerdict(
                name, False, "hardware clock register writable by "
                "untrusted code", attack=attack,
                counterexample=_witness(model, reachable,
                                        model.clock_register_span,
                                        "write", "clock register"))
        return InvariantVerdict(name, True,
                                "wide hardware clock register read-only "
                                "to all software", attack=attack)
    # SW-clock (Figure 1b)
    surfaces = (("Clock_MSB", model.clock_msb_span),
                ("IDT", model.idt_span),
                ("interrupt mask register", model.irq_mask_span))
    for what, span in surfaces:
        reachable = attacker_reachable(model, span, "write")
        if reachable:
            return InvariantVerdict(
                name, False, f"SW-clock sabotage possible: {what} "
                f"writable by untrusted code", attack=attack,
                counterexample=_witness(model, reachable, span, "write",
                                        what))
    clock_code = model.trusted_code["Code_Clock"]
    if not context_allowed(model, clock_code, model.clock_msb_span,
                           "write"):
        return InvariantVerdict(
            name, False, "over-restriction: Code_Clock cannot update "
            "Clock_MSB, so the SW-clock stops at the first wrap",
            attack=attack)
    return InvariantVerdict(name, True,
                            "Clock_MSB, IDT and mask locked; Code_Clock "
                            "retains its write path", attack=attack)


_CHECKS = {
    "rule-budget": _check_rule_budget,
    "secure-boot-coverage": _check_secure_boot_coverage,
    "mpu-lockdown": _check_mpu_lockdown,
    "no-widening-overlap": _check_no_widening_overlap,
    "key-confidentiality": _check_key_confidentiality,
    "counter-rollback-protection": _check_counter_rollback,
    "clock-integrity": _check_clock_integrity,
}

assert set(_CHECKS) == set(INVARIANT_ORDER) == INVARIANT_NAMES


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def analyze_model(model: MachineModel) -> ProfileReport:
    """Run the whole invariant catalog against one machine model."""
    verdicts = tuple(_CHECKS[name](model) for name in INVARIANT_ORDER)
    return ProfileReport(profile=model.profile,
                         clock_kind=model.clock_kind, verdicts=verdicts)


def analyze_device(device: Device) -> ProfileReport:
    """Statically verify a provisioned, booted device's configuration."""
    return analyze_model(MachineModel.from_device(device))


def _analysis_config(clock_kind: str) -> DeviceConfig:
    """A small, fast-to-boot device matching the scenario harness."""
    return DeviceConfig(ram_size=16 * 1024, flash_size=32 * 1024,
                        app_size=4 * 1024, clock_kind=clock_kind)


def verify_profile(profile: ProtectionProfile, *, clock_kind: str = "hw64",
                   config: DeviceConfig | None = None) -> ProfileReport:
    """Boot a reference device under ``profile`` and verify it statically.

    Booting is configuration, not simulation: secure boot programs the
    rule table exactly as a deployment would, and the verifier then
    reasons over that table without running any attack.
    """
    if config is None:
        config = _analysis_config(clock_kind)
    device = Device(config)
    device.provision(b"K" * 16)
    device.boot(profile)
    return analyze_device(device)


def verify_shipped_profiles(*, clock_kinds: tuple[str, ...] = ("hw64", "sw")
                            ) -> list[ProfileReport]:
    """Verify all four shipped profiles across ``clock_kinds``.

    Report order is deterministic: profiles in escalation-ladder order,
    clock kinds in the given order.
    """
    reports = []
    for profile in ALL_PROFILES:
        for clock_kind in clock_kinds:
            reports.append(verify_profile(profile, clock_kind=clock_kind))
    return reports
