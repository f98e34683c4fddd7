"""Command-line interface: reproduce the paper's experiments directly.

Usage::

    python -m repro table1                 # Table 1 crypto costs
    python -m repro table2 [--strict]      # Table 2 mitigation matrix
    python -m repro table3                 # Table 3 component costs
    python -m repro overhead               # Section 6.3 overheads + clocks
    python -m repro roam [--clock sw]      # Section 5 roaming grid
    python -m repro flood [--rate R] [--duration S]
    python -m repro attest [--ram-kb N] [--scheme S] [--policy P]
    python -m repro metrics [--rounds N] [--trace-out F] [--registry-out F]
    python -m repro modelcheck [--requests N]  # freshness policies
    python -m repro swatt [--trials N] [--iterations N]   # Section 2
    python -m repro verify-profile [--profile P] [--clock C] [--json]
    python -m repro lint [paths ...] [--json] [--waivers F] [--allow-stale]
    python -m repro taint [--json] [--policy F] [--allow-stale] [--canary]
    python -m repro analyze [--out F] [--allow-stale]
    python -m repro fleet-bench [--size N] [--workers W] [--json]
    python -m repro incremental-bench [--size N] [--dirty F ...] [--json]
    python -m repro serve [--devices N] [--waves K] [--snapshot F]
    python -m repro service-bench [--size N] [--json]
    python -m repro snapshot save --out F [--size N] [--sweeps K]
                                  [--parent P] [--verify] [--incremental]
    python -m repro snapshot restore F [--sweeps K] [--json]
    python -m repro snapshot replay F --seq N
    python -m repro snapshot compact F --out OUT
    python -m repro snapshot bisect F [F ...] --match KEY=VALUE ...
    python -m repro snapshot-bench [--size N] [--workers W] [--json]
    python -m repro report [--results-dir D] [--output F]  # results

Each subcommand prints the same tables the benchmark harness writes to
``benchmarks/results/``; the CLI exists so a downstream user can poke at
parameters without driving pytest.
"""

from __future__ import annotations

import argparse
import sys

from .core.analysis import render_table
from .crypto.costmodel import CryptoCostModel
from .errors import ConfigurationError, ReproError

__all__ = ["main"]


def _cmd_table1(args) -> int:
    model = CryptoCostModel(frequency_hz=args.mhz * 1_000_000)
    hmac_fixed = model.hmac_cycles(0, "table")
    hmac_block = model.hmac_cycles(128, "table") - model.hmac_cycles(64, "table")
    rows = [["primitive op", "ms"],
            ["hmac fixed", f"{model.cycles_to_ms(hmac_fixed):.3f}"],
            ["hmac / 64 B block",
             f"{model.cycles_to_ms(hmac_block):.3f}"],
            ["aes key expansion",
             f"{model.cycles_to_ms(model.aes_key_expansion_cycles()):.3f}"],
            ["aes encrypt / block",
             f"{model.cycles_to_ms(model.aes_encrypt_cycles(1)):.3f}"],
            ["aes decrypt / block",
             f"{model.cycles_to_ms(model.aes_decrypt_cycles(1)):.3f}"],
            ["speck key expansion",
             f"{model.cycles_to_ms(model.speck_key_expansion_cycles()):.3f}"],
            ["speck encrypt / block",
             f"{model.cycles_to_ms(model.speck_encrypt_cycles(1)):.3f}"],
            ["speck decrypt / block",
             f"{model.cycles_to_ms(model.speck_decrypt_cycles(1)):.3f}"],
            ["ecdsa sign", f"{model.cycles_to_ms(model.ecdsa_sign_cycles()):.3f}"],
            ["ecdsa verify",
             f"{model.cycles_to_ms(model.ecdsa_verify_cycles()):.3f}"]]
    print(render_table(rows, title=f"Table 1 at {args.mhz} MHz"))
    print(f"\nattestation of {args.ram_kb} KB: "
          f"{model.attestation_ms(args.ram_kb * 1024):.3f} ms")
    return 0


def _cmd_table2(args) -> int:
    if args.model_check:
        from .core.modelcheck import table2_from_model_checking
        table = table2_from_model_checking(
            paper_assumptions=not args.strict)
        rows = [["feature", "mitigates"]]
        for feature in ("nonce", "counter", "timestamp"):
            rows.append([feature, ", ".join(sorted(table[feature])) or "-"])
        print(render_table(rows, title="Table 2 via exhaustive model "
                                       "checking"))
        if args.strict:
            print("\n(unrestricted adversary: immediate replays exposed; "
                  "rerun without --strict for the paper's assumptions)")
    else:
        from .attacks.scenarios import TABLE2_EXPECTED, run_table2_matrix
        matrix = run_table2_matrix(seed="cli")
        print(render_table(matrix.as_rows(),
                           title="Table 2, derived by attack simulation"))
        match = matrix.matches(TABLE2_EXPECTED)
        print(f"\nagreement with the printed Table 2: "
              f"{'EXACT' if match else 'MISMATCH'}")
    return 0


def _cmd_table3(args) -> int:
    from .hwcost import TABLE3_COMPONENTS
    rows = [["component", "rules", "registers", "LUTs"]]
    for component in TABLE3_COMPONENTS:
        if component.registers_per_rule:
            reg = f"{component.registers}+{component.registers_per_rule}*#r"
            lut = f"{component.luts}+{component.luts_per_rule}*#r"
        else:
            reg, lut = str(component.registers), str(component.luts)
        rows.append([component.name, str(component.mpu_rules), reg, lut])
    print(render_table(rows, title="Table 3: hardware cost per component"))
    return 0


def _cmd_overhead(args) -> int:
    from .hwcost import HardwareCostModel
    model = HardwareCostModel()
    base = model.baseline()
    print(f"baseline: {base.registers} registers / {base.luts} LUTs "
          f"({base.rules} EA-MPU rules)\n")
    rows = [["variant", "+reg", "reg %", "+LUT", "LUT %"]]
    for kind in ("hw64", "hw32div", "sw"):
        o = model.variant_overhead(kind)
        rows.append([kind, str(o.extra_registers),
                     f"{o.register_overhead_percent:.2f}",
                     str(o.extra_luts),
                     f"{o.lut_overhead_percent:.2f}"])
    print(render_table(rows, title="Section 6.3 overheads"))
    rows = [["width/divider", "resolution (ms)", "wrap-around (years)"]]
    for width, divider in ((64, 1), (32, 1), (32, 1 << 20)):
        t = model.clock_tradeoff(width, divider)
        rows.append([f"{width}b / {divider}",
                     f"{t['resolution_seconds'] * 1000:.4f}",
                     f"{t['wraparound_years']:.4f}"])
    print()
    print(render_table(rows, title="Clock trade-offs @ 24 MHz"))
    return 0


def _cmd_roam(args) -> int:
    from .attacks.scenarios import run_roaming_suite
    clock_kinds = tuple(args.clock) if args.clock else ("hw64", "sw")
    records = run_roaming_suite(clock_kinds=clock_kinds, seed="cli-roam")
    rows = [["strategy", "profile", "clock", "DoS", "detectable"]]
    for r in records:
        rows.append([r.strategy, r.profile, r.clock_kind,
                     "SUCCEEDS" if r.dos_succeeded else "blocked",
                     "yes" if r.detectable else "no"])
    print(render_table(rows, title="Section 5: roaming adversary results"))
    return 0


def _cmd_flood(args) -> int:
    from .attacks.scenarios import run_dos_flood
    from .mcu.device import DeviceConfig
    rows = [["auth scheme", "accepted", "rejected", "CPU busy (s)",
             "energy (mJ)"]]
    for scheme in ("none", "speck-64/128-cbc-mac", "hmac-sha1",
                   "ecdsa-secp160r1"):
        result = run_dos_flood(
            auth_scheme=scheme, rate_per_second=args.rate,
            duration_seconds=args.duration,
            device_config=DeviceConfig(ram_size=args.ram_kb * 1024,
                                       flash_size=32 * 1024,
                                       app_size=4 * 1024),
            seed="cli-flood")
        rows.append([scheme, str(result.accepted), str(result.rejected),
                     f"{result.active_seconds:.3f}",
                     f"{result.energy_mj:.4f}"])
    print(render_table(rows, title=f"Forged-request flood: {args.rate}/s "
                                   f"for {args.duration:.0f}s on a "
                                   f"{args.ram_kb} KB prover"))
    return 0


def _cmd_attest(args) -> int:
    import json

    from .core.protocol import build_session
    from .mcu.device import DeviceConfig
    session = build_session(
        auth_scheme=args.scheme, policy_name=args.policy,
        device_config=DeviceConfig(ram_size=args.ram_kb * 1024),
        seed="cli-attest")
    session.learn_reference_state()
    result = session.attest_once(settle_seconds=20.0)
    if args.json:
        summary = session.summary()
        summary["verdict"] = {"trusted": result.trusted,
                              "detail": result.detail}
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0 if result.trusted else 1
    stats = session.anchor.stats
    print(f"verdict: trusted={result.trusted} ({result.detail})")
    print(f"request validation: {stats.validation_cycles / 24_000:.3f} ms")
    print(f"memory measurement: {stats.attestation_cycles / 24_000:.1f} ms")
    session.device.sync_energy()
    print(f"prover energy: {session.device.battery.consumed_mj:.3f} mJ")
    return 0 if result.trusted else 1


def _cmd_metrics(args) -> int:
    """Observe the quickstart scenario through the telemetry subsystem.

    Runs the quickstart deployment (roam-hardened 24 MHz prover, Speck
    request MACs, counter freshness) with a metrics registry and event
    trace attached, exports both, and cross-checks the registry against
    the legacy :class:`ProverStats` counters -- the two accountings must
    agree cycle-for-cycle.
    """
    import json

    from .core.protocol import build_session
    from .mcu.device import DeviceConfig
    from .obs import (Telemetry, validate_jsonl_trace,
                      validate_registry_dump)

    telemetry = Telemetry()
    session = build_session(
        auth_scheme=args.scheme, policy_name=args.policy,
        device_config=DeviceConfig(ram_size=args.ram_kb * 1024),
        telemetry=telemetry, seed="quickstart")
    session.learn_reference_state()
    trusted_rounds = 0
    for _ in range(args.rounds):
        result = session.attest_once(settle_seconds=20.0)
        trusted_rounds += int(result.trusted)
    session.device.sync_energy()

    registry = telemetry.registry
    stats = session.anchor.stats
    checks = {
        "received": (registry.value("prover.requests.received"),
                     stats.received),
        "accepted": (registry.value("prover.requests.accepted"),
                     stats.accepted),
        "rejected": (registry.total("prover.requests.rejected"),
                     stats.rejected_total),
        "validation_cycles": (registry.value("prover.validation_cycles"),
                              stats.validation_cycles),
        "attestation_cycles": (registry.value("prover.attestation_cycles"),
                               stats.attestation_cycles),
    }
    consistent = all(reg == legacy for reg, legacy in checks.values())

    trace_text = telemetry.trace.to_jsonl()
    dump = registry.dump()
    schema_errors = validate_jsonl_trace(trace_text)
    schema_errors += validate_registry_dump(dump)

    registry_json = json.dumps(dump, indent=2, sort_keys=True)
    try:
        if args.trace_out:
            telemetry.trace.export_jsonl(args.trace_out)
        else:
            print(trace_text)
        if args.registry_out:
            with open(args.registry_out, "w") as handle:
                handle.write(registry_json + "\n")
        else:
            print(registry_json)
    except OSError as exc:
        print(f"error: cannot write export: {exc}", file=sys.stderr)
        return 1

    print(f"\n# rounds: {args.rounds} ({trusted_rounds} trusted), "
          f"trace events: {len(telemetry.trace)}, "
          f"metrics: {len(registry)}", file=sys.stderr)
    for name, (reg, legacy) in checks.items():
        marker = "==" if reg == legacy else "!="
        print(f"# registry vs ProverStats {name}: {reg} {marker} {legacy}",
              file=sys.stderr)
    for error in schema_errors:
        print(f"# schema error: {error}", file=sys.stderr)
    if not consistent:
        print("# FAIL: registry disagrees with ProverStats", file=sys.stderr)
        return 1
    if schema_errors:
        print("# FAIL: export violates the telemetry schema",
              file=sys.stderr)
        return 1
    print("# OK: registry matches ProverStats and exports validate",
          file=sys.stderr)
    return 0


def _cmd_modelcheck(args) -> int:
    from .core.modelcheck import PROPERTIES, check_policy
    rows = [["policy"] + list(PROPERTIES) + ["schedules"]]
    policies = [("none", {}), ("nonce", {}), ("counter", {}),
                ("timestamp", {}),
                ("timestamp+monotonic", {"monotonic_timestamps": True})]
    for label, kwargs in policies:
        name = label.split("+")[0]
        result = check_policy(name, requests=args.requests, **kwargs)
        rows.append([label]
                    + ["holds" if prop in result.holds else "FAILS"
                       for prop in PROPERTIES]
                    + [str(result.schedules_checked)])
    print(render_table(rows, title="Freshness policies, exhaustively "
                                   "checked (unrestricted adversary)"))
    print("\nProperty-to-Table-2 mapping: no-double-acceptance=replay, "
          "order-safety=reorder, no-stale-acceptance=delay.")
    return 0


def _cmd_swatt(args) -> int:
    from .baselines.swatt import evaluate_over_paths
    from .mcu.device import Device, DeviceConfig
    from .mcu.profiles import BASELINE
    from .net.path import DIRECT_LINK, campus_path, wan_path

    def factory():
        device = Device(DeviceConfig(ram_size=8 * 1024,
                                     flash_size=16 * 1024,
                                     app_size=4 * 1024))
        device.provision(b"K" * 16)
        device.boot(BASELINE)
        return device

    paths = {"direct": DIRECT_LINK, "campus": campus_path(),
             "wan": wan_path()}
    results = evaluate_over_paths(device_factory=factory, paths=paths,
                                  trials=args.trials,
                                  iterations=args.iterations,
                                  seed="cli-swatt")
    rows = [["topology", "jitter (ms)", "accuracy"]]
    for name, path in paths.items():
        rows.append([name, f"{path.jitter_span_seconds * 1000:.2f}",
                     f"{results[name].accuracy:.2f}"])
    print(render_table(rows, title="SWATT-style timing attestation by "
                                   "topology (Section 2)"))
    return 0


def _cmd_verify_profile(args) -> int:
    """Statically verify protection profiles against the EA-MPU model.

    Exit status reflects *agreement with ground truth*: an unprotected
    profile failing its invariants is the expected outcome, not an
    error.  Any divergence from :func:`repro.analysis.expected_failures`
    -- a hardened profile with a hole, or an unhardened one that
    spuriously verifies -- exits non-zero.
    """
    import json

    from .analysis import expected_failures, verify_profile
    from .mcu.profiles import ALL_PROFILES

    profiles = [p for p in ALL_PROFILES if args.profile in (None, p.name)]
    clock_kinds = tuple(args.clock) if args.clock else ("hw64", "sw")
    reports = []
    mismatches = []
    for profile in profiles:
        for clock_kind in clock_kinds:
            report = verify_profile(profile, clock_kind=clock_kind)
            reports.append(report)
            expected = expected_failures(profile.name, clock_kind)
            if report.failed() != expected:
                mismatches.append((report, expected))
    if args.json:
        print(json.dumps([r.as_dict() for r in reports], indent=2,
                         sort_keys=True))
        return 1 if mismatches else 0
    rows = [["profile", "clock", "verdict", "violated invariants",
             "enabled attacks"]]
    for report in reports:
        rows.append([report.profile, report.clock_kind,
                     "SECURE" if report.holds else "VULNERABLE",
                     ", ".join(sorted(report.failed())) or "-",
                     ", ".join(sorted(report.failed_attacks())) or "-"])
    print(render_table(rows, title="Static EA-MPU configuration verdicts"))
    shown = False
    for report in reports:
        for verdict in report.verdicts:
            if verdict.holds or verdict.counterexample is None:
                continue
            if not shown:
                print("\ncounterexamples:")
                shown = True
            print(f"  {report.profile}/{report.clock_kind} "
                  f"{verdict.invariant}: {verdict.counterexample.detail}")
    for report, expected in mismatches:
        print(f"\nMISMATCH {report.profile}/{report.clock_kind}: "
              f"violated {sorted(report.failed())}, ground truth expects "
              f"{sorted(expected)}", file=sys.stderr)
    if not mismatches:
        print("\nall verdicts agree with the dynamic ground truth")
    return 1 if mismatches else 0


def _cmd_lint(args) -> int:
    """Run the determinism/consistency linter over the tree."""
    import json
    import pathlib

    from .analysis import DEFAULT_LINT_DIRS, lint_tree, load_waivers

    root = pathlib.Path(args.root)
    waivers = load_waivers(root / args.waivers)
    dirs = tuple(args.paths) if args.paths else DEFAULT_LINT_DIRS
    report = lint_tree(root, dirs=dirs, waivers=waivers)
    stale_fails = bool(report.stale_waivers) and not args.allow_stale
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return 0 if report.clean and not stale_fails else 1
    for violation in report.violations:
        print(f"{violation.path}:{violation.line}:{violation.col}: "
              f"{violation.rule} {violation.message}")
    for waiver in report.stale_waivers:
        print(f"{waiver.path}: stale waiver for {waiver.rule}: matches "
              f"no current violation (drop the entry or pass "
              f"--allow-stale)", file=sys.stderr)
    print(f"{report.files_scanned} files scanned, "
          f"{len(report.violations)} violations, "
          f"{len(report.waived)} waived, "
          f"{len(report.stale_waivers)} stale waivers", file=sys.stderr)
    return 0 if report.clean and not stale_fails else 1


def _cmd_taint(args) -> int:
    """Key-confidentiality taint analysis (KEY001/KEY002/KEY003)."""
    import json
    import pathlib

    from .analysis import analyze_taint_tree, load_policy, run_canary_hunt

    root = pathlib.Path(args.root)
    policy = load_policy(root / args.policy)
    report = analyze_taint_tree(root, policy=policy)
    stale_fails = bool(report.stale_policy) and not args.allow_stale
    canary = None
    if args.canary:
        canary = run_canary_hunt()
    failed = (not report.clean or stale_fails
              or (canary is not None
                  and (not canary.clean or not canary.control_hit)))
    if args.json:
        document = report.as_dict()
        if canary is not None:
            document["canary"] = canary.as_dict()
        print(json.dumps(document, indent=2, sort_keys=True))
        return 1 if failed else 0
    for violation in report.violations:
        print(f"{violation.path}:{violation.line}:{violation.col}: "
              f"{violation.rule} [{violation.sink}] {violation.message}")
        if len(violation.chain) > 1:
            print("    via " + " -> ".join(violation.chain))
    for entry in report.stale_policy:
        print(f"{entry['path']}: stale policy entry ({entry['kind']}): "
              f"{entry['detail']} (drop the entry or pass --allow-stale)",
              file=sys.stderr)
    if canary is not None:
        verdict = "clean" if canary.clean else "LEAK"
        control = "ok" if canary.control_hit else "MISSED"
        print(f"canary hunt: {verdict} over "
              f"{len(canary.artifacts_scanned)} artifacts "
              f"(blob control {control})", file=sys.stderr)
        for hit in canary.hits:
            print(f"  canary hit: {hit.needle} in {hit.artifact}",
                  file=sys.stderr)
    print(f"{report.files_scanned} files analyzed "
          f"({report.rounds} fixpoint rounds), "
          f"{len(report.violations)} violations, "
          f"{len(report.waived)} policy-waived, "
          f"{len(report.stale_policy)} stale policy entries",
          file=sys.stderr)
    return 1 if failed else 0


def _cmd_analyze(args) -> int:
    """Run invariants + lint + taint; emit one merged analysis document."""
    import pathlib

    from .analysis import (analyze_taint_tree, build_report,
                           expected_failures, lint_tree, load_policy,
                           load_waivers, render_report_json,
                           verify_shipped_profiles)

    root = pathlib.Path(args.root)
    profile_reports = verify_shipped_profiles(clock_kinds=("hw64", "sw"))
    mismatches = [
        r for r in profile_reports
        if r.failed() != expected_failures(r.profile, r.clock_kind)]
    lint_report = lint_tree(root, waivers=load_waivers(root / args.waivers))
    taint_report = analyze_taint_tree(
        root, policy=load_policy(root / args.policy))
    document = render_report_json(
        build_report(profile_reports, lint_report, taint_report))
    if args.out:
        pathlib.Path(args.out).write_text(document)
        print(f"wrote {args.out} ({len(document)} bytes)", file=sys.stderr)
    else:
        print(document, end="")
    stale = ((lint_report.stale_waivers or taint_report.stale_policy)
             and not args.allow_stale)
    failed = (bool(mismatches) or not lint_report.clean
              or not taint_report.clean or bool(stale))
    for report in mismatches:
        print(f"analyze: invariant mismatch for {report.profile}/"
              f"{report.clock_kind}", file=sys.stderr)
    if not lint_report.clean:
        print(f"analyze: {len(lint_report.violations)} lint violations",
              file=sys.stderr)
    if not taint_report.clean:
        print(f"analyze: {len(taint_report.violations)} taint violations",
              file=sys.stderr)
    if stale:
        print(f"analyze: {len(lint_report.stale_waivers)} stale waivers, "
              f"{len(taint_report.stale_policy)} stale policy entries",
              file=sys.stderr)
    return 1 if failed else 0


def _run_bench(args, report: dict, validate, render) -> int:
    """The shared tail of every ``*-bench`` verb: validate the report,
    write ``--out``, print ``--json`` or the table, then exit 1 unless
    the report's gate (if it has one) passed and its equivalence block
    is clean -- in both output modes."""
    import json

    from .perf.harness import write_report

    errors = validate(report)
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        return 1
    if args.out:
        write_report(report, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        render(report)
    passed = report.get("gate", {"passed": True})["passed"]
    return 0 if passed and report["equivalence"]["identical"] else 1


def _cmd_fleet_bench(args) -> int:
    """Sharded parallel fleet sweep vs the sequential seed path."""
    from .obs.schema import validate_fleet_report
    from .perf import fleet

    report = fleet.build_report(fleet_size=args.size, ram_kb=args.ram_kb,
                                sweeps=args.sweeps, workers=args.workers)
    return _run_bench(args, report, validate_fleet_report,
                      _render_fleet_bench)


def _render_fleet_bench(report: dict) -> None:
    rows = [["quantity", "sequential", "parallel"],
            ["spin-up (s)",
             f"{report['spinup']['sequential_seconds']:.3f}",
             f"{report['spinup']['parallel_seconds']:.3f}"],
            ["sweep wall-clock (s)",
             f"{report['sequential']['sweep_seconds']:.3f}",
             f"{report['parallel']['sweep_seconds']:.3f}"],
            ["devices / second",
             f"{report['sequential']['devices_per_second']:.0f}",
             f"{report['parallel']['devices_per_second']:.0f}"]]
    print(render_table(
        rows, title=f"Fleet bench: {report['fleet_size']} members, "
                    f"{report['workers']} workers, "
                    f"{report['sweeps']} sweep(s)"))
    cache = report["cache"]
    print(f"\nsweep speedup: {report['speedup']:.2f}x   "
          f"digest cache: {cache['hits']} hits / {cache['misses']} misses")
    print(f"reports identical: {report['reports_identical']}   "
          f"equivalence clean: {report['equivalence']['identical']}")


def _cmd_incremental_bench(args) -> int:
    """Dirty-region incremental sweeps vs full walks on an OTA fleet."""
    from .obs.schema import validate_incremental_report
    from .perf import incremental

    kwargs = {}
    if args.dirty:
        kwargs["dirty_fractions"] = tuple(args.dirty)
    report = incremental.build_report(fleet_size=args.size,
                                      ram_kb=args.ram_kb,
                                      sweeps=args.sweeps,
                                      **kwargs)
    return _run_bench(args, report, validate_incremental_report,
                      _render_incremental_bench)


def _render_incremental_bench(report: dict) -> None:
    rows = [["dirty", "dirty KB", "full (s)", "incremental (s)", "speedup"]]
    for point in report["points"]:
        rows.append([f"{point['dirty_fraction']:.0%}",
                     str(point["dirty_kb"]),
                     f"{point['full_seconds']:.3f}",
                     f"{point['incremental_seconds']:.3f}",
                     f"{point['speedup']:.2f}x"])
    print(render_table(
        rows, title=f"Incremental bench: {report['fleet_size']} members, "
                    f"{report['writable_kb']} KB writable, "
                    f"{report['sweeps']} timed sweep(s)"))
    gate = report["gate"]
    print(f"\ngate: {gate['speedup']:.2f}x at "
          f"{gate['dirty_fraction']:.0%} dirty "
          f"(threshold {gate['threshold']:.1f}x) -> "
          f"{'pass' if gate['passed'] else 'FAIL'}")
    print(f"equivalence clean: {report['equivalence']['identical']}")


def _report_rows(report) -> list:
    return [["quantity", "value"],
            ["attempted", str(report.attempted)],
            ["trusted", str(report.trusted)],
            ["untrusted", str(len(report.untrusted))],
            ["no response", str(len(report.no_response))],
            ["refused", str(len(report.refused))],
            ["skipped (quarantined)", str(len(report.skipped_quarantined))],
            ["retries", str(report.retries)],
            ["fleet energy (mJ)", f"{report.fleet_energy_mj:.4f}"],
            ["sweep seconds (simulated)", f"{report.sweep_seconds:.3f}"]]


def _restore_from_chain(documents: list, spec: dict):
    """Rebuild the spec'd swarm and restore the chain's tip state."""
    from .snapshot import build_swarm_from_spec, materialize_chain

    swarm = build_swarm_from_spec(spec)
    swarm.restore(documents[0] if len(documents) == 1
                  else materialize_chain(documents))
    return swarm


def _verify_saved(path: str, swarm) -> list:
    """Reload ``path`` from disk into a fresh fleet and name any field
    that differs from the live ``swarm`` that was just checkpointed."""
    import json

    from .snapshot import load_chain

    documents = load_chain(path)
    spec = (documents[-1].get("meta") or {}).get("spec")
    checked = _restore_from_chain(documents, spec)
    mismatched = []
    if (json.dumps(checked.merged_registry().dump(), sort_keys=True)
            != json.dumps(swarm.merged_registry().dump(), sort_keys=True)):
        mismatched.append("registry")
    if checked.freshness_fingerprint() != swarm.freshness_fingerprint():
        mismatched.append("freshness_fingerprint")
    if checked.device_states() != swarm.device_states():
        mismatched.append("device_states")
    return mismatched


def _cmd_snapshot_save(args) -> int:
    """Run a fleet for a few sweeps, then checkpoint it to a file.

    With ``--parent`` the fleet resumes from that checkpoint (itself
    full or delta) and the new file is a ``repro.snapshot.delta/v1``
    document recording only the chunks dirtied since the parent, with
    ``meta.parent_path`` linking the chain for ``compact``/``bisect``.
    """
    from .errors import SnapshotError
    from .snapshot import (build_swarm_from_spec, load_chain,
                           save_document, swarm_spec)

    if args.delta and args.parent is None:
        print("error: --delta needs --parent (the checkpoint to diff "
              "against)", file=sys.stderr)
        return 1
    if args.parent is not None:
        chain = load_chain(args.parent)
        spec = (chain[-1].get("meta") or {}).get("spec")
        if spec is None:
            raise SnapshotError(
                f"{args.parent} has no embedded rebuild spec; it was "
                f"not written by 'repro snapshot save'")
        swarm = _restore_from_chain(chain, spec)
        if not swarm.incremental:
            raise SnapshotError(
                "delta capture needs digest trees: re-save the parent "
                "with 'repro snapshot save --incremental'")
        parent_doc = chain[-1]
    else:
        spec = swarm_spec(size=args.size, profile=args.profile,
                          auth_scheme=args.scheme, policy=args.policy,
                          ram_kb=args.ram_kb, retry=args.retry,
                          faults=args.faults,
                          incremental=args.incremental,
                          stagger_seconds=args.stagger, seed=args.seed)
        swarm = build_swarm_from_spec(spec)
        parent_doc = None
    report = None
    for _ in range(args.sweeps):
        report = swarm.sweep(stagger_seconds=spec["stagger_seconds"])
    if parent_doc is not None:
        document = swarm.snapshot(parent=parent_doc)
        document["meta"] = {"spec": spec, "parent_path": args.parent}
    else:
        document = swarm.snapshot()
        document["meta"] = {"spec": spec}
    save_document(document, args.out)
    blobs = document["blobs"]
    flavour = "delta blob(s)" if parent_doc is not None else "blob(s)"
    print(f"wrote {args.out}: {len(swarm)} member(s), "
          f"{swarm.sweeps_run} sweep(s), {len(blobs)} {flavour}",
          file=sys.stderr)
    if args.verify:
        mismatched = _verify_saved(args.out, swarm)
        if mismatched:
            print(f"verify FAILED: restored state differs in "
                  f"{', '.join(mismatched)}", file=sys.stderr)
            return 1
        print("verify: restored fleet matches the live one",
              file=sys.stderr)
    if report is not None:
        print(render_table(_report_rows(report),
                           title=f"Sweep {swarm.sweeps_run} at checkpoint"))
    return 0


def _load_snapshot_swarm(path: str):
    """Rebuild the checkpointed fleet from the spec embedded in a file.

    Delta checkpoints are folded into a full document first (following
    ``meta.parent_path`` links), so every downstream flow sees exactly
    the state a full snapshot of the same instant would carry.
    """
    from .errors import SnapshotError
    from .snapshot import (build_swarm_from_spec, load_chain,
                           materialize_chain)

    documents = load_chain(path)
    document = (documents[0] if len(documents) == 1
                else materialize_chain(documents))
    meta = document.get("meta") or {}
    if "spec" not in meta:
        raise SnapshotError(
            f"{path} has no embedded rebuild spec; it was not written by "
            f"'repro snapshot save'")
    return document, meta["spec"], build_swarm_from_spec(meta["spec"])


def _cmd_snapshot_restore(args) -> int:
    """Resume a checkpointed fleet and run more sweeps."""
    import json

    document, spec, swarm = _load_snapshot_swarm(args.file)
    swarm.restore(document)
    resumed_at = swarm.sweeps_run
    report = None
    for _ in range(args.sweeps):
        report = swarm.sweep(stagger_seconds=spec["stagger_seconds"])
    if args.json:
        payload = {"resumed_at_sweep": resumed_at,
                   "sweeps_run": swarm.sweeps_run,
                   "device_states": swarm.device_states(),
                   "total_attestations": swarm.total_attestations(),
                   "registry": swarm.merged_registry().dump()}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"restored {args.file}: {len(swarm)} member(s) at sweep "
          f"{resumed_at}, ran {args.sweeps} more", file=sys.stderr)
    if report is not None:
        print(render_table(_report_rows(report),
                           title=f"Sweep {swarm.sweeps_run} after restore"))
    states = swarm.device_states()
    healthy = sum(1 for state in states.values() if state == "healthy")
    print(f"\ndevices: {healthy}/{len(states)} healthy, "
          f"{swarm.total_attestations()} total attestations")
    return 0


def _cmd_snapshot_replay(args) -> int:
    """Restore a checkpoint and re-drive it to an exact trace event."""
    import json

    document, spec, swarm = _load_snapshot_swarm(args.file)
    records = swarm.replay_to_seq(
        document, args.seq, stagger_seconds=spec["stagger_seconds"],
        max_sweeps=args.max_sweeps)
    tail = records if args.tail is None else records[-args.tail:]
    for record in tail:
        print(json.dumps(record, sort_keys=True))
    print(f"# replayed to seq {args.seq}: {len(records)} event(s), "
          f"showing {len(tail)}", file=sys.stderr)
    return 0


def _cmd_snapshot_compact(args) -> int:
    """Squash a delta chain into one standalone full checkpoint."""
    from .snapshot import compact_chain, load_chain, save_document

    documents = load_chain(args.file)
    if len(documents) == 1:
        print(f"error: {args.file} is already a full snapshot",
              file=sys.stderr)
        return 1
    compacted = compact_chain(documents)
    save_document(compacted, args.out)
    print(f"wrote {args.out}: {len(documents)} chain document(s) folded, "
          f"{len(compacted['blobs'])} blob(s)",
          file=sys.stderr)
    return 0


def _match_predicate(pairs: list):
    """Build a trace-record predicate from ``KEY=VALUE`` args (every
    pair must match; values compare against ``str(record[key])``)."""
    matches = []
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(
                f"--match needs KEY=VALUE, got {pair!r}")
        matches.append((key, value))
    return lambda record: all(str(record.get(key)) == value
                              for key, value in matches)


def _cmd_snapshot_bisect(args) -> int:
    """Binary-search a run's event trace for the first matching record."""
    import json

    from .errors import SnapshotError
    from .snapshot import bisect_replay, load_document

    predicate = _match_predicate(args.match)
    documents = [load_document(path) for path in args.files]
    meta = documents[0].get("meta") or {}
    if "spec" not in meta:
        raise SnapshotError(
            f"{args.files[0]} has no embedded rebuild spec; it was "
            f"not written by 'repro snapshot save'")
    from .snapshot import build_swarm_from_spec
    spec = meta["spec"]
    swarm = build_swarm_from_spec(spec)
    result = bisect_replay(swarm, documents, predicate,
                           stagger_seconds=spec["stagger_seconds"],
                           hi=args.hi, max_sweeps=args.max_sweeps)
    print(json.dumps(result, indent=2, sort_keys=True))
    print(f"# first match at seq {result['seq']} after "
          f"{result['probes']} probe(s), {result['events_replayed']} "
          f"event(s) replayed", file=sys.stderr)
    return 0


def _cmd_snapshot_bench(args) -> int:
    """Chained delta checkpoints vs full snapshots on an OTA fleet."""
    from .obs.schema import validate_snapshot_report
    from .perf import snapshot as perf_snapshot

    report = perf_snapshot.build_report(fleet_size=args.size,
                                        ram_kb=args.ram_kb,
                                        rounds=args.rounds,
                                        workers=args.workers)
    return _run_bench(args, report, validate_snapshot_report,
                      _render_snapshot_bench)


def _render_snapshot_bench(report: dict) -> None:
    rows = [["dirty", "content", "full (s)", "delta (s)", "speedup",
             "bytes saved"]]
    for point in report["points"]:
        rows.append([f"{point['dirty_fraction']:.0%}",
                     "shared" if point["shared_content"] else "unique",
                     f"{point['full_seconds']:.3f}",
                     f"{point['delta_seconds']:.3f}",
                     f"{point['speedup']:.2f}x",
                     f"{point['bytes_reduction']:.1f}x"])
    print(render_table(
        rows, title=f"Snapshot bench: {report['fleet_size']} members, "
                    f"{report['workers']} workers, "
                    f"{report['rounds']} timed round(s)"))
    gate = report["gate"]
    print(f"\ngate: {gate['speedup']:.2f}x wall-clock / "
          f"{gate['bytes_reduction']:.1f}x bytes at "
          f"{gate['dirty_fraction']:.0%} dirty (thresholds "
          f"{gate['speedup_threshold']:.1f}x / "
          f"{gate['bytes_threshold']:.1f}x) -> "
          f"{'pass' if gate['passed'] else 'FAIL'}")
    print(f"equivalence clean: {report['equivalence']['identical']}")


def _cmd_serve(args) -> int:
    """Run the multi-tenant verifier service over a seeded schedule."""
    import json

    from .errors import SnapshotError
    from .services.attestd import (build_schedule, build_service_from_spec,
                                   service_spec)
    from .snapshot import load_document, save_document

    if args.restore:
        document = load_document(args.restore)
        meta = document.get("meta", {})
        if "spec" not in meta:
            raise SnapshotError(
                f"{args.restore} has no embedded rebuild spec; it was "
                f"not written by 'repro serve --snapshot'")
        spec = meta["spec"]
        service = build_service_from_spec(spec)
        service.restore(document)
    else:
        spec = service_spec(size=args.devices, tenants=args.tenants,
                            backends=args.backends,
                            duty_fraction=args.duty,
                            burst_seconds=args.burst, seed=args.seed)
        service = build_service_from_spec(spec)
    start = service.virtual_now + (args.spacing if args.restore else 0.0)
    schedule = build_schedule(spec["size"], waves=args.waves,
                              spacing_seconds=args.spacing,
                              start_seconds=start,
                              seed=f"{spec['seed']}:schedule")
    records = service.serve_schedule(schedule, workers=args.workers)
    verdicts: dict = {}
    for record in records:
        verdicts[record.verdict] = verdicts.get(record.verdict, 0) + 1
    if args.snapshot:
        document = service.snapshot()
        document["meta"] = {"spec": spec}
        save_document(document, args.snapshot)
        print(f"wrote {args.snapshot}: {len(service)} device(s) at "
              f"virtual t={service.virtual_now:.0f}s", file=sys.stderr)
    if args.json:
        payload = {"spec": spec, "offered": len(schedule),
                   "admitted": service.admitted,
                   "rejected": service.rejected,
                   "peak_in_flight": service.peak_in_flight,
                   "verdicts": verdicts,
                   "buckets": {tenant: bucket.tokens for tenant, bucket
                               in service.buckets.items()},
                   "registry": service.merged_registry().dump()}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [["quantity", "value"],
            ["devices / tenants / backends",
             f"{spec['size']} / {spec['tenants']} / {spec['backends']}"],
            ["offered", str(len(schedule))],
            ["admitted", str(service.admitted)],
            ["rejected (duty budget)", str(service.rejected)],
            ["peak sessions in flight", str(service.peak_in_flight)]]
    for verdict in sorted(verdicts):
        rows.append([f"verdict: {verdict}", str(verdicts[verdict])])
    print(render_table(rows, title=f"attestd: {args.waves} wave(s), "
                                   f"duty {spec['duty_fraction']:.2%} "
                                   f"per tenant device"))
    return 0


def _cmd_service_bench(args) -> int:
    """Service-tier load benchmark vs the sequential library path."""
    from .obs.schema import validate_service_report
    from .perf import service as perf_service

    report = perf_service.build_report(size=args.size, tenants=args.tenants,
                                       backends=args.backends,
                                       duty_fraction=args.duty)
    return _run_bench(args, report, validate_service_report,
                      _render_service_bench)


def _render_service_bench(report: dict) -> None:
    rows = [["point", "offered", "admitted", "rejected", "in flight",
             "sessions/s", "p99 (ms)"]]
    for label, point in zip(("paced", "overload", "burst"),
                            report["points"]):
        rows.append([label, str(point["offered"]), str(point["admitted"]),
                     str(point["rejected"]), str(point["peak_in_flight"]),
                     f"{point['sessions_per_second']:.0f}",
                     f"{point['p99_latency_ms']:.1f}"])
    print(render_table(
        rows, title=f"Service bench: {report['size']} devices, "
                    f"{report['tenants']} tenants, "
                    f"{report['backends']} backends"))
    gate = report["gate"]
    print(f"\ngate: {gate['max_peak_in_flight']} sessions in flight "
          f"(needs >= {gate['required_in_flight']}) -> "
          f"{'pass' if gate['passed'] else 'FAIL'}")
    print(f"equivalence clean: {report['equivalence']['identical']}")


def _cmd_report(args) -> int:
    """Aggregate benchmarks/results/*.txt into one markdown report."""
    import pathlib

    results = pathlib.Path(args.results_dir)
    if not results.is_dir():
        print(f"no results directory at {results}; run "
              f"'pytest benchmarks/ --benchmark-only' first",
              file=sys.stderr)
        return 1
    files = sorted(results.glob("*.txt"))
    if not files:
        print(f"no result files in {results}", file=sys.stderr)
        return 1
    sections = ["# Experiment report",
                "",
                f"Aggregated from {len(files)} result files in "
                f"`{results}`.  Regenerate with "
                f"`pytest benchmarks/ --benchmark-only`.",
                ""]
    for path in files:
        sections.append(f"## {path.stem.replace('_', ' ')}")
        sections.append("")
        sections.append("```")
        sections.append(path.read_text().rstrip())
        sections.append("```")
        sections.append("")
    output = "\n".join(sections)
    if args.output:
        pathlib.Path(args.output).write_text(output)
        print(f"wrote {args.output} ({len(files)} sections)")
    else:
        print(output)
    return 0


class _AtLeast(argparse.Action):
    """Store an option value, refusing one below ``minimum`` with a
    typed error (one ``error:`` line and exit 1, like every other bad
    value)."""

    def __init__(self, option_strings, dest, minimum=0, **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.minimum = minimum

    def __call__(self, parser, namespace, value, option_string=None):
        if not value >= self.minimum:
            raise ConfigurationError(f"{option_string} must be >= "
                                     f"{self.minimum}, got {value}")
        setattr(namespace, self.dest, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Remote Attestation for Low-End Embedded "
                    "Devices: the Prover's Perspective' (DAC 2016)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="crypto primitive costs")
    p.add_argument("--mhz", type=int, default=24)
    p.add_argument("--ram-kb", type=int, default=512)
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("table2", help="attack-vs-feature matrix")
    p.add_argument("--model-check", action="store_true",
                   help="derive via exhaustive schedule enumeration")
    p.add_argument("--strict", action="store_true",
                   help="unrestricted adversary (with --model-check)")
    p.set_defaults(fn=_cmd_table2)

    p = sub.add_parser("table3", help="hardware component costs")
    p.set_defaults(fn=_cmd_table3)

    p = sub.add_parser("overhead", help="Section 6.3 overheads and clocks")
    p.set_defaults(fn=_cmd_overhead)

    p = sub.add_parser("roam", help="Section 5 roaming adversary grid")
    p.add_argument("--clock", action="append",
                   choices=["hw64", "hw32div", "sw"],
                   help="clock designs to attack (repeatable)")
    p.set_defaults(fn=_cmd_roam)

    p = sub.add_parser("flood", help="forged-request DoS flood")
    p.add_argument("--rate", type=float, default=0.5)
    p.add_argument("--duration", type=float, default=60.0,
                   action=_AtLeast)
    p.add_argument("--ram-kb", type=int, default=16)
    p.set_defaults(fn=_cmd_flood)

    p = sub.add_parser("attest", help="one end-to-end attestation round")
    p.add_argument("--ram-kb", type=int, default=64)
    p.add_argument("--scheme", default="speck-64/128-cbc-mac",
                   choices=["none", "speck-64/128-cbc-mac",
                            "aes-128-cbc-mac", "hmac-sha1",
                            "ecdsa-secp160r1"])
    p.add_argument("--policy", default="counter",
                   choices=["none", "nonce", "counter", "timestamp"])
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable session summary")
    p.set_defaults(fn=_cmd_attest)

    p = sub.add_parser("metrics",
                       help="telemetry export + registry/stats cross-check")
    p.add_argument("--rounds", type=int, default=2,
                   action=_AtLeast)
    p.add_argument("--ram-kb", type=int, default=64)
    p.add_argument("--scheme", default="speck-64/128-cbc-mac",
                   choices=["none", "speck-64/128-cbc-mac",
                            "aes-128-cbc-mac", "hmac-sha1",
                            "ecdsa-secp160r1"])
    p.add_argument("--policy", default="counter",
                   choices=["none", "nonce", "counter", "timestamp"])
    p.add_argument("--trace-out", default=None,
                   help="write the JSON-lines trace to a file")
    p.add_argument("--registry-out", default=None,
                   help="write the registry dump JSON to a file")
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("modelcheck",
                       help="exhaustive freshness-policy verification")
    p.add_argument("--requests", type=int, default=3)
    p.set_defaults(fn=_cmd_modelcheck)

    p = sub.add_parser("swatt",
                       help="software-attestation baseline vs topology")
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--iterations", type=int, default=8000)
    p.set_defaults(fn=_cmd_swatt)

    p = sub.add_parser("verify-profile",
                       help="static EA-MPU protection-invariant verifier")
    p.add_argument("--profile", default=None,
                   choices=["unprotected", "baseline", "ext-hardened",
                            "roam-hardened"],
                   help="verify one profile instead of all four")
    p.add_argument("--clock", action="append",
                   choices=["hw64", "hw32div", "sw", "none"],
                   help="clock designs to verify under (repeatable; "
                        "default hw64 and sw)")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable profile reports")
    p.set_defaults(fn=_cmd_verify_profile)

    p = sub.add_parser("lint",
                       help="determinism/consistency lint over the repo")
    p.add_argument("paths", nargs="*",
                   help="directories to scan, relative to --root "
                        "(default: src benchmarks examples tests)")
    p.add_argument("--root", default=".",
                   help="repository root the scan is relative to")
    p.add_argument("--waivers", default="lint-waivers.json",
                   help="waiver list, relative to --root")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable lint report")
    p.add_argument("--allow-stale", action="store_true",
                   help="do not fail on waivers matching no violation")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser("taint",
                       help="key-confidentiality taint analysis over "
                            "src/repro (KEY001/KEY002/KEY003)")
    p.add_argument("--root", default=".",
                   help="repository root the scan is relative to")
    p.add_argument("--policy", default="taint-policy.json",
                   help="declared-sink policy file, relative to --root")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable taint report")
    p.add_argument("--allow-stale", action="store_true",
                   help="do not fail on policy entries matching no sink")
    p.add_argument("--canary", action="store_true",
                   help="also run the dynamic canary leak-hunt")
    p.set_defaults(fn=_cmd_taint)

    p = sub.add_parser("analyze",
                       help="invariants + lint + taint in one merged "
                            "deterministic analysis document")
    p.add_argument("--root", default=".",
                   help="repository root the scan is relative to")
    p.add_argument("--waivers", default="lint-waivers.json",
                   help="lint waiver list, relative to --root")
    p.add_argument("--policy", default="taint-policy.json",
                   help="taint policy file, relative to --root")
    p.add_argument("--out", default=None,
                   help="write the document here instead of stdout")
    p.add_argument("--allow-stale", action="store_true",
                   help="do not fail on stale waivers/policy entries")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("fleet-bench",
                       help="sharded parallel fleet sweep vs sequential")
    p.add_argument("--size", type=int, default=24,
                   help="fleet size (default 24; the CI gate runs 256)")
    p.add_argument("--ram-kb", type=int, default=256,
                   help="per-member RAM in KB")
    p.add_argument("--sweeps", type=int, default=2,
                   action=_AtLeast, minimum=1,
                   help="timed sweeps per path")
    p.add_argument("--workers", type=int, default=2,
                   help="shard workers (default 2)")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable fleet report")
    p.add_argument("--out", default=None,
                   help="also write the JSON report to a file")
    p.set_defaults(fn=_cmd_fleet_bench)

    p = sub.add_parser("incremental-bench",
                       help="dirty-region incremental sweeps vs full walks")
    p.add_argument("--size", type=int, default=24,
                   help="fleet size (default 24; the CI gate runs 256)")
    p.add_argument("--ram-kb", type=int, default=256,
                   help="per-member RAM in KB (flash sized to match)")
    p.add_argument("--sweeps", type=int, default=2,
                   action=_AtLeast, minimum=1,
                   help="timed update+sweep rounds per path")
    p.add_argument("--dirty", type=float, action="append", default=None,
                   metavar="FRACTION",
                   help="dirty fraction to measure (repeatable; default "
                        "0.02 0.05 0.10 0.25 0.50)")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable incremental report")
    p.add_argument("--out", default=None,
                   help="also write the JSON report to a file")
    p.set_defaults(fn=_cmd_incremental_bench)

    p = sub.add_parser("serve",
                       help="multi-tenant verifier service over a schedule")
    p.add_argument("--devices", type=int, default=12,
                   help="fleet size (ignored with --restore)")
    p.add_argument("--tenants", type=int, default=4)
    p.add_argument("--backends", type=int, default=4,
                   help="shard backends on the consistent-hash ring")
    p.add_argument("--duty", type=float, default=0.01,
                   help="per-tenant duty-cycle fraction (Section 3.1)")
    p.add_argument("--burst", type=float, default=600.0,
                   help="token-bucket burst window in prover-seconds")
    p.add_argument("--waves", type=int, default=3,
                   help="request waves; each wave arrives at one instant")
    p.add_argument("--spacing", type=float, default=60.0,
                   help="virtual seconds between waves")
    p.add_argument("--workers", type=int, default=1,
                   help="async workers per backend")
    p.add_argument("--seed", default="attestd")
    p.add_argument("--snapshot", default=None, metavar="FILE",
                   help="checkpoint the service after serving")
    p.add_argument("--restore", default=None, metavar="FILE",
                   help="resume a 'serve --snapshot' checkpoint")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable state instead of a table")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("service-bench",
                       help="verifier-service load benchmark + gates")
    p.add_argument("--size", type=int, default=1024,
                   help="devices in the burst load point")
    p.add_argument("--tenants", type=int, default=4)
    p.add_argument("--backends", type=int, default=8)
    p.add_argument("--duty", type=float, default=0.01)
    p.add_argument("--out", default=None,
                   help="also write the JSON report to a file")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable service report")
    p.set_defaults(fn=_cmd_service_bench)

    p = sub.add_parser("report",
                       help="aggregate benchmark results into markdown")
    p.add_argument("--results-dir", default="benchmarks/results")
    p.add_argument("--output", default=None,
                   help="write to a file instead of stdout")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("snapshot",
                       help="checkpoint, restore, and replay fleets")
    snap = p.add_subparsers(dest="action", required=True)

    p = snap.add_parser("save", help="run a fleet, checkpoint it to a file")
    p.add_argument("--out", required=True, help="checkpoint file to write")
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--sweeps", type=int, default=2,
                   action=_AtLeast,
                   help="sweeps to run before checkpointing")
    p.add_argument("--profile", default="roam-hardened")
    p.add_argument("--scheme", default="speck-64/128-cbc-mac")
    p.add_argument("--policy", default="counter",
                   choices=["counter", "nonce", "timestamp"])
    p.add_argument("--ram-kb", type=int, default=16)
    p.add_argument("--retry", action="store_true",
                   help="enable the fleet-wide retry policy")
    p.add_argument("--faults", action="store_true",
                   help="attach the lossy-link fault pipeline")
    p.add_argument("--stagger", type=float, default=0.0)
    p.add_argument("--seed", default="cli-snapshot")
    p.add_argument("--incremental", action="store_true",
                   help="attach digest trees (required for later "
                        "--parent delta saves)")
    p.add_argument("--delta", action="store_true",
                   help="write a delta checkpoint (requires --parent)")
    p.add_argument("--parent", default=None, metavar="FILE",
                   help="resume this checkpoint and write a delta "
                        "against it instead of a full snapshot")
    p.add_argument("--verify", action="store_true",
                   help="restore the written file into a fresh fleet "
                        "and compare it against the live one")
    p.set_defaults(fn=_cmd_snapshot_save)

    p = snap.add_parser("restore",
                        help="resume a checkpoint, run more sweeps")
    p.add_argument("file", help="checkpoint file from 'snapshot save'")
    p.add_argument("--sweeps", type=int, default=1,
                   action=_AtLeast,
                   help="sweeps to run after restoring")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable state instead of tables")
    p.set_defaults(fn=_cmd_snapshot_restore)

    p = snap.add_parser("replay",
                        help="re-drive a checkpoint to an exact event")
    p.add_argument("file", help="checkpoint file from 'snapshot save'")
    p.add_argument("--seq", type=int, required=True,
                   help="trace sequence number to replay through")
    p.add_argument("--max-sweeps", type=int, default=64)
    p.add_argument("--tail", type=int, default=None,
                   help="print only the last N replayed events")
    p.set_defaults(fn=_cmd_snapshot_replay)

    p = snap.add_parser("compact",
                        help="squash a delta chain into one full file")
    p.add_argument("file", help="tip of a delta chain from "
                                "'snapshot save --parent'")
    p.add_argument("--out", required=True, help="full checkpoint to write")
    p.set_defaults(fn=_cmd_snapshot_compact)

    p = snap.add_parser("bisect",
                        help="binary-search a run for the first matching "
                             "trace event")
    p.add_argument("files", nargs="+",
                   help="checkpoint files along one run, oldest first "
                        "(deltas must chain to their predecessor)")
    p.add_argument("--match", action="append", required=True,
                   metavar="KEY=VALUE",
                   help="record field to match (repeatable; all must "
                        "match)")
    p.add_argument("--hi", type=int, default=None,
                   help="known upper-bound seq (skips the forward scan)")
    p.add_argument("--max-sweeps", type=int, default=64)
    p.set_defaults(fn=_cmd_snapshot_bisect)

    p = sub.add_parser("snapshot-bench",
                       help="delta checkpoints vs full snapshots under "
                            "an OTA campaign")
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--ram-kb", type=int, default=64)
    p.add_argument("--rounds", type=int, default=2,
                   action=_AtLeast, minimum=1)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--out", default=None,
                   help="write the schema-validated JSON report here")
    p.add_argument("--json", action="store_true",
                   help="print the full report as JSON")
    p.set_defaults(fn=_cmd_snapshot_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
