"""Key-confidentiality taint analysis over the simulator tree.

The paper's Section 5 confidentiality claim -- ``K_Attest`` never
leaves the prover's protected memory -- is enforced *inside* the
simulation by the EA-MPU (and verified statically by
:mod:`repro.analysis.invariants`).  This module closes the other half
of the trust boundary: our own host-side code must not exfiltrate key
material through telemetry, traces, reports, wire messages or
exception text.  It is a client of the interprocedural engine in
:mod:`repro.analysis.dataflow`.

Rules
-----

``KEY001``
    A key-tagged value reaches a forbidden host-boundary sink
    (telemetry counter/gauge/event, trace record, ``json.dump``,
    ``print``, channel send, blob store, exception text).
``KEY002``
    A key-tagged value decides a branch whose outcome is telemetered:
    the *content* of the key shapes observable behaviour even though
    its bytes never cross (a timing/shape leak).
``KEY003``
    An undeclared sink signature: a module under ``src/repro/``
    performs host-boundary writes (``print``/``json.dump``/write-mode
    ``open``/``write_text``/``pickle.dump``) without being declared in
    :data:`KNOWN_BOUNDARY_MODULES` or the checked-in
    ``taint-policy.json`` -- new export paths must be enumerated before
    the dataflow rules can claim coverage.

Sources, sinks, sanitizers
--------------------------

*Sources* are the KDF outputs (``derive_device_key``, ``hkdf*``), the
hardware key reads (``read_key``/``read_attestation_key``), and
``raw_read`` applied to key-span addresses.  ``Device.key_span`` /
``key_address`` reads yield the distinct ``KEYADDR`` tag: key
*addresses* are public layout facts (the invariant verifier prints
them in counterexamples); only dereferenced key *bytes* carry ``KEY``.
*Sanitizers* are the MAC/digest finalizations (``hmac_sha1``,
``cbc_mac``, ``.digest()``/``.hexdigest()``, cipher ``.encrypt``):
their output is safe to emit by construction.  The snapshot
``BlobStore`` is a *policy sink* -- region images legitimately contain
the key because the simulated memory IS the trust boundary -- declared
with a mandatory justification in ``taint-policy.json``, mirroring the
``lint-waivers.json`` discipline.  Stale policy entries (matching no
current sink site or boundary op) fail the run, so the policy file
cannot rot.

Known static blind spots, covered by the dynamic canary hunt
(:mod:`repro.analysis.canary`): subscript stores (memory byte planes),
module-global caches (the HMAC midstate pad cache) and closures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import ast

from .dataflow import (BOTTOM, CallContext, DataflowClient, Program,
                       SinkSite, Violation, analyze_program)

__all__ = ["KEY", "KEYADDR", "TaintPolicy", "PolicySink", "BoundaryModule",
           "TaintReport", "KeyConfidentialityClient", "load_policy",
           "analyze_taint_tree", "KNOWN_BOUNDARY_MODULES",
           "SOURCE_FUNCTIONS", "SANITIZER_FUNCTIONS", "SOURCE_ATTRS"]

#: Tag carried by key *bytes* (the secret).
KEY = "key"
#: Tag carried by key *addresses* (public layout; never a violation).
KEYADDR = "key-addr"

#: Functions whose return value is key material, matched by (dotted or
#: resolved) name -- the KDF surface plus the hardware key reads.
SOURCE_FUNCTIONS = frozenset({
    "derive_device_key", "hkdf", "hkdf_extract", "hkdf_expand",
    "read_key", "read_attestation_key",
})

#: Finalization functions whose output is safe to emit: MAC tags,
#: digests and ciphertext are the *point* of having the key.
SANITIZER_FUNCTIONS = frozenset({
    "hmac_sha1", "cbc_mac", "digest", "hexdigest", "encrypt",
    "encrypt_block", "decrypt_block", "constant_time_compare",
})

#: Attribute reads that intrinsically carry a tag.
SOURCE_ATTRS = {
    "key_span": frozenset({KEYADDR}),
    "key_address": frozenset({KEYADDR}),
}

#: Modules with built-in permission to perform host-boundary writes,
#: with the justification for each -- the same explicit-allowlist
#: discipline as :data:`repro.analysis.lint.HOST_BOUNDARY_MODULES`.
#: Presentation-layer modules (``cli.py``, ``perf/*``) are declared in
#: ``taint-policy.json`` instead, where their entries are stale-checked.
KNOWN_BOUNDARY_MODULES = {
    "src/repro/obs/trace.py":
        "EventTrace.export_jsonl is the declared trace export; its "
        "payloads are covered by the trace sink rules and the canary "
        "scan",
    "src/repro/snapshot/document.py":
        "the snapshot writer; region images route through the "
        "BlobStore policy sink and everything else is scanned by the "
        "canary hunt",
}

#: Sink kinds whose presence inside a branch makes a key-dependent
#: condition a KEY002 (the branch outcome is observable).
_BRANCH_SINK_KINDS = frozenset({"telemetry", "trace"})

#: The analyzer's own dynamic cross-check is excluded from the static
#: scan: the canary hunter *must* derive keys, encode them every way a
#: leak could, and plant a deliberate telemetry leak in ``leak=True``
#: mode -- every one of those lines is a true positive by design.  Its
#: confidentiality obligations are checked by its own verdicts (a hunt
#: whose clean run is not clean fails the canary gate), not by KEY001.
EXCLUDED_SELF_MODULES = frozenset({
    "src/repro/analysis/canary.py",
})

#: Boundary write operations KEY003 looks for (AST level).
_WRITE_MODES = ("w", "a", "x")


# ---------------------------------------------------------------------------
# Policy file (taint-policy.json)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolicySink:
    """One declared legitimate sink: kind + path + justification."""

    kind: str
    path: str
    reason: str

    def matches_violation(self, violation: Violation) -> bool:
        return violation.sink == self.kind and violation.path == self.path

    def matches_site(self, site: SinkSite) -> bool:
        return site.kind == self.kind and site.path == self.path


@dataclass(frozen=True)
class BoundaryModule:
    path: str
    reason: str


@dataclass(frozen=True)
class TaintPolicy:
    sinks: tuple[PolicySink, ...]
    boundary_modules: tuple[BoundaryModule, ...]

    @property
    def boundary_paths(self) -> frozenset:
        return frozenset(m.path for m in self.boundary_modules)


def load_policy(path: Path) -> TaintPolicy:
    """Load ``taint-policy.json`` (missing file = empty policy)."""
    if not path.exists():
        return TaintPolicy(sinks=(), boundary_modules=())
    data = json.loads(path.read_text())
    sinks = []
    for entry in data.get("policy_sinks", []):
        if not entry.get("reason"):
            raise ValueError(f"policy sink {entry.get('kind')!r} on "
                             f"{entry.get('path')!r} has no justification")
        sinks.append(PolicySink(kind=entry["kind"], path=entry["path"],
                                reason=entry["reason"]))
    modules = []
    for entry in data.get("boundary_modules", []):
        if not entry.get("reason"):
            raise ValueError(f"boundary module {entry.get('path')!r} "
                             f"has no justification")
        modules.append(BoundaryModule(path=entry["path"],
                                      reason=entry["reason"]))
    return TaintPolicy(sinks=tuple(sinks), boundary_modules=tuple(modules))


# ---------------------------------------------------------------------------
# The dataflow client
# ---------------------------------------------------------------------------

def _dotted_contains(ctx: CallContext, needle: str) -> bool:
    if ctx.dotted is None:
        return False
    return any(needle in part.lower() for part in ctx.dotted[:-1])


class KeyConfidentialityClient(DataflowClient):
    SINK_RULE = "KEY001"
    BRANCH_RULE = "KEY002"
    secret_tags = frozenset({KEY})
    branch_sink_kinds = _BRANCH_SINK_KINDS

    def transform_call(self, ctx: CallContext):
        name = ctx.name
        if name in SOURCE_FUNCTIONS:
            return frozenset({KEY})
        if name == "raw_read":
            # Dereferencing a key-span address yields key bytes; any
            # other raw_read is ordinary (public) memory content.
            if KEYADDR in ctx.all_tags:
                return frozenset({KEY})
            return BOTTOM
        if name in SANITIZER_FUNCTIONS:
            return BOTTOM
        return None

    def sink_kind(self, ctx: CallContext):
        name = ctx.name
        if name is None:
            return None
        if (name in ("count", "set_gauge", "observe", "event")
                and _dotted_contains(ctx, "telemetry")):
            return "telemetry"
        if (name == "record"
                and (_dotted_contains(ctx, "trace")
                     or _dotted_contains(ctx, "transcript"))):
            return "trace"
        if name in ("dump", "dumps") and ctx.dotted is not None \
                and len(ctx.dotted) >= 2 and ctx.dotted[-2] == "json":
            return "json-report"
        if name == "print" and ctx.dotted is not None \
                and len(ctx.dotted) == 1:
            return "stdout"
        if name == "put" and (_dotted_contains(ctx, "blob")
                              or _dotted_contains(ctx, "store")
                              or (ctx.enclosing_class is not None
                                  and "Blob" in ctx.enclosing_class)):
            return "blob-store"
        if (name in ("send", "deliver", "inject")
                and _dotted_contains(ctx, "channel")):
            return "channel"
        if name == "write_text":
            return "file-write"
        return None

    def attr_source(self, attr: str) -> frozenset:
        return SOURCE_ATTRS.get(attr, BOTTOM)

    def storable_tags(self, tags: frozenset) -> frozenset:
        # Key *addresses* are public layout facts; letting them into
        # the name-joined attribute map would mark every ``.start`` /
        # ``.address`` in the program key-adjacent and turn ordinary
        # bus reads into false key sources.
        return tags - frozenset({KEYADDR})


# ---------------------------------------------------------------------------
# KEY003: undeclared boundary modules (a direct AST pass)
# ---------------------------------------------------------------------------

def _is_write_open(node: ast.Call) -> bool:
    mode = None
    if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
        mode = node.args[1].value
    for kw in node.keywords:
        if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
            mode = kw.value.value
    return isinstance(mode, str) and any(m in mode for m in _WRITE_MODES)


def _boundary_ops(tree: ast.AST) -> list[tuple[int, int, str]]:
    """(line, col, op) for every host-boundary write in a module."""
    ops: list[tuple[int, int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "print":
                ops.append((node.lineno, node.col_offset, "print"))
            elif func.id == "open" and _is_write_open(node):
                ops.append((node.lineno, node.col_offset, "open-write"))
        elif isinstance(func, ast.Attribute):
            base = func.value
            if (func.attr in ("dump", "dumps")
                    and isinstance(base, ast.Name)
                    and base.id in ("json", "pickle")
                    and not (base.id == "json" and func.attr == "dumps")):
                ops.append((node.lineno, node.col_offset,
                            f"{base.id}.{func.attr}"))
            elif func.attr == "write_text":
                ops.append((node.lineno, node.col_offset, "write_text"))
            elif func.attr == "open" and _is_write_open(node):
                ops.append((node.lineno, node.col_offset, "open-write"))
    return ops


def _undeclared_boundaries(program_files, root: Path,
                           policy: TaintPolicy):
    """KEY003 violations + the set of policy paths that matched."""
    violations: list[Violation] = []
    matched_paths: set[str] = set()
    declared = set(KNOWN_BOUNDARY_MODULES) | policy.boundary_paths
    for path in program_files:
        file_path = root / path
        if not file_path.exists():
            continue
        try:
            tree = ast.parse(file_path.read_text(), filename=path)
        except SyntaxError:
            continue
        ops = _boundary_ops(tree)
        if not ops:
            continue
        if path in declared:
            if path in policy.boundary_paths:
                matched_paths.add(path)
            continue
        line, col, op = min(ops)
        violations.append(Violation(
            rule="KEY003", path=path, line=line, col=col, sink=op,
            message=f"undeclared host-boundary write {op} "
                    f"({len(ops)} site{'s' if len(ops) != 1 else ''}); "
                    f"declare the module in taint-policy.json or "
                    f"KNOWN_BOUNDARY_MODULES",
            chain=(f"{path}:{line}",)))
    return violations, matched_paths


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaintReport:
    files_scanned: int
    violations: tuple[Violation, ...]       # unwaived, sorted
    waived: tuple[tuple[Violation, str], ...]  # (violation, reason)
    sinks: tuple[tuple[str, str, int], ...]    # (kind, path, site count)
    stale_policy: tuple[dict, ...]
    rounds: int

    @property
    def clean(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        waived = []
        for violation, reason in self.waived:
            entry = violation.as_dict()
            entry["waiver_reason"] = reason
            waived.append(entry)
        return {
            "files_scanned": self.files_scanned,
            "clean": self.clean,
            "violations": [v.as_dict() for v in self.violations],
            "waived": waived,
            "sinks": [{"kind": kind, "path": path, "count": count}
                      for kind, path, count in self.sinks],
            "stale_policy": list(self.stale_policy),
            "rounds": self.rounds,
        }


def analyze_taint_tree(root: Path, *,
                       dirs: tuple[str, ...] = ("src/repro",),
                       policy: TaintPolicy | None = None) -> TaintReport:
    """Run the full key-confidentiality analysis over ``root``."""
    policy = policy if policy is not None else TaintPolicy((), ())
    program = Program.from_tree(root, dirs=dirs,
                                exclude=EXCLUDED_SELF_MODULES)
    result = analyze_program(program, KeyConfidentialityClient())

    kept: list[Violation] = []
    waived: list[tuple[Violation, str]] = []
    used_sinks: set[PolicySink] = set()
    for violation in result.violations:
        matched = next((p for p in policy.sinks
                        if p.matches_violation(violation)), None)
        if matched is not None:
            used_sinks.add(matched)
            waived.append((violation, matched.reason))
        else:
            kept.append(violation)

    key003, matched_boundaries = _undeclared_boundaries(
        result.files, root, policy)
    kept.extend(key003)
    kept.sort(key=Violation.sort_key)

    # Stale-policy detection: a declared sink must match a catalogued
    # sink site (tainted or not); a declared boundary module must
    # actually contain boundary ops.
    stale: list[dict] = []
    for sink in policy.sinks:
        if sink in used_sinks:
            continue
        if not any(sink.matches_site(site) for site in result.sink_sites):
            stale.append({"kind": "policy-sink", "path": sink.path,
                          "sink": sink.kind,
                          "detail": "matches no catalogued sink site"})
    for module in policy.boundary_modules:
        if module.path not in matched_boundaries:
            stale.append({"kind": "boundary-module", "path": module.path,
                          "detail": "module has no host-boundary writes "
                                    "(or is not scanned)"})
    stale.sort(key=lambda e: (e["kind"], e["path"]))

    site_counts: dict[tuple[str, str], int] = {}
    for site in result.sink_sites:
        key = (site.kind, site.path)
        site_counts[key] = site_counts.get(key, 0) + 1
    sinks = tuple(sorted(
        (kind, path, count)
        for (kind, path), count in site_counts.items()))

    return TaintReport(
        files_scanned=len(result.files),
        violations=tuple(kept),
        waived=tuple(sorted(waived, key=lambda w: w[0].sort_key())),
        sinks=sinks,
        stale_policy=tuple(stale),
        rounds=result.rounds)
