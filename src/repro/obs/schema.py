"""Schemas for exported telemetry, plus a dependency-free validator.

Two artefacts leave the simulator:

* the **event trace**, as JSON lines -- each line one object matching
  :data:`EVENT_SCHEMA`;
* the **registry dump**, one JSON object matching
  :data:`REGISTRY_SCHEMA`.

The schema dictionaries use a pragmatic subset of JSON-Schema vocabulary
(``type``, ``required``, ``properties``, ``enum``) that
:func:`validate_event` / :func:`validate_registry_dump` interpret
directly -- the container has no ``jsonschema`` package, and the subset
is all the smoke tooling needs.  Validators return a list of error
strings (empty = valid) so CI can print every problem at once.
"""

from __future__ import annotations

import json

from ..fastpath import ENGINES
from .trace import EVENT_KINDS

__all__ = ["EVENT_SCHEMA", "REGISTRY_SCHEMA", "WALLCLOCK_SCHEMA",
           "ANALYSIS_SCHEMA", "FLEET_SCHEMA", "INCREMENTAL_SCHEMA",
           "SERVICE_SCHEMA", "SNAPSHOT_SCHEMA", "SNAPSHOT_SCHEMA_ID",
           "SNAPSHOT_DELTA_SCHEMA", "SNAPSHOT_DELTA_SCHEMA_ID",
           "SNAPSHOT_BENCH_SCHEMA",
           "METRIC_NAMES", "INVARIANT_NAMES", "LINT_RULE_IDS",
           "TAINT_RULE_IDS",
           "validate_event", "validate_jsonl_trace",
           "validate_registry_dump", "validate_wallclock_report",
           "validate_analysis_report", "validate_fleet_report",
           "validate_incremental_report", "validate_service_report",
           "validate_snapshot", "validate_snapshot_delta",
           "validate_snapshot_report"]

#: The closed vocabulary of metric (counter/gauge/histogram) names the
#: instrumentation may emit.  `repro.analysis.lint` rule TEL001 checks
#: every literal name at a telemetry call site against this set, so a
#: typo in instrumentation fails `repro lint` instead of silently
#: producing an unknown series in the registry export.
METRIC_NAMES = frozenset({
    # network channel
    "channel.delivered",
    "channel.dropped",
    "channel.duplicated",
    "channel.injected",
    "channel.pending_events",
    "channel.sent",
    # device hardware
    "cpu.cycles",
    "device.battery_fraction_remaining",
    "device.clock_wraps",
    "device.energy_consumed_mj",
    "device.flash_bytes",
    "device.mpu_faults",
    "device.mpu_rules",
    "device.ram_bytes",
    "device.writable_bytes",
    # prover trust anchor
    "prover.attestation_cycles",
    "prover.attestation_cycles_per_request",
    "prover.freshness_state_bytes",
    "prover.nonce_count",
    "prover.requests.accepted",
    "prover.requests.received",
    "prover.requests.rejected",
    "prover.validation_cycles",
    "prover.validation_cycles_per_request",
    # verifier-side resilience and operations
    "monitor.backoff_seconds",
    "monitor.events",
    "session.backoff_seconds",
    "session.retries",
    "session.timeouts",
    # verifier service tier (admission control; see docs/service.md)
    "service.admitted",
    "service.rejected",
    "service.rounds",
    # host-side snapshot blob store (exported on demand via
    # ``BlobStore.publish``; never published from ``put``)
    "snapshot.blobs",
    "snapshot.bytes",
    # host-side state digest cache (exported on demand via
    # ``StateDigestCache.publish``; never published mid-sweep)
    "statecache.evictions",
    "statecache.hits",
    "statecache.misses",
    "swarm.breaker_transitions",
    "verifier.requests_issued",
    "verifier.responses_validated",
    "verifier.timeouts",
    "verifier.verdicts",
})

#: The closed set of protection invariants `repro.analysis.invariants`
#: checks statically against a booted device's EA-MPU rule table
#: (Sections 5/6 of the paper; see ``docs/static-analysis.md``).
INVARIANT_NAMES = frozenset({
    "rule-budget",
    "secure-boot-coverage",
    "mpu-lockdown",
    "no-widening-overlap",
    "key-confidentiality",
    "counter-rollback-protection",
    "clock-integrity",
})

#: The closed set of lint rule identifiers `repro.analysis.lint` emits.
LINT_RULE_IDS = frozenset({
    "DET001",   # host clock use in simulated-path modules
    "DET002",   # stdlib random in simulated-path modules
    "FLT001",   # float arithmetic in cycle-accounting functions
    "TEL001",   # telemetry name not in the schema vocabulary
})

#: The closed set of key-confidentiality rule identifiers
#: ``repro.analysis.taint`` emits.
TAINT_RULE_IDS = frozenset({
    "KEY001",   # key-tagged value reaches a forbidden host sink
    "KEY002",   # key content decides a telemetered branch (shape leak)
    "KEY003",   # undeclared host-boundary write signature
})

#: Schema of one trace-event object (one JSON line of the export).
EVENT_SCHEMA = {
    "type": "object",
    "required": ["seq", "time", "kind"],
    "properties": {
        "seq": {"type": "integer", "minimum": 0},
        "time": {"type": "number", "minimum": 0},
        "kind": {"type": "string", "enum": sorted(EVENT_KINDS)},
    },
    # Any additional property must be a JSON scalar.
    "additional_scalars": True,
}

#: Schema of one metric snapshot inside the registry dump.
_METRIC_SCHEMA = {
    "type": "object",
    "required": ["kind", "name", "labels"],
    "properties": {
        "kind": {"type": "string",
                 "enum": ["counter", "gauge", "histogram"]},
        "name": {"type": "string"},
        "labels": {"type": "object"},
    },
}

#: Schema of the registry dump object.
REGISTRY_SCHEMA = {
    "type": "object",
    "required": ["schema", "metrics"],
    "properties": {
        "schema": {"type": "string",
                   "enum": ["repro.obs.registry/v1"]},
        "metrics": {"type": "array", "items": _METRIC_SCHEMA},
    },
}

_HISTOGRAM_REQUIRED = ("buckets", "bucket_counts", "overflow", "count", "sum")

#: Schema of one measurement-sweep entry inside the wall-clock report.
_SWEEP_ENTRY_SCHEMA = {
    "type": "object",
    "required": ["ram_kb", "writable_kb", "engine", "seconds", "mb_per_s",
                 "digest"],
    "properties": {
        "ram_kb": {"type": "integer", "minimum": 1},
        "writable_kb": {"type": "integer", "minimum": 1},
        "engine": {"type": "string", "enum": sorted(ENGINES)},
        "seconds": {"type": "number", "minimum": 0},
        "mb_per_s": {"type": "number", "minimum": 0},
        "digest": {"type": "string"},
    },
}

#: Schema of the host wall-clock benchmark report
#: (``BENCH_wallclock.json`` at the repository root, written by
#: ``benchmarks/bench_wallclock.py``; see ``docs/performance.md``).
WALLCLOCK_SCHEMA = {
    "type": "object",
    "required": ["schema", "engine_default", "sweep", "naive_baseline",
                 "speedup", "hmac_cache", "equivalence"],
    "properties": {
        "schema": {"type": "string",
                   "enum": ["repro.perf.wallclock/v1"]},
        "engine_default": {"type": "string", "enum": sorted(ENGINES)},
        "sweep": {"type": "array", "items": _SWEEP_ENTRY_SCHEMA},
        "naive_baseline": {
            **_SWEEP_ENTRY_SCHEMA,
            "properties": {**_SWEEP_ENTRY_SCHEMA["properties"],
                           "engine": {"type": "string",
                                      "enum": ["naive"]}},
        },
        "speedup": {
            "type": "object",
            "required": ["ram_kb", "naive_seconds", "fast_seconds",
                         "factor"],
            "properties": {
                "ram_kb": {"type": "integer", "minimum": 1},
                "naive_seconds": {"type": "number", "minimum": 0},
                "fast_seconds": {"type": "number", "minimum": 0},
                "factor": {"type": "number", "minimum": 0},
            },
        },
        "hmac_cache": {"type": "object"},
        "equivalence": {
            "type": "object",
            "required": ["ram_kb", "rounds", "identical", "engines"],
            "properties": {
                "ram_kb": {"type": "integer", "minimum": 1},
                "rounds": {"type": "integer", "minimum": 1},
                "identical": {"type": "boolean"},
                "engines": {"type": "object"},
            },
        },
    },
}

#: Schema of one timing block (sequential or parallel) in the fleet
#: report.
_FLEET_TIMING_SCHEMA = {
    "type": "object",
    "required": ["spinup_seconds", "sweep_seconds", "devices_per_second",
                 "attempted", "trusted"],
    "properties": {
        "spinup_seconds": {"type": "number", "minimum": 0},
        "sweep_seconds": {"type": "number", "minimum": 0},
        "devices_per_second": {"type": "number", "minimum": 0},
        "attempted": {"type": "integer", "minimum": 0},
        "trusted": {"type": "integer", "minimum": 0},
    },
}

#: Schema of the fleet throughput benchmark report
#: (``BENCH_fleet.json`` at the repository root, written by
#: ``benchmarks/bench_fleet_operations.py``; see ``docs/fleet-scale.md``).
FLEET_SCHEMA = {
    "type": "object",
    "required": ["schema", "fleet_size", "workers", "sweeps", "sequential",
                 "parallel", "speedup", "spinup", "cache", "equivalence"],
    "properties": {
        "schema": {"type": "string", "enum": ["repro.perf.fleet/v1"]},
        "fleet_size": {"type": "integer", "minimum": 1},
        "ram_kb": {"type": "integer", "minimum": 1},
        "workers": {"type": "integer", "minimum": 1},
        "sweeps": {"type": "integer", "minimum": 1},
        "host": {"type": "object"},
        "sequential": _FLEET_TIMING_SCHEMA,
        "parallel": _FLEET_TIMING_SCHEMA,
        "speedup": {"type": "number", "minimum": 0},
        "spinup": {
            "type": "object",
            "required": ["sequential_seconds", "parallel_seconds",
                         "factor"],
            "properties": {
                "sequential_seconds": {"type": "number", "minimum": 0},
                "parallel_seconds": {"type": "number", "minimum": 0},
                "factor": {"type": "number", "minimum": 0},
                "cached_inprocess_seconds": {"type": "number",
                                             "minimum": 0},
                "cached_factor": {"type": "number", "minimum": 0},
            },
        },
        "cache": {
            "type": "object",
            "required": ["hits", "misses", "entries"],
            "properties": {
                "hits": {"type": "integer", "minimum": 0},
                "misses": {"type": "integer", "minimum": 0},
                "entries": {"type": "integer", "minimum": 0},
            },
        },
        "reports_identical": {"type": "boolean"},
        "equivalence": {
            "type": "object",
            "required": ["fleet_size", "workers", "sweeps", "identical",
                         "mismatched_fields"],
            "properties": {
                "fleet_size": {"type": "integer", "minimum": 1},
                "workers": {"type": "integer", "minimum": 2},
                "sweeps": {"type": "integer", "minimum": 1},
                "identical": {"type": "boolean"},
                "mismatched_fields": {"type": "array"},
            },
        },
    },
}

#: Schema of the incremental-attestation benchmark report
#: (``BENCH_incremental.json`` at the repository root, written by
#: ``benchmarks/bench_incremental.py``; see ``docs/performance.md``).
INCREMENTAL_SCHEMA = {
    "type": "object",
    "required": ["schema", "fleet_size", "ram_kb", "writable_kb", "sweeps",
                 "chunk_size", "arity", "points", "gate", "equivalence"],
    "properties": {
        "schema": {"type": "string",
                   "enum": ["repro.perf.incremental/v1"]},
        "fleet_size": {"type": "integer", "minimum": 1},
        "ram_kb": {"type": "integer", "minimum": 1},
        "writable_kb": {"type": "integer", "minimum": 1},
        "sweeps": {"type": "integer", "minimum": 1},
        "chunk_size": {"type": "integer", "minimum": 1},
        "arity": {"type": "integer", "minimum": 2},
        "host": {"type": "object"},
        "points": {"type": "array", "items": {
            "type": "object",
            "required": ["dirty_fraction", "dirty_kb", "full_seconds",
                         "incremental_seconds", "speedup"],
            "properties": {
                "dirty_fraction": {"type": "number", "minimum": 0},
                "dirty_kb": {"type": "integer", "minimum": 0},
                "full_seconds": {"type": "number", "minimum": 0},
                "incremental_seconds": {"type": "number", "minimum": 0},
                "speedup": {"type": "number", "minimum": 0},
                "full_cache": {"type": "object"},
                "incremental_cache": {"type": "object"},
                "tree": {"type": "object"},
            },
        }},
        "gate": {
            "type": "object",
            "required": ["dirty_fraction", "speedup", "threshold", "passed"],
            "properties": {
                "dirty_fraction": {"type": "number", "minimum": 0},
                "speedup": {"type": "number", "minimum": 0},
                "threshold": {"type": "number", "minimum": 0},
                "passed": {"type": "boolean"},
            },
        },
        "equivalence": {
            "type": "object",
            "required": ["identical", "scenarios"],
            "properties": {
                "identical": {"type": "boolean"},
                "scenarios": {"type": "object"},
            },
        },
    },
}

#: Schema of the delta-checkpoint benchmark report
#: (``BENCH_snapshot.json`` at the repository root, written by
#: ``benchmarks/bench_snapshot.py``; see ``docs/checkpoint.md``).
SNAPSHOT_BENCH_SCHEMA = {
    "type": "object",
    "required": ["schema", "fleet_size", "ram_kb", "workers", "rounds",
                 "chunk_size", "points", "gate", "equivalence"],
    "properties": {
        "schema": {"type": "string",
                   "enum": ["repro.perf.snapshot/v1"]},
        "fleet_size": {"type": "integer", "minimum": 1},
        "ram_kb": {"type": "integer", "minimum": 1},
        "workers": {"type": "integer", "minimum": 1},
        "rounds": {"type": "integer", "minimum": 1},
        "chunk_size": {"type": "integer", "minimum": 1},
        "host": {"type": "object"},
        "points": {"type": "array", "items": {
            "type": "object",
            "required": ["dirty_fraction", "shared_content", "full_seconds",
                         "delta_seconds", "speedup", "full_bytes",
                         "delta_bytes", "bytes_reduction",
                         "chain_identical"],
            "properties": {
                "dirty_fraction": {"type": "number", "minimum": 0},
                "shared_content": {"type": "boolean"},
                "full_seconds": {"type": "number", "minimum": 0},
                "delta_seconds": {"type": "number", "minimum": 0},
                "speedup": {"type": "number", "minimum": 0},
                "full_bytes": {"type": "integer", "minimum": 0},
                "delta_bytes": {"type": "integer", "minimum": 0},
                "bytes_reduction": {"type": "number", "minimum": 0},
                "chain_identical": {"type": "boolean"},
            },
        }},
        "gate": {
            "type": "object",
            "required": ["dirty_fraction", "speedup", "speedup_threshold",
                         "bytes_reduction", "bytes_threshold", "passed"],
            "properties": {
                "dirty_fraction": {"type": "number", "minimum": 0},
                "speedup": {"type": "number", "minimum": 0},
                "speedup_threshold": {"type": "number", "minimum": 0},
                "bytes_reduction": {"type": "number", "minimum": 0},
                "bytes_threshold": {"type": "number", "minimum": 0},
                "passed": {"type": "boolean"},
            },
        },
        "equivalence": {
            "type": "object",
            "required": ["identical", "mismatched_fields"],
            "properties": {
                "identical": {"type": "boolean"},
                "mismatched_fields": {"type": "array"},
            },
        },
    },
}

#: Schema of the verifier-service load benchmark report
#: (``BENCH_service.json`` at the repository root, written by
#: ``benchmarks/bench_service.py``; see ``docs/service.md``).
SERVICE_SCHEMA = {
    "type": "object",
    "required": ["schema", "size", "tenants", "backends", "duty_fraction",
                 "points", "gate", "equivalence"],
    "properties": {
        "schema": {"type": "string", "enum": ["repro.perf.service/v1"]},
        "size": {"type": "integer", "minimum": 1},
        "tenants": {"type": "integer", "minimum": 1},
        "backends": {"type": "integer", "minimum": 1},
        "duty_fraction": {"type": "number", "minimum": 0},
        "host": {"type": "object"},
        "points": {"type": "array", "items": {
            "type": "object",
            "required": ["offered", "admitted", "rejected",
                         "peak_in_flight", "sessions_per_second",
                         "p50_latency_ms", "p99_latency_ms",
                         "wall_seconds"],
            "properties": {
                "offered": {"type": "integer", "minimum": 0},
                "admitted": {"type": "integer", "minimum": 0},
                "rejected": {"type": "integer", "minimum": 0},
                "peak_in_flight": {"type": "integer", "minimum": 0},
                "sessions_per_second": {"type": "number", "minimum": 0},
                "p50_latency_ms": {"type": "number", "minimum": 0},
                "p99_latency_ms": {"type": "number", "minimum": 0},
                "wall_seconds": {"type": "number", "minimum": 0},
                "waves": {"type": "integer", "minimum": 1},
                "workers": {"type": "integer", "minimum": 1},
            },
        }},
        "gate": {
            "type": "object",
            "required": ["max_peak_in_flight", "required_in_flight",
                         "passed"],
            "properties": {
                "max_peak_in_flight": {"type": "integer", "minimum": 0},
                "required_in_flight": {"type": "integer", "minimum": 0},
                "passed": {"type": "boolean"},
            },
        },
        "equivalence": {
            "type": "object",
            "required": ["workers", "identical", "mismatched_fields"],
            "properties": {
                "workers": {"type": "integer", "minimum": 1},
                "identical": {"type": "boolean"},
                "mismatched_fields": {"type": "array"},
            },
        },
    },
}


#: Version identifier of checkpoint/restore snapshot documents
#: (see ``repro.snapshot`` and ``docs/checkpoint.md``).
SNAPSHOT_SCHEMA_ID = "repro.snapshot/v1"

#: Schema of a checkpoint/restore snapshot envelope.  The ``state``
#: payload is kind-specific (session/swarm/fleet) and is checked
#: structurally by the restore path itself, which refuses any document
#: that does not match the rebuilt object; the envelope schema pins the
#: version, the kind vocabulary and the content-addressed blob map.
SNAPSHOT_SCHEMA = {
    "type": "object",
    "required": ["schema", "kind", "blobs", "state"],
    "properties": {
        "schema": {"type": "string", "enum": [SNAPSHOT_SCHEMA_ID]},
        "kind": {"type": "string",
                 "enum": ["session", "swarm", "fleet", "service"]},
        "blobs": {"type": "object"},
        "state": {"type": "object"},
        "meta": {"type": "object"},
    },
}

#: Schema of the per-kind required keys inside a snapshot's ``state``.
_SNAPSHOT_STATE_REQUIRED = {
    "session": ("sim", "device", "channel", "verifier", "verifier_node",
                "anchor"),
    "swarm": ("sweeps_run", "members", "breakers"),
    "fleet": ("workers", "sweeps_run", "shards"),
    "service": ("virtual_now", "members", "buckets"),
}

#: Version identifier of *delta* checkpoint documents: a checkpoint
#: recorded against a parent document, carrying per region only the
#: chunks whose ``DigestTree`` leaves are dirty since the parent, and
#: per append-only log only the entries appended since it (see
#: ``repro.snapshot.delta`` and ``docs/checkpoint.md``).
SNAPSHOT_DELTA_SCHEMA_ID = "repro.snapshot.delta/v1"

#: Schema of a delta-checkpoint envelope.  Same shape as
#: :data:`SNAPSHOT_SCHEMA` plus the mandatory ``parent_id`` -- the
#: canonical-JSON SHA-1 of the parent document, which chains deltas and
#: lets restore refuse a mismatched parent.  The service kind has no
#: region images and therefore no delta form.
SNAPSHOT_DELTA_SCHEMA = {
    "type": "object",
    "required": ["schema", "kind", "blobs", "state", "parent_id"],
    "properties": {
        "schema": {"type": "string", "enum": [SNAPSHOT_DELTA_SCHEMA_ID]},
        "kind": {"type": "string",
                 "enum": ["session", "swarm", "fleet"]},
        "blobs": {"type": "object"},
        "state": {"type": "object"},
        "parent_id": {"type": "string"},
        "meta": {"type": "object"},
    },
}


#: Schema of one lint violation entry (waived or not).
_LINT_VIOLATION_SCHEMA = {
    "type": "object",
    "required": ["rule", "path", "line", "message"],
    "properties": {
        "rule": {"type": "string", "enum": sorted(LINT_RULE_IDS)},
        "path": {"type": "string"},
        "line": {"type": "integer", "minimum": 0},
        "col": {"type": "integer", "minimum": 0},
        "message": {"type": "string"},
        "waiver_reason": {"type": "string"},
    },
}

#: Schema of one taint violation entry (waived or not).
_TAINT_VIOLATION_SCHEMA = {
    "type": "object",
    "required": ["rule", "path", "line", "message"],
    "properties": {
        "rule": {"type": "string", "enum": sorted(TAINT_RULE_IDS)},
        "path": {"type": "string"},
        "line": {"type": "integer", "minimum": 0},
        "col": {"type": "integer", "minimum": 0},
        "message": {"type": "string"},
        "sink": {"type": "string"},
        "chain": {"type": "array"},
        "waiver_reason": {"type": "string"},
    },
}

#: Schema of the static-analysis report (``repro verify-profile --json``,
#: ``repro lint --json`` and ``tests/gates/test_analysis.py`` all emit or
#: embed this envelope; byte-identical for identical inputs).
ANALYSIS_SCHEMA = {
    "type": "object",
    "required": ["schema", "profiles", "lint"],
    "properties": {
        "schema": {"type": "string", "enum": ["repro.analysis/v1"]},
        # One per-profile invariant report, each with its verdicts.
        "profiles": {"type": "array", "items": {
            "type": "object",
            "required": ["profile", "clock_kind", "holds", "verdicts"],
            "properties": {
                "profile": {"type": "string"},
                "clock_kind": {"type": "string",
                               "enum": ["hw64", "hw32div", "sw", "none"]},
                "holds": {"type": "boolean"},
                "verdicts": {"type": "array", "items": {
                    "type": "object",
                    "required": ["invariant", "holds", "detail"],
                    "properties": {
                        "invariant": {"type": "string",
                                      "enum": sorted(INVARIANT_NAMES)},
                        "holds": {"type": "boolean"},
                        "detail": {"type": "string"},
                        "attack": {"type": "string"},
                        "counterexample": {"type": "object"},
                    },
                }},
            },
        }},
        "lint": {
            "type": "object",
            "required": ["files_scanned", "clean", "violations", "waived"],
            "properties": {
                "files_scanned": {"type": "integer", "minimum": 0},
                "clean": {"type": "boolean"},
                "violations": {"type": "array",
                               "items": _LINT_VIOLATION_SCHEMA},
                "waived": {"type": "array", "items": _LINT_VIOLATION_SCHEMA},
                "stale_waivers": {"type": "array"},
            },
        },
        "taint": {
            "type": "object",
            "required": ["files_scanned", "clean", "violations", "waived",
                         "sinks", "stale_policy"],
            "properties": {
                "files_scanned": {"type": "integer", "minimum": 0},
                "clean": {"type": "boolean"},
                "violations": {"type": "array",
                               "items": _TAINT_VIOLATION_SCHEMA},
                "waived": {"type": "array",
                           "items": _TAINT_VIOLATION_SCHEMA},
                "sinks": {"type": "array"},
                "stale_policy": {"type": "array"},
                "rounds": {"type": "integer", "minimum": 0},
            },
        },
    },
}


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
}

_SCALAR_TYPES = (str, int, float, bool, type(None))


def _check(obj, schema, path: str) -> list[str]:
    """Errors of ``obj`` against ``schema``, recursing into nested object
    ``properties`` and array ``items``; each error names its full path
    (``incremental.points[2].speedup: ...``)."""
    if not _TYPE_CHECKS[schema["type"]](obj):
        return [f"{path}: expected {schema['type']}, "
                f"got {type(obj).__name__}"]
    errors = []
    if "enum" in schema and obj not in schema["enum"]:
        errors.append(f"{path}: {obj!r} not in allowed values")
    if "minimum" in schema and obj < schema["minimum"]:
        errors.append(f"{path}: {obj!r} below minimum {schema['minimum']}")
    if "items" in schema:
        for index, item in enumerate(obj):
            errors.extend(_check(item, schema["items"], f"{path}[{index}]"))
    for key in schema.get("required", ()):
        if key not in obj:
            errors.append(f"{path}: missing required key {key!r}")
    properties = schema.get("properties", {})
    for key, sub in properties.items():
        if key in obj:
            errors.extend(_check(obj[key], sub, f"{path}.{key}"))
    if schema.get("additional_scalars"):
        for key, value in obj.items():
            if key not in properties and not isinstance(value,
                                                        _SCALAR_TYPES):
                errors.append(f"{path}.{key}: field must be a JSON scalar, "
                              f"got {type(value).__name__}")
    return errors


def validate_event(event: dict) -> list[str]:
    """Validate one decoded trace-event object; returns error strings."""
    return _check(event, EVENT_SCHEMA, "event")


def validate_jsonl_trace(text: str) -> list[str]:
    """Validate a whole JSON-lines trace export.

    Checks each line parses as JSON, matches :data:`EVENT_SCHEMA`, and
    that sequence numbers strictly increase (append-only invariant).
    """
    errors = []
    last_seq = -1
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {number}: invalid JSON ({exc})")
            continue
        for error in validate_event(event):
            errors.append(f"line {number}: {error}")
        seq = event.get("seq")
        if isinstance(seq, int):
            if seq <= last_seq:
                errors.append(f"line {number}: seq {seq} not increasing")
            last_seq = seq
    return errors


def validate_registry_dump(dump: dict) -> list[str]:
    """Validate a decoded registry dump object; returns error strings."""
    errors = _check(dump, REGISTRY_SCHEMA, "registry")
    metrics = dump.get("metrics") if isinstance(dump, dict) else None
    for index, metric in enumerate(metrics
                                   if isinstance(metrics, list) else []):
        if not isinstance(metric, dict):
            continue
        path = f"registry.metrics[{index}]"
        if metric.get("kind") == "histogram":
            for key in _HISTOGRAM_REQUIRED:
                if key not in metric:
                    errors.append(f"{path}: histogram missing {key!r}")
        elif metric.get("kind") in ("counter", "gauge"):
            if not isinstance(metric.get("value"),
                              (int, float)) or isinstance(
                                  metric.get("value"), bool):
                errors.append(f"{path}: {metric.get('kind')} needs a "
                              f"numeric 'value'")
    return errors


# Report validators check shape only -- whether a gate *passed* and an
# equivalence block is clean is policy, enforced by each benchmark, the
# ``*-bench`` CLI exit codes and the gates under ``tests/gates/``.

def validate_wallclock_report(report: dict) -> list[str]:
    """Validate a decoded ``BENCH_wallclock.json`` report object."""
    return _check(report, WALLCLOCK_SCHEMA, "wallclock")


def validate_fleet_report(report: dict) -> list[str]:
    """Validate a decoded ``BENCH_fleet.json`` report object."""
    return _check(report, FLEET_SCHEMA, "fleet")


def validate_incremental_report(report: dict) -> list[str]:
    """Validate a decoded ``BENCH_incremental.json`` report object."""
    return _check(report, INCREMENTAL_SCHEMA, "incremental")


def validate_service_report(report: dict) -> list[str]:
    """Validate a decoded ``BENCH_service.json`` report object."""
    return _check(report, SERVICE_SCHEMA, "service")


def validate_snapshot_report(report: dict) -> list[str]:
    """Validate a decoded ``BENCH_snapshot.json`` report object."""
    return _check(report, SNAPSHOT_BENCH_SCHEMA, "snapshot")


def validate_analysis_report(report: dict) -> list[str]:
    """Validate a decoded ``repro.analysis/v1`` report object.

    Shape only -- whether the verdicts are the *expected* ones for the
    shipped profiles is policy, enforced by
    ``tests/analysis/test_invariants.py``.
    """
    return _check(report, ANALYSIS_SCHEMA, "analysis")


def _check_envelope(document, schema, label: str, key_noun: str,
                    payload_noun: str) -> list[str]:
    """Envelope shape, hex blob keys with string payloads, and the
    per-kind ``state`` keys of a full or delta snapshot document."""
    errors = _check(document, schema, label)
    if not isinstance(document, dict):
        return errors
    blobs = document.get("blobs")
    if isinstance(blobs, dict):
        for key, value in blobs.items():
            if not (isinstance(key, str)
                    and all(c in "0123456789abcdef" for c in key)):
                errors.append(f"{label}.blobs: key {key!r} is not a hex "
                              f"{key_noun}")
            if not isinstance(value, str):
                errors.append(f"{label}.blobs[{key!r}]: {payload_noun} "
                              f"must be a base64 string")
    state = document.get("state")
    required = _SNAPSHOT_STATE_REQUIRED.get(document.get("kind"))
    if isinstance(state, dict) and required is not None:
        for key in required:
            if key not in state:
                errors.append(f"{label}.state: missing required key "
                              f"{key!r} for kind {document['kind']!r}")
    return errors


def validate_snapshot(document: dict) -> list[str]:
    """Validate a decoded ``repro.snapshot/v1`` envelope.

    Checks the envelope shape, that every blob key looks like a hex
    fingerprint with a string payload, and that the ``state`` payload
    carries the top-level keys its ``kind`` requires.  Field-by-field
    consistency with a rebuilt object is the restore path's job.
    """
    return _check_envelope(document, SNAPSHOT_SCHEMA, "snapshot",
                           "fingerprint", "image")


def validate_snapshot_delta(document: dict) -> list[str]:
    """Validate a decoded ``repro.snapshot.delta/v1`` envelope.

    Same structural checks as :func:`validate_snapshot` (blob keys are
    content-address hex -- region fingerprints, chunk leaf digests or
    chunk-index digests -- with string payloads; per-kind state keys)
    plus the ``parent_id`` chain link.  Whether the parent actually
    matches is the materialization path's job.
    """
    return _check_envelope(document, SNAPSHOT_DELTA_SCHEMA,
                           "snapshot-delta", "content address", "payload")
