"""Telemetry pipeline gate.

Runs ``repro metrics`` as CI would (a subprocess) on the quickstart
scenario, re-reads the two exported artefacts, and validates them
against the telemetry schemas -- independently of the validation the
command itself performs, so a bug that breaks the exporter *and* its
in-process check still fails here.
"""

import json

from repro.obs import validate_jsonl_trace, validate_registry_dump
from tests.conftest import run_cli

ROUNDS = 2
RAM_KB = 16


def test_metrics_exports_are_written_and_schema_valid(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    registry_path = tmp_path / "registry.json"
    proc = run_cli("metrics", "--rounds", str(ROUNDS), "--ram-kb",
                   str(RAM_KB), "--trace-out", str(trace_path),
                   "--registry-out", str(registry_path))
    assert proc.returncode == 0, \
        f"repro metrics exited {proc.returncode}:\n{proc.stderr}"

    assert trace_path.is_file(), "trace export missing"
    trace_text = trace_path.read_text()
    events = [line for line in trace_text.splitlines() if line.strip()]
    assert events, "trace export is empty"
    errors = validate_jsonl_trace(trace_text)
    assert not errors, "\n".join(f"trace: {e}" for e in errors)
    kinds = {json.loads(line)["kind"] for line in events}
    for expected in ("request-received", "request-accepted",
                     "measurement-start", "measurement-end",
                     "channel-send"):
        assert expected in kinds, f"trace never records {expected!r}"

    assert registry_path.is_file(), "registry export missing"
    dump = json.loads(registry_path.read_text())
    errors = validate_registry_dump(dump)
    assert not errors, "\n".join(f"registry: {e}" for e in errors)
    names = {metric["name"] for metric in dump["metrics"]}
    for expected in ("prover.requests.received",
                     "prover.requests.accepted",
                     "prover.attestation_cycles", "cpu.cycles",
                     "channel.sent"):
        assert expected in names, f"registry never exported {expected!r}"
