"""Deliberately leaky module for the taint analyzer's failure-mode gate.

Every function below violates the key-confidentiality policy in a
distinct way; ``tests/gates/test_taint.py`` fails if any of them goes
undetected.  This file lives under a fixture root and is never
imported.
"""

from repro.crypto.kdf import derive_device_key


def leak_via_telemetry(telemetry, master_key):
    """KEY001: raw key bytes into a telemetry event payload."""
    key = derive_device_key(master_key, "device-000")
    telemetry.event("attest-request", 0.0, note=key.hex())


def leak_via_branch(telemetry, master_key):
    """KEY002: key content decides a telemetered branch."""
    key = derive_device_key(master_key, "device-001")
    if key[0] & 1:
        telemetry.count("attest_requests_total")


def emit(telemetry, value):
    telemetry.set_gauge("battery_fraction", value)


def leak_via_helper(telemetry, master_key):
    """KEY001 through a helper: needs the interprocedural summary."""
    key = derive_device_key(master_key, "device-002")
    emit(telemetry, key)


def undeclared_export(report):
    """KEY003: a host-boundary write in an undeclared module."""
    print(report)
