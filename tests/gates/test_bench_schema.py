"""Every checked-in ``BENCH_*.json`` artefact validates.

Each benchmark writes a machine-readable report at the repository root;
each report family has a validator in :mod:`repro.obs.schema`.  The gate
fails on a payload that is not JSON, a payload that fails its validator,
and a ``BENCH_*.json`` file with *no* registered validator (a new
benchmark must land its schema and a mapping here, or its artefact
silently escapes CI).
"""

import json

from repro.obs import schema
from tests.conftest import REPO

VALIDATORS = {
    "BENCH_wallclock.json": schema.validate_wallclock_report,
    "BENCH_fleet.json": schema.validate_fleet_report,
    "BENCH_incremental.json": schema.validate_incremental_report,
    "BENCH_service.json": schema.validate_service_report,
    "BENCH_snapshot.json": schema.validate_snapshot_report,
}


def artifact_failures(path) -> list[str]:
    validate = VALIDATORS.get(path.name)
    if validate is None:
        return [f"{path.name}: no validator registered in "
                f"tests/gates/test_bench_schema.py"]
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable: {exc}"]
    return [f"{path.name}: {error}" for error in validate(payload)]


def checked_in_artifacts():
    paths = sorted(REPO.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json artefacts found"
    return paths


def test_every_checked_in_artifact_validates():
    failures = [failure for path in checked_in_artifacts()
                if path.name in VALIDATORS
                for failure in artifact_failures(path)]
    assert not failures, "\n".join(failures)


def test_every_artifact_is_covered():
    """Every ``BENCH_*.json`` at the root has a registered validator."""
    failures = [failure for path in checked_in_artifacts()
                if path.name not in VALIDATORS
                for failure in artifact_failures(path)]
    assert not failures, "\n".join(failures)


def test_unknown_artifact_fails(tmp_path):
    rogue = tmp_path / "BENCH_rogue.json"
    rogue.write_text("{}\n")
    assert "no validator registered" in artifact_failures(rogue)[0]


def test_corrupt_artifact_fails(tmp_path):
    broken = tmp_path / "BENCH_snapshot.json"
    broken.write_text("{not json\n")
    assert "unreadable" in artifact_failures(broken)[0]


def test_schema_violation_fails(tmp_path):
    source = json.loads((REPO / "BENCH_snapshot.json").read_text())
    del source["gate"]
    mutated = tmp_path / "BENCH_snapshot.json"
    mutated.write_text(json.dumps(source))
    failures = artifact_failures(mutated)
    assert failures and any("gate" in failure for failure in failures)
