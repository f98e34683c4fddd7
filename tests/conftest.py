"""Shared fixtures: fast-to-simulate devices and sessions, and the
whole-tree analyses computed once per test session."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (analyze_taint_tree, lint_tree, load_policy,
                            load_waivers, verify_shipped_profiles)
from repro.core import build_session
from repro.mcu import Device, DeviceConfig, ROAM_HARDENED

REPO = Path(__file__).resolve().parents[1]


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m repro ARGS`` in a fresh interpreter, as CI runs it."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *args], cwd=REPO,
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})


def tiny_config(**overrides) -> DeviceConfig:
    """The smallest practical prover: quick measurements in tests."""
    defaults = dict(ram_size=8 * 1024, flash_size=16 * 1024,
                    app_size=2 * 1024)
    defaults.update(overrides)
    return DeviceConfig(**defaults)


@pytest.fixture
def config() -> DeviceConfig:
    return tiny_config()


@pytest.fixture
def booted_device(config) -> Device:
    """A provisioned, roam-hardened device."""
    device = Device(config)
    device.provision(b"K" * 16)
    device.boot(ROAM_HARDENED)
    return device


@pytest.fixture
def session_factory():
    """Factory for end-to-end sessions on tiny devices."""

    def factory(**kwargs):
        kwargs.setdefault("device_config", tiny_config(
            clock_kind=kwargs.pop("clock_kind", "hw64")))
        return build_session(**kwargs)

    return factory


# Whole-tree analyses are the slowest deterministic computations in the
# suite (the taint fixpoint alone takes seconds), so each is computed
# once per session with the checked-in policy/waivers and shared by
# every test that asserts over it.  Determinism gates compare these
# against a second, freshly built copy.

@pytest.fixture(scope="session")
def repo_taint():
    """Key-confidentiality analysis of the repository, checked-in policy."""
    return analyze_taint_tree(
        REPO, policy=load_policy(REPO / "taint-policy.json"))


@pytest.fixture(scope="session")
def repo_lint():
    """Lint of the repository with the checked-in waivers."""
    return lint_tree(REPO, waivers=load_waivers(REPO / "lint-waivers.json"))


@pytest.fixture(scope="session")
def shipped_profiles():
    """Static verification of the four shipped profiles (hw64 and sw)."""
    return verify_shipped_profiles(clock_kinds=("hw64", "sw"))
