"""Firmware images: named code modules placed into device memory.

The simulator is behavioural, so a "module" is a block of deterministic
pseudo machine-code bytes (what secure boot measures and what attestation
MACs) plus the Python entry points that model its behaviour.  The bytes
are derived from the module's name, version and size through the
HMAC-DRBG, so two builds of the same (name, version, size) are
bit-identical -- necessary for reference measurements -- while any version
bump or malware patch changes the measurement, as it would on real flash.

Derivation is host work the simulation never charges, and a fleet builds
the same few modules for every member, so :func:`derive_code` derives
each ``(name, version, size)`` once per process and hands out the same
immutable ``bytes`` afterwards.  The memo holds only a pure function of
public inputs, never key material.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..crypto.rng import DeterministicRng
from ..crypto.sha1 import SHA1
from ..errors import ConfigurationError

__all__ = ["FirmwareModule", "FirmwareImage", "derive_code",
           "FIRMWARE_CACHE_MAX"]

#: Upper bound on memoised module builds.  A device holds four modules
#: and an OTA round adds one app version, so a run touches a handful.
FIRMWARE_CACHE_MAX = 64


@lru_cache(maxsize=FIRMWARE_CACHE_MAX)
def derive_code(name: str, version: int, size: int) -> bytes:
    """Deterministic pseudo machine code for one module build.

    ``derive_code.cache_clear()`` makes the next derivation cold, and
    ``derive_code.cache_info()`` counts hits and misses.
    """
    return DeterministicRng(f"firmware:{name}:v{version}").bytes(size)


@dataclass(frozen=True)
class FirmwareModule:
    """One named code module inside a firmware image.

    Attributes
    ----------
    name:
        Module identity, e.g. ``"Code_Attest"``, ``"Code_Clock"``,
        ``"app"``.
    size:
        Code size in bytes.
    version:
        Build version; part of the byte derivation, so patched code
        measures differently.
    uninterruptible:
        Whether the module's execution context defers interrupts
        (SMART-style ROM code).
    """

    name: str
    size: int
    version: int = 1
    uninterruptible: bool = False

    def __post_init__(self):
        if self.size <= 0:
            raise ConfigurationError(f"module {self.name!r} must have positive size")

    def code_bytes(self) -> bytes:
        """Deterministic pseudo machine code for this module build."""
        return derive_code(self.name, self.version, self.size)

    def measurement(self) -> bytes:
        """SHA-1 digest of the module's code (secure-boot reference)."""
        return SHA1(self.code_bytes()).digest()


@dataclass
class FirmwareImage:
    """An ordered set of modules with their placement in the address space.

    ``layout`` maps module name to absolute base address.  The image can
    compute a combined measurement (hash over all module digests in layout
    order), which is what the secure-boot ROM compares against its stored
    reference.
    """

    modules: list[FirmwareModule] = field(default_factory=list)
    layout: dict[str, int] = field(default_factory=dict)

    def add(self, module: FirmwareModule, base_address: int) -> FirmwareModule:
        """Place ``module`` at ``base_address``; rejects overlaps."""
        if module.name in self.layout:
            raise ConfigurationError(f"duplicate module {module.name!r}")
        new_span = (base_address, base_address + module.size)
        for existing in self.modules:
            start = self.layout[existing.name]
            span = (start, start + existing.size)
            if new_span[0] < span[1] and span[0] < new_span[1]:
                raise ConfigurationError(
                    f"module {module.name!r} overlaps {existing.name!r}")
        self.modules.append(module)
        self.layout[module.name] = base_address
        return module

    def module(self, name: str) -> FirmwareModule:
        for candidate in self.modules:
            if candidate.name == name:
                return candidate
        raise KeyError(name)

    def span(self, name: str) -> tuple[int, int]:
        """Half-open address range a module occupies."""
        module = self.module(name)
        base = self.layout[name]
        return (base, base + module.size)

    def measurement(self) -> bytes:
        """Combined measurement: SHA-1 over per-module digests, in address
        order, each prefixed by the module base address."""
        digest = SHA1()
        for module in sorted(self.modules, key=lambda m: self.layout[m.name]):
            digest.update(self.layout[module.name].to_bytes(4, "little"))
            digest.update(module.measurement())
        return digest.digest()
