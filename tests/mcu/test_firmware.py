"""Firmware modules and images: determinism, layout, measurement."""

import pytest

from repro.crypto.rng import DeterministicRng
from repro.errors import ConfigurationError
from repro.mcu import firmware
from repro.mcu.firmware import (FIRMWARE_CACHE_MAX, FirmwareImage,
                                FirmwareModule, derive_code)
from repro.services.swarm import Swarm
from tests.conftest import tiny_config


class TestModule:
    def test_code_deterministic_per_build(self):
        a = FirmwareModule("app", 1024, version=1)
        b = FirmwareModule("app", 1024, version=1)
        assert a.code_bytes() == b.code_bytes()

    def test_version_changes_code(self):
        v1 = FirmwareModule("app", 1024, version=1)
        v2 = FirmwareModule("app", 1024, version=2)
        assert v1.code_bytes() != v2.code_bytes()

    def test_name_changes_code(self):
        assert FirmwareModule("a", 64).code_bytes() != \
            FirmwareModule("b", 64).code_bytes()

    def test_code_size(self):
        assert len(FirmwareModule("m", 777).code_bytes()) == 777

    def test_measurement_tracks_code(self):
        m1 = FirmwareModule("app", 256, version=1)
        m2 = FirmwareModule("app", 256, version=2)
        assert m1.measurement() != m2.measurement()
        assert len(m1.measurement()) == 20

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            FirmwareModule("m", 0)


class TestDerivedOnce:
    @pytest.fixture(autouse=True)
    def cold_memo(self):
        derive_code.cache_clear()
        yield
        derive_code.cache_clear()

    def test_swarm_build_derives_each_module_once(self, monkeypatch):
        seeds = []

        class CountingRng(DeterministicRng):
            def __init__(self, seed):
                seeds.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(firmware, "DeterministicRng", CountingRng)
        swarm = Swarm(16, device_config=tiny_config(), seed="derive-once")
        distinct = {(m.name, m.version, m.size)
                    for member in swarm.members
                    for m in member.session.device.firmware.modules}
        assert len(distinct) == 4
        assert len(seeds) == len(set(seeds)) == len(distinct)
        assert derive_code.cache_info().misses == len(distinct)
        # A second fleet of the same build derives nothing at all.
        Swarm(16, device_config=tiny_config(), seed="derive-once")
        assert len(seeds) == len(distinct)

    def test_memo_matches_a_fresh_derivation(self):
        module = FirmwareModule("app", 300, version=3)
        assert module.code_bytes() == \
            DeterministicRng("firmware:app:v3").bytes(300)
        assert module.code_bytes() is module.code_bytes()

    def test_memo_is_bounded(self):
        for version in range(FIRMWARE_CACHE_MAX + 8):
            FirmwareModule("m", 1, version=version).code_bytes()
        info = derive_code.cache_info()
        assert info.maxsize == FIRMWARE_CACHE_MAX
        assert info.currsize == FIRMWARE_CACHE_MAX

    def test_version_bump_after_memo_yields_new_bytes(self):
        v1 = FirmwareModule("app", 512, version=1).code_bytes()
        v2 = FirmwareModule("app", 512, version=2).code_bytes()
        assert v1 != v2
        assert FirmwareModule("app", 512, version=1).code_bytes() == v1
        assert derive_code.cache_info().misses == 2


class TestImage:
    def test_layout_and_span(self):
        image = FirmwareImage()
        image.add(FirmwareModule("boot", 0x100), 0x0000)
        image.add(FirmwareModule("app", 0x200), 0x1000)
        assert image.span("app") == (0x1000, 0x1200)
        assert image.module("boot").size == 0x100

    def test_rejects_overlap(self):
        image = FirmwareImage()
        image.add(FirmwareModule("a", 0x100), 0x0000)
        with pytest.raises(ConfigurationError):
            image.add(FirmwareModule("b", 0x100), 0x0080)

    def test_rejects_duplicate(self):
        image = FirmwareImage()
        image.add(FirmwareModule("a", 0x100), 0x0000)
        with pytest.raises(ConfigurationError):
            image.add(FirmwareModule("a", 0x100), 0x1000)

    def test_unknown_module(self):
        with pytest.raises(KeyError):
            FirmwareImage().module("ghost")

    def test_measurement_covers_all_modules(self):
        def build(app_version):
            image = FirmwareImage()
            image.add(FirmwareModule("boot", 0x100), 0x0000)
            image.add(FirmwareModule("app", 0x100, version=app_version),
                      0x1000)
            return image.measurement()

        assert build(1) == build(1)
        assert build(1) != build(2)

    def test_measurement_sensitive_to_placement(self):
        image1 = FirmwareImage()
        image1.add(FirmwareModule("app", 0x100), 0x1000)
        image2 = FirmwareImage()
        image2.add(FirmwareModule("app", 0x100), 0x2000)
        assert image1.measurement() != image2.measurement()
