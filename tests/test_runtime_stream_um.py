"""Unit tests for kernel specs and unified memory."""

import pytest

from repro.errors import ConfigurationError, RuntimeApiError
from repro.hw import PLATFORM_4X_KEPLER, PLATFORM_4X_PASCAL, PLATFORM_4X_VOLTA
from repro.paradigms import UnifiedMemoryParadigm
from repro.runtime import (
    CTA_RETIREMENT_SPREAD,
    KernelSpec,
    System,
    UM_FAULT_BATCH,
    UM_FAULT_PAGE_SIZE,
    UnifiedMemoryModel,
)
from repro.units import MiB
from tests.conftest import small_pagerank


# ---------------------------------------------------------------------------
# KernelSpec
# ---------------------------------------------------------------------------

def test_kernel_spec_wave_math():
    system = System(PLATFORM_4X_VOLTA)
    gpu = system.gpus[0]
    # Volta: 80 SMs * 16 CTAs = 1280 concurrent.
    spec = KernelSpec("k", flops=1e9, local_bytes=0, num_ctas=2560)
    assert spec.concurrent_ctas(gpu) == 1280
    assert spec.num_waves(gpu) == 2
    # Wave 0's first CTA retires at the start of the wave's retirement
    # window; its last CTA exactly at the wave boundary.
    first = spec.cta_finish_fraction(gpu, 0)
    assert (1 - CTA_RETIREMENT_SPREAD) / 2 < first < 0.5
    assert spec.cta_finish_fraction(gpu, 1279) == pytest.approx(0.5)
    assert spec.cta_finish_fraction(gpu, 1280) > 0.5
    assert spec.cta_finish_fraction(gpu, 2559) == pytest.approx(1.0)


def test_kernel_spec_single_wave_retirement_spread():
    system = System(PLATFORM_4X_VOLTA)
    gpu = system.gpus[0]
    spec = KernelSpec("k", flops=1e9, local_bytes=0, num_ctas=100)
    assert spec.num_waves(gpu) == 1
    # Retirement spreads over the wave's final window, ending at 1.0.
    assert spec.cta_finish_fraction(gpu, 99) == pytest.approx(1.0)
    assert spec.cta_finish_fraction(gpu, 0) == pytest.approx(
        1 - CTA_RETIREMENT_SPREAD + CTA_RETIREMENT_SPREAD / 100)


def test_kernel_spec_fractions_monotone_in_schedule_order():
    system = System(PLATFORM_4X_VOLTA)
    gpu = system.gpus[0]
    spec = KernelSpec("k", flops=1e9, local_bytes=0, num_ctas=3000)
    fractions = [spec.cta_finish_fraction(gpu, i)
                 for i in range(0, 3000, 37)]
    assert fractions == sorted(fractions)
    assert spec.cta_finish_fraction(gpu, 2999) == pytest.approx(1.0)


def test_kernel_spec_validation():
    with pytest.raises(ConfigurationError):
        KernelSpec("k", flops=-1, local_bytes=0, num_ctas=1)
    with pytest.raises(ConfigurationError):
        KernelSpec("k", flops=0, local_bytes=0, num_ctas=0)
    system = System(PLATFORM_4X_VOLTA)
    spec = KernelSpec("k", flops=1e9, local_bytes=0, num_ctas=4)
    with pytest.raises(ConfigurationError):
        spec.cta_finish_fraction(system.gpus[0], 4)


# ---------------------------------------------------------------------------
# Unified memory
# ---------------------------------------------------------------------------

def test_um_prefetch_is_bulk_like():
    system = System(PLATFORM_4X_VOLTA)
    um = UnifiedMemoryModel(system)
    nbytes = 64 * MiB
    system.run(until=um.prefetch(system.device(1), system.device(0), nbytes))
    prefetch_time = system.now

    system2 = System(PLATFORM_4X_VOLTA)
    system2.run(until=system2.device(0).memcpy_peer(system2.device(1), nbytes))
    memcpy_time = system2.now
    assert prefetch_time == pytest.approx(memcpy_time, rel=0.01)


def test_um_demand_migration_slower_than_prefetch():
    nbytes = 16 * MiB

    system = System(PLATFORM_4X_VOLTA)
    um = UnifiedMemoryModel(system)
    system.run(until=um.demand_migrate(
        system.device(1), system.device(0), nbytes))
    fault_time = system.now

    system2 = System(PLATFORM_4X_VOLTA)
    um2 = UnifiedMemoryModel(system2)
    system2.run(until=um2.prefetch(system2.device(1), system2.device(0),
                                   nbytes))
    prefetch_time = system2.now
    assert fault_time > 1.5 * prefetch_time


def test_um_demand_migration_accounts_faults():
    system = System(PLATFORM_4X_VOLTA)
    um = UnifiedMemoryModel(system)
    nbytes = UM_FAULT_PAGE_SIZE * UM_FAULT_BATCH * 3
    system.run(until=um.demand_migrate(
        system.device(1), system.device(0), nbytes))
    assert um.pages_faulted == UM_FAULT_BATCH * 3
    assert um.bytes_migrated == nbytes


def test_um_demand_migration_duration_is_pinned():
    # Fault batches run as a callback chain; the timing is the one the
    # per-migration process produced.
    system = System(PLATFORM_4X_VOLTA)
    um = UnifiedMemoryModel(system)
    migrated = system.run(until=um.demand_migrate(
        system.device(1), system.device(0), 16 * MiB))
    assert migrated == 16 * MiB
    assert system.now == 0.01363828736000002


def test_um_paradigm_runtime_on_pascal_is_pinned():
    result = UnifiedMemoryParadigm().execute(small_pagerank(),
                                             PLATFORM_4X_PASCAL)
    assert result.runtime == 0.0072708525866666445
    assert result.details["pages_faulted"] == 18768


def test_um_legacy_mirror_on_kepler_is_much_slower():
    nbytes = 32 * MiB

    system = System(PLATFORM_4X_KEPLER)
    um = UnifiedMemoryModel(system)
    system.run(until=um.legacy_mirror(system.device(1), system.device(0),
                                      nbytes))
    legacy_time = system.now

    system2 = System(PLATFORM_4X_KEPLER)
    system2.run(until=system2.device(0).memcpy_peer(system2.device(1),
                                                    nbytes))
    memcpy_time = system2.now
    assert legacy_time > 1.8 * memcpy_time


def test_um_negative_sizes_rejected():
    system = System(PLATFORM_4X_VOLTA)
    um = UnifiedMemoryModel(system)
    with pytest.raises(RuntimeApiError):
        um.prefetch(system.device(1), system.device(0), -1)
    with pytest.raises(RuntimeApiError):
        um.demand_migrate(system.device(1), system.device(0), -1)
    with pytest.raises(RuntimeApiError):
        um.legacy_mirror(system.device(1), system.device(0), -1)
