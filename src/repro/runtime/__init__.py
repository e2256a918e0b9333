"""Simulated GPU runtime: devices, kernels, DMA, unified memory."""

from repro.runtime.device import Device, KernelLaunch
from repro.runtime.kernels import CTA_RETIREMENT_SPREAD, CTAS_PER_SM, KernelSpec
from repro.runtime.system import System
from repro.runtime.unified_memory import (
    UM_FAULT_BATCH,
    UM_FAULT_PAGE_SIZE,
    UM_LEGACY_BANDWIDTH_FACTOR,
    UnifiedMemoryModel,
)

__all__ = [
    "System",
    "Device",
    "KernelLaunch",
    "KernelSpec",
    "CTAS_PER_SM",
    "CTA_RETIREMENT_SPREAD",
    "UnifiedMemoryModel",
    "UM_FAULT_PAGE_SIZE",
    "UM_FAULT_BATCH",
    "UM_LEGACY_BANDWIDTH_FACTOR",
]
