"""Data-parallel training workload: functional check and timing driver."""

import pytest

from repro.api import Session
from repro.errors import WorkloadError
from repro.runtime.system import System
from repro.units import KiB, MiB
from repro.workloads import DataParallelTraining, run_training


def test_functional_gradients_match_full_batch():
    for partitions in (1, 2, 4, 7):
        check = DataParallelTraining().verify_functional(
            num_partitions=partitions)
        assert check.passed, check
        assert check.workload == "dataparallel"


def test_constructor_validation():
    with pytest.raises(WorkloadError):
        DataParallelTraining(model_bytes=0)
    with pytest.raises(WorkloadError):
        DataParallelTraining(steps=0)
    with pytest.raises(WorkloadError):
        DataParallelTraining(flops_per_byte=0.0)


def test_build_phases_shape_and_regions():
    workload = DataParallelTraining(model_bytes=8 * MiB, steps=3)
    system = Session("4x_volta").system()
    phases = workload.build_phases(system)
    assert len(phases) == 3
    for phase in phases:
        assert len(phase) == system.num_gpus
        for work in phase:
            assert work.region_bytes == 8 * MiB
            assert work.kernel.flops == workload.step_flops()
    # A single-GPU system has nothing to distribute.
    solo = System(system.spec, num_gpus=1)
    assert all(w.region_bytes == 0
               for w in workload.build_phases(solo)[0])


def test_run_training_splits_compute_and_comm():
    workload = DataParallelTraining(model_bytes=4 * MiB, steps=2)
    system = Session("4x_volta").system()
    result = run_training(system, workload, algorithm="ring",
                          chunk_size=256 * KiB)
    assert len(result.steps) == 2
    assert result.num_gpus == 4
    assert result.algorithm == "ring" and result.chunk_size == 256 * KiB
    for step in result.steps:
        assert step.compute_time > 0
        assert step.comm_time > 0
        assert step.total_time == step.compute_time + step.comm_time
    assert result.total_time == pytest.approx(system.now)
    assert 0.0 < result.comm_fraction < 1.0


def test_run_training_algorithms_rank_as_expected():
    # On the PCIe tree the ring all-reduce must beat the direct exchange.
    workload = DataParallelTraining(model_bytes=8 * MiB, steps=1)
    ring = run_training(Session("4x_kepler").system(), workload,
                        algorithm="ring", chunk_size=256 * KiB)
    direct = run_training(Session("4x_kepler").system(), workload,
                          algorithm="direct", chunk_size=256 * KiB)
    assert ring.comm_time < direct.comm_time
    assert ring.compute_time == pytest.approx(direct.compute_time)
