"""MBIR-style X-ray CT reconstruction (Section IV-C).

Model-Based Iterative Reconstruction alternates forward projection of the
current image estimate with back-projection of the residual.  Views
(projection angles) are partitioned across GPUs: each GPU back-projects
its views into a private accumulation plane, publishes the plane, and all
GPUs apply the summed update — a reduction expressed through PROACT's
disjoint-writer replicated regions.

Image updates are written densely in address order, so inline remote
stores coalesce perfectly: the paper's profiler picks PROACT-inline on
Pascal and Volta (Table II).
"""

from __future__ import annotations

import math
import typing
from typing import List

from repro.core.runtime import GpuPhaseWork
from repro.runtime.kernels import KernelSpec
from repro.runtime.system import System
from repro.workloads.base import (
    FunctionalCheck,
    Workload,
    consumer_peer_fraction,
    imbalance_factor,
    partition_range,
    strip_final_phase_regions,
)
from repro.workloads.datasets import phantom_image
from repro.workloads.shared_memory import ReplicatedArray

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np


class XrayCtWorkload(Workload):
    """SIRT-style iterative CT reconstruction at clinical scale."""

    name = "X-ray CT"
    um_hint_fraction = 0.85
    um_touch_fraction = 0.8

    #: View partitions are even; ray work varies slightly with angle.
    imbalance = 0.05

    def __init__(self, image_side: int = 2048,
                 num_views: int = 720,
                 samples_per_ray: int = 512,
                 iterations: int = 4,
                 rays_per_cta: int = 256) -> None:
        self.image_side = image_side
        self.num_views = num_views
        self.samples_per_ray = samples_per_ray
        self.iterations = iterations
        self.rays_per_cta = rays_per_cta

    # ------------------------------------------------------------------
    # Timing layer
    # ------------------------------------------------------------------
    def build_phases(self, system: System) -> List[List[GpuPhaseWork]]:
        n = system.num_gpus
        views = self.num_views // n
        rays = views * self.image_side
        samples = rays * self.samples_per_ray
        # Forward + back projection: two interpolated samples per point.
        flops = samples * 8
        local_bytes = samples * 12
        image_bytes = self.image_side * self.image_side * 4
        num_ctas = math.ceil(rays / self.rays_per_cta)
        region_bytes = image_bytes if n > 1 else 0
        works = []
        for gpu_id in range(n):
            skew = imbalance_factor(gpu_id, n, self.imbalance)
            works.append(GpuPhaseWork(
                kernel=KernelSpec("xray-ct", flops * skew,
                                  local_bytes * skew, num_ctas),
                region_bytes=region_bytes,
                store_size=16,
                spatial_locality=1.0,   # dense image-plane updates
                readiness_shape=1.0,
                peer_fraction=consumer_peer_fraction(n, floor=0.2),
            ))
        return strip_final_phase_regions(
            [works for _ in range(self.iterations)])

    # ------------------------------------------------------------------
    # Functional layer
    # ------------------------------------------------------------------
    def verify_functional(self, num_partitions: int = 4,
                          image_side: int = 32, num_views: int = 12,
                          iterations: int = 10,
                          tolerance: float = 1e-9) -> FunctionalCheck:
        import numpy as np
        self._check_partitions(num_partitions)
        truth = phantom_image(image_side)
        angles = np.linspace(0.0, 180.0, num_views, endpoint=False)
        sinogram = np.stack([_forward_project(truth, angle)
                             for angle in angles])
        multi = _sirt_partitioned(sinogram, angles, image_side, iterations,
                                  num_partitions)
        reference = _sirt_partitioned(sinogram, angles, image_side,
                                      iterations, 1)
        partition_error = float(np.max(np.abs(multi - reference)))
        # Reconstruction quality: the estimate must approach the truth.
        initial_error = float(np.mean(np.abs(truth)))
        final_error = float(np.mean(np.abs(multi - truth)))
        return FunctionalCheck(
            workload=self.name, num_partitions=num_partitions,
            iterations=iterations, max_abs_error=partition_error,
            passed=(partition_error <= tolerance
                    and final_error < 0.7 * initial_error))


def _forward_project(image: np.ndarray, angle_degrees: float) -> np.ndarray:
    """One parallel-beam projection: rotate then sum columns."""
    from scipy import ndimage
    rotated = ndimage.rotate(image, angle_degrees, reshape=False, order=1)
    return rotated.sum(axis=0)


def _back_project(projection: np.ndarray, angle_degrees: float,
                  side: int) -> np.ndarray:
    """Adjoint-ish smear of one projection across the image."""
    import numpy as np
    from scipy import ndimage
    smeared = np.tile(projection, (side, 1))
    return ndimage.rotate(smeared, -angle_degrees, reshape=False, order=1)


def _sirt_partitioned(sinogram: np.ndarray, angles: np.ndarray,
                      side: int, iterations: int,
                      num_partitions: int) -> np.ndarray:
    """SIRT with views partitioned across PROACT-style virtual GPUs."""
    import numpy as np
    num_views = len(angles)
    relaxation = 1.8 / (num_views * side)
    image = ReplicatedArray((side, side), num_gpus=num_partitions)
    # Each partition accumulates its views' updates into a private plane.
    updates = ReplicatedArray((num_partitions, side, side),
                              num_gpus=num_partitions)
    for _ in range(iterations):
        for part in range(num_partitions):
            start, stop = partition_range(num_views, num_partitions, part)
            local_image = image.local(part)
            plane = np.zeros((side, side))
            for view in range(start, stop):
                residual = (sinogram[view]
                            - _forward_project(local_image, angles[view]))
                plane += _back_project(residual, angles[view], side)
            updates.write(part, (slice(part, part + 1),), plane[None, :, :])
        updates.synchronize()
        updates.assert_coherent()
        # All replicas apply the identical summed update.
        total_update = updates.local(0).sum(axis=0)
        for part in range(num_partitions):
            start, stop = partition_range(side, num_partitions, part)
            new_rows = (image.local(part)[start:stop]
                        + relaxation * total_update[start:stop])
            image.write(part, slice(start, stop), new_rows)
        image.synchronize()
        image.assert_coherent()
    return image.local(0).copy()
