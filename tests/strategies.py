"""Hypothesis strategies for randomized simulation inputs.

One module owns the shapes: random Table-I platforms (optionally
re-sized), random PROACT configs and per-GPU phase work, and random
collective specifications that respect
:func:`repro.collectives.supported_algorithms`.  Property tests compose
these instead of hand-rolling integer ranges, so every suite explores
the same — valid by construction — input space.
"""

from hypothesis import strategies as st

from repro.collectives.algorithms import supported_algorithms
from repro.collectives.schedule import ALL_COLLECTIVES, COLL_BROADCAST
from repro.core import (
    GpuPhaseWork,
    MECH_CDP,
    MECH_HARDWARE,
    MECH_INLINE,
    MECH_POLLING,
    ProactConfig,
)
from repro.hw import PLATFORMS
from repro.runtime import KernelSpec
from repro.units import KiB, MiB

#: The platforms cheap enough for per-example simulation.
SMALL_PLATFORM_NAMES = ("4x_kepler", "4x_pascal", "4x_volta")


def platforms(names=SMALL_PLATFORM_NAMES, min_gpus=2, max_gpus=4):
    """A Table-I platform, randomly re-sized to ``min..max`` GPUs."""
    return st.builds(
        lambda name, n: PLATFORMS[name].with_num_gpus(n),
        st.sampled_from(list(names)),
        st.integers(min_value=min_gpus, max_value=max_gpus))


def chunk_sizes(min_size=16 * KiB, max_size=1 * MiB):
    """Power-of-two chunk sizes, the granularity PROACT actually sweeps."""
    sizes = []
    size = min_size
    while size <= max_size:
        sizes.append(size)
        size *= 2
    return st.sampled_from(sizes)


def proact_configs(mechanisms=(MECH_POLLING, MECH_CDP, MECH_HARDWARE)):
    """A decoupled PROACT config (inline has no chunk semantics)."""
    return st.builds(
        ProactConfig,
        st.sampled_from(list(mechanisms)),
        chunk_sizes(),
        st.sampled_from([256, 1024, 2048]))


def inline_configs():
    return st.builds(
        lambda chunk: ProactConfig(MECH_INLINE, chunk, 32),
        chunk_sizes(min_size=4 * KiB, max_size=64 * KiB))


def kernels(name="k"):
    """A kernel whose FLOP count keeps simulated phases sub-second."""
    return st.builds(
        lambda flops, ctas: KernelSpec(name, flops, 0, ctas),
        st.floats(min_value=1e9, max_value=1e11),
        st.sampled_from([1024, 4096, 8192]))


def phase_works(min_region=64 * KiB, max_region=8 * MiB):
    """One GPU's phase work: a producing kernel plus region metadata."""
    return st.builds(
        lambda kernel, region, pf, shape: GpuPhaseWork(
            kernel=kernel, region_bytes=region, peer_fraction=pf,
            readiness_shape=shape),
        kernels("produce"),
        st.integers(min_value=min_region, max_value=max_region),
        st.floats(min_value=0.1, max_value=1.0),
        # ProactRegion requires readiness_shape >= 1.0 (1.0 = uniform).
        st.floats(min_value=1.0, max_value=3.0))


@st.composite
def collective_specs(draw, min_gpus=2, max_gpus=8,
                     min_bytes=1 * KiB, max_bytes=8 * MiB):
    """(collective, algorithm, num_gpus, nbytes, chunk_size), valid by
    construction: the algorithm is drawn from
    ``supported_algorithms(collective, num_gpus)``, so tree schedules
    only appear at power-of-two GPU counts."""
    collective = draw(st.sampled_from(ALL_COLLECTIVES))
    num_gpus = draw(st.integers(min_value=min_gpus, max_value=max_gpus))
    algorithm = draw(st.sampled_from(
        supported_algorithms(collective, num_gpus)))
    nbytes = draw(st.integers(min_value=min_bytes, max_value=max_bytes))
    chunk_size = draw(chunk_sizes(min_size=32 * KiB, max_size=1 * MiB))
    root = draw(st.integers(min_value=0, max_value=num_gpus - 1)) \
        if collective == COLL_BROADCAST else 0
    return collective, algorithm, num_gpus, nbytes, chunk_size, root
