"""Collective communication on the simulated fabric.

Collectives (broadcast, all-gather, reduce-scatter, all-reduce) are
compiled into dependency-tagged transfer schedules
(:mod:`~repro.collectives.schedule`), built by three algorithm families
(:mod:`~repro.collectives.algorithms`: ``direct``/``ring``/``tree``),
and executed over the real links by completion callbacks
(:mod:`~repro.collectives.executor`).

Typical use, via the system entry point::

    system = Session("4x_volta").system()
    proc = system.collective("all_reduce", 16 * MiB, algorithm="ring",
                             chunk_size=256 * KiB)
    result = system.run(until=proc)
    print(result.bus_bandwidth / 1e9, "GB/s")
"""

from repro.collectives.algorithms import (
    ALGO_DIRECT,
    ALGO_HIERARCHICAL,
    ALGO_RING,
    ALGO_TREE,
    ALL_ALGORITHMS,
    build_schedule,
    supported_algorithms,
)
from repro.collectives.executor import (
    CollectiveExecutor,
    CollectiveResult,
)
from repro.collectives.schedule import (
    ALL_COLLECTIVES,
    COLL_ALL_GATHER,
    COLL_ALL_REDUCE,
    COLL_BROADCAST,
    COLL_REDUCE_SCATTER,
    CollectiveSchedule,
    TransferOp,
    replay_payloads,
    verify_schedule,
)

__all__ = [
    "ALGO_DIRECT",
    "ALGO_HIERARCHICAL",
    "ALGO_RING",
    "ALGO_TREE",
    "ALL_ALGORITHMS",
    "ALL_COLLECTIVES",
    "COLL_ALL_GATHER",
    "COLL_ALL_REDUCE",
    "COLL_BROADCAST",
    "COLL_REDUCE_SCATTER",
    "CollectiveExecutor",
    "CollectiveResult",
    "CollectiveSchedule",
    "TransferOp",
    "build_schedule",
    "replay_payloads",
    "supported_algorithms",
    "verify_schedule",
]
