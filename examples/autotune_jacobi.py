#!/usr/bin/env python
"""Auto-tuning walkthrough: PROACT's compile-time profiler on Jacobi.

Mirrors the paper's Section III-A: sweep transfer mechanism, chunk
granularity, and transfer-thread count for one application/platform pair,
print the whole profile, and report the configuration the framework would
bake into the compiled binary (one cell of Table II).

The sweep goes through ``Session.profile``; pass ``--search`` to run the
floor-seeded search autotuner, which skips candidates by their
infinite-bandwidth lower bound (the exhaustive argmin, fewer full
measurements).

Run:  python examples/autotune_jacobi.py [platform] [--search]
      (platform defaults to 4x_pascal; see repro.hw.PLATFORMS)
"""

import sys

from repro import Session
from repro.experiments.report import TextTable
from repro.units import KiB, MiB, format_time
from repro.workloads import JacobiWorkload


def main() -> None:
    args = [arg for arg in sys.argv[1:] if arg != "--search"]
    strategy = "search" if "--search" in sys.argv[1:] else "coordinate"
    platform_name = args[0] if args else "4x_pascal"
    session = Session(platform_name)
    workload = JacobiWorkload()

    print(f"Profiling {workload.name} on {session.platform.name} "
          f"({strategy} sweep)...\n")
    profile = session.profile(
        workload,
        chunk_sizes=(16 * KiB, 128 * KiB, 1 * MiB, 4 * MiB),
        thread_counts=(256, 1024, 2048, 4096),
        strategy=strategy,
    )

    table = TextTable(
        title=f"Profile: {workload.name} on {session.platform.name}",
        columns=["configuration", "runtime"])
    for entry in sorted(profile.entries, key=lambda e: e.runtime):
        table.add_row(entry.config.label(), format_time(entry.runtime))
    print(table)
    if profile.pruned_configs:
        print(f"\n({profile.pruned_configs} configurations pruned by the "
              f"infinite-bandwidth lower bound; {profile.floor_runs} floor "
              f"simulations)")

    best = profile.best
    print(f"\nChosen configuration (Table II cell): {best.config.label()}"
          f" at {format_time(best.runtime)}")
    for mechanism in ("inline", "polling", "cdp"):
        if not any(e.config.mechanism == mechanism for e in profile.entries):
            # The search skipped every config of this mechanism.
            print(f"  best {mechanism:8s}: none measured (all pruned)")
            continue
        entry = profile.best_for_mechanism(mechanism)
        print(f"  best {mechanism:8s}: {entry.config.label():20s} "
              f"{format_time(entry.runtime)}")


if __name__ == "__main__":
    main()
