"""What a fresh interpreter loads: the timing layer needs no NumPy.

NumPy and SciPy serve only the workloads' functional layer, so importing
the package and running timed simulations must leave them unloaded, and
a serial sweep must not open the process-pool stack.  Each check runs in
a new interpreter, since this test process has long since loaded both.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

HEAVY = ("numpy", "scipy", "concurrent.futures")


def run_fresh(script):
    """Run ``script`` in a new interpreter that imports from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_timing_layer_runs_without_numpy_then_functional_checks_load_it():
    output = run_fresh(f"""
        import sys

        import repro
        import repro.api
        import repro.cluster
        import repro.workloads
        from repro.api import Session
        from repro.workloads import PageRankWorkload

        def loaded():
            return sorted(name for name in {HEAVY!r} if name in sys.modules)

        assert not loaded(), ("import", loaded())

        workload = PageRankWorkload(num_vertices=2_000_000,
                                    num_edges=60_000_000, iterations=1)
        session = Session("4x_volta")
        assert session.run(workload, paradigm="decoupled").runtime > 0
        profile = session.profile(workload, strategy="exhaustive",
                                  chunk_sizes=(131072, 1048576),
                                  thread_counts=(1024,),
                                  mechanisms=("polling",))
        assert len(profile.entries) == 2
        assert session.collective("all_reduce", 1 << 20).duration > 0
        assert not loaded(), ("timing runs", loaded())

        from repro.workloads import SsspWorkload, XrayCtWorkload
        from repro.workloads.shared_memory import ReplicatedArray

        assert XrayCtWorkload().verify_functional().passed
        assert SsspWorkload().verify_functional().passed
        assert "numpy" in sys.modules and "scipy" in sys.modules
        import numpy
        assert ReplicatedArray(8).local(0).dtype == numpy.float64
        print("ok")
        """)
    assert output.strip() == "ok"
