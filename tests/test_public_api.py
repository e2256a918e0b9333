"""Public-API surface tests: snapshot + warning-free supported paths.

The checked-in snapshot (``tests/data/public_api.json``) records the
package's advertised surface — ``repro.__all__``, the ``__all__`` of
every subpackage, plus every public method signature on
:class:`repro.api.Session`.  CI fails when the
surface drifts, so renames and signature changes are always a conscious,
reviewed decision.  After an intentional change, regenerate with::

    PYTHONPATH=src python tests/test_public_api.py --regen

The warning tests pin that the supported paths never route through a
deprecated spelling.
"""

import importlib
import inspect
import json
import pathlib
import warnings

import repro
import repro.ablation
import repro.api
from repro.api import Session
from repro.core.config import Mechanisms

SNAPSHOT_PATH = pathlib.Path(__file__).parent / "data" / "public_api.json"

SUBPACKAGES = ("core", "sim", "runtime", "collectives", "interconnect",
               "cluster", "obs", "validate", "paradigms", "workloads", "hw",
               "experiments")


def current_surface():
    """The live public surface, in the snapshot's JSON shape."""
    methods = {}
    for name, member in inspect.getmembers(Session):
        if name.startswith("_") and name != "__init__":
            continue
        if callable(member):
            methods[name] = str(inspect.signature(member))
        elif isinstance(inspect.getattr_static(Session, name), property):
            methods[name] = "<property>"
    return {
        "repro_all": sorted(repro.__all__),
        "repro_ablation_all": sorted(repro.ablation.__all__),
        "repro_api_all": sorted(repro.api.__all__),
        "mechanisms": sorted(Mechanisms.component_names()),
        "session": methods,
        "subpackages": {
            name: sorted(importlib.import_module(f"repro.{name}").__all__)
            for name in SUBPACKAGES},
    }


def load_snapshot():
    return json.loads(SNAPSHOT_PATH.read_text())


def test_snapshot_file_exists():
    assert SNAPSHOT_PATH.exists(), (
        "missing public-API snapshot; generate it with "
        "`PYTHONPATH=src python tests/test_public_api.py --regen`")


def test_public_surface_matches_snapshot():
    """Any drift in an ``__all__`` or Session's signatures fails here."""
    snapshot = load_snapshot()
    surface = current_surface()
    assert surface == snapshot, (
        "public API surface drifted from tests/data/public_api.json; "
        "if the change is intentional, regenerate the snapshot with "
        "`PYTHONPATH=src python tests/test_public_api.py --regen` "
        "and include it in the same commit")


def test_all_names_importable():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing {name!r}"


def test_session_is_front_door():
    assert repro.Session is Session
    assert repro.__all__[0] == "Session"


def test_mechanisms_surface_exported():
    """The mechanism-toggle API and ablation harness are first-class."""
    assert "Mechanisms" in repro.__all__
    assert "DEFAULT_MECHANISMS" in repro.__all__
    assert repro.Mechanisms is Mechanisms
    for name in ("AblationRun", "AblationReport", "generate_runset",
                 "run_ablation"):
        assert name in repro.__all__
        assert getattr(repro, name) is getattr(repro.ablation, name)


def test_session_accepts_mechanisms():
    session = Session("4x_volta",
                      mechanisms=Mechanisms(write_coalescing=False))
    assert session.mechanisms.ablated == ("write_coalescing",)
    assert "write_coalescing" in repr(session)


# ----------------------------------------------------------------------
# Supported paths stay warning-free
# ----------------------------------------------------------------------
def test_context_profile_policy_does_not_warn():
    from repro.experiments.registry import ExperimentContext, ProfilePolicy
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        ctx = ExperimentContext(
            profile=ProfilePolicy(strategy="search", jobs=2))
    assert ctx.profile.strategy == "search"
    assert ctx.profile.jobs == 2


def test_session_paths_do_not_warn():
    """The supported facade never routes through deprecated shims."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        session = Session("4x_volta", validate=True, trace=True)
        system = session.system()
        kernel = system.devices[0].launch_kernel("k", work=1e-5)
        system.run(until=kernel.done)
        session.finish(system)
        assert session.validation_summary()["violations"] == 0


if __name__ == "__main__":
    import sys
    if "--regen" in sys.argv:
        SNAPSHOT_PATH.parent.mkdir(parents=True, exist_ok=True)
        SNAPSHOT_PATH.write_text(
            json.dumps(current_surface(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {SNAPSHOT_PATH}")
    else:
        print(__doc__)
