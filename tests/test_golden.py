"""Golden identity net: every quick-mode experiment's output, pinned.

The checked-in snapshot (``tests/data/golden_quick.json``) records each
registry experiment's rendered tables and deterministic scalars from a
``--quick`` run.  Wall time (``elapsed``) is never part of a table or a
scalar, so nothing host-dependent is pinned.  A refactor that claims to
change no simulated number proves it here: any drift fails with one
line per differing cell.

The tier-1 test below covers the experiments that finish in seconds.
The whole suite is checked from the command line (CI runs this under
the sanitizers)::

    PYTHONPATH=src python tests/test_golden.py --check [--validate] [--jobs N]

After an intentional model change, regenerate the snapshot with::

    PYTHONPATH=src python tests/test_golden.py --regen [--jobs N]
"""

import argparse
import io
import json
import pathlib
import re
import sys

from repro.experiments.registry import experiment_names
from repro.experiments.runner import run_all

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_quick.json"

#: Experiments cheap enough for every tier-1 run (about 4 s together).
CHEAP = ("table1", "fig1", "fig2", "utilization", "cluster")

_CELL_GAP = re.compile(r"\s{2,}")


def capture(names=None, validate=False, jobs=1):
    """Run the named experiments in quick mode; the snapshot's shape.

    Raises when an experiment fails (including a tripped sanitizer
    under ``validate``), since a failed run has no output to compare.
    """
    results = run_all(quick=True, only=names, jobs=jobs,
                      validate=validate, out=io.StringIO())
    errors = [f"{r.name}: {r.error}" for r in results if r.error]
    if errors:
        raise RuntimeError("experiments failed: " + "; ".join(errors))
    return {
        r.name: {"tables": [table.splitlines() for table in r.tables],
                 "scalars": dict(r.scalars)}
        for r in results
    }


def _cells(line):
    return _CELL_GAP.split(line.strip())


def _table_diff(where, expected, actual):
    lines = []
    header = _cells(expected[1]) if len(expected) > 1 else []
    for row, (want, got) in enumerate(zip(expected, actual)):
        if want == got:
            continue
        want_cells, got_cells = _cells(want), _cells(got)
        if row < 3 or len(want_cells) != len(got_cells):
            lines.append(f"{where} line {row}: expected {want!r}, got {got!r}")
            continue
        for col, (w, g) in enumerate(zip(want_cells, got_cells)):
            if w != g:
                name = header[col] if col < len(header) else f"col {col}"
                lines.append(f"{where} row {row - 3} [{want_cells[0]}] "
                             f"{name}: expected {w}, got {g}")
    if len(expected) != len(actual):
        lines.append(f"{where}: expected {len(expected)} lines, "
                     f"got {len(actual)}")
    return lines


def diff(expected, actual):
    """Readable per-cell differences between two snapshots ([] if equal)."""
    lines = []
    for name in expected.keys() | actual.keys():
        if name not in actual:
            lines.append(f"{name}: missing from this run")
            continue
        if name not in expected:
            lines.append(f"{name}: not in the golden snapshot")
            continue
        want, got = expected[name], actual[name]
        if len(want["tables"]) != len(got["tables"]):
            lines.append(f"{name}: expected {len(want['tables'])} tables, "
                         f"got {len(got['tables'])}")
        for index, (w, g) in enumerate(zip(want["tables"], got["tables"])):
            lines.extend(_table_diff(f"{name} table {index} ({w[0]!r})", w, g))
        for key in sorted(want["scalars"].keys() | got["scalars"].keys()):
            w = want["scalars"].get(key)
            g = got["scalars"].get(key)
            if w != g:
                lines.append(f"{name} scalar {key}: expected {w!r}, got {g!r}")
    return sorted(lines)


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


def _check(names, validate=False, jobs=1):
    golden = load_golden()
    expected = {name: golden[name] for name in names}
    return diff(expected, capture(names, validate=validate, jobs=jobs))


def test_golden_covers_every_experiment():
    assert sorted(load_golden()) == sorted(experiment_names()), (
        "tests/data/golden_quick.json is out of step with the registry; "
        "regenerate it with `PYTHONPATH=src python tests/test_golden.py "
        "--regen`")


def test_cheap_experiments_match_golden():
    drift = _check(CHEAP)
    assert not drift, "quick-mode output drifted from the golden:\n" + (
        "\n".join(drift))


def test_diff_reports_each_cell():
    table = ["Title", "name  a  b", "---------", "x     1  2"]
    changed = ["Title", "name  a  b", "---------", "x     1  3"]
    golden = {"e": {"tables": [table], "scalars": {"s": 1.0}}}
    run = {"e": {"tables": [changed], "scalars": {"s": 1.5}}}
    assert diff(golden, run) == [
        "e scalar s: expected 1.0, got 1.5",
        "e table 0 ('Title') row 0 [x] b: expected 2, got 3",
    ]
    assert diff(golden, golden) == []


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python tests/test_golden.py",
        description="Check or regenerate the quick-mode golden snapshot.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="run the suite and diff it against the golden")
    mode.add_argument("--regen", action="store_true",
                      help="run the suite and rewrite the golden")
    parser.add_argument("--validate", action="store_true",
                        help="run under the simulation sanitizers")
    parser.add_argument("--jobs", type=int, default=1, metavar="N")
    args = parser.parse_args(argv)
    names = experiment_names()
    if args.regen:
        snapshot = capture(names, validate=args.validate, jobs=args.jobs)
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
        return 0
    drift = _check(names, validate=args.validate, jobs=args.jobs)
    for line in drift:
        print(line, file=sys.stderr)
    print(f"golden: {len(names)} experiments, {len(drift)} differences")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
