"""Shared fixtures for the benchmark gates.

Each gate writes its ``BENCH_*.json`` datapoint into the gitignored
``benchmarks/results/``, which CI loads, prints and uploads.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_tables(results_dir):
    """Write rendered tables to a named artifact file.

    Only ``test_fig4_profile_surface.py`` still calls it; it goes with
    that file.
    """

    def _save(name: str, *tables) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text("\n\n".join(str(table) for table in tables) + "\n")

    return _save
