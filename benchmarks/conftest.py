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
