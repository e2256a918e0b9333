"""Fixed-width text tables for experiment output.

Every experiment renders its results through :class:`TextTable` so the
benchmark harness prints the same rows/series the paper's figures plot.
Both names live in :mod:`repro.obs.report`, beside the run reports, so
the library's own reports (:mod:`repro.ablation`) render them without
importing the experiment layer.
"""

from repro.obs.report import TextTable, geometric_mean

__all__ = ["TextTable", "geometric_mean"]
