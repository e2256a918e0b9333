"""Figure 2: interconnect goodput vs. write transfer granularity."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.interconnect.efficiency import (
    DEFAULT_GRANULARITIES,
    GoodputPoint,
    figure2_curves,
    saturation_size,
)
from repro.interconnect.packet import NVLINK_FORMAT, PCIE3_FORMAT
from repro.experiments.registry import ExperimentContext, ExperimentResult
from repro.experiments.report import TextTable


@dataclass
class Figure2Result:
    """The two goodput series of Figure 2."""

    curves: Dict[str, List[GoodputPoint]]

    def table(self) -> TextTable:
        table = TextTable(
            title="Figure 2: goodput fraction vs. store granularity",
            columns=["bytes", *self.curves.keys()])
        sizes = [point.access_size
                 for point in next(iter(self.curves.values()))]
        for i, size in enumerate(sizes):
            table.add_row(size, *(self.curves[name][i].goodput_fraction
                                  for name in self.curves))
        return table

    def anchor_points(self) -> Dict[str, float]:
        """The paper's calibration anchors: goodput of 4-byte stores."""
        return {
            name: next(p.goodput_fraction for p in points
                       if p.access_size == 4)
            for name, points in self.curves.items()
        }


def run(sizes: Sequence[int] = DEFAULT_GRANULARITIES) -> Figure2Result:
    """Regenerate Figure 2."""
    return Figure2Result(curves=figure2_curves(sizes))


def experiment(ctx: ExperimentContext) -> ExperimentResult:
    """Registry entry point (see :mod:`repro.experiments.registry`)."""
    result = run()
    scalars = {f"goodput_4B_{name.lower()}": value
               for name, value in result.anchor_points().items()}
    scalars["saturation_bytes_pcie"] = saturation_size(PCIE3_FORMAT)
    scalars["saturation_bytes_nvlink"] = saturation_size(NVLINK_FORMAT)
    # The exact smallest rise between neighbouring sizes: the rendered
    # plateau cells print equal, so monotonicity needs the raw values.
    scalars["goodput_min_step"] = min(
        b.goodput_fraction - a.goodput_fraction
        for points in result.curves.values()
        for a, b in zip(points, points[1:]))
    return ExperimentResult.build(
        "fig2", "Figure 2", [result.table()], scalars)
