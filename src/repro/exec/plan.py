"""Declarative experiment plans.

A figure, sweep, or benchmark is a *plan*: an ordered list of
:class:`ExperimentPoint` jobs, each an independent, deterministic app
simulation plus the labels needed to place its result in a figure.  Plans
decouple *what to run* from *how to run it* — the same plan executes
serially, across a process pool, or straight out of the result cache
(:mod:`repro.exec.runner`), always yielding results in plan order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..analysis import FigureData
from ..apps import BaseAppConfig

__all__ = ["ExperimentPoint", "ExperimentPlan"]


@dataclass(frozen=True)
class ExperimentPoint:
    """One simulation job inside a plan.

    Parameters
    ----------
    config:
        The full job spec; with the deterministic simulator it alone
        determines the result (and hence the cache key).
    series / x:
        Where the result lands in the figure: curve label and x coordinate.
    meta_fields:
        ``(meta_key, result_attribute)`` pairs copied from the result into
        the point's free-form metadata by generic assembly
        (e.g. ``(("util", "gpu_utilization"),)``).
    """

    config: BaseAppConfig
    series: str = ""
    x: float = 0.0
    meta_fields: tuple = ()


@dataclass
class ExperimentPlan:
    """An ordered collection of points plus figure-level labels."""

    figure_id: str
    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    points: list[ExperimentPoint] = field(default_factory=list)

    def add(
        self,
        config: BaseAppConfig,
        series: str = "",
        x: float = 0.0,
        meta_fields: Sequence[tuple] = (),
    ) -> int:
        """Append a point; returns its index (results come back in the same
        order, so the index addresses the point's result)."""
        self.points.append(
            ExperimentPoint(config, series, float(x), tuple(tuple(m) for m in meta_fields))
        )
        return len(self.points) - 1

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[ExperimentPoint]:
        return iter(self.points)

    def configs(self) -> list[BaseAppConfig]:
        return [p.config for p in self.points]

    def figure(self, results: Sequence, metric: str = "time_per_iteration") -> FigureData:
        """Generic figure assembly: one ``series.add`` per point, in plan
        order (series are created at first encounter, preserving label
        order).  Figures needing derived quantities (best-ODF argmin,
        speedup ratios) assemble manually from the results list instead."""
        if len(results) != len(self.points):
            raise ValueError(
                f"plan has {len(self.points)} points but got {len(results)} results"
            )
        fig = FigureData(self.figure_id, self.title, self.xlabel, self.ylabel)
        for point, res in zip(self.points, results):
            series = fig.series.get(point.series)
            if series is None:
                series = fig.new_series(point.series)
            meta = {key: getattr(res, attr) for key, attr in point.meta_fields}
            series.add(point.x, getattr(res, metric), **meta)
        return fig
