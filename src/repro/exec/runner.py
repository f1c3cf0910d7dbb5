"""Parallel experiment execution.

:class:`ParallelRunner` takes a plan (or a bare list of configs), satisfies
what it can from the result cache, and fans the remaining points out over a
``ProcessPoolExecutor`` — every point is an independent, deterministic
simulation, so this is embarrassingly parallel.  Guarantees:

* **Deterministic results**: the returned list is in plan order regardless
  of completion order, and each entry is bit-identical to what a serial run
  produces (the simulator is deterministic and cache round-trips are exact).
* **Per-point timeout**: a hung worker raises :class:`ExperimentTimeout`
  instead of hanging the harness (pool mode only; serial mode cannot
  preempt a running simulation).
* **One retry on worker crash**: if the pool breaks (a worker died — OOM,
  signal), every unfinished point is retried once in the parent process.
  Deterministic worker *exceptions* propagate immediately: a retry would
  fail identically.
* **Progress/metrics**: an ``on_point`` callback per completed point and a
  :class:`RunnerStats` (points done, cache hits, retries, per-point and
  total wall-clock) refreshed on every ``run``.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from ..apps import BaseAppConfig, config_from_dict, run_app
from .cache import ResultCache, config_key
from .plan import ExperimentPlan, ExperimentPoint

__all__ = [
    "ExperimentTimeout",
    "PointOutcome",
    "RunnerStats",
    "ParallelRunner",
    "default_worker",
    "validating_worker",
    "perf_worker",
    "perf_validating_worker",
    "perf_sidecar_reports",
]


class ExperimentTimeout(RuntimeError):
    """A point exceeded the runner's per-point timeout."""


def default_worker(config_dict: dict):
    """Reconstruct the config (any registered app) and run the simulation
    (executes in worker processes; must stay module-level so it pickles)."""
    return run_app(config_from_dict(config_dict))


def validating_worker(config_dict: dict):
    """:func:`default_worker` with the invariant checker attached: the run
    raises :class:`~repro.validate.invariants.InvariantError` on any simulation
    invariant breach instead of returning a silently-wrong result.
    Results are bit-identical to :func:`default_worker`'s (monitors are
    pure observers)."""
    return run_app(config_from_dict(config_dict), validate=True)


def perf_worker(config_dict: dict):
    """:func:`default_worker` under an :class:`~repro.obs.report.Observatory`;
    returns ``(result, perf_report_dict)`` so the runner can save the
    report next to the cached result."""
    from ..obs.report import collect_perf

    result, report = collect_perf(config_from_dict(config_dict))
    return result, report.to_dict()


def perf_validating_worker(config_dict: dict):
    """:func:`perf_worker` with the invariant checker attached."""
    from ..obs.report import collect_perf

    result, report = collect_perf(config_from_dict(config_dict), validate=True)
    return result, report.to_dict()


def perf_sidecar_reports(perf_dir) -> dict[str, dict]:
    """Every sidecar perf report in a sweep directory, keyed by config key.

    Inverse of the runner's ``perf_dir=`` output (``<key>.perf.json`` per
    point): this is how ``repro perf diff`` and :func:`repro.obs.diff.
    diff_sidecar_dirs` line two sweeps up point by point.  Unreadable or
    non-JSON files are skipped (a crashed worker must not take the whole
    differential down)."""
    out: dict[str, dict] = {}
    root = Path(perf_dir)
    for path in sorted(root.glob("*.perf.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(doc, dict):
            out[path.name[: -len(".perf.json")]] = doc
    return out


def _timed_call(worker, config_dict: dict):
    """Run ``worker`` and measure its wall-clock where it executes (so pool
    mode reports true per-point compute time, not queue time)."""
    t0 = time.perf_counter()
    value = worker(config_dict)
    return value, time.perf_counter() - t0


@dataclass(frozen=True)
class PointOutcome:
    """Progress report for one completed point."""

    index: int
    total: int
    series: str
    x: float
    cache_hit: bool
    retried: bool
    wall_s: float
    summary: str


@dataclass
class RunnerStats:
    """Metrics for the most recent ``run`` call."""

    points: int = 0
    completed: int = 0
    cache_hits: int = 0
    retries: int = 0
    jobs: int = 1
    wall_s: float = 0.0
    point_wall_s: list[float] = field(default_factory=list)

    def describe(self) -> str:
        return (
            f"{self.completed}/{self.points} points, "
            f"{self.cache_hits} cache hits, jobs={self.jobs}, "
            f"{self.wall_s:.2f}s wall"
        )


ProgressFn = Callable[[PointOutcome], None]


class ParallelRunner:
    """Executes experiment points with caching and process-pool fan-out.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (default) runs in-process with no pool
        overhead and preserves historical serial behaviour exactly.
    cache:
        Optional :class:`~repro.exec.cache.ResultCache`; hits skip the
        simulation entirely, misses are stored after computing.
    timeout:
        Per-point wall-clock bound in seconds (pool mode only).
    worker:
        ``config_dict -> result`` callable, module-level for pickling.
        Defaults to :func:`default_worker`; injectable for tests.
    on_point:
        Default progress callback (overridable per ``run`` call).
    validate:
        Run every *simulated* point under the invariant checker
        (:func:`validating_worker`): a breached invariant raises instead
        of producing a wrong result.  Cache hits skip the simulation and
        therefore the audit.  Ignored when ``worker`` is given.
    perf_dir:
        When set, every *simulated* point runs under an
        :class:`~repro.obs.report.Observatory` (:func:`perf_worker`) and its perf
        report is written to ``perf_dir/<config_key>.perf.json`` — the same
        content-addressed key the result cache uses, so a report sits next
        to its cached result.  Cache hits skip the simulation and keep the
        previously written report.  Ignored when ``worker`` is given.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None,
        worker: Optional[Callable] = None,
        on_point: Optional[ProgressFn] = None,
        validate: bool = False,
        perf_dir: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.timeout = timeout
        self.validate = validate
        self.perf_dir = Path(perf_dir) if perf_dir is not None else None
        if worker is None:
            if self.perf_dir is not None:
                worker = perf_validating_worker if validate else perf_worker
            else:
                worker = validating_worker if validate else default_worker
        self.worker = worker
        self.on_point = on_point
        self.stats = RunnerStats(jobs=jobs)

    # -- entry points ------------------------------------------------------
    def run(self, plan: ExperimentPlan, on_point: Optional[ProgressFn] = None) -> list:
        """All of ``plan``'s results, in plan order."""
        return self.run_points(plan.points, on_point=on_point)

    def run_configs(self, configs: Sequence[BaseAppConfig],
                    on_point: Optional[ProgressFn] = None) -> list:
        """Plan-less convenience: results for bare configs, in order."""
        return self.run_points([ExperimentPoint(c) for c in configs], on_point=on_point)

    def run_points(self, points: Sequence[ExperimentPoint],
                   on_point: Optional[ProgressFn] = None) -> list:
        on_point = on_point or self.on_point
        t_start = time.perf_counter()
        stats = RunnerStats(points=len(points), jobs=self.jobs,
                            point_wall_s=[0.0] * len(points))
        self.stats = stats
        results: list = [None] * len(points)

        pending: list[int] = []
        for i, point in enumerate(points):
            cached = self.cache.get(point.config) if self.cache else None
            if cached is not None:
                self._finish(i, points, results, cached, 0.0, stats, on_point,
                             cache_hit=True)
            else:
                pending.append(i)

        if pending:
            if self.jobs == 1 or len(pending) == 1:
                for i in pending:
                    value, wall = _timed_call(self.worker, points[i].config.to_dict())
                    self._finish(i, points, results, value, wall, stats, on_point)
            else:
                self._run_pool(points, pending, results, stats, on_point)

        stats.wall_s = time.perf_counter() - t_start
        return results

    # -- internals ---------------------------------------------------------
    def _run_pool(self, points, pending, results, stats, on_point) -> None:
        pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(pending)))
        crashed: list[int] = []
        try:
            futures = {
                i: pool.submit(_timed_call, self.worker, points[i].config.to_dict())
                for i in pending
            }
            # Collect in submission order: waits overlap later points'
            # execution, and emission order stays deterministic.
            for i in pending:
                try:
                    value, wall = futures[i].result(timeout=self.timeout)
                except _FuturesTimeout:
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise ExperimentTimeout(
                        f"point {i} ({points[i].config.version}, "
                        f"nodes={points[i].config.nodes}) exceeded "
                        f"{self.timeout}s"
                    ) from None
                except BrokenProcessPool:
                    # A worker process died; the whole pool is unusable.
                    # Every not-yet-finished point gets its one retry below.
                    crashed = [j for j in pending if results[j] is None]
                    break
                self._finish(i, points, results, value, wall, stats, on_point)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        for i in crashed:
            stats.retries += 1
            value, wall = _timed_call(self.worker, points[i].config.to_dict())
            self._finish(i, points, results, value, wall, stats, on_point, retried=True)

    def _finish(self, i, points, results, value, wall, stats, on_point,
                cache_hit: bool = False, retried: bool = False) -> None:
        if self.perf_dir is not None and type(value) is tuple and len(value) == 2:
            value, report_dict = value
            path = self.perf_dir / f"{config_key(points[i].config)}.perf.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(report_dict, indent=2, sort_keys=True))
        results[i] = value
        stats.completed += 1
        stats.point_wall_s[i] = wall
        if cache_hit:
            stats.cache_hits += 1
        elif self.cache is not None:
            self.cache.put(points[i].config, value)
        if on_point is not None:
            summarize = getattr(value, "summary", None)
            summary = summarize() if callable(summarize) else str(value)
            on_point(PointOutcome(
                index=i, total=stats.points, series=points[i].series,
                x=points[i].x, cache_hit=cache_hit, retried=retried,
                wall_s=wall, summary=summary,
            ))
