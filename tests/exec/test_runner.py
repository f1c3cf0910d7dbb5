"""Tests for the parallel runner: deterministic ordering, cache
integration, crash retry, and timeouts."""

import multiprocessing
import os
import time

import pytest

from repro.apps import Jacobi3DConfig
from repro.exec import (
    ExperimentPlan,
    ExperimentTimeout,
    ParallelRunner,
    ResultCache,
)


def _config(**kw):
    kw.setdefault("version", "charm-d")
    kw.setdefault("grid", (96, 96, 96))
    kw.setdefault("iterations", 2)
    kw.setdefault("warmup", 0)
    return Jacobi3DConfig(**kw)


_CONFIGS = [
    _config(version="mpi-h"),
    _config(version="charm-h", odf=2),
    _config(version="charm-d", odf=4),
    _config(version="charm-d", odf=1, grid=(64, 64, 64)),
    _config(version="mpi-d", grid=(128, 128, 128)),
]


# -- module-level test workers (must pickle into pool children) -------------


def _echo_worker(config_dict):
    return ("echo", config_dict["version"], config_dict["odf"])


def _slow_echo_worker(config_dict):
    # Invert plan order in completion time: later points finish first.
    time.sleep(0.2 / (1 + config_dict["odf"]))
    return config_dict["odf"]


def _crash_in_child_worker(config_dict):
    if multiprocessing.parent_process() is not None:
        os._exit(3)  # simulate a worker segfault/OOM kill
    return ("retried", config_dict["version"])


def _sleepy_worker(config_dict):
    time.sleep(3.0)
    return "late"


# -- determinism and ordering ----------------------------------------------


def test_parallel_results_identical_to_serial():
    serial = ParallelRunner(jobs=1).run_configs(_CONFIGS)
    parallel = ParallelRunner(jobs=4).run_configs(_CONFIGS)
    assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]


def test_results_in_plan_order_regardless_of_completion_order():
    configs = [_config(odf=odf) for odf in (1, 2, 4, 8)]
    results = ParallelRunner(jobs=4, worker=_slow_echo_worker).run_configs(configs)
    assert results == [1, 2, 4, 8]


def test_stats_and_progress_outcomes():
    outcomes = []
    runner = ParallelRunner(jobs=2, worker=_echo_worker)
    plan = ExperimentPlan("figX")
    for i, cfg in enumerate(_CONFIGS[:3]):
        plan.add(cfg, series=f"s{i}", x=i)
    runner.run(plan, on_point=outcomes.append)
    assert runner.stats.points == 3 and runner.stats.completed == 3
    assert runner.stats.cache_hits == 0 and runner.stats.retries == 0
    assert len(runner.stats.point_wall_s) == 3
    assert [o.index for o in outcomes] == [0, 1, 2]
    assert [o.series for o in outcomes] == ["s0", "s1", "s2"]
    assert all(not o.cache_hit for o in outcomes)


# -- cache integration ------------------------------------------------------


def test_cache_round_trip_through_runner(tmp_path):
    cache = ResultCache(tmp_path)
    cold = ParallelRunner(jobs=2, cache=cache)
    first = cold.run_configs(_CONFIGS[:3])
    assert cold.stats.cache_hits == 0

    warm = ParallelRunner(jobs=2, cache=cache)
    second = warm.run_configs(_CONFIGS[:3])
    assert warm.stats.cache_hits == 3  # 100% hits
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]


def test_cache_hit_outcomes_are_flagged(tmp_path):
    cache = ResultCache(tmp_path)
    ParallelRunner(cache=cache).run_configs(_CONFIGS[:1])
    outcomes = []
    ParallelRunner(cache=cache).run_configs(_CONFIGS[:1], on_point=outcomes.append)
    assert [o.cache_hit for o in outcomes] == [True]
    assert outcomes[0].wall_s == 0.0


# -- failure handling -------------------------------------------------------


def test_worker_crash_retries_in_process():
    runner = ParallelRunner(jobs=2, worker=_crash_in_child_worker)
    results = runner.run_configs(_CONFIGS[:2])
    assert results == [("retried", "mpi-h"), ("retried", "charm-h")]
    assert runner.stats.retries == 2
    assert runner.stats.completed == 2


def test_deterministic_worker_exception_propagates():
    # A config whose validation fails inside the worker is not retried:
    # the error reproduces identically.  Exercise via a bad machine budget.
    bad = _config(nodes=10_000)  # summit has 4608 nodes; cluster build fails
    with pytest.raises(Exception):
        ParallelRunner(jobs=2).run_configs([bad, _config()])


def test_per_point_timeout():
    runner = ParallelRunner(jobs=2, timeout=0.3, worker=_sleepy_worker)
    with pytest.raises(ExperimentTimeout, match="exceeded"):
        runner.run_configs(_CONFIGS[:2])


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        ParallelRunner(jobs=0)


# -- perf-report sidecar files ----------------------------------------------


def test_perf_dir_saves_report_per_point(tmp_path):
    from repro.exec import config_key

    configs = [_config(odf=2), _config(odf=4)]
    runner = ParallelRunner(jobs=2, perf_dir=tmp_path / "perf")
    results = runner.run_configs(configs)

    from repro.obs.report import PerfReport
    for config, result in zip(configs, results):
        report = PerfReport.load(tmp_path / "perf"
                                 / f"{config_key(config)}.perf.json")
        # Observation never perturbs the simulation itself.
        assert report.makespan == result.total_time
        assert report.time_per_iteration == result.time_per_iteration
        assert report.critical_path["length_s"] == pytest.approx(
            report.makespan, rel=0.01)


def test_perf_dir_results_match_plain_run(tmp_path):
    plain = ParallelRunner(jobs=1).run_configs(_CONFIGS[:2])
    with_perf = ParallelRunner(jobs=1, perf_dir=tmp_path).run_configs(_CONFIGS[:2])
    assert [r.to_dict() for r in plain] == [r.to_dict() for r in with_perf]


def test_perf_dir_with_cache_skips_rerun_but_keeps_report(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    perf_dir = tmp_path / "perf"
    ParallelRunner(cache=cache, perf_dir=perf_dir).run_configs(_CONFIGS[:1])
    assert len(list(perf_dir.glob("*.perf.json"))) == 1

    warm = ParallelRunner(cache=cache, perf_dir=perf_dir)
    warm.run_configs(_CONFIGS[:1])
    assert warm.stats.cache_hits == 1  # cached result reused; report kept
    assert len(list(perf_dir.glob("*.perf.json"))) == 1
