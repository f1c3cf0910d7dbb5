"""The model reaches steady state quickly: measured per-iteration time must
be stable against the iteration count (this justifies the reduced iteration
counts in the figure generators vs the paper's 100)."""

import pytest

from repro.apps import Jacobi2DConfig, Jacobi3DConfig, run_app


@pytest.mark.parametrize("version,odf", [("mpi-h", 1), ("charm-h", 2), ("charm-d", 2)])
def test_time_per_iteration_stable_in_iteration_count(version, odf):
    def per_iter(iters):
        cfg = Jacobi3DConfig(version=version, nodes=2, grid=(768, 768, 1536),
                             odf=odf, iterations=iters, warmup=1)
        return run_app(cfg).time_per_iteration

    short = per_iter(3)
    long = per_iter(8)
    assert long == pytest.approx(short, rel=0.05)


def test_warmup_count_does_not_change_steady_period():
    def per_iter(warmup):
        cfg = Jacobi3DConfig(version="charm-d", nodes=2, grid=(768, 768, 1536),
                             odf=2, iterations=4, warmup=warmup)
        return run_app(cfg).time_per_iteration

    assert per_iter(1) == pytest.approx(per_iter(3), rel=0.05)


@pytest.mark.parametrize("version", ["charm-d", "mpi-h", "ampi-d"])
@pytest.mark.parametrize("config_cls,grid", [(Jacobi3DConfig, (48, 48, 48)),
                                             (Jacobi2DConfig, (96, 96))])
def test_single_iteration_run_reports_a_period(config_cls, grid, version):
    """One measured iteration gives no per-unit tail to difference, so the
    period falls back to the measured window over the one iteration."""
    r = run_app(config_cls(version=version, nodes=1, grid=grid, iterations=1, warmup=0))
    assert 0 < r.time_per_iteration <= r.total_time - r.warmup_boundary
