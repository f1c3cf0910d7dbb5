"""Property-based suite for the tiled-Cholesky task DAG (docs/apps.md).

Three guarantees, over randomly drawn problem shapes and frontends:

* **exactly once** — every task the planner declared is issued and
  finished exactly once (the :class:`~repro.runtime.taskspace.TaskSpace`
  journal, read through ``run_app``'s ``context_out`` hook), and the
  engine trace shows exactly one compute kernel per task.
* **dependency respect** — in the trace, no task's kernel *starts* before
  every declared dependency's kernel has *finished*.  Launch order is
  free (that is the asynchrony the paper is about); execution order is
  not.
* **bitwise factorization** — in functional mode the assembled factor is
  bit-identical to ``np.linalg.cholesky`` of the same input, for every
  frontend and overdecomposition factor.
"""

import dataclasses
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import run_app
from repro.apps.cholesky import CholeskyConfig
from repro.apps.cholesky.context import CholeskyContext
from repro.apps import ALL_VERSIONS
from repro.hardware import MachineSpec
from repro.sim import Tracer

MACHINE = MachineSpec.small_debug()
#: Execution-interval comparisons tolerate float accumulation only.
TIME_EPS = 1e-12


def _name(key):
    """Kernel name of a task key: ``("gemm", 2, 1, 0)`` -> ``"gemm.2.1.0"``
    (the naming contract between the planner and the trace)."""
    return ".".join(str(part) for part in key)


@st.composite
def _configs(draw, functional=False):
    version = draw(st.sampled_from(ALL_VERSIONS))
    return CholeskyConfig(
        version=version,
        nodes=draw(st.integers(1, 2)),
        tiles=draw(st.integers(1, 5)),
        tile=8,
        odf=1 if version.startswith("mpi") else draw(st.integers(1, 3)),
        data_mode="functional" if functional else "modeled",
        seed=draw(st.integers(0, 2**16)),
        machine=MACHINE,
    )


def _run_traced(config):
    tracer = Tracer(categories=("gpu.compute",))
    ctx_out: list = []
    run_app(config, tracer=tracer, context_out=ctx_out)
    tracer.detach()
    return ctx_out[0], tracer.records


@settings(max_examples=10, deadline=None)
@given(config=_configs())
def test_every_declared_task_runs_exactly_once(config):
    ctx, records = _run_traced(config)
    journal = ctx.tasks.journal()
    # The declared DAG covers the whole factorization: one POTRF per step,
    # a TRSM per sub-diagonal panel tile, one Schur update per trailing tile.
    t = config.tiles
    assert len(journal) == sum(
        1 + (t - 1 - k) + (t - 1 - k) * (t - k) // 2 for k in range(t)
    )
    ctx.tasks.check_all_finished()
    for rec in journal:
        assert rec.issued_at is not None and rec.finished_at is not None
        assert rec.issued_at <= rec.finished_at
    # ... and the engine saw exactly one compute kernel per task.
    expected = Counter(_name(rec.key) for rec in journal)
    traced = Counter(r.data["op"] for r in records)
    assert traced == expected


@settings(max_examples=10, deadline=None)
@given(config=_configs())
def test_trace_never_starts_a_task_before_its_deps_finish(config):
    ctx, records = _run_traced(config)
    intervals = {
        r.data["op"]: (r.data["start"], r.data["start"] + r.data["duration"])
        for r in records
    }
    for rec in ctx.tasks.journal():
        start = intervals[_name(rec.key)][0]
        for dep in rec.deps:
            dep_end = intervals[_name(dep)][1]
            assert start >= dep_end - TIME_EPS, (
                f"{_name(rec.key)} started at {start} before its dependency "
                f"{_name(dep)} finished at {dep_end}"
            )


@settings(max_examples=8, deadline=None)
@given(config=_configs(functional=True))
def test_factor_is_bitwise_numpy_cholesky_for_every_frontend(config):
    result = run_app(config)
    ctx = CholeskyContext(config)
    factor = result.assemble_state()
    assert np.array_equal(factor, ctx.expected_factor)
    assert np.array_equal(factor, np.tril(np.linalg.cholesky(ctx.matrix)))


def test_single_tile_degenerate_dag():
    """tiles=1: the DAG is a lone POTRF; every frontend still terminates."""
    for version in ALL_VERSIONS:
        config = CholeskyConfig(version=version, nodes=1, tiles=1, tile=8,
                                odf=1, data_mode="functional", machine=MACHINE)
        ctx, records = _run_traced(config)
        assert [rec.key for rec in ctx.tasks.journal()] == [("potrf", 0)]
        ctx.tasks.check_all_finished()
        assert [r.data["op"] for r in records] == ["potrf.0"]


def test_odd_unit_counts_distribute_the_whole_triangle():
    """A 3-unit run (1 GPU/node) owns every tile exactly once and still
    factorizes bitwise."""
    machine = dataclasses.replace(
        MACHINE, node=dataclasses.replace(MACHINE.node, gpus_per_node=1))
    config = CholeskyConfig(version="charm-d", nodes=3, tiles=5, tile=8,
                            odf=1, data_mode="functional", machine=machine)
    ctx_out: list = []
    result = run_app(config, context_out=ctx_out)
    ctx = ctx_out[0]
    owned = [tl for u in range(ctx.n_units) for tl in ctx.unit_tiles[u]]
    assert sorted(owned) == sorted(ctx.tile_list)
    assert np.array_equal(result.assemble_state(), ctx.expected_factor)
