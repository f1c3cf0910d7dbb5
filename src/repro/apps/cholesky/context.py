"""Shared planning context for the tiled Cholesky frontends.

All scheduling-relevant structure — tile ownership, the per-step task
lists with their dependency/read sets, and the per-step message plan — is
computed *once* here, deterministically, and read by every frontend.  The
charm/MPI/AMPI frontends therefore execute the exact same DAG in the exact
same per-unit order; they differ only in transport (mailbox entry methods
vs. Channel API vs. isend/irecv) and staging (host vs. device), which is
precisely the axis the differential matrix isolates.

Decomposition: the lower triangle of ``tiles``-square tiles is assigned
round-robin (row-major tile order) over the participating units — the
standard 1-D cyclic distribution that gives every unit work in early *and*
late elimination steps.  Step ``k`` of the factorization is the app's
"iteration": POTRF(k) on the diagonal owner, TRSM(i,k) down the panel,
then SYRK/GEMM Schur updates on the trailing submatrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ...hardware.gpu import KernelWork
from ...runtime.taskspace import TaskSpace
from ..appbase import MetricsCollector, ResidualHistory
from .config import CholeskyConfig
from .ops import gemm_update, generate_spd, potrf_tile, syrk_update, trsm_tile

__all__ = ["CholeskyContext", "CholeskyData", "TaskInfo", "StepPlan"]


def upd_key(i: int, j: int, k: int) -> tuple:
    """Task key of the step-``k`` Schur update writing tile ``(i, j)``."""
    return ("syrk", j, k) if i == j else ("gemm", i, j, k)


def factor_producer(a: int, k: int) -> tuple:
    """Task key producing factor tile ``(a, k)`` at step ``k``."""
    return ("potrf", k) if a == k else ("trsm", a, k)


def tile_accesses(info: "TaskInfo") -> tuple:
    """``(reads, writes)`` buffer keys for one task's kernel, derived from
    the task *kind* (the mathematical ground truth — deliberately not from
    ``info.reads``/``local_deps``, which fault injectors mutate).

    Buffer ``("tile", i, j)`` is matrix tile ``(i, j)``; a consumed factor
    tile is the same buffer whether it lives locally or arrived by message
    — the sanitizer's happens-before tracking orders the accesses.
    """
    i, j, k = info.i, info.j, info.step
    if info.kind == "potrf":
        return (("tile", k, k),), (("tile", k, k),)
    if info.kind == "trsm":
        return (("tile", i, k), ("tile", k, k)), (("tile", i, k),)
    if info.kind == "syrk":
        return (("tile", j, j), ("tile", j, k)), (("tile", j, j),)
    return (("tile", i, j), ("tile", i, k), ("tile", j, k)), (("tile", i, j),)


@dataclass(frozen=True)
class TaskInfo:
    """One task instance, fully resolved against the ownership map."""

    key: tuple
    kind: str  # potrf | trsm | syrk | gemm
    i: int
    j: int
    step: int
    name: str
    stream: str  # "panel" | "update"
    reads: tuple  # factor rows ``a`` consumed (the tiles (a, step))
    local_deps: tuple  # dependency keys executed by this same unit
    work: KernelWork


@dataclass(frozen=True)
class StepPlan:
    """Everything every unit does at one elimination step.

    ``tasks[u]``: that unit's tasks in the canonical global order.
    ``recvs[u]``: ``[(a, src_unit)]`` factor tiles arriving, ascending ``a``.
    ``sends[u]``: ``[(a, (dest_unit, ...))]`` factor tiles produced here and
    needed elsewhere, ascending ``a`` (which is also production order).
    """

    step: int
    tasks: dict
    recvs: dict
    sends: dict


class CholeskyContext:
    """One Cholesky run's immutable context, shared by all units."""

    def __init__(self, config: CholeskyConfig, initial_state: Optional[dict] = None):
        if initial_state is not None:
            raise ValueError("cholesky does not support checkpoint restart")
        self.config = config
        t = config.tiles
        u_count = config.n_blocks()
        self.n_units = u_count
        # Row-major lower-triangle tile order; round-robin (1-D cyclic) owners.
        self.tile_list = [(i, j) for i in range(t) for j in range(i + 1)]
        self.owner = {tl: seq % u_count for seq, tl in enumerate(self.tile_list)}
        self.unit_tiles = {u: [] for u in range(u_count)}
        for tl in self.tile_list:
            self.unit_tiles[self.owner[tl]].append(tl)
        self.tasks = TaskSpace(name="cholesky")
        self.plan = [self._plan_step(k) for k in range(t)]
        self.metrics = MetricsCollector(u_count, warmup=0)
        self.residuals = (ResidualHistory(u_count, t) if config.functional else None)
        if config.functional:
            self.matrix, self.expected_factor = generate_spd(config.n, config.seed)
        else:
            self.matrix = self.expected_factor = None

    # -- planning ----------------------------------------------------------
    def _step_task_keys(self, k: int) -> list:
        """The step's tasks in canonical global (topological) order."""
        t = self.config.tiles
        keys = [("potrf", k)]
        keys += [("trsm", i, k) for i in range(k + 1, t)]
        keys += [upd_key(i, j, k) for i in range(k + 1, t) for j in range(k + 1, i + 1)]
        return keys

    def _task_info(self, key: tuple) -> TaskInfo:
        b = self.config.tile
        tb = float(b) * b * 8.0
        flops = float(b) ** 3
        kind = key[0]
        if kind == "potrf":
            k = key[1]
            i = j = k
            name, stream = f"potrf.{k}", "panel"
            reads, deps = (), ([upd_key(k, k, k - 1)] if k else [])
            work = KernelWork(2 * tb, flops / 3)
        elif kind == "trsm":
            _, i, k = key
            j = k
            name, stream = f"trsm.{i}.{k}", "panel"
            reads = (k,)
            deps = [("potrf", k)] + ([upd_key(i, k, k - 1)] if k else [])
            work = KernelWork(3 * tb, flops)
        elif kind == "syrk":
            _, j, k = key
            i = j
            name, stream = f"syrk.{j}.{k}", "update"
            reads = (j,)
            deps = [("trsm", j, k)] + ([upd_key(j, j, k - 1)] if k else [])
            work = KernelWork(3 * tb, flops)
        else:  # gemm
            _, i, j, k = key
            name, stream = f"gemm.{i}.{j}.{k}", "update"
            reads = (i, j)
            deps = [("trsm", i, k), ("trsm", j, k)]
            deps += [upd_key(i, j, k - 1)] if k else []
            work = KernelWork(4 * tb, 2 * flops)
        me = self.owner[(i, j)]
        local = tuple(d for d in deps if self._task_unit(d) == me)
        self.tasks.declare(key, deps=deps, unit=me)
        return TaskInfo(key=key, kind=kind, i=i, j=j, step=key[-1], name=name,
                        stream=stream, reads=tuple(reads), local_deps=local,
                        work=work)

    def _task_unit(self, key: tuple) -> int:
        kind = key[0]
        if kind == "potrf":
            return self.owner[(key[1], key[1])]
        if kind == "trsm":
            return self.owner[(key[1], key[2])]
        if kind == "syrk":
            return self.owner[(key[1], key[1])]
        return self.owner[(key[1], key[2])]

    def _readers(self, a: int, k: int) -> list:
        """Units consuming factor tile ``(a, k)`` at step ``k``, sorted."""
        t = self.config.tiles
        if a == k:
            units = {self.owner[(i, k)] for i in range(k + 1, t)}
        else:
            units = {self.owner[(a, j)] for j in range(k + 1, a + 1)}
            units |= {self.owner[(i, a)] for i in range(a, t)}
        return sorted(units)

    def _plan_step(self, k: int) -> StepPlan:
        t = self.config.tiles
        tasks: dict = {}
        for key in self._step_task_keys(k):
            info = self._task_info(key)
            tasks.setdefault(self._task_unit(key), []).append(info)
        recvs: dict = {}
        sends: dict = {}
        for a in range(k, t):
            producer = self._task_unit(factor_producer(a, k))
            dests = [r for r in self._readers(a, k) if r != producer]
            if dests:
                sends.setdefault(producer, []).append((a, tuple(dests)))
                for r in dests:
                    recvs.setdefault(r, []).append((a, producer))
        return StepPlan(step=k, tasks=tasks, recvs=recvs, sends=sends)

    # -- driver hooks ------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return (self.n_units,)

    def max_payload_bytes(self) -> int:
        """Largest single message payload: one factor tile."""
        return self.config.tile_bytes()

    def unit_data(self, u: int) -> "CholeskyData":
        return CholeskyData(self, u)

    def unit_device_bytes(self, u: int) -> int:
        """Owned tiles plus a small working set of received factor tiles."""
        return self.config.tile_bytes() * (len(self.unit_tiles[u]) + 2)


class CholeskyData:
    """One unit's tile storage and functional mirror.

    In modeled mode every ``f_*`` method is a no-op returning ``None`` —
    exactly the stencil :class:`~repro.apps.stencil.context.BlockData`
    convention, so the frontends call them unconditionally.
    """

    def __init__(self, ctx: CholeskyContext, u: int):
        self.ctx = ctx
        self.u = u
        self.owned = list(ctx.unit_tiles[u])
        self.functional = ctx.config.functional
        self.tiles = {}
        self._received = {}
        self._step_delta = 0.0
        if self.functional:
            b = ctx.config.tile
            for (i, j) in self.owned:
                self.tiles[(i, j)] = ctx.matrix[
                    i * b:(i + 1) * b, j * b:(j + 1) * b].copy()

    # -- functional task bodies -------------------------------------------
    def _bump(self, old: np.ndarray, new: np.ndarray) -> None:
        delta = float(np.max(np.abs(new - old))) if new.size else 0.0
        if delta > self._step_delta:
            self._step_delta = delta

    def f_run_task(self, info: TaskInfo) -> None:
        """Execute the task's numerics against the local tile store."""
        if not self.functional:
            return
        i, j, k = info.i, info.j, info.step
        if info.kind == "potrf":
            old = self.tiles[(k, k)]
            self.tiles[(k, k)] = potrf_tile(old)
        elif info.kind == "trsm":
            old = self.tiles[(i, k)]
            self.tiles[(i, k)] = trsm_tile(self.f_factor(k, k), old)
        elif info.kind == "syrk":
            old = self.tiles[(j, j)]
            self.tiles[(j, j)] = syrk_update(old, self.f_factor(j, k))
        else:
            old = self.tiles[(i, j)]
            self.tiles[(i, j)] = gemm_update(
                old, self.f_factor(i, k), self.f_factor(j, k))
        self._bump(old, self.tiles[(i, j)])

    def f_factor(self, a: int, k: int):
        """Factor tile ``(a, k)`` — owned locally or received this step."""
        if not self.functional:
            return None
        if (a, k) in self.tiles:
            return self.tiles[(a, k)]
        return self._received[(k, a)]

    def f_factor_payload(self, a: int, k: int):
        """Copy of a locally-produced factor tile, for sending."""
        if not self.functional:
            return None
        return self.tiles[(a, k)].copy()

    def f_store_factor(self, k: int, a: int, data) -> None:
        if not self.functional:
            return
        self._received[(k, a)] = data

    def f_finish_step(self, k: int) -> None:
        """Record this unit's step residual (0.0 when the unit had no
        tasks) and drop factor tiles received for the finished step."""
        if not self.functional:
            return
        self.ctx.residuals.record((self.u,), k, self._step_delta)
        self._step_delta = 0.0
        self._received = {}

    def f_interior(self) -> dict:
        """Driver hook: this unit's final owned tiles."""
        return {tl: arr.copy() for tl, arr in self.tiles.items()}
