"""Shared communication schedule for the allreduce frontends.

Both algorithms compile to the same plan shape: an ordered list of
:class:`RoundStep`\\ s, each giving every unit its sends and receives as
``(peer, seg, chunk, lo, hi)`` element ranges plus what to do with arriving
data (``add`` for reduction rounds, ``copy`` for distribution rounds).
The charm/MPI/AMPI frontends replay this plan verbatim; they differ only
in transport and host/device staging — the axis the differential matrix
isolates.

* **ring** — bandwidth-optimal: a reduce-scatter pass (``U-1`` steps, each
  unit forwards one vector segment to its right neighbour and folds the
  segment arriving from the left into its accumulator) followed by an
  allgather pass circulating the completed segments.
* **tree** — latency-optimal binomial: recursive-doubling reduce to unit
  0, then the mirrored broadcast.  Handles non-power-of-two unit counts.

``chunks`` splits every transfer into that many pipeline chunks with their
own messages and per-chunk reduction kernels, so chunk ``c+1``'s transfer
overlaps chunk ``c``'s fold — the classic double-buffered pipeline;
``chunks=1`` degenerates to the single-stage version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ...hardware.gpu import KernelWork
from ..appbase import MetricsCollector, ResidualHistory
from .config import AllreduceConfig

__all__ = ["AllreduceContext", "AllreduceData", "RoundStep"]


@dataclass(frozen=True)
class RoundStep:
    """One communication round of the schedule.

    ``sends[u]`` / ``recvs[u]``: tuples of ``(peer, seg, c, lo, hi)`` in
    transfer order (ascending chunk) — ``[lo, hi)`` is the element range.
    ``kind`` says how a receiver folds an arriving chunk: ``add`` (local
    reduction) or ``copy`` (overwrite with the completed values).
    """

    phase: str  # "rs" | "ag" | "tr" | "tb"
    label: int  # ring step index or tree mask
    kind: str  # "add" | "copy"
    sends: dict
    recvs: dict


def _split(lo: int, hi: int, parts: int) -> list:
    """Deterministic even split of ``[lo, hi)`` into ``parts`` ranges."""
    n = hi - lo
    return [(lo + n * p // parts, lo + n * (p + 1) // parts)
            for p in range(parts)]


class AllreduceContext:
    """One allreduce run's immutable context, shared by all units."""

    def __init__(self, config: AllreduceConfig, initial_state: Optional[dict] = None):
        if initial_state is not None:
            raise ValueError("allreduce does not support checkpoint restart")
        self.config = config
        u_count = config.n_blocks()
        self.n_units = u_count
        self.segments = _split(0, config.elements, u_count)
        if config.algorithm == "ring":
            self.round_steps = self._ring_rounds()
        else:
            self.round_steps = self._tree_rounds()
        self.metrics = MetricsCollector(u_count, warmup=config.warmup)
        self.residuals = (ResidualHistory(u_count, config.total_iterations)
                          if config.functional else None)

    # -- schedules ---------------------------------------------------------
    def _chunks_of(self, seg: int, lo: int, hi: int) -> list:
        return [(seg, c, clo, chi)
                for c, (clo, chi) in enumerate(_split(lo, hi, self.config.chunks))]

    def _ring_rounds(self) -> list:
        u_count = self.n_units
        steps = []
        for phase, kind in (("rs", "add"), ("ag", "copy")):
            for s in range(u_count - 1):
                sends: dict = {}
                recvs: dict = {}
                for u in range(u_count):
                    # Reduce-scatter circulates partial sums right; the
                    # allgather pass then circulates the finished segments.
                    out_seg = (u - s if phase == "rs" else u + 1 - s) % u_count
                    in_seg = (out_seg - 1) % u_count
                    right, left = (u + 1) % u_count, (u - 1) % u_count
                    sends[u] = tuple((right, *ch)
                                     for ch in self._chunks_of(out_seg, *self.segments[out_seg]))
                    recvs[u] = tuple((left, *ch)
                                     for ch in self._chunks_of(in_seg, *self.segments[in_seg]))
                steps.append(RoundStep(phase=phase, label=s, kind=kind,
                                       sends=sends, recvs=recvs))
        return steps

    def _tree_rounds(self) -> list:
        u_count = self.n_units
        chunks = self._chunks_of(0, 0, self.config.elements)
        masks = []
        mask = 1
        while mask < u_count:
            masks.append(mask)
            mask <<= 1

        def pairs(mask: int) -> list:
            """(child, parent) pairs active at this mask round."""
            return [(u, u - mask) for u in range(u_count)
                    if u % (2 * mask) == mask]

        steps = []
        for mask in masks:  # reduce: children fold into parents, up to 0
            sends = {child: tuple((parent, *ch) for ch in chunks)
                     for child, parent in pairs(mask)}
            recvs = {parent: tuple((child, *ch) for ch in chunks)
                     for child, parent in pairs(mask)}
            steps.append(RoundStep(phase="tr", label=mask, kind="add",
                                   sends=sends, recvs=recvs))
        for mask in reversed(masks):  # broadcast: mirror image
            sends = {parent: tuple((child, *ch) for ch in chunks)
                     for child, parent in pairs(mask)}
            recvs = {child: tuple((parent, *ch) for ch in chunks)
                     for child, parent in pairs(mask)}
            steps.append(RoundStep(phase="tb", label=mask, kind="copy",
                                   sends=sends, recvs=recvs))
        return steps

    # -- work models -------------------------------------------------------
    def init_work(self) -> KernelWork:
        """Materializing the iteration's input vector on device (in a real
        workload: the gradient/update computation feeding the collective).
        Every round-0 send and first fold of a slice depends on it — it is
        also the only work a single-unit allreduce performs."""
        return KernelWork(2.0 * self.config.vector_bytes(),
                          float(self.config.elements))

    def chunk_work(self, kind: str, lo: int, hi: int) -> KernelWork:
        """Roofline model of folding one arriving chunk: ``add`` streams two
        operands and writes one (1 flop/element); ``copy`` streams in/out."""
        nbytes = 8.0 * (hi - lo)
        if kind == "add":
            return KernelWork(3.0 * nbytes, float(hi - lo))
        return KernelWork(2.0 * nbytes, 0.0)

    def kernel_name(self, step: RoundStep, c: int) -> str:
        return f"{step.phase}.{step.label}.{c}"

    # -- driver hooks ------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return (self.n_units,)

    def max_payload_bytes(self) -> int:
        """Largest single message payload: the biggest pipeline chunk."""
        largest = 0
        for step in self.round_steps:
            for entries in step.sends.values():
                for _, _, _, lo, hi in entries:
                    largest = max(largest, 8 * (hi - lo))
        return largest

    def unit_data(self, u: int) -> "AllreduceData":
        return AllreduceData(self, u)

    def unit_device_bytes(self, u: int) -> int:
        """Double-buffered vector plus chunk staging."""
        return 2 * self.config.vector_bytes() + 2 * self.max_payload_bytes()


class AllreduceData:
    """One unit's vector state and functional mirror.

    The per-unit contribution is an *integer-valued* float64 vector (drawn
    once from a seeded generator), and iteration ``t`` reduces ``x_u + t``.
    Integer sums of this magnitude are exact in float64 in **any**
    association order, so ring, tree, chunked and serial reductions all
    produce bit-identical results — the property the differential matrix
    and the hypothesis suite assert.

    In modeled mode every ``f_*`` method is a no-op returning ``None``.
    """

    def __init__(self, ctx: AllreduceContext, u: int):
        self.ctx = ctx
        self.u = u
        self.functional = ctx.config.functional
        self.acc = None
        if self.functional:
            rng = np.random.default_rng((ctx.config.seed, u))
            self.base = rng.integers(-8, 9, ctx.config.elements).astype(np.float64)
        else:
            self.base = None

    def f_begin_iter(self, t: int) -> None:
        if self.functional:
            self.acc = self.base + float(t)

    def f_chunk_payload(self, lo: int, hi: int):
        if not self.functional:
            return None
        return self.acc[lo:hi].copy()

    def f_apply(self, kind: str, lo: int, hi: int, payload) -> None:
        if not self.functional:
            return
        if kind == "add":
            self.acc[lo:hi] += payload
        else:
            self.acc[lo:hi] = payload

    def f_finish_iter(self, t: int) -> None:
        """Record the iteration residual: the max magnitude of the reduced
        vector — exact, identical on every unit, and decomposition-free."""
        if not self.functional:
            return
        peak = float(np.max(np.abs(self.acc))) if self.acc.size else 0.0
        self.ctx.residuals.record((self.u,), t, peak)

    def f_interior(self) -> np.ndarray:
        """Driver hook: this unit's final reduced vector."""
        return self.acc.copy() if self.functional else None


def reference_allreduce(config: AllreduceConfig, t: int) -> np.ndarray:
    """Serial reference: the sum of every unit's iteration-``t`` vector, in
    unit order (any order gives the same bits; see :class:`AllreduceData`)."""
    total = np.zeros(config.elements, dtype=np.float64)
    for u in range(config.n_blocks()):
        rng = np.random.default_rng((config.seed, u))
        total += rng.integers(-8, 9, config.elements).astype(np.float64) + float(t)
    return total
