"""Charm++ stencil frontend (paper Fig. 3 / Fig. 5), host-staging and
GPU-aware.

Each block is a chare.  The per-iteration SDAG flow (optimized baseline,
§III-C):

1. *Produce halos*: packing kernels on the high-priority comm stream,
   stream-dependent on the previous Jacobi update (no host sync);
   host-staging adds D2H copies on a dedicated high-priority stream.
2. *One host-device sync* (HAPI) before the halo exchange.
3. *Exchange*: ``recvHalo`` entry messages (host-staging) or Channel-API
   device sends/receives (GPU-aware), matched by iteration reference
   number.
4. *Consume*: unpacking (plus H2D for host-staging) as each halo arrives —
   overlapping with other chares' work — then the update kernel on the
   low-priority stream.

The ``legacy_sync`` flag reproduces the Fig. 6 "before optimizations"
baseline: a second host-device sync after the update and a single stream
for every copy and (un)packing kernel.

Kernel fusion (A/B/C) and CUDA Graphs follow §III-D and apply to the
GPU-aware version only, as in the paper.

The flow is dimension-agnostic: faces, neighbour sets and kernel costs all
come from the run's :class:`~repro.apps.stencil.context.StencilContext`, so
the same chare class drives Jacobi3D and Jacobi2D.
"""

from __future__ import annotations

from ...comm.ucx import PRIORITY_COMM, PRIORITY_COMPUTE
from ...hardware.gpu import COPY_D2H, COPY_H2D, CopyWork
from ...hardware.graphs import CudaGraph
from ...kernels import opposite
from ...runtime import Chare
from .context import StencilContext

__all__ = ["make_block_class"]


def make_block_class(ctx: StencilContext):
    """A fresh chare class bound to this run's context (no shared state
    between runs)."""

    class JacobiBlock(Chare):
        app = ctx

        def init(self):
            cfg = ctx.config
            self.data = ctx.block_data(self.index)
            self.gpu.malloc(self.data.device_bytes)
            # Streams: communication work outranks the bulk update kernel.
            self.comm_stream = self.gpu.create_stream(
                priority=PRIORITY_COMM, name=f"{self.gpu.name}.comm{self.index}"
            )
            if cfg.legacy_sync:
                # Pre-optimization baseline: one stream for packs AND copies.
                self.d2h_stream = self.comm_stream
                self.h2d_stream = self.comm_stream
            else:
                self.d2h_stream = self.gpu.create_stream(
                    priority=PRIORITY_COMM, name=f"{self.gpu.name}.d2h{self.index}"
                )
                self.h2d_stream = self.gpu.create_stream(
                    priority=PRIORITY_COMM, name=f"{self.gpu.name}.h2d{self.index}"
                )
            self.update_stream = self.gpu.create_stream(
                priority=PRIORITY_COMPUTE, name=f"{self.gpu.name}.upd{self.index}"
            )
            self.graph_execs = self._build_graphs() if cfg.cuda_graphs else None
            self.update_done = None

        # -- graphs -----------------------------------------------------------
        def _build_graphs(self):
            """Two alternating executable graphs (swapped in/out pointers, so
            no per-iteration node updates are needed — §III-D2)."""
            d = self.data
            fusion = ctx.config.fusion
            execs = []
            for _swap in range(2):
                g = CudaGraph()
                if fusion.unpacks_fused and d.fused_unpack is not None:
                    unpack_ids = [g.add(d.fused_unpack, name="unpack*")]
                else:
                    unpack_ids = [g.add(d.unpacks[f], name=f"unpack{f}") for f in d.neighbors]
                if fusion.all_in_one:
                    # Strategy C inside a graph degenerates to one node.
                    g = CudaGraph()
                    g.add(d.fused_all, name="fusedC")
                    execs.append(g.instantiate(self.gpu))
                    continue
                upd = g.add(d.update, deps=unpack_ids, name="update")
                if fusion.packs_fused and d.fused_pack is not None:
                    g.add(d.fused_pack, deps=[upd], name="pack*")
                else:
                    for f in d.neighbors:
                        g.add(d.packs[f], deps=[upd], name=f"pack{f}")
                execs.append(g.instantiate(self.gpu))
            return execs

        # -- checkpointing hooks ------------------------------------------------
        def pup(self):
            return self.data.snapshot()

        def unpup(self, state):
            self.data.restore(state)

        # -- entry point ---------------------------------------------------------
        def run(self, msg):
            if ctx.config.gpu_aware:
                yield from self._run_device()
            else:
                yield from self._run_host()

        # -- host-staging version (Charm-H) -----------------------------------------
        def _run_host(self):
            cfg = ctx.config
            d = self.data
            idx = self.index
            for it in range(cfg.total_iterations):
                dep = [self.update_done] if self.update_done is not None else []
                staged = []
                for face in d.neighbors:
                    p = yield self.launch(
                        self.comm_stream, d.packs[face], name=f"pack{face}", wait=dep,
                        reads=[("int", idx)], writes=[("pack", idx, face)],
                    )
                    c = yield self.launch(
                        self.d2h_stream,
                        CopyWork(d.face_bytes[face], COPY_D2H),
                        name=f"d2h{face}",
                        wait=[p.done],
                        reads=[("pack", idx, face)],
                    )
                    staged.append(c.done)
                d.f_pack_all()
                if staged:
                    # The single host-device sync before the halo exchange.
                    yield self.wait_all(staged)
                for face, nbr in d.neighbors.items():
                    self.send(
                        nbr, "recvHalo", ref=it, data_bytes=d.face_bytes[face],
                        payload=(opposite(face), d.f_halo(face)),
                    )
                unpack_events = []
                for _ in range(len(d.neighbors)):
                    m = yield self.when("recvHalo", ref=it)
                    face, halo = m.payload
                    h = yield self.launch(
                        self.h2d_stream,
                        CopyWork(d.face_bytes[face], COPY_H2D),
                        name=f"h2d{face}",
                        writes=[("gstage", idx, face)],
                    )
                    u = yield self.launch(
                        self.comm_stream, d.unpacks[face], name=f"unpack{face}",
                        wait=[h.done],
                        reads=[("gstage", idx, face)],
                        writes=[("ghost", idx, face)],
                    )
                    unpack_events.append(u.done)
                    d.f_unpack(face, halo)
                upd = yield self.launch(
                    self.update_stream, d.update, name="update", wait=unpack_events,
                    reads=[("ghost", idx, f) for f in d.neighbors] + [("int", idx)],
                    writes=[("int", idx)],
                )
                self.update_done = upd.done
                d.f_update()
                if cfg.legacy_sync:
                    # The redundant second sync the optimization removed.
                    yield self.wait(self.update_done)
                ctx.metrics.iter_done_when(self, it, self.update_done)
            yield self.wait(self.update_done)

        # -- GPU-aware version (Charm-D, Channel API) ----------------------------------
        def _run_device(self):
            cfg = ctx.config
            d = self.data
            idx = self.index
            fusion = cfg.fusion
            n_nbrs = len(d.neighbors)
            for it in range(cfg.total_iterations):
                # 1. ensure halos present in device send buffers
                if cfg.cuda_graphs:
                    if it == 0:
                        yield from self._initial_packs()
                    else:
                        yield self.wait(self.update_done)  # graph packed them
                elif fusion.all_in_one:
                    if it == 0:
                        yield from self._initial_packs()
                    else:
                        yield self.wait(self.update_done)  # fused kernel packed them
                else:
                    dep = [self.update_done] if self.update_done is not None else []
                    events = []
                    if fusion.packs_fused and d.fused_pack is not None:
                        op = yield self.launch(
                            self.comm_stream, d.fused_pack, name="pack*", wait=dep,
                            reads=[("int", idx)],
                            writes=[("pack", idx, f) for f in d.neighbors],
                        )
                        events.append(op.done)
                    else:
                        for face in d.neighbors:
                            op = yield self.launch(
                                self.comm_stream, d.packs[face], name=f"pack{face}",
                                wait=dep,
                                reads=[("int", idx)],
                                writes=[("pack", idx, face)],
                            )
                            events.append(op.done)
                    if events:
                        yield self.wait_all(events)
                d.f_pack_all()
                # 2. two-sided device exchange
                for face, nbr in d.neighbors.items():
                    ch = self.channel_to(nbr)
                    ch.send(d.face_bytes[face], mailbox="ch_evt", ref=it,
                            payload=d.f_halo(face), note=("sent", face))
                    ch.recv(d.face_bytes[face], mailbox="ch_evt", ref=it,
                            note=("recv", face))
                # 3. all 2x callbacks (Fig. 5); unpack as receives arrive
                unpack_events = []
                for _ in range(2 * n_nbrs):
                    m = yield self.when("ch_evt", ref=it)
                    (kind, face), halo = m.payload
                    if kind != "recv":
                        continue
                    d.f_unpack(face, halo)
                    if not cfg.cuda_graphs and not fusion.unpacks_fused:
                        op = yield self.launch(
                            self.comm_stream, d.unpacks[face], name=f"unpack{face}",
                            writes=[("ghost", idx, face)],
                        )
                        unpack_events.append(op.done)
                # 4. update (+ fused / graph variants)
                if cfg.cuda_graphs:
                    self.update_done = yield self.launch_graph(
                        self.graph_execs[it % 2], priority=PRIORITY_COMPUTE
                    )
                elif fusion.all_in_one:
                    op = yield self.launch(
                        self.update_stream, d.fused_all, name="fusedC",
                        reads=[("int", idx)],
                        writes=[("int", idx)] + [("pack", idx, f) for f in d.neighbors],
                    )
                    self.update_done = op.done
                else:
                    if fusion.unpacks_fused and n_nbrs and d.fused_unpack is not None:
                        op = yield self.launch(
                            self.comm_stream, d.fused_unpack, name="unpack*",
                            writes=[("ghost", idx, f) for f in d.neighbors],
                        )
                        unpack_events = [op.done]
                    upd = yield self.launch(
                        self.update_stream, d.update, name="update", wait=unpack_events,
                        reads=[("ghost", idx, f) for f in d.neighbors] + [("int", idx)],
                        writes=[("int", idx)],
                    )
                    self.update_done = upd.done
                d.f_update()
                ctx.metrics.iter_done_when(self, it, self.update_done)
            yield self.wait(self.update_done)

        def _initial_packs(self):
            """Iteration-0 halo production for fused/graph modes."""
            d = self.data
            if not d.neighbors:
                return
            if d.fused_pack is not None:
                op = yield self.launch(
                    self.comm_stream, d.fused_pack, name="pack0*",
                    reads=[("int", self.index)],
                    writes=[("pack", self.index, f) for f in d.neighbors],
                )
                yield self.wait(op.done)

    return JacobiBlock
