"""The shared allreduce rank program (plain MPI and AMPI).

The same round schedule as the Charm++ frontend, MPI-style: every chunk
receive of a round is posted nonblocking up front, outgoing chunks are
sent with ``isend`` after a stream sync on the fold kernel that produced
them (plus D2H staging for the host versions), and arriving chunks are
claimed in order with blocking ``wait`` and folded by per-chunk kernels.
Deadlock-freedom is by induction over rounds: a round's sends depend only
on local kernels fed by *earlier* rounds, never on this round's receives.
"""

from __future__ import annotations

from ...comm.ucx import PRIORITY_COMM, PRIORITY_COMPUTE
from ...hardware.gpu import COPY_D2H, COPY_H2D, CopyWork
from .context import AllreduceContext

__all__ = ["make_allreduce_rank_program"]


def make_allreduce_rank_program(ctx: AllreduceContext):
    """A mixin class implementing the allreduce rounds against this run's
    context.  Host classes must call ``_bind_unit`` before communication and
    ``_setup_device`` before the first launch, then drive ``_main_body``."""

    class AllreduceRankProgram:
        app = ctx

        def _bind_unit(self):
            self.u = self.rank
            self.index = (self.rank,)
            self.data = ctx.unit_data(self.u)
            # Every (segment, chunk) slot of this unit's vector that the
            # round schedule touches — the init kernel (re)writes them all.
            self.vec_keys = sorted({
                ("vec", self.u, seg, c)
                for step in ctx.round_steps
                for lst in (step.sends.get(self.u, ()),
                            step.recvs.get(self.u, ()))
                for _peer, seg, c, _lo, _hi in lst
            })

        def _setup_device(self):
            self.gpu.malloc(ctx.unit_device_bytes(self.u))
            self.red_stream = self.gpu.create_stream(
                priority=PRIORITY_COMPUTE, name=f"{self.gpu.name}.red"
            )
            self.d2h_stream = self.gpu.create_stream(
                priority=PRIORITY_COMM, name=f"{self.gpu.name}.d2h"
            )
            self.h2d_stream = self.gpu.create_stream(
                priority=PRIORITY_COMM, name=f"{self.gpu.name}.h2d"
            )

        def _main_body(self):
            device = ctx.config.gpu_aware
            engine = self.world.engine
            for t in range(ctx.config.total_iterations):
                self.data.f_begin_iter(t)
                init = yield self.launch(self.red_stream, ctx.init_work(),
                                         name="init", writes=self.vec_keys)
                seg_ready = {}  # (seg, chunk) -> last kernel writing it
                iter_events = [init.done]
                send_reqs = []
                for ridx, step in enumerate(ctx.round_steps):
                    recv_reqs = []
                    for src, seg, c, lo, hi in step.recvs.get(self.u, ()):
                        req = yield self.irecv(
                            src, 8 * (hi - lo), tag=(t, ridx, c), device=device
                        )
                        recv_reqs.append((seg, c, lo, hi, req))
                    for dest, seg, c, lo, hi in step.sends.get(self.u, ()):
                        dep = seg_ready.get((seg, c), init.done)
                        if device:
                            # cudaStreamSynchronize, then CUDA-aware send.
                            yield self.sync(dep)
                        else:
                            cop = yield self.launch(
                                self.d2h_stream,
                                CopyWork(8 * (hi - lo), COPY_D2H),
                                name=f"d2h.{ridx}.{c}",
                                wait=[dep],
                                reads=[("vec", self.u, seg, c)],
                            )
                            yield self.sync(cop.done)
                        send_reqs.append((yield self.isend(
                            dest, 8 * (hi - lo), tag=(t, ridx, c),
                            device=device,
                            payload=self.data.f_chunk_payload(lo, hi),
                        )))
                    for seg, c, lo, hi, req in recv_reqs:
                        yield self.wait(req)
                        waits = [seg_ready.get((seg, c), init.done)]
                        if not device:
                            h = yield self.launch(
                                self.h2d_stream,
                                CopyWork(8 * (hi - lo), COPY_H2D),
                                name=f"h2d.{ridx}.{c}",
                            )
                            waits.append(h.done)
                        op = yield self.launch(
                            self.red_stream,
                            ctx.chunk_work(step.kind, lo, hi),
                            name=ctx.kernel_name(step, c), wait=waits,
                            reads=[("vec", self.u, seg, c)],
                            writes=[("vec", self.u, seg, c)],
                        )
                        self.data.f_apply(step.kind, lo, hi, req.data)
                        seg_ready[(seg, c)] = op.done
                        iter_events.append(op.done)
                if send_reqs:
                    yield self.waitall(send_reqs)
                if iter_events:
                    # Typical MPI collective: block until the folds drain.
                    yield self.sync(engine.all_of(iter_events))
                self.data.f_finish_iter(t)
                ctx.metrics.iter_done(self, t)

    return AllreduceRankProgram
