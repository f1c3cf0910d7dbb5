"""Charm++ allreduce frontend: one chare per unit replaying the shared
round schedule.

Each round posts all of its chunk receives first, then issues sends (each
gated only on the local fold kernel that produced the outgoing chunk), then
folds arriving chunks with per-chunk kernels — so chunk ``c+1``'s transfer
rides under chunk ``c``'s fold, which is the whole point of the pipelined
variant.  charm-h stages every chunk through host memory (D2H before the
send, H2D before the fold); charm-d moves device-resident chunks over the
Channel API with ``("r"/"s", iter, round, chunk)`` references, posting
receives in the sender's production order so per-pair FIFO matching holds.
"""

from __future__ import annotations

from ...comm.ucx import PRIORITY_COMM, PRIORITY_COMPUTE
from ...hardware.gpu import COPY_D2H, COPY_H2D, CopyWork
from ...runtime import Chare
from .context import AllreduceContext

__all__ = ["make_allreduce_block_class"]


def make_allreduce_block_class(ctx: AllreduceContext):
    """A fresh chare class bound to this run's context."""

    class AllreduceUnit(Chare):
        app = ctx

        def init(self):
            self.u = self.index[0]
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
            self.iter_trigger = None
            self.gpu.malloc(ctx.unit_device_bytes(self.u))
            self.red_stream = self.gpu.create_stream(
                priority=PRIORITY_COMPUTE, name=f"{self.gpu.name}.red{self.index}"
            )
            self.d2h_stream = self.gpu.create_stream(
                priority=PRIORITY_COMM, name=f"{self.gpu.name}.d2h{self.index}"
            )
            self.h2d_stream = self.gpu.create_stream(
                priority=PRIORITY_COMM, name=f"{self.gpu.name}.h2d{self.index}"
            )

        def run(self, msg):
            if ctx.config.gpu_aware:
                yield from self._run_device()
            else:
                yield from self._run_host()

        # -- host-staging version (charm-h) --------------------------------
        def _run_host(self):
            for t in range(ctx.config.total_iterations):
                self.data.f_begin_iter(t)
                init = yield self.launch(self.red_stream, ctx.init_work(),
                                         name="init", writes=self.vec_keys)
                seg_ready = {}  # (seg, chunk) -> last kernel writing it
                iter_events = [init.done]
                for ridx, step in enumerate(ctx.round_steps):
                    for dest, seg, c, lo, hi in step.sends.get(self.u, ()):
                        dep = seg_ready.get((seg, c), init.done)
                        cop = yield self.launch(
                            self.d2h_stream,
                            CopyWork(8 * (hi - lo), COPY_D2H),
                            name=f"d2h.{ridx}.{c}",
                            wait=[dep],
                            reads=[("vec", self.u, seg, c)],
                        )
                        yield self.wait(cop.done)
                        self.send((dest,), "recvChunk", ref=(t, ridx, c),
                                  data_bytes=8 * (hi - lo),
                                  payload=self.data.f_chunk_payload(lo, hi))
                    for src, seg, c, lo, hi in step.recvs.get(self.u, ()):
                        m = yield self.when("recvChunk", ref=(t, ridx, c))
                        h = yield self.launch(
                            self.h2d_stream,
                            CopyWork(8 * (hi - lo), COPY_H2D),
                            name=f"h2d.{ridx}.{c}",
                        )
                        waits = [h.done, seg_ready.get((seg, c), init.done)]
                        op = yield self.launch(
                            self.red_stream, ctx.chunk_work(step.kind, lo, hi),
                            name=ctx.kernel_name(step, c), wait=waits,
                            reads=[("vec", self.u, seg, c)],
                            writes=[("vec", self.u, seg, c)],
                        )
                        self.data.f_apply(step.kind, lo, hi, m.payload)
                        seg_ready[(seg, c)] = op.done
                        iter_events.append(op.done)
                self.data.f_finish_iter(t)
                self.iter_trigger = ctx.metrics.iter_done_after(
                    self, t, iter_events, self.iter_trigger)
            if self.iter_trigger is not None:
                yield self.wait(self.iter_trigger)

        # -- GPU-aware version (charm-d, Channel API) ----------------------
        def _run_device(self):
            for t in range(ctx.config.total_iterations):
                self.data.f_begin_iter(t)
                init = yield self.launch(self.red_stream, ctx.init_work(),
                                         name="init", writes=self.vec_keys)
                seg_ready = {}
                iter_events = [init.done]
                pending_sends = []
                for ridx, step in enumerate(ctx.round_steps):
                    for src, seg, c, lo, hi in step.recvs.get(self.u, ()):
                        ch = self.channel_to((src,))
                        ch.recv(8 * (hi - lo), mailbox="ch_evt",
                                ref=("r", t, ridx, c), note=("recv", c))
                    for dest, seg, c, lo, hi in step.sends.get(self.u, ()):
                        # cudaStreamSynchronize on the kernel that produced
                        # the outgoing chunk, then a device-resident send.
                        yield self.wait(seg_ready.get((seg, c), init.done))
                        ch = self.channel_to((dest,))
                        ch.send(8 * (hi - lo), mailbox="ch_evt",
                                ref=("s", t, ridx, c),
                                payload=self.data.f_chunk_payload(lo, hi),
                                note=("sent", c))
                        pending_sends.append(("s", t, ridx, c))
                    for src, seg, c, lo, hi in step.recvs.get(self.u, ()):
                        m = yield self.when("ch_evt", ref=("r", t, ridx, c))
                        _note, payload = m.payload
                        waits = [seg_ready.get((seg, c), init.done)]
                        op = yield self.launch(
                            self.red_stream, ctx.chunk_work(step.kind, lo, hi),
                            name=ctx.kernel_name(step, c), wait=waits,
                            reads=[("vec", self.u, seg, c)],
                            writes=[("vec", self.u, seg, c)],
                        )
                        self.data.f_apply(step.kind, lo, hi, payload)
                        seg_ready[(seg, c)] = op.done
                        iter_events.append(op.done)
                # Consume every send-completion deposit before the next
                # iteration reuses the (iter, round, chunk) reference space.
                for ref in pending_sends:
                    yield self.when("ch_evt", ref=ref)
                self.data.f_finish_iter(t)
                self.iter_trigger = ctx.metrics.iter_done_after(
                    self, t, iter_events, self.iter_trigger)
            if self.iter_trigger is not None:
                yield self.wait(self.iter_trigger)

    return AllreduceUnit
