"""The shared Cholesky rank program (plain MPI and AMPI).

The same step loop as the Charm++ frontend — canonical task order, kernels
gated on local TaskSpace completion events — expressed MPI-style: all of a
step's factor-tile receives are posted first (nonblocking), each remote
tile is claimed with a blocking ``wait`` exactly when the first consuming
task needs it, and produced panel tiles go out as ``isend`` immediately
after a stream sync on the producing kernel (plus D2H staging for the host
versions).  Deadlock-freedom is by induction over the canonical global
task order: every task's remote inputs are produced by strictly earlier
tasks whose sends are posted before their producer's generator can block
again.

As with the stencil apps, the plain-MPI and AMPI frontends run this
*identical* program; they differ only in when device setup runs.
"""

from __future__ import annotations

from ...comm.ucx import PRIORITY_COMM, PRIORITY_COMPUTE
from ...hardware.gpu import COPY_D2H, COPY_H2D, CopyWork
from .context import CholeskyContext, tile_accesses

__all__ = ["make_cholesky_rank_program"]


def make_cholesky_rank_program(ctx: CholeskyContext):
    """A mixin class implementing the Cholesky step loop against this run's
    context.  Host classes must call ``_bind_unit`` before communication and
    ``_setup_device`` before the first launch, then drive ``_main_body``."""

    tile_bytes = ctx.config.tile_bytes()

    class CholeskyRankProgram:
        app = ctx

        def _bind_unit(self):
            self.u = self.rank
            self.index = (self.rank,)
            self.data = ctx.unit_data(self.u)

        def _setup_device(self):
            self.gpu.malloc(ctx.unit_device_bytes(self.u))
            self.panel_stream = self.gpu.create_stream(
                priority=PRIORITY_COMM, name=f"{self.gpu.name}.panel"
            )
            self.update_stream = self.gpu.create_stream(
                priority=PRIORITY_COMPUTE, name=f"{self.gpu.name}.upd"
            )
            self.d2h_stream = self.gpu.create_stream(
                priority=PRIORITY_COMM, name=f"{self.gpu.name}.d2h"
            )
            self.h2d_stream = self.gpu.create_stream(
                priority=PRIORITY_COMM, name=f"{self.gpu.name}.h2d"
            )

        def _stream(self, info):
            return self.panel_stream if info.stream == "panel" else self.update_stream

        def _main_body(self):
            device = ctx.config.gpu_aware
            engine = self.world.engine
            for plan in ctx.plan:
                k = plan.step
                my_tasks = plan.tasks.get(self.u, ())
                send_plan = {a: dests for a, dests in plan.sends.get(self.u, ())}
                # Post all of this step's receives first.
                recv_reqs = {}
                for a, src in plan.recvs.get(self.u, ()):
                    recv_reqs[a] = yield self.irecv(
                        src, tile_bytes, tag=(k, a), device=device
                    )
                send_reqs = []
                arrived = {}  # a -> extra wait event (H2D copy) or None
                step_events = []
                for info in my_tasks:
                    waits = [ctx.tasks.completion(d) for d in info.local_deps]
                    for a in info.reads:
                        if a not in recv_reqs:
                            continue  # local factor: covered by local_deps
                        if a not in arrived:
                            yield self.wait(recv_reqs[a])
                            self.data.f_store_factor(k, a, recv_reqs[a].data)
                            if device:
                                arrived[a] = None
                            else:
                                h = yield self.launch(
                                    self.h2d_stream,
                                    CopyWork(tile_bytes, COPY_H2D),
                                    name=f"h2d.{a}.{k}",
                                    writes=[("stage", self.u, k, a)],
                                )
                                arrived[a] = h.done
                        if arrived[a] is not None:
                            waits.append(arrived[a])
                    rd, wr = tile_accesses(info)
                    op = yield self.launch(
                        self._stream(info), info.work, name=info.name, wait=waits,
                        reads=rd, writes=wr,
                    )
                    ctx.tasks.attach(info.key, op.done, engine)
                    self.data.f_run_task(info)
                    step_events.append(op.done)
                    if info.kind in ("potrf", "trsm"):
                        a = info.i if info.kind == "trsm" else info.step
                        dests = send_plan.get(a)
                        if dests:
                            if device:
                                # cudaStreamSynchronize, then CUDA-aware sends.
                                yield self.sync(op.done)
                            else:
                                c = yield self.launch(
                                    self.d2h_stream,
                                    CopyWork(tile_bytes, COPY_D2H),
                                    name=f"d2h.{a}.{k}",
                                    wait=[op.done],
                                    reads=[("tile", a, k)],
                                )
                                yield self.sync(c.done)
                            payload = self.data.f_factor_payload(a, k)
                            for dest in dests:
                                send_reqs.append((yield self.isend(
                                    dest, tile_bytes, tag=(k, a),
                                    device=device, payload=payload,
                                )))
                if send_reqs:
                    yield self.waitall(send_reqs)
                if step_events:
                    # Typical MPI GPU app: block until the step's kernels end.
                    yield self.sync(engine.all_of(step_events))
                self.data.f_finish_step(k)
                ctx.metrics.iter_done(self, k)

    return CholeskyRankProgram
