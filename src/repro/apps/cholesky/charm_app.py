"""Charm++ Cholesky frontend: one chare per unit, tasks gated by the
:class:`~repro.runtime.taskspace.TaskSpace` ledger.

Each chare walks its slice of the per-step plan in the canonical global
task order (so local data dependencies are satisfied by generator order)
and launches every task's kernel with ``wait_events`` built from the
TaskSpace completion events of *local* dependencies — panel tasks
(POTRF/TRSM) run on a high-priority stream, Schur updates on a
low-priority stream, so cross-stream ordering is carried entirely by the
declared DAG, not by serializing the generator.

Remote dependencies travel as factor tiles: ``recvTile`` entry messages
with D2H/H2D staging (charm-h) or Channel-API device transfers matched by
``("r", step, row)`` references (charm-d).  A unit posts all of a step's
channel receives before touching its tasks, and every channel deposit is
consumed by an exact-reference ``when`` — no polling, no skipped
mailboxes.
"""

from __future__ import annotations

from ...comm.ucx import PRIORITY_COMM, PRIORITY_COMPUTE
from ...hardware.gpu import COPY_D2H, COPY_H2D, CopyWork
from ...runtime import Chare
from .context import CholeskyContext, tile_accesses

__all__ = ["make_cholesky_block_class"]


def make_cholesky_block_class(ctx: CholeskyContext):
    """A fresh chare class bound to this run's context."""

    tile_bytes = ctx.config.tile_bytes()

    class CholeskyUnit(Chare):
        app = ctx

        def init(self):
            self.u = self.index[0]
            self.data = ctx.unit_data(self.u)
            self.iter_trigger = None
            self.gpu.malloc(ctx.unit_device_bytes(self.u))
            self.panel_stream = self.gpu.create_stream(
                priority=PRIORITY_COMM, name=f"{self.gpu.name}.panel{self.index}"
            )
            self.update_stream = self.gpu.create_stream(
                priority=PRIORITY_COMPUTE, name=f"{self.gpu.name}.upd{self.index}"
            )
            self.d2h_stream = self.gpu.create_stream(
                priority=PRIORITY_COMM, name=f"{self.gpu.name}.d2h{self.index}"
            )
            self.h2d_stream = self.gpu.create_stream(
                priority=PRIORITY_COMM, name=f"{self.gpu.name}.h2d{self.index}"
            )

        def _stream(self, info):
            return self.panel_stream if info.stream == "panel" else self.update_stream

        def run(self, msg):
            if ctx.config.gpu_aware:
                yield from self._run_device()
            else:
                yield from self._run_host()

        # -- host-staging version (charm-h) --------------------------------
        def _run_host(self):
            engine = self.runtime.engine
            for plan in ctx.plan:
                k = plan.step
                my_tasks = plan.tasks.get(self.u, ())
                remote = {a: src for a, src in plan.recvs.get(self.u, ())}
                send_plan = {a: dests for a, dests in plan.sends.get(self.u, ())}
                arrived = {}  # a -> H2D completion event
                step_events = []
                for info in my_tasks:
                    waits = [ctx.tasks.completion(d) for d in info.local_deps]
                    for a in info.reads:
                        if a not in remote:
                            continue  # local factor: covered by local_deps
                        if a not in arrived:
                            m = yield self.when("recvTile", ref=(k, a))
                            self.data.f_store_factor(k, a, m.payload)
                            h = yield self.launch(
                                self.h2d_stream,
                                CopyWork(tile_bytes, COPY_H2D),
                                name=f"h2d.{a}.{k}",
                                writes=[("stage", self.u, k, a)],
                            )
                            arrived[a] = h.done
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
                            c = yield self.launch(
                                self.d2h_stream,
                                CopyWork(tile_bytes, COPY_D2H),
                                name=f"d2h.{a}.{k}",
                                wait=[op.done],
                                reads=[("tile", a, k)],
                            )
                            yield self.wait(c.done)
                            payload = self.data.f_factor_payload(a, k)
                            for dest in dests:
                                self.send((dest,), "recvTile", ref=(k, a),
                                          data_bytes=tile_bytes, payload=payload)
                self.data.f_finish_step(k)
                self.iter_trigger = ctx.metrics.iter_done_after(
                    self, k, step_events, self.iter_trigger)
            if self.iter_trigger is not None:
                yield self.wait(self.iter_trigger)

        # -- GPU-aware version (charm-d, Channel API) ----------------------
        def _run_device(self):
            engine = self.runtime.engine
            for plan in ctx.plan:
                k = plan.step
                my_tasks = plan.tasks.get(self.u, ())
                remote = {a: src for a, src in plan.recvs.get(self.u, ())}
                send_plan = {a: dests for a, dests in plan.sends.get(self.u, ())}
                # Post every factor-tile receive for this step up front
                # (per-pair FIFO order: ascending row == production order).
                for a, src in plan.recvs.get(self.u, ()):
                    ch = self.channel_to((src,))
                    ch.recv(tile_bytes, mailbox="ch_evt", ref=("r", k, a),
                            note=("recv", a))
                pending_sends = []
                arrived = {}
                step_events = []
                for info in my_tasks:
                    waits = [ctx.tasks.completion(d) for d in info.local_deps]
                    for a in info.reads:
                        if a not in remote or a in arrived:
                            continue
                        m = yield self.when("ch_evt", ref=("r", k, a))
                        _note, payload = m.payload
                        self.data.f_store_factor(k, a, payload)
                        arrived[a] = True
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
                            # One device sync, then device-resident sends.
                            yield self.wait(op.done)
                            payload = self.data.f_factor_payload(a, k)
                            for dest in dests:
                                ch = self.channel_to((dest,))
                                ch.send(tile_bytes, mailbox="ch_evt",
                                        ref=("s", k, a, dest), payload=payload,
                                        note=("sent", a))
                                pending_sends.append(("s", k, a, dest))
                # Consume every send-completion deposit before leaving the
                # step (Channel-API contract: no dangling mailboxes).
                for ref in pending_sends:
                    yield self.when("ch_evt", ref=ref)
                self.data.f_finish_step(k)
                self.iter_trigger = ctx.metrics.iter_done_after(
                    self, k, step_events, self.iter_trigger)
            if self.iter_trigger is not None:
                yield self.wait(self.iter_trigger)

    return CholeskyUnit
