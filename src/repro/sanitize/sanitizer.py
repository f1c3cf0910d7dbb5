"""Happens-before concurrency sanitizer for simulation runs.

The :class:`Sanitizer` is a *pure observer* in the same mold as
:class:`~repro.validate.invariants.InvariantChecker`: a
:class:`~repro.sim.probe.Probe` subscriber that keeps its own books from the
bus events where ordering is established — stream enqueue and dispatch,
launch issue, frame wakeups, mailbox deposit and consumption, UCX transfer
posting and TaskSpace attachment — and answers the bus's two queries
(:meth:`Sanitizer.clock_snapshot`, :meth:`Sanitizer.explain_deadlock`).
The event schedule (and therefore every simulated result and trace digest)
is unchanged whether or not a sanitizer is attached.

Model
-----
Every *lane* (a CUDA stream, a chare, an MPI rank) carries a vector clock:
``{lane_id: tick}``.  Only streams tick — once per dispatched op; chares
and ranks are carrier lanes whose clocks advance purely by joining the
clocks of events they wait on and messages they consume.  An access ``a``
happens-before an access ``b`` iff ``b``'s clock covers ``a``'s epoch:
``b.clock[a.lane] >= a.tick``.

Kernels and copies *declare* the logical buffers they read and write
(``launch(..., reads=..., writes=...)``).  Per buffer the sanitizer keeps
the last write epoch and the read epochs since (the FastTrack scheme):

* a read racing the last write, or a write racing the last write or any
  read since, is reported as a **race**;
* when both the access and the buffer's last writer are attached
  :class:`~repro.runtime.taskspace.TaskSpace` tasks and the writer is not
  in the reader's declared transitive dependency closure, the undeclared
  edge is reported as a **missing-dependency** — this fires even when
  stream FIFO order happens to mask the race on this schedule, which is
  exactly the case bitwise-identity tests cannot catch.

At :meth:`Sanitizer.finish` the wait-for graph over still-pending GPU ops
is searched for cycles (**deadlock-cycle**, replacing the opaque
quiescence failure), and never-consumed mailbox deposits and
never-completed transfers are reported.

See docs/sanitizer.md for the full model and how apps declare accesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import Probe, SimulationError

__all__ = ["Diagnostic", "SanitizerError", "Sanitizer"]


@dataclass(frozen=True)
class Diagnostic:
    """One sanitizer finding."""

    time: float
    kind: str  # race | missing-dependency | deadlock-cycle | dangling-mailbox | pending-transfer | pending-gpu-op
    actor: str
    detail: str

    def __str__(self) -> str:
        return f"[t={self.time:.9f}] {self.kind} @ {self.actor}: {self.detail}"


class SanitizerError(SimulationError):
    """Raised by :meth:`Sanitizer.finish` when findings were recorded."""

    def __init__(self, findings: list[Diagnostic]):
        self.findings = findings
        lines = "\n".join(f"  {d}" for d in findings[:20])
        extra = f"\n  ... and {len(findings) - 20} more" if len(findings) > 20 else ""
        super().__init__(f"{len(findings)} sanitizer finding(s):\n{lines}{extra}")


def _merge(into: dict, other: dict) -> None:
    for lane, tick in other.items():
        if tick > into.get(lane, 0):
            into[lane] = tick


class _BufferState:
    __slots__ = ("last_write", "reads")

    def __init__(self):
        self.last_write = None  # (lane, tick, op name, task key or None)
        self.reads = {}         # lane -> (tick, op name, task key or None)


class Sanitizer(Probe):
    """Attachable happens-before auditor for one simulation run.

    Typical wiring (what ``run_app(..., sanitize=True)`` does)::

        san = Sanitizer().attach(engine)
        san.watch_runtime(runtime)          # charm/ampi only
        ...  # run the simulation
        san.finish()                        # raises SanitizerError on findings
    """

    def __init__(self, max_findings: int = 200):
        self.findings: list[Diagnostic] = []
        self.max_findings = max_findings
        # Lanes: id(object) -> small int; strong refs keep ids stable.
        self._lane_of: dict[int, int] = {}
        self._lane_label: dict[int, str] = {}
        self._lane_obj: dict[int, object] = {}
        self._clock: dict[int, dict] = {}     # lane -> vector clock
        self._tick: dict[int, int] = {}       # lane -> last tick (streams only)
        # Event causality: id(event) -> clock, or a lazy resolver.
        self._event_clock: dict[int, dict] = {}
        self._resolver: dict[int, object] = {}
        self._keep: dict[int, object] = {}
        # Launch-issue snapshots: id(op) -> issuing lane's clock at issue.
        self._issue_clock: dict[int, dict] = {}
        # Access ledger.
        self._buffers: dict = {}
        self._seen_pairs: set = set()
        self._closure_cache: dict = {}
        # TaskSpace attachments: id(done event) -> (space, key).
        self._task_of_event: dict[int, tuple] = {}
        # Deadlock bookkeeping over GPU ops.
        self._ops: dict[int, object] = {}     # id(op) -> op (all enqueued)
        self._op_stream: dict[int, str] = {}
        self._fifo_prev: dict[int, int] = {}
        self._stream_tail: dict[int, int] = {}
        self._done_ops: set = set()
        self._event_producer: dict[int, int] = {}  # id(op.done) -> id(op)
        # Posted transfers: id(handle) -> handle / posting clock snapshot.
        self._transfers: dict[int, object] = {}
        self._post_clock: dict[int, dict] = {}
        self._runtime = None
        self._finished = False
        self.ops_checked = 0
        self.accesses_checked = 0

    # -- wiring -------------------------------------------------------------
    def watch_runtime(self, runtime) -> None:
        """Remember the Charm runtime for the finish-time mailbox scan."""
        self._runtime = runtime

    # -- lanes and clocks ---------------------------------------------------
    def _lane(self, obj) -> int:
        lane = self._lane_of.get(id(obj))
        if lane is None:
            lane = len(self._lane_of) + 1
            self._lane_of[id(obj)] = lane
            self._lane_obj[lane] = obj
            self._lane_label[lane] = self._label(obj)
            self._clock[lane] = {}
            self._tick[lane] = 0
        return lane

    @staticmethod
    def _label(obj) -> str:
        name = getattr(obj, "name", None)
        if isinstance(name, str) and name:
            return name
        rank = getattr(obj, "rank", None)
        if isinstance(rank, int):
            return f"rank{rank}"
        return repr(obj)

    def clock_of(self, event) -> dict:
        """The vector clock carried by ``event``; ``{}`` (no ordering
        knowledge — always sound) for events the sanitizer never saw."""
        clock = self._event_clock.get(id(event))
        if clock is not None:
            return clock
        resolver = self._resolver.pop(id(event), None)
        if resolver is not None:
            clock = resolver()
            self._event_clock[id(event)] = clock
            return clock
        children = getattr(event, "events", None)
        if children is not None:  # AllOf joins
            clock = {}
            complete = True
            for child in children:
                if getattr(child, "processed", False):
                    _merge(clock, self.clock_of(child))
                else:
                    complete = False
            if complete:
                self._event_clock[id(event)] = clock
                self._keep[id(event)] = event
            return clock
        return {}

    def register_event(self, event, clock: dict) -> None:
        self._event_clock[id(event)] = clock
        self._keep[id(event)] = event

    def clock_snapshot(self, owner) -> dict:
        """Copy of ``owner``'s current lane clock."""
        return dict(self._clock[self._lane(owner)])

    # -- hooks: GPU streams -------------------------------------------------
    def on_op_enqueue(self, stream, op) -> None:
        oid = id(op)
        self._ops[oid] = op
        self._op_stream[oid] = stream.name
        tail = self._stream_tail.get(id(stream))
        if tail is not None:
            self._fifo_prev[oid] = tail
        self._stream_tail[id(stream)] = oid
        self._keep[id(stream)] = stream
        self._event_producer[id(op.done)] = oid

    def on_op_dispatch(self, stream, op, deps) -> None:
        lane = self._lane(stream)
        clock = dict(self._clock[lane])
        issue = self._issue_clock.pop(id(op), None)
        if issue:
            _merge(clock, issue)
        for dep in deps:
            _merge(clock, self.clock_of(dep))
        tick = self._tick[lane] + 1
        self._tick[lane] = tick
        clock[lane] = tick
        self._clock[lane] = clock
        self.register_event(op.done, clock)
        self.ops_checked += 1
        if op.reads or op.writes:
            task = self._task_of_event.get(id(op.done))
            for buf in op.reads:
                self._access(buf, "r", lane, tick, op.name, task, clock)
            for buf in op.writes:
                self._access(buf, "w", lane, tick, op.name, task, clock)

    def on_op_done(self, op) -> None:
        self._done_ops.add(id(op))

    def on_event_record(self, stream, cuda_event) -> None:
        """A CudaEvent recorded into a stream carries the stream's clock."""
        self.register_event(cuda_event.fired, dict(self._clock[self._lane(stream)]))

    # -- hooks: runtime lanes (chares / ranks) ------------------------------
    def on_launch_issue(self, owner, op, graph=False) -> None:
        if not graph:
            self._issue_clock[id(op)] = dict(self._clock[self._lane(owner)])

    def on_wake(self, owner, event) -> None:
        lane = self._lane(owner)
        _merge(self._clock[lane], self.clock_of(event))

    def on_msg_deposit(self, msg, owner=None, event=None) -> None:
        """Record the causal clock a mailbox deposit carries: the sender's
        lane clock (entry-method sends) or a completion event's clock
        (channel / GPU-messaging deposits)."""
        if event is not None:
            clock = self.clock_of(event)
        elif owner is not None:
            clock = dict(self._clock[self._lane(owner)])
        else:
            clock = {}
        self._event_clock[id(msg)] = clock
        self._keep[id(msg)] = msg

    def on_msg_consume(self, owner, msg) -> None:
        lane = self._lane(owner)
        clock = self._event_clock.get(id(msg))
        if clock:
            _merge(self._clock[lane], clock)

    def on_transfer_post(self, handle, owner, snapshot=None) -> None:
        post_clock = dict(self._clock[self._lane(owner)]) if snapshot is None \
            else dict(snapshot)
        self._transfers[id(handle)] = handle
        self._post_clock[id(handle)] = post_clock

        def resolve(h=handle, mine=post_clock):
            # Completion covers both endpoints' posting points.  Resolving
            # against the peer's *posting snapshot* (not its resolved done
            # clock) keeps the two resolvers independent of query order.
            clock = dict(mine)
            peer = h.peer
            if peer is not None:
                peer_clock = self._post_clock.get(id(peer))
                if peer_clock:
                    _merge(clock, peer_clock)
            return clock

        self._resolver[id(handle.done)] = resolve
        self._keep[id(handle)] = handle

    def on_task_attach(self, space, key, done_event) -> None:
        self._task_of_event[id(done_event)] = (space, key)
        self._keep[id(done_event)] = done_event

    # -- the access ledger --------------------------------------------------
    def _access(self, buf, mode, lane, tick, name, task, clock) -> None:
        self.accesses_checked += 1
        state = self._buffers.get(buf)
        if state is None:
            state = self._buffers[buf] = _BufferState()
        last = state.last_write
        if last is not None:
            if clock.get(last[0], 0) < last[1]:
                self._race(buf, mode, name, task, last)
            self._check_declared_dep(buf, name, task, last)
        if mode == "w":
            for rlane, (rtick, rname, rtask) in state.reads.items():
                if clock.get(rlane, 0) < rtick:
                    self._race(buf, "w", name, task, (rlane, rtick, rname, rtask),
                               prior_mode="read")
            state.reads = {}
            state.last_write = (lane, tick, name, task)
        else:
            state.reads[lane] = (tick, name, task)

    def _race(self, buf, mode, name, task, prior, prior_mode="write") -> None:
        pair = ("race", buf, prior[2], name)
        if pair in self._seen_pairs:
            return
        self._seen_pairs.add(pair)
        verb = "write" if mode == "w" else "read"
        who = f" (task {task[1]!r})" if task is not None else ""
        pwho = f" (task {prior[3][1]!r})" if prior[3] is not None else ""
        self._record(
            "race", self._lane_label[prior[0]],
            f"buffer {buf!r}: {verb} '{name}'{who} has no happens-before "
            f"edge to {prior_mode} '{prior[2]}'{pwho} on lane "
            f"'{self._lane_label[prior[0]]}'",
        )

    def _check_declared_dep(self, buf, name, task, last) -> None:
        if task is None:
            return
        wtask = last[3]
        if wtask is None or wtask[0] is not task[0] or wtask[1] == task[1]:
            return
        if wtask[1] in self._dep_closure(task[0], task[1]):
            return
        pair = ("missing-dep", task[1], wtask[1])
        if pair in self._seen_pairs:
            return
        self._seen_pairs.add(pair)
        self._record(
            "missing-dependency", f"task {task[1]!r}",
            f"buffer {buf!r}: op '{name}' consumes data last written by task "
            f"{wtask[1]!r} (op '{last[2]}'), which is not in its declared "
            f"dependency closure — declare {wtask[1]!r} as a dep of {task[1]!r}",
        )

    def _dep_closure(self, space, key) -> frozenset:
        cache_key = (id(space), key)
        closure = self._closure_cache.get(cache_key)
        if closure is None:
            seen: set = set()
            stack = list(space.declared_deps(key))
            while stack:
                dep = stack.pop()
                if dep in seen:
                    continue
                seen.add(dep)
                stack.extend(space.declared_deps(dep))
            closure = frozenset(seen)
            self._closure_cache[cache_key] = closure
        return closure

    # -- finish-time checks -------------------------------------------------
    def finish(self, raise_on_findings: bool = True) -> "Sanitizer":
        """Run the end-of-run deadlock/leak scans; optionally raise."""
        if self._finished:
            raise SimulationError("Sanitizer.finish called twice")
        self._finished = True
        self._scan_pending_ops()
        self._scan_mailboxes()
        self._scan_transfers()
        if raise_on_findings and self.findings:
            raise SanitizerError(self.findings)
        return self

    def _pending_ops(self) -> list:
        return [oid for oid in self._ops if oid not in self._done_ops]

    def _wait_edges(self, oid: int) -> list:
        """Pending ops this op is waiting on (direct or via conditions),
        plus its undone FIFO predecessor."""
        edges = []

        def producers(event):
            producer = self._event_producer.get(id(event))
            if producer is not None:
                if producer not in self._done_ops:
                    edges.append(producer)
                return
            for child in getattr(event, "events", ()):
                producers(child)

        for event in self._ops[oid].wait_events:
            producers(event)
        prev = self._fifo_prev.get(oid)
        if prev is not None and prev not in self._done_ops:
            edges.append(prev)
        return edges

    def _scan_pending_ops(self) -> None:
        pending = self._pending_ops()
        if not pending:
            return
        graph = {oid: self._wait_edges(oid) for oid in pending}
        cycles = self._find_cycles(graph)
        for cycle in cycles:
            names = [self._ops[oid].name or f"op@{self._op_stream[oid]}"
                     for oid in cycle]
            self._record(
                "deadlock-cycle", self._op_stream[cycle[0]],
                "wait-for cycle: " + " -> ".join(names + [names[0]]),
            )
        in_cycle = {oid for cycle in cycles for oid in cycle}
        for oid in pending:
            if oid in in_cycle:
                continue
            op = self._ops[oid]
            self._record(
                "pending-gpu-op", self._op_stream[oid],
                f"op '{op.name}' never completed (enqueued but its "
                f"dependencies never fired)",
            )

    @staticmethod
    def _find_cycles(graph: dict) -> list:
        """Distinct cycles in the wait-for graph (one per SCC entered)."""
        cycles = []
        color = {}  # 0 in-progress, 1 done
        for root in graph:
            if root in color:
                continue
            stack = [(root, iter(graph.get(root, ())))]
            path = [root]
            on_path = {root}
            color[root] = 0
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if nxt in on_path:
                        cycles.append(path[path.index(nxt):])
                        continue
                    if nxt in color:
                        continue
                    color[nxt] = 0
                    stack.append((nxt, iter(graph.get(nxt, ()))))
                    path.append(nxt)
                    on_path.add(nxt)
                    advanced = True
                    break
                if not advanced:
                    color[node] = 1
                    stack.pop()
                    path.pop()
                    on_path.discard(node)
        return cycles

    def _scan_mailboxes(self) -> None:
        runtime = self._runtime
        if runtime is None:
            return
        for array in runtime._arrays.values():
            for chare in array.elements.values():
                for msg in chare.leftover_deposits():
                    self._record(
                        "dangling-mailbox", repr(chare),
                        f"deposit into mailbox '{msg.method}' "
                        f"(ref={msg.ref!r}) was never consumed by a "
                        f"when() — dropped completion or missing receive",
                    )

    def _scan_transfers(self) -> None:
        for handle in self._transfers.values():
            if not handle.done.triggered:
                self._record(
                    "pending-transfer", f"pe{handle.src_pe}->pe{handle.dst_pe}",
                    f"{handle.kind} tag={handle.tag!r} posted but never "
                    f"completed",
                )

    # -- deadlock explanation (for runtime quiescence failures) -------------
    def explain_deadlock(self) -> str:
        """Cycle/pending summary appended to runtime deadlock errors."""
        pending = self._pending_ops()
        if not pending:
            return ""
        graph = {oid: self._wait_edges(oid) for oid in pending}
        cycles = self._find_cycles(graph)
        lines = []
        for cycle in cycles:
            names = [self._ops[oid].name or f"op@{self._op_stream[oid]}"
                     for oid in cycle]
            lines.append("wait-for cycle: " + " -> ".join(names + [names[0]]))
        if not lines:
            names = [self._ops[oid].name or self._op_stream[oid]
                     for oid in pending[:5]]
            lines.append(f"{len(pending)} GPU op(s) pending, first: {names}")
        return "\n".join(f"  sanitizer: {line}" for line in lines)

    # -- reporting ----------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.findings

    def report(self) -> str:
        head = (
            f"sanitizer: {self.ops_checked} ops, "
            f"{self.accesses_checked} accesses, "
            f"{len(self._buffers)} buffers, "
            f"{len(self._transfers)} transfers"
        )
        if not self.findings:
            return f"{head} — OK"
        lines = "\n".join(f"  {d}" for d in self.findings)
        return f"{head} — {len(self.findings)} FINDING(S)\n{lines}"

    def _record(self, kind: str, actor: str, detail: str) -> None:
        if len(self.findings) >= self.max_findings:
            return
        now = self.engine.now if self.engine is not None else float("nan")
        self.findings.append(Diagnostic(now, kind, actor, detail))
