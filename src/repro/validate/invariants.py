"""Live invariant auditing for simulation runs.

The :class:`InvariantChecker` is an *independent* observer: a
:class:`~repro.sim.probe.Probe` subscriber that keeps its own books (event
times, per-resource grant counts, per-channel message counts, posted
communication handles) from the bus events — processed events, resource
grants and releases, network sends and deliveries, UCX posts — and
cross-checks them against what the components claim.  This module is the
one place those books live.  A bug in the engine's bookkeeping therefore
cannot hide itself — the double-entry principle.

Checked while running
---------------------
* **Time monotonicity** — no processed event may carry a timestamp earlier
  than the previous one.
* **Resource exclusivity / capacity** — a unit resource (a GPU D2D engine,
  a NIC injection port, a PE core) never holds two grants at once; counted
  resources never exceed capacity; releases never outnumber grants.

Checked at :meth:`InvariantChecker.finish`
------------------------------------------
* **No dangling events** — the event heap drained; every posted UCX
  operation completed; no unmatched sends/receives; scheduler queues and
  chare mailboxes empty; GPU stream queues empty.
* **Message conservation** — per ``(src_pe, dst_pe)`` channel, every
  message sent was delivered (and the network's own counters agree).
* **Interval hygiene** — every busy interval that was opened was closed
  (GPU engine trackers, PE busy trackers, the in-flight network tracker).
* **Resources quiescent** — every watched resource ends with zero grants
  outstanding.

Violations are recorded as :class:`Violation` entries with the simulated
time and the offending actor; ``finish(raise_on_violation=True)`` raises
:class:`InvariantError` carrying the full report.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional

from ..sim import Probe, SimulationError
from ..sim.resources import Resource

__all__ = ["Violation", "InvariantError", "InvariantChecker"]


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    time: float
    rule: str
    actor: str
    detail: str

    def __str__(self) -> str:
        return f"[t={self.time:.9f}] {self.rule} @ {self.actor}: {self.detail}"


class InvariantError(SimulationError):
    """Raised by :meth:`InvariantChecker.finish` when violations were found."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = "\n".join(f"  {v}" for v in violations[:20])
        extra = f"\n  ... and {len(violations) - 20} more" if len(violations) > 20 else ""
        super().__init__(f"{len(violations)} invariant violation(s):\n{lines}{extra}")


class InvariantChecker(Probe):
    """Attachable auditor for one simulation run.

    Typical wiring (what ``run_app(..., validate=True)`` does)::

        checker = InvariantChecker().attach(engine)
        checker.watch_cluster(cluster)
        checker.watch_ucx(runtime.ucx)
        checker.watch_runtime(runtime)      # charm/ampi only
        ...  # run the simulation
        checker.finish()                    # raises InvariantError on breach
    """

    def __init__(self, max_violations: int = 200):
        self.violations: list[Violation] = []
        self.max_violations = max_violations
        self.events_processed = 0
        self._last_time = float("-inf")
        # Independent per-resource grant accounting.
        self._held: dict[int, int] = {}        # id(resource) -> our grant count
        self._resources: dict[int, Resource] = {}
        # Per-channel network accounting.
        self._chan_sent: Counter = Counter()   # (src_pe, dst_pe) -> messages
        self._chan_delivered: Counter = Counter()
        self._net = None
        # Posted UCX handles (to verify completion at finish).
        self._ucx = None
        self._posted: list = []
        # Runtime components for finish-time emptiness checks.
        self._runtime = None
        self._cluster = None
        self._finished = False

    # -- wiring -------------------------------------------------------------
    def watch_resource(self, resource: Resource) -> None:
        """Independently track ``resource``'s grants and releases (grants
        on unwatched resources are not audited)."""
        key = id(resource)
        self._held.setdefault(key, 0)
        self._resources[key] = resource

    def watch_cluster(self, cluster) -> None:
        """Watch every exclusive/counted resource of the machine: GPU
        engines, PE cores, NIC ports and the intra-node transport — plus the
        network's message flow."""
        self._cluster = cluster
        for node in cluster.nodes:
            for gpu in node.gpus:
                for resource in gpu.engines.values():
                    self.watch_resource(resource)
        for pe in cluster.all_pes():
            self.watch_resource(pe.core)
        net = cluster.network
        for port in (*net.inject, *net.eject, *net.intra):
            self.watch_resource(port)
        self._net = net

    def watch_ucx(self, ucx) -> None:
        """Verify at finish that every posted isend/irecv completed and that
        ``ucx`` holds no unmatched transfers."""
        self._ucx = ucx

    def watch_runtime(self, runtime) -> None:
        """Remember the Charm runtime for finish-time queue/mailbox checks."""
        self._runtime = runtime

    # -- probe hooks ----------------------------------------------------------
    def on_event(self, time: float, event) -> None:
        self.events_processed += 1
        if time < self._last_time:
            self._record(
                "time-monotonicity",
                getattr(event, "name", "") or type(event).__name__,
                f"event at t={time!r} after t={self._last_time!r}",
                time=time,
            )
        else:
            self._last_time = time

    def on_grant(self, resource: Resource, amount: int) -> None:
        held = self._held.get(id(resource))
        if held is None:
            return
        held += amount
        self._held[id(resource)] = held
        if held > resource.capacity:
            rule = ("resource-exclusivity" if resource.capacity == 1
                    else "resource-capacity")
            self._record(
                rule, resource.name,
                f"{held} concurrent grant(s) on capacity {resource.capacity}",
            )

    def on_release(self, resource: Resource, amount: int) -> None:
        held = self._held.get(id(resource))
        if held is None:
            return
        held -= amount
        self._held[id(resource)] = held
        if held < 0:
            self._record(
                "resource-release", resource.name,
                f"release without matching grant (balance {held})",
            )

    def on_net_send(self, net, message) -> None:
        self._chan_sent[(message.src_pe, message.dst_pe)] += 1

    def on_net_deliver(self, net, message) -> None:
        self._chan_delivered[(message.src_pe, message.dst_pe)] += 1

    def on_ucx_post(self, handle) -> None:
        self._posted.append(handle)

    # -- finish-time checks -------------------------------------------------
    def finish(self, raise_on_violation: bool = True) -> "InvariantChecker":
        """Run the end-of-run checks; optionally raise on any violation."""
        if self._finished:
            raise SimulationError("InvariantChecker.finish called twice")
        self._finished = True
        eng = self.engine
        if eng is not None and eng._heap:
            self._record(
                "dangling-events", "engine",
                f"{len(eng._heap)} event(s) still scheduled at termination",
            )
        for key, held in self._held.items():
            if held != 0:
                res = self._resources[key]
                self._record(
                    "resource-leak", res.name,
                    f"{held} grant(s) never released", )
            res = self._resources[key]
            if res.in_use != self._held[key]:
                self._record(
                    "resource-books-disagree", res.name,
                    f"resource reports in_use={res.in_use}, "
                    f"monitor counted {self._held[key]}",
                )
        self._check_channels()
        self._check_ucx()
        self._check_runtime()
        self._check_intervals()
        if raise_on_violation and self.violations:
            raise InvariantError(self.violations)
        return self

    def _check_channels(self) -> None:
        for chan in sorted(set(self._chan_sent) | set(self._chan_delivered)):
            sent = self._chan_sent[chan]
            got = self._chan_delivered[chan]
            if sent != got:
                self._record(
                    "message-conservation", f"pe{chan[0]}->pe{chan[1]}",
                    f"{sent} sent but {got} delivered",
                )
        net = self._net
        if net is not None:
            if net.messages_sent != net.messages_delivered:
                self._record(
                    "message-conservation", "network",
                    f"{net.messages_sent} sent, {net.messages_delivered} delivered",
                )
            my_sent = sum(self._chan_sent.values())
            if my_sent != net.messages_sent:
                self._record(
                    "message-books-disagree", "network",
                    f"network counted {net.messages_sent} sends, monitor {my_sent}",
                )

    def _check_ucx(self) -> None:
        ucx = self._ucx
        if ucx is None:
            return
        sends, recvs = ucx.pending_counts()
        if sends or recvs:
            self._record(
                "unmatched-transfers", "ucx",
                f"{sends} send(s) and {recvs} recv(s) never matched",
            )
        incomplete = [h for h in self._posted if not h.done.triggered]
        if incomplete:
            sample = incomplete[0]
            self._record(
                "unfinished-transfers", "ucx",
                f"{len(incomplete)} posted op(s) never completed "
                f"(first: {sample.kind} pe{sample.src_pe}->pe{sample.dst_pe} "
                f"tag={sample.tag!r})",
            )

    def _check_runtime(self) -> None:
        runtime = self._runtime
        if runtime is None:
            return
        for sched in runtime.schedulers:
            if len(sched.queue):
                self._record(
                    "unconsumed-messages", sched.pe.name,
                    f"{len(sched.queue)} message(s) left in the scheduler queue",
                )
        for array in runtime._arrays.values():
            for chare in array.elements.values():
                leftovers = dict(Counter(msg.method for msg in chare.leftover_deposits()))
                if leftovers:
                    self._record(
                        "unconsumed-mailbox", repr(chare),
                        f"undelivered deposits: {leftovers}",
                    )

    def _check_intervals(self) -> None:
        cluster = self._cluster
        if cluster is None:
            return
        trackers = []
        for node in cluster.nodes:
            for gpu in node.gpus:
                trackers.extend(gpu.trackers.values())
                for stream in gpu._streams:
                    if stream.queued:
                        self._record(
                            "dangling-gpu-work", stream.name,
                            f"{len(stream.queued)} op(s) still queued",
                        )
        for pe in cluster.all_pes():
            trackers.append(pe.busy)
        trackers.append(cluster.network.inflight)
        for tracker in trackers:
            open_spans = sum(1 for start in tracker._open if start is not None)
            if open_spans:
                self._record(
                    "unclosed-interval", tracker.name,
                    f"{open_spans} busy span(s) never closed",
                )

    # -- reporting ----------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.violations

    def report(self) -> str:
        """Human-readable audit summary."""
        head = (
            f"invariant audit: {self.events_processed} events, "
            f"{len(self._resources)} resources, "
            f"{sum(self._chan_sent.values())} messages, "
            f"{len(self._posted)} transfers"
        )
        if not self.violations:
            return f"{head} — OK"
        lines = "\n".join(f"  {v}" for v in self.violations)
        return f"{head} — {len(self.violations)} VIOLATION(S)\n{lines}"

    def _record(self, rule: str, actor: str, detail: str,
                time: Optional[float] = None) -> None:
        if len(self.violations) >= self.max_violations:
            return
        now = time if time is not None else (
            self.engine.now if self.engine is not None else float("nan"))
        self.violations.append(Violation(now, rule, actor, detail))
