"""Chare arrays.

A :class:`ChareArray` is an indexed collection of chares distributed over
the PEs by a mapping (see :mod:`repro.runtime.mapping`).  Invoking an entry
method through the array becomes an asynchronous
:class:`~repro.runtime.messages.EntryMessage`:

* same-PE destinations are enqueued locally after a tiny delivery delay;
* remote destinations ride the simulated network with an envelope, paying
  the runtime's send-side costs on the issuing PE.
"""

from __future__ import annotations

from typing import Any, Sequence

from .costs import MsgPriority
from .mapping import all_indices
from .messages import EntryMessage

__all__ = ["ChareArray"]


class ChareArray:
    """An N-dimensional indexed collection of chares."""

    def __init__(self, runtime, array_id: int, chare_cls, shape: Sequence[int],
                 mapping: dict, name: str = ""):
        self.runtime = runtime
        self.array_id = array_id
        self.chare_cls = chare_cls
        self.shape = tuple(shape)
        self.mapping = mapping
        self.name = name or chare_cls.__name__
        self.elements = {idx: chare_cls(runtime, self, idx) for idx in all_indices(shape)}

    def __len__(self) -> int:
        return len(self.elements)

    def element(self, index):
        return self.elements[tuple(index)]

    def elements_on_pe(self, pe_index: int):
        return [c for idx, c in self.elements.items() if self.mapping[idx] == pe_index]

    # -- messaging -------------------------------------------------------------
    def send(
        self,
        sender,
        index,
        method: str,
        ref: Any = None,
        data_bytes: int = 0,
        payload: Any = None,
        priority: float = MsgPriority.HALO_DATA,
    ) -> None:
        """Send from chare ``sender`` to element ``index`` (cost charged to
        the sender's PE at its next yield point)."""
        index = tuple(index)
        if index not in self.elements:
            raise KeyError(f"no element {index} in array {self.name} {self.shape}")
        runtime = self.runtime
        costs = runtime.costs
        src_pe = sender.pe.index
        dst_pe = self.mapping[index]
        msg = EntryMessage(
            array_id=self.array_id,
            index=index,
            method=method,
            ref=ref,
            payload=payload,
            data_bytes=data_bytes,
            priority=priority,
            src_pe=src_pe,
        )
        cost = costs.send_overhead_s
        if dst_pe != src_pe:
            cost += costs.location_lookup_s + runtime.cluster.spec.node.nic.overhead_s
        probe = runtime.engine.probe
        if probe is not None:
            probe.on_msg_deposit(msg, owner=sender)
        scheduler = runtime.scheduler_of(src_pe)
        scheduler.post_send(cost, lambda: runtime.deliver(msg, src_pe, dst_pe))

    def inject(self, index, method: str, ref: Any = None, payload: Any = None,
               data_bytes: int = 0, priority: float = MsgPriority.NORMAL) -> None:
        """Mainchare-style external invocation (no issuing-PE cost): enqueue
        directly on the owning PE.  Used to kick off ``run`` broadcasts."""
        index = tuple(index)
        msg = EntryMessage(
            array_id=self.array_id, index=index, method=method, ref=ref,
            payload=payload, data_bytes=data_bytes, priority=priority,
        )
        self.runtime.scheduler_of(self.mapping[index]).enqueue(msg)

    def broadcast(self, method: str, payload: Any = None) -> None:
        """Invoke ``method`` on every element (like ``thisProxy.run()``)."""
        for idx in self.elements:
            self.inject(idx, method, payload=payload)
