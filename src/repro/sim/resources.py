"""Queueing primitives built on the DES kernel.

Three families:

* :class:`Store` / :class:`PriorityStore` — unbounded producer/consumer
  message queues (used for the schedulers' message queues).
* :class:`Resource` — a counted resource with priority-ordered waiters (used
  for GPU engines, NIC links, staging-buffer pools).
* :class:`TokenPool` — a refillable quantity pool (used for bounded staging
  buffer bytes in the pipelined host-staging protocol).

All waiters are served deterministically: ties broken by request order.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Optional

from .engine import Engine, Event
from .errors import SimulationError

__all__ = [
    "Store",
    "PriorityStore",
    "Resource",
    "Request",
    "TokenPool",
]


class Store:
    """Unbounded FIFO store of items.

    ``put(item)`` hands ``item`` straight to the longest-waiting getter, or
    shelves it when nobody waits, so a store never holds items and waiting
    getters at once.  ``get()`` returns an event that triggers with the
    next item.
    """

    def __init__(self, engine: Engine, name: str = ""):
        self.engine = engine
        self.name = name
        self.items: list[Any] = []
        self._getters: deque[Event] = deque()
        # Precomputed once: get runs per message on the scheduler hot path
        # and must not pay an f-string each call.
        self._get_name = f"{name}.get"

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._store_item(item)

    def get(self) -> Event:
        ev = Event(self.engine, name=self._get_name)
        if self.items:
            ev.succeed(self._pop_item())
        else:
            self._getters.append(ev)
        return ev

    def _store_item(self, item: Any) -> None:
        self.items.append(item)

    def _pop_item(self) -> Any:
        return self.items.pop(0)


class PriorityStore(Store):
    """A store that yields items lowest-priority-value first.

    ``put`` accepts any item; priority is taken from ``priority(item)`` given
    at construction (default: the item itself must be orderable).  FIFO among
    equal priorities.
    """

    def __init__(
        self,
        engine: Engine,
        name: str = "",
        priority: Optional[Callable[[Any], Any]] = None,
    ):
        super().__init__(engine, name=name)
        self._prio_fn = priority or (lambda item: item)
        self._counter = 0
        self.items: list[tuple[Any, int, Any]] = []  # (prio, seq, item) heap

    def _store_item(self, item: Any) -> None:
        heapq.heappush(self.items, (self._prio_fn(item), self._counter, item))
        self._counter += 1

    def _pop_item(self) -> Any:
        return heapq.heappop(self.items)[2]


class Request(Event):
    """A pending claim on a :class:`Resource`; release with ``resource.release``."""

    __slots__ = ("resource", "priority", "amount")

    def __init__(self, resource: "Resource", priority: float, amount: int):
        super().__init__(resource.engine, name=resource._request_name)
        self.resource = resource
        self.priority = priority
        self.amount = amount


class Resource:
    """A counted resource with priority-ordered waiters.

    ``request(priority=...)`` returns a :class:`Request` event that triggers
    when the claim is granted.  Lower priority values are served first;
    equal priorities FIFO.  ``amount`` lets one request claim several units
    (all-or-nothing).
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._request_name = f"{name}.request"
        self.in_use = 0
        self._waiters: list[tuple[float, int, Request]] = []
        self._counter = 0
        self.users: list[Request] = []

    def request(self, priority: float = 0.0, amount: int = 1) -> Request:
        if amount < 1 or amount > self.capacity:
            raise ValueError(f"invalid request amount {amount} for capacity {self.capacity}")
        req = Request(self, priority, amount)
        heapq.heappush(self._waiters, (priority, self._counter, req))
        self._counter += 1
        self._grant()
        return req

    def release(self, request: Request) -> None:
        if request not in self.users:
            raise SimulationError(f"release of non-held request on {self.name!r}")
        self.users.remove(request)
        self.in_use -= request.amount
        probe = self.engine.probe
        if probe is not None:
            probe.on_release(self, request.amount)
        self._grant()

    def _grant(self) -> None:
        while self._waiters:
            priority, _seq, req = self._waiters[0]
            if req.amount > self.capacity - self.in_use:
                break
            heapq.heappop(self._waiters)
            self.in_use += req.amount
            self.users.append(req)
            probe = self.engine.probe
            if probe is not None:
                probe.on_grant(self, req.amount)
            # No value: a request succeeding with itself would be a
            # self-reference only the cycle collector could free.
            req.succeed()


class TokenPool:
    """A pool of ``capacity`` fungible tokens (e.g. staging-buffer bytes).

    ``acquire(n)`` triggers when ``n`` tokens are available; ``release(n)``
    returns tokens.  Waiters are FIFO (no priorities) and all-or-nothing.
    """

    def __init__(self, engine: Engine, capacity: int, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.level = capacity
        self.name = name
        self._waiters: deque[tuple[Event, int]] = deque()
        self._acquire_name = f"{name}.acquire"

    def acquire(self, n: int = 1) -> Event:
        if n < 1 or n > self.capacity:
            raise ValueError(f"cannot acquire {n} of {self.capacity} tokens")
        ev = Event(self.engine, name=self._acquire_name)
        self._waiters.append((ev, n))
        self._grant()
        return ev

    def release(self, n: int = 1) -> None:
        if self.level + n > self.capacity:
            raise SimulationError(f"token pool {self.name!r} over-released")
        self.level += n
        self._grant()

    def _grant(self) -> None:
        while self._waiters and self._waiters[0][1] <= self.level:
            ev, n = self._waiters.popleft()
            self.level -= n
            ev.succeed(n)
