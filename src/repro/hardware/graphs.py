"""CUDA Graphs model.

A :class:`CudaGraph` is a DAG of GPU operations captured once and launched
repeatedly.  Benefits modeled (matching §III-D2 of the paper):

* One host-side launch (``graph_launch_cpu_s``) replaces one
  ``kernel_launch_cpu_s`` *per kernel* — the dominant saving when the CPU is
  busy issuing many fine-grained launches (high ODF).
* Device-side per-node overhead drops from ``kernel_launch_device_s`` to
  ``graph_node_device_s``.
* All intra-graph dependencies are known to the device, so independent nodes
  run concurrently without event bookkeeping.

Also modeled: the cost of *updating* graph node parameters
(:meth:`CudaGraph.update_cost`), which is why the paper's Jacobi3D keeps two
pre-built graphs with swapped input/output pointers and alternates between
them instead of updating one graph every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..sim import Event, Latch
from .gpu import GpuDevice, GpuOp, WorkModel, _Executor

__all__ = ["GraphNode", "CudaGraph", "GraphExec"]


@dataclass(frozen=True)
class GraphNode:
    """One node of a captured graph: the work plus dependency indices."""

    work: WorkModel
    deps: tuple[int, ...] = ()
    name: str = ""


@dataclass
class CudaGraph:
    """A captured DAG of GPU work.

    Build explicitly with :meth:`add`, or capture from a recorded stream
    trace (see :meth:`from_sequence`).
    """

    nodes: list[GraphNode] = field(default_factory=list)

    def add(self, work: WorkModel, deps: Iterable[int] = (), name: str = "") -> int:
        """Append a node depending on node indices ``deps``; returns its index."""
        deps = tuple(deps)
        n = len(self.nodes)
        for d in deps:
            if not 0 <= d < n:
                raise ValueError(f"dependency {d} out of range for node {n}")
        self.nodes.append(GraphNode(work, deps, name or f"n{n}"))
        return n

    @classmethod
    def from_sequence(cls, works: Sequence[WorkModel], serial: bool = True) -> "CudaGraph":
        """Capture a linear sequence (each node depends on the previous)."""
        graph = cls()
        prev: Optional[int] = None
        for w in works:
            deps = (prev,) if (serial and prev is not None) else ()
            prev = graph.add(w, deps=deps)
        return graph

    def __len__(self) -> int:
        return len(self.nodes)

    def instantiate(self, device: GpuDevice) -> "GraphExec":
        """``cudaGraphInstantiate``: bind to a device for launching."""
        return GraphExec(self, device)

    def update_cost(self, device: GpuDevice, nodes_updated: Optional[int] = None) -> float:
        """CPU cost of ``cudaGraphExecKernelNodeSetParams`` on ``nodes_updated``
        nodes (all of them by default) — what per-iteration pointer swapping
        would cost if the app did not keep two alternating graphs."""
        n = len(self.nodes) if nodes_updated is None else nodes_updated
        # Each node update is roughly half a kernel launch of CPU work.
        return 0.5 * device.spec.kernel_launch_cpu_s * n


class GraphExec:
    """An instantiated, launchable graph.

    ``launch(priority)`` returns a sim :class:`Event` that triggers when
    every node has completed.  The *caller* is responsible for charging the
    host-side ``graph_launch_cpu_s`` to its PE (same convention as plain
    kernel launches).
    """

    def __init__(self, graph: CudaGraph, device: GpuDevice):
        if not graph.nodes:
            raise ValueError("cannot instantiate an empty graph")
        self.graph = graph
        self.device = device
        self.launches = 0

    @property
    def cpu_launch_cost(self) -> float:
        return self.device.spec.graph_launch_cpu_s

    def launch(self, priority: int = 0, after: Optional[Iterable[Event]] = None) -> Event:
        """Execute the whole DAG; returns the graph-completion event.

        Parameters
        ----------
        priority:
            Engine arbitration priority for every node (the launching
            stream's priority in CUDA terms).
        after:
            Optional events that must trigger before any node starts
            (models launching the graph into a stream behind prior work).
        """
        engine = self.device.engine
        self.launches += 1
        node_done: list[Event] = [engine.event() for _ in self.graph.nodes]
        gate = list(after or ())
        for i, node in enumerate(self.graph.nodes):
            deps = [node_done[d] for d in node.deps] + gate
            runner = _GraphNode(self.device, priority, i, node, deps, node_done[i])
            engine.after(0.0, runner._start)
        return engine.all_of(node_done, name="graph.done")


class _GraphNode(_Executor):
    """The driver of one node of a launched graph: wait for the node's
    dependencies and the launch gate, then run its op on the device at the
    graph node's device-side overhead and trigger ``done``."""

    __slots__ = ("index", "node", "deps", "done")

    def __init__(self, device: GpuDevice, priority: int, index: int, node: GraphNode,
                 deps: list, done: Event):
        self.device = device
        self.priority = priority
        self.index = index
        self.node = node
        self.deps = deps
        self.done = done

    @property
    def component(self) -> str:
        return f"{self.device.name}.graphnode{self.index}"

    def _start(self, _ev) -> None:
        if self.deps:
            Latch(self.device.engine, self.deps, self._ready)
        else:
            self._ready(None)

    def _ready(self, ev) -> None:
        if ev is not None and not ev.ok:
            raise ev.value
        self.deps = None
        op = GpuOp(self.device.engine, self.node.work, name=f"graph.{self.node.name}")
        op.in_graph_overhead = self.device.spec.graph_node_device_s
        self._execute(op)

    def _op_done(self) -> None:
        self.done.succeed()
