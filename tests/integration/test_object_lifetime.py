"""Per-message objects die with their message.

Every process, resource request, transfer handle, callback driver, latch
and generator created for one message must be freed by reference counting
once the message completes, not left for the cycle collector.  With the
collector disabled and ``gc.DEBUG_SAVEALL`` set, everything the collector
would have had to free lands in ``gc.garbage`` — so the count of
per-message object types there must not grow with the number of iterations
(what remains is the machine itself: schedulers, streams and the like,
freed together at the end of the run), and drivers, latches, transfer
handles and requests (resource and MPI) must not be there at all.  UCX
tag matching must also leave no emptied match queue behind.
"""

import gc
from collections import Counter

import pytest

from repro.apps import AllreduceConfig, CholeskyConfig, Jacobi3DConfig, run_app
from repro.comm import TransferHandle, UcxContext
from repro.comm.ucx import _Send
from repro.hardware.graphs import _GraphNode
from repro.hardware.network import _Transfer
from repro.mpi.api import Request as MpiRequest
from repro.sim import Latch, Process
from repro.sim.resources import Request

PER_MESSAGE_TYPES = {"Process": Process, "Request": Request,
                     "TransferHandle": TransferHandle, "_Transfer": _Transfer,
                     "_Send": _Send, "_GraphNode": _GraphNode, "Latch": Latch,
                     "MpiRequest": MpiRequest}
#: Per-message types that must never reach the cycle collector at all.
NEVER_CYCLIC = ("TransferHandle", "Request", "_Transfer", "_Send", "_GraphNode", "Latch",
                "MpiRequest")

CONFIGS = {
    "allreduce": lambda k: AllreduceConfig(
        version="charm-d", nodes=2, elements=256, algorithm="ring", chunks=2,
        iterations=k, warmup=1),
    "jacobi3d": lambda k: Jacobi3DConfig(
        version="charm-d", nodes=2, grid=(96, 96, 96), odf=2, iterations=k, warmup=1),
    # The MPI rank interpreter under both hosts: a chare (AMPI) and a
    # blocking driver process per PE (MPI).
    "jacobi3d-ampi": lambda k: Jacobi3DConfig(
        version="ampi-d", nodes=2, grid=(96, 96, 96), odf=2, iterations=k, warmup=1),
    "jacobi3d-mpi": lambda k: Jacobi3DConfig(
        version="mpi-d", nodes=2, grid=(96, 96, 96), iterations=k, warmup=1),
    # Host-staged MPI: every message takes the host rendezvous path.  A
    # factorization has no iteration count, so k scales the tile count.
    "cholesky": lambda k: CholeskyConfig(version="mpi-h", nodes=2, tiles=2 * k, tile=64),
}


def cyclic_garbage(config):
    """Per-message type counts among the objects only the cycle collector
    frees after one run, plus the run's UCX context."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_app(config)
        gc.collect()
        counts = Counter()
        contexts = []
        for obj in gc.garbage:
            for name, cls in PER_MESSAGE_TYPES.items():
                if isinstance(obj, cls):
                    counts[name] += 1
            if type(obj).__name__ == "generator":
                counts["generator"] += 1
            if isinstance(obj, UcxContext):
                contexts.append(obj)
        return counts, contexts
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("app", sorted(CONFIGS))
def test_per_message_objects_do_not_need_the_cycle_collector(app):
    k = 2
    few, few_contexts = cyclic_garbage(CONFIGS[app](k))
    many, many_contexts = cyclic_garbage(CONFIGS[app](2 * k))
    for name in (*PER_MESSAGE_TYPES, "generator"):
        assert many[name] <= few[name], (name, few[name], many[name])
    for name in NEVER_CYCLIC:
        assert many[name] == 0, (name, many[name])
    for ucx in (*few_contexts, *many_contexts):
        assert ucx._pending_sends == {} and ucx._pending_recvs == {}
    assert len(many_contexts) == 1
