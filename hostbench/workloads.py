"""The host-time benchmark's workloads: configs, seeded set-up and output checks.

Every workload is one ``repro.apps.run_app`` call.  The simulator is
deterministic, so each workload's simulated outputs are pinned here exactly;
a repetition whose outputs differ from the pins is a failed operation.  Only
``cholesky-mpi`` consumes the benchmark seed (as ``CholeskyConfig.seed``, the
seed of its generated SPD input matrix); the other three workloads are
deterministic modeled runs and take no seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.apps import AllreduceConfig, CholeskyConfig, Jacobi3DConfig
from repro.apps.cholesky.ops import generate_spd

__all__ = ["WORKLOADS", "Prepared", "Workload", "check", "prepare", "protocol_counts"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to build its config and what it must output."""

    name: str
    #: ``seed -> config``; a workload with ``seeded=False`` ignores the seed.
    make_config: Callable[[int], Any]
    seeded: bool
    #: Pinned simulated outputs of ``run_app`` (compared exactly).
    expected: dict
    #: Extra keyword arguments of the ``run_app`` call.
    run_kwargs: dict = field(default_factory=dict)


WORKLOADS = {w.name: w for w in (
    # The paper's headline over-decomposed GPU-aware Jacobi3D: sim kernel, Charm
    # scheduler, GPU streams and UCX rendezvous, with cheap mailbox matching.
    Workload(
        name="jacobi3d-charm-d",
        make_config=lambda seed: Jacobi3DConfig(
            version="charm-d", nodes=8, grid=(768, 768, 768), odf=4,
            iterations=6, warmup=1),
        seeded=False,
        expected={
            "time_per_iteration": 0.00046081220418896224,
            "total_time": 0.003487082153846146,
            "messages_sent": 4592,
            "bytes_sent": 594542592,
            "protocol_counts": {"rndv_gpudirect": 2464, "device_ipc": 4144},
        },
    ),
    # Ring allreduce over the Channel/UCX path: the same runtime and comm layers driven
    # by many tiny eager messages, where mailbox matching is costly.
    Workload(
        name="allreduce-ring",
        make_config=lambda seed: AllreduceConfig(
            version="charm-d", nodes=4, elements=1024, algorithm="ring", chunks=4,
            iterations=3, warmup=1),
        seeded=False,
        expected={
            "time_per_iteration": 0.0025812380888889873,
            "total_time": 0.010331997785061577,
            "messages_sent": 17664,
            "bytes_sent": 1507328,
            "protocol_counts": {"eager": 17664},
        },
    ),
    # Seeded functional tiled Cholesky on MPI: bypasses the Charm scheduler, stresses
    # sim, mpi and the NumPy tile kernels; factor checked bit for bit.
    Workload(
        name="cholesky-mpi",
        make_config=lambda seed: CholeskyConfig(
            version="mpi-h", nodes=4, tiles=24, tile=64, data_mode="functional",
            seed=seed),
        seeded=True,
        expected={
            "time_per_iteration": 1.0547545299145272e-05,
            "total_time": 0.0032465845030100284,
            "messages_sent": 3724,
            "bytes_sent": 122028032,
            "protocol_counts": {"rndv_host": 3724},
        },
    ),
    # Jacobi3D with the sanitizer and invariant checker on: the only workload where
    # observers run; the bare ones show observers cost nothing when off.
    Workload(
        name="jacobi3d-sanitized",
        make_config=lambda seed: Jacobi3DConfig(
            version="charm-d", nodes=4, grid=(384, 384, 384), odf=4,
            iterations=6, warmup=1),
        seeded=False,
        expected={
            "time_per_iteration": 0.00043952080372909645,
            "total_time": 0.0033748278153846044,
            "messages_sent": 2240,
            "bytes_sent": 115605504,
            "protocol_counts": {"rndv_gpudirect": 1008, "device_ipc": 2128},
        },
        run_kwargs={"sanitize": True, "validate": True},
    ),
)}


@dataclass
class Prepared:
    """Everything a repetition needs before it can start."""

    workload: Workload
    config: Any
    #: ``cholesky-mpi``: the seeded input matrix the program must factor.
    matrix: Optional[np.ndarray] = None


def prepare(name: str, seed: int) -> Prepared:
    """Build and validate the workload's config and generate its seeded input."""
    workload = WORKLOADS[name]
    prepared = Prepared(workload, workload.make_config(seed))
    if workload.seeded:
        cfg = prepared.config
        prepared.matrix, _ = generate_spd(cfg.n, cfg.seed)
    return prepared


def protocol_counts(result) -> dict:
    """The result's per-protocol message counts, keyed by protocol name."""
    counts = result.protocol_counts
    return {getattr(k, "value", k): n for k, n in counts.items()}


def check(prepared: Prepared, result, context) -> list:
    """Every way ``result`` differs from the pinned outputs (empty when correct).

    ``context`` is the app context ``run_app`` handed to ``context_out``.
    """
    problems = []
    for key, want in prepared.workload.expected.items():
        got = protocol_counts(result) if key == "protocol_counts" else getattr(result, key)
        if got != want:
            problems.append(f"{key}: got {got!r}, pinned {want!r}")
    if prepared.matrix is not None:
        matrix = context.matrix
        if not np.array_equal(matrix, prepared.matrix):
            problems.append("input matrix differs from the seeded input")
        reference = np.tril(np.linalg.cholesky(matrix))
        factor = result.assemble_state()
        if not np.array_equal(factor, reference):
            worst = float(np.max(np.abs(factor - reference)))
            problems.append(f"factor differs from np.linalg.cholesky by up to {worst!r}")
    return problems
