#!/usr/bin/env python3
"""Quickstart: run GPU-aware asynchronous-task Jacobi3D on a simulated cluster.

Runs the paper's proxy app (Charm++-style chares + Channel API) in
*functional* mode — every stencil point is really computed with NumPy — and
verifies the distributed result is bit-identical to a serial solve, then
reports the modeled performance.

Usage:  python examples/quickstart.py
"""

import numpy as np

from repro.apps import Jacobi3DConfig, StencilContext, run_app
from repro.kernels import reference_solve


def main() -> None:
    config = Jacobi3DConfig(
        version="charm-d",        # Charm++ + GPU-aware Channel API
        nodes=2,                  # two Summit-like nodes (6 GPUs each)
        grid=(96, 96, 96),        # global grid (functional mode => keep small)
        odf=2,                    # 2 chares per GPU: overdecomposition
        iterations=20,
        warmup=2,
        data_mode="functional",   # real NumPy blocks, not just a timing model
    )
    print(f"Running {config.version} on {config.nodes} nodes "
          f"({config.n_pes()} GPUs, {config.n_blocks()} chares), "
          f"grid {config.grid}, {config.total_iterations} iterations...")
    result = run_app(config)

    # --- numerics: distributed == serial, exactly -------------------------
    geometry = StencilContext(config).geometry
    distributed = result.assemble_grid(geometry)
    serial = reference_solve(config.grid, config.total_iterations)[1:-1, 1:-1, 1:-1]
    exact = np.array_equal(distributed, serial)
    print(f"bit-identical to the serial reference: {exact}")
    if not exact:
        raise SystemExit("numerical mismatch — this is a bug")

    # --- modeled performance ----------------------------------------------
    print(f"\n{result.summary()}")
    print(f"  time/iteration : {result.time_per_iteration * 1e6:9.1f} us")
    print(f"  GPU utilization: {result.gpu_utilization * 100:9.1f} %")
    print(f"  comp-comm overlap: {result.overlap_s * 1e6:7.1f} us of GPU time")
    print(f"  messages sent  : {result.messages_sent:9d} "
          f"({result.bytes_sent / 2**20:.1f} MiB)")
    print(f"  protocols      : "
          + ", ".join(f"{p.value}={n}" for p, n in sorted(
              result.protocol_counts.items(), key=lambda kv: kv[0].value)))


if __name__ == "__main__":
    main()
