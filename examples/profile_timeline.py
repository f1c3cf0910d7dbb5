#!/usr/bin/env python3
"""Export a Perfetto/Chrome timeline of a Jacobi3D run.

The paper used NVIDIA Nsight Systems to discover the stream-concurrency
optimization (§III-C) and the UCX protocol switch (§IV-B).  The simulator's
tracer plays that role: this script runs two chares' worth of Jacobi3D and
writes every GPU operation and network transfer as a timeline you can open
at https://ui.perfetto.dev.

Usage:  python examples/profile_timeline.py [out.trace.json]
"""

import json
import sys

from repro.apps import Jacobi3DConfig, run_app
from repro.hardware import MachineSpec
from repro.sim import Tracer, to_chrome_trace


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "jacobi3d.trace.json"
    tracer = Tracer(categories=["gpu.", "net.", "ucx."])
    config = Jacobi3DConfig(
        version="charm-d",
        nodes=2,
        grid=(768, 768, 1536),
        odf=2,
        iterations=3,
        warmup=1,
        machine=MachineSpec.small_debug(),
    )
    result = run_app(config, tracer=tracer)
    events = to_chrome_trace(tracer)
    with open(out_path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)

    kinds = {}
    for ev in events:
        kinds[ev["cat"]] = kinds.get(ev["cat"], 0) + 1
    print(result.summary())
    print(f"wrote {len(events)} timeline events to {out_path}:")
    for cat, n in sorted(kinds.items()):
        print(f"  {cat:16s} {n:6d}")
    print("open it at https://ui.perfetto.dev (or chrome://tracing)")


if __name__ == "__main__":
    main()
