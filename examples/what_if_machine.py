#!/usr/bin/env python3
"""What-if studies: re-run the paper on machines that don't exist.

The whole machine model is a frozen spec, so counterfactuals are one-liner
edits.  Three questions the paper raises but cannot answer on Summit:

1. What if UCX never fell back to pipelined host staging (a perfect
   GPUDirect for any size)?  -> the Fig. 7a inversion disappears.
2. What if kernel launches were 10x cheaper?  -> fusion stops mattering.
3. What if the network were 4x slower?  -> overlap pays at even smaller
   problem sizes.

Usage:  python examples/what_if_machine.py
"""

from repro.apps import Jacobi3DConfig, run_app
from repro.hardware import GiB, MachineSpec


def per_iter(machine, version, grid, nodes=4, odf=1, **kw) -> float:
    cfg = Jacobi3DConfig(version=version, nodes=nodes, grid=grid, odf=odf,
                         machine=machine, iterations=5, warmup=1, **kw)
    return run_app(cfg).time_per_iteration


def main() -> None:
    summit = MachineSpec.summit()
    big = (1536, 3072, 3072)  # 1536^3/node on 4 nodes

    print("1) Remove the pipelined-host-staging fallback (GPUDirect for all sizes)")
    dreamy = summit.with_ucx(device_pipeline_threshold=1 * GiB)
    for machine, name in ((summit, "summit"), (dreamy, "no-pipeline-fallback")):
        h = per_iter(machine, "charm-h", big, odf=4)
        d = per_iter(machine, "charm-d", big, odf=4)
        verdict = "GPU-aware LOSES" if d > h else "GPU-aware WINS"
        print(f"   {name:24s}: charm-h {h*1e3:7.3f} ms, charm-d {d*1e3:7.3f} ms -> {verdict}")

    print("\n2) Make kernel launches 10x cheaper (ODF-8, 768^3 strong scaling)")
    cheap = summit.with_gpu(kernel_launch_cpu_s=0.65e-6, kernel_launch_device_s=0.25e-6)
    for machine, name in ((summit, "summit"), (cheap, "cheap-launches")):
        base = per_iter(machine, "charm-d", (768, 768, 768), nodes=16, odf=8)
        fused = per_iter(machine, "charm-d", (768, 768, 768), nodes=16, odf=8, fusion="C")
        print(f"   {name:24s}: baseline {base*1e6:7.1f} us, fusion-C {fused*1e6:7.1f} us "
              f"-> fusion buys {base/fused:.2f}x")

    print("\n3) Cut network bandwidth 4x (192^3/node weak scaling, where overlap")
    print("   normally does NOT pay)")
    slow = summit.with_nic(injection_bandwidth=23e9 / 4)
    small = (192, 384, 384)
    for machine, name in ((summit, "summit"), (slow, "quarter-bandwidth")):
        odf1 = per_iter(machine, "charm-d", small, odf=1)
        odf4 = per_iter(machine, "charm-d", small, odf=4)
        verdict = "overdecomposition WINS" if odf4 < odf1 else "ODF-1 stays best"
        print(f"   {name:24s}: ODF-1 {odf1*1e6:7.1f} us, ODF-4 {odf4*1e6:7.1f} us "
              f"-> {verdict}")


if __name__ == "__main__":
    main()
