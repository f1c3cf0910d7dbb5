"""repro — GPU-aware asynchronous tasks on a simulated GPU cluster.

A from-scratch Python reproduction of Choi, Richards & Kale,
*Improving Scalability with GPU-Aware Asynchronous Tasks* (IPDPS Workshops
2022): a Charm++-like overdecomposed asynchronous task runtime with
GPU-aware communication, an MPI baseline, a discrete-event model of a
Summit-like GPU supercomputer, and the Jacobi3D proxy application used for
every figure in the paper's evaluation.

Quick start::

    from repro.apps import Jacobi3DConfig, run_app

    result = run_app(
        Jacobi3DConfig(version="charm-d", nodes=2, grid=(256, 256, 256), odf=4)
    )
    print(result.time_per_iteration)

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-vs-measured record of each figure.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
