"""Time one workload's set-up in a fresh process.

Prints the host seconds from before ``import repro`` until the workload's
config is built and validated and its seeded input exists, i.e. until the
first repetition could start.  ``run.py`` starts this script several times
per run and reports the median as ``setup_s``.

    python3 hostbench/setup_probe.py --workload cholesky-mpi --seed 1
"""

import argparse
import sys
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import workloads

    workloads.prepare(args.workload, args.seed)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
