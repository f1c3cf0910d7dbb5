#!/usr/bin/env python3
"""Gate the simulator's host work on exact counts.

Runs ``hostbench/run.py --trace 1`` once per workload in ``BENCHMARK.json``
and keeps every metric whose unit is ``count`` or ``bytes``: events, event
allocations, joins, processes, dispatches, mailbox pops, GPU ops and the
run's traffic.  These are counts of calls, not timings, so they repeat
exactly from run to run; a moved count is a change in the work the simulator
does for the same answer.

Usage:  python3 scripts/host_counts.py

Rewrites ``results/host_counts.json`` with the measured counts and prints
each count that moved against the committed pins.  Exit status: 0 when none
moved, 1 when any moved (a metric on one side only has moved too), 2 when a
hostbench run failed.  Re-pinning is running the script and committing the
diff; a rise is justified in CHANGES.md.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "results" / "host_counts.json"
COUNT_UNITS = ("count", "bytes")


def counts_of(result: dict) -> dict[str, int]:
    """The count and bytes metrics of one hostbench result line."""
    return {name: int(m["value"]) for name, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS}


def compare(pinned: dict, results: dict) -> tuple[int, dict, list[str]]:
    """Compare hostbench results (``{workload: result line, or None for a
    run that crashed}``) against the pins; returns ``(status, measured,
    lines)`` with the exit status above."""
    broken = [w for w, r in results.items() if r is None or r["failed"] > 0]
    if broken:
        return 2, {}, [f"{w}: hostbench run failed" for w in broken]
    measured = {w: counts_of(r) for w, r in results.items()}
    lines = []
    for workload in sorted(set(pinned) | set(measured)):
        old, new = pinned.get(workload, {}), measured.get(workload, {})
        for metric in sorted(set(old) | set(new)):
            if metric not in new:
                lines.append(f"{workload} {metric} {old[metric]:,} → (missing)")
            elif metric not in old:
                lines.append(f"{workload} {metric} (missing) → {new[metric]:,}")
            elif old[metric] != new[metric]:
                delta = new[metric] - old[metric]
                pct = f"{delta / old[metric]:+.1%}" if old[metric] else "from 0"
                lines.append(f"{workload} {metric} {old[metric]:,} → "
                             f"{new[metric]:,} ({delta:+,}, {pct})")
    return (1 if lines else 0), measured, lines


def run_workload(workload: str):
    """One traced hostbench run; its result line, or None if it crashed."""
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {w["name"]: run_workload(w["name"]) for w in bench["workloads"]}
    pinned = json.loads(PINS.read_text()) if PINS.exists() else {}
    status, measured, lines = compare(pinned, results)
    if status != 2:
        PINS.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
        lines.append(f"host counts: {len(lines)} moved")
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
