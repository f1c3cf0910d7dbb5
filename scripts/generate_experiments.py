#!/usr/bin/env python3
"""Generate EXPERIMENTS.md from saved benchmark results.

Reads ``results-full/*.json`` (written by
``REPRO_BENCH_FULL=1 pytest benchmarks/ --benchmark-only``), re-evaluates
every figure's shape claims, and writes the paper-vs-measured record.

Usage:  python scripts/generate_experiments.py [results_dir] [out.md]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.analysis import FigureData, render_table
from repro.core import (
    check_figure6,
    check_figure7a,
    check_figure7b,
    check_figure7c,
    check_figure8,
    check_figure9,
    check_odf_sweep,
)

#: figure id -> (title, paper-side description, checker)
CATALOG = [
    ("fig6a", "Fig. 6a — baseline optimizations, weak scaling",
     "Charm-H with the §III-C optimizations (one host sync/iter, split "
     "high-priority copy streams) beats the original implementation at "
     "every node count; the paper plots both at ODF 4, 1536³/node.",
     check_figure6),
    ("fig6b", "Fig. 6b — baseline optimizations, strong scaling",
     "Same comparison on the fixed 3072³ grid.",
     check_figure6),
    ("fig7a", "Fig. 7a — weak scaling, 1536³ per node",
     "Halos up to ~9 MB put GPU-aware communication on UCX's pipelined "
     "host-staging path: Charm-D degrades vs Charm-H from 2 nodes, MPI-D "
     "vs MPI-H from 8; Charm++ curves stay flatter than MPI from "
     "overdecomposition-driven overlap (best ODF = 4, up to 64% over "
     "ODF 1).",
     check_figure7a),
    ("fig7b", "Fig. 7b — weak scaling, 192³ per node",
     "96 KB halos ride GPUDirect: GPU-aware wins for both models; "
     "overdecomposition only adds overhead (ODF 1 best); Charm++ "
     "per-message costs are visible at this granularity.",
     check_figure7b),
    ("fig7c", "Fig. 7c — strong scaling, 3072³ grid",
     "Charm-H already beats both MPI versions from overlap alone; Charm-D "
     "combines overlap with GPU-aware transfers, overtakes everything once "
     "halos drop under the pipeline threshold, sustains a higher best-ODF "
     "to larger node counts than Charm-H, and reaches sub-millisecond "
     "iterations at 512 nodes.",
     check_figure7c),
    ("fig8", "Fig. 8 — kernel fusion (768³ strong scaling, Charm-D)",
     "Fusion pays once launches dominate: nothing until ~16 nodes at "
     "ODF 1, then C > B > A > baseline; ~20% (ODF 1) and ~51% (ODF 8) at "
     "the paper's 128 nodes.",
     check_figure8),
    ("fig9", "Fig. 9 — CUDA Graphs speedup (768³ strong scaling, Charm-D)",
     "Graphs barely move ODF 1 (little CPU to save), reach ~1.5x at ODF 8 "
     "without fusion, and lose their edge as fusion removes the launches "
     "they would amortize.",
     check_figure9),
    ("odf_sweep_1536", "§IV-B — ODF sweep at 1536³ per node",
     "ODF 4 best for Charm-H ('a good balance between overlap and "
     "overheads'); higher ODF eventually hurts.",
     lambda fig: check_odf_sweep(fig, {"charm-h": (2, 4, 8),
                                       "charm-d": (2, 4, 8, 16)})),
    ("odf_sweep_192", "§IV-B — ODF sweep at 192³ per node",
     "ODF 1 best for both Charm++ versions: at tiny granularity runtime "
     "overheads outweigh any overlap.",
     lambda fig: check_odf_sweep(fig, {"charm-h": (1,), "charm-d": (1,)})),
    ("comm_apis", "§II-B — communication mechanisms microbenchmark",
     "The Channel API exists because the GPU Messaging API pays a "
     "post-entry-method scheduling round trip per receive.",
     None),
    ("ablation_pipeline", "Model ablation — pipeline threshold",
     "(not a paper figure) removing the pipelined-host-staging fallback "
     "removes the Fig. 7a inversion: attribution check for the mechanism.",
     None),
    ("ablation_launch", "Model ablation — launch overhead",
     "(not a paper figure) 10x cheaper launches erase the fusion gains: "
     "attribution check for Figs. 8/9.",
     None),
    ("ablation_stacking", "Model ablation — pipeline concurrency stacking",
     "(not a paper figure) the optional stacking knob measured at protocol "
     "level; ships disabled (see DESIGN.md §9).",
     None),
]


def main() -> int:
    results = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results-full")
    out = Path(sys.argv[2]) if len(sys.argv) > 2 else Path("EXPERIMENTS.md")
    parts = [HEADER]
    n_claims = n_pass = 0
    for fig_id, title, paper_side, checker in CATALOG:
        path = results / f"{fig_id}.json"
        parts.append(f"## {title}\n")
        parts.append(f"**Paper:** {paper_side}\n")
        if not path.exists():
            parts.append("*(no saved results — run the benchmark suite first)*\n")
            continue
        fig = FigureData.load_json(path)
        parts.append("**Measured** (time/iter in seconds unless the ylabel "
                     f"says otherwise; ylabel: {fig.ylabel}):\n")
        parts.append("```")
        parts.append(render_table(fig))
        parts.append("```\n")
        if checker is not None:
            claims = checker(fig)
            n_claims += len(claims)
            n_pass += sum(c.ok for c in claims)
            parts.append("**Shape claims:**\n")
            for c in claims:
                parts.append(f"- {'✅' if c.ok else '❌'} {c.name}"
                             + (f" — {c.detail}" if c.detail else ""))
            parts.append("")
        for note in fig.notes:
            parts.append(f"> note: {note}")
        parts.append("")
    parts.append(FOOTER.format(n_pass=n_pass, n_claims=n_claims))
    out.write_text("\n".join(parts))
    print(f"wrote {out} ({n_pass}/{n_claims} claims pass)")
    return 0 if n_pass == n_claims else 1


HEADER = """\
# EXPERIMENTS — paper vs. measured

This file records, for **every figure in the paper's evaluation (§IV)**,
what the paper reports and what this reproduction measures on its simulated
Summit (full node ladders; regenerate with
`REPRO_BENCH_FULL=1 pytest benchmarks/ --benchmark-only` followed by
`python scripts/generate_experiments.py`).

Absolute numbers are *not* expected to match — the substrate is a
calibrated simulator, not the authors' 4608-node machine.  What must match
are the paper's qualitative claims: who wins, where curves cross, which
way gaps trend.  Each figure below therefore carries machine-checked
**shape claims** (the same checks gate `pytest benchmarks/`).

Two systematic deviations are documented in DESIGN.md §9: (1) the paper's
"Charm D-vs-H gap larger than MPI's" ordering only emerges from ~64 nodes
in our model (below that, MPI's fully-exposed communication makes its gap
temporarily larger); (2) regime onsets (fusion payoff, ODF crossovers)
arrive at smaller node counts than on Summit because the model lacks
Summit's noise floor.
"""

FOOTER = """\
---

**Summary: {n_pass}/{n_claims} machine-checked shape claims pass.**

Reproduction inventory (DESIGN.md has the full mapping):

| paper element | reproduction |
|---|---|
| Summit hardware | `repro.hardware` discrete-event model (specs in `hardware/specs.py`) |
| Charm++ runtime + HAPI + Channel/GPU-Messaging APIs | `repro.runtime` |
| UCX protocol stack | `repro.comm` |
| IBM Spectrum MPI baseline | `repro.mpi` |
| Jacobi3D (4 versions, fusion A/B/C, CUDA Graphs, legacy baseline) | `repro.apps.jacobi3d` |
| Nsight-style profiling | `repro.sim.tracing` (+ Perfetto export) |
| future work / motivations: AMPI, fault tolerance (load balancing is not modeled) | `repro.ampi`, `runtime/checkpoint.py` |
"""


if __name__ == "__main__":
    raise SystemExit(main())
