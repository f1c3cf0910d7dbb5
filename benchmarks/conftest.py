"""Shared benchmark plumbing.

Every benchmark regenerates one of the paper's figures through the
experiment execution layer (``repro.exec``): a declarative plan run by a
:class:`~repro.exec.ParallelRunner` backed by the content-addressed result
cache.  Each prints the paper-style table (plus an ASCII chart), saves the
raw series to ``results/<figure_id>.json``, asserts the figure's shape
claims, and prints the runner's point, cache-hit and wall-clock stats.
Host time is measured by ``hostbench/`` and its exact counts are pinned by
``scripts/host_counts.py``.

Environment knobs:

* ``REPRO_BENCH_FULL=1`` — paper-scale node ladders (minutes per figure;
  used to produce EXPERIMENTS.md).
* ``REPRO_BENCH_JOBS=N`` — process-pool fan-out per figure (default 1).
* ``REPRO_BENCH_NO_CACHE=1`` — disable result caching (cold wall-clock).
* ``REPRO_RESULTS_DIR`` / ``REPRO_CACHE_DIR`` — output locations (cache
  defaults to ``<results>/.cache``).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis import render_figure
from repro.core import FULL_NODES, QUICK_NODES, render_claims
from repro.exec import ParallelRunner, ResultCache

RESULTS_DIR = Path(
    os.environ.get("REPRO_RESULTS_DIR",
                   Path(__file__).resolve().parent.parent / "results")
)


def ladder(key: str):
    table = FULL_NODES if os.environ.get("REPRO_BENCH_FULL") else QUICK_NODES
    return table[key]


def make_runner() -> ParallelRunner:
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    cache = None
    if not os.environ.get("REPRO_BENCH_NO_CACHE"):
        cache_dir = os.environ.get("REPRO_CACHE_DIR", RESULTS_DIR / ".cache")
        cache = ResultCache(cache_dir)
    return ParallelRunner(jobs=jobs, cache=cache)


def report(fig, claims, extra_notes=(), runner=None):
    """Print, persist, and assert one reproduced figure."""
    for note in extra_notes:
        fig.note(note)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    fig.save_json(RESULTS_DIR / f"{fig.figure_id}.json")
    print()
    print(render_figure(fig))
    print(render_claims(claims))
    if runner is not None:
        print(f"[exec] {runner.stats.describe()}")
    failed = [c for c in claims if not c.ok]
    assert not failed, "shape claims failed:\n" + render_claims(failed)


@pytest.fixture
def runner():
    """One plan runner per benchmark (stats are per-``run``, and every
    benchmark makes exactly one figure call)."""
    return make_runner()


@pytest.fixture
def progress(capsys):
    """Per-point progress lines (visible with ``pytest -s``)."""

    def emit(line: str) -> None:
        print(f"    {line}")

    return emit
