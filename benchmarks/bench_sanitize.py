"""Sanitizer overhead: bare vs. sanitized wall-clock for the same run.

Not a paper figure: the sanitizer is host-side bookkeeping subscribed to
the engine's observer bus, and this pins its cost so a clock-join or ledger change
that regresses from O(accesses) shows up in ``results/bench_meta.json``
next to the figure timings.  The run doubles as a self-host check — the
sanitized case must come back clean, and (pure-observer contract) both
runs must report the identical simulated elapsed time.
"""

import time
from datetime import datetime, timezone

from conftest import BENCH_META_PATH, RESULTS_DIR

from repro.apps import get_app, run_app
from repro.obs import append_bench_history
from repro.sanitize import Sanitizer

ROUNDS = 3


def _config():
    spec = get_app("jacobi3d")
    return spec.config_cls(version="charm-d", nodes=2, odf=4,
                           grid=(96, 96, 96), iterations=10, warmup=2)


def _best_of(fn, rounds=ROUNDS):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_sanitize_overhead(benchmark):
    bare_s, bare = _best_of(lambda: run_app(_config()))

    sanitizers = []

    def sanitized():
        san = Sanitizer()
        sanitizers.append(san)
        return run_app(_config(), sanitize=san)

    san_s, audited = benchmark.pedantic(
        lambda: _best_of(sanitized), rounds=1, iterations=1)
    san = sanitizers[-1]

    assert san.ok, san.report()
    assert san.ops_checked > 0 and san.accesses_checked > 0
    # Pure observer: identical simulated schedule with and without.
    assert audited.total_time == bare.total_time
    assert audited.time_per_iteration == bare.time_per_iteration

    overhead_pct = 100.0 * (san_s - bare_s) / bare_s
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    append_bench_history(
        BENCH_META_PATH,
        "sanitize",
        {
            "bare_s": round(bare_s, 6),
            "sanitized_s": round(san_s, 6),
            "overhead_pct": round(overhead_pct, 2),
            "ops_checked": san.ops_checked,
            "accesses_checked": san.accesses_checked,
            "findings": len(san.findings),
        },
        now=datetime.now(timezone.utc),
    )
    print(f"\n[sanitize] bare {bare_s:.3f}s -> sanitized {san_s:.3f}s "
          f"(+{overhead_pct:.1f}%), {san.ops_checked} ops / "
          f"{san.accesses_checked} accesses checked")
