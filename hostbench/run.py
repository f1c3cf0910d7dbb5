"""Host-time benchmark of the ``repro`` simulator: one workload per run.

    python3 hostbench/run.py --workload jacobi3d-charm-d --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one client in one process and one thread.  Each
repetition calls ``repro.apps.run_app`` directly (no result cache, no worker
pool) once the previous one has returned, until ``--seconds`` have passed and
at least ``MIN_REPETITIONS`` have run.  Every repetition's simulated outputs
are checked against the pins in ``workloads.py``; a mismatch or an exception
is a failed operation.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median host seconds
per repetition), ``setup_s`` (median over ``SETUP_SAMPLES`` fresh processes of
the time from before ``import repro`` until the first repetition can start)
and ``peak_rss_mb`` (the process's peak resident memory).

``--trace 1`` runs the same untraced loop, then one more repetition under
cProfile, and reports the per-layer metrics: self time per layer (see
``layers.py``), exact counts of named calls and of the result's traffic, and
``trace.overhead`` (traced wall ÷ untraced median ``wall_s``).

The last line of standard output is the JSON result; the line before it holds
the run's context (seed use, host versions, a calibration-loop time and the
raw samples).  The program under test is ``src/repro`` of the checkout that
holds this script; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MIN_REPETITIONS = 3
SETUP_SAMPLES = 5

#: Exact call counts read from the traced run, by named function.
COUNTED_CALLS = {
    # Each Event construction passes through exactly one of these two
    # constructors (Timeout flattens the base one); subclasses call super().
    "sim.event_allocs": ["repro.sim.engine:Event.__init__", "repro.sim.engine:Timeout.__init__"],
    "sim.joins": ["repro.sim.engine:_ConditionBase.__init__"],  # AllOf and AnyOf
    "sim.processes": ["repro.sim.engine:Process.__init__"],
    # Called once per entry-message dispatch (_dispatch itself is a generator).
    "runtime.dispatches": ["repro.runtime.scheduler:Scheduler._entry_info"],
    "runtime.mailbox_pops": ["repro.runtime.chare:Chare._mailbox_pop"],
    "hardware.gpu_ops": ["repro.hardware.gpu:GpuOp.__init__"],
}

PROTOCOLS = ("eager", "rndv_host", "rndv_gpudirect", "rndv_pipelined", "device_ipc")


class _EngineProbe:
    """A do-nothing observatory for ``run_app``: it keeps the run's engine (to
    read ``Engine.events_executed``) and attaches no tracer or metrics."""

    engine = None

    def begin(self, engine, cluster) -> None:
        self.engine = engine


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: host context, not a metric."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def host_context() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s": calibration_s(),
    }


def measure_setup(workload: str, seed: int) -> list:
    """Set-up seconds from ``SETUP_SAMPLES`` fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"),
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def repetition(prepared, profile=None):
    """One checked ``run_app`` call: ``(host seconds, result, engine)``, or
    ``None`` when it raised or its outputs differ from the pins."""
    import workloads
    from repro.apps import run_app

    context_out = []
    probe = _EngineProbe()
    # Collect the previous repetition's cyclic garbage outside the timed
    # region: one run never pays for another's, and when the collector would
    # otherwise reach it varies from repetition to repetition.
    gc.collect()
    start = time.perf_counter()
    if profile is not None:
        profile.enable()
    try:
        result = run_app(prepared.config, context_out=context_out, observatory=probe,
                         **prepared.workload.run_kwargs)
    except Exception:
        traceback.print_exc()
        return None
    finally:
        if profile is not None:
            profile.disable()
    seconds = time.perf_counter() - start
    problems = workloads.check(prepared, result, context_out[0])
    if problems:
        print(f"check failed: {'; '.join(problems)}", file=sys.stderr)
        return None
    return seconds, result, probe.engine


def layer_metrics(stats, result, engine, traced_s, wall_s) -> dict:
    import workloads

    metrics = {}
    by_layer = layers.self_time_by_layer(stats, layers.LayerMap.for_process())
    for layer, seconds in by_layer.items():
        metrics[f"{layer}.self_s"] = (seconds, "s")
    metrics["trace.self_s"] = (sum(by_layer.values()), "s")
    metrics["trace.overhead"] = (traced_s / wall_s, "ratio")
    for name, n in layers.call_counts(stats, COUNTED_CALLS).items():
        metrics[name] = (n, "count")
    events = engine.events_executed
    metrics["sim.events"] = (events, "count")
    metrics["sim.us_per_event"] = (wall_s / events * 1e6, "us")
    pop_key = layers.function_key(COUNTED_CALLS["runtime.mailbox_pops"][0])
    if pop_key is not None:
        _cc, calls, self_s, _cum, _callers = stats.get(pop_key, (0, 0, 0.0, 0.0, {}))
        metrics["runtime.us_per_mailbox_pop"] = (self_s / calls * 1e6 if calls else 0.0, "us")
    metrics["comm.messages"] = (result.messages_sent, "count")
    metrics["comm.bytes"] = (result.bytes_sent, "bytes")
    protocols = workloads.protocol_counts(result)
    for name in PROTOCOLS:
        metrics[f"comm.protocol.{name}"] = (protocols.get(name, 0), "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    context = {"workload": args.workload, "seed": args.seed,
               "seed_consumed": workloads.WORKLOADS[args.workload].seeded,
               "host": host_context()}
    if not args.trace:
        context["setup_s_samples"] = setup_samples = measure_setup(args.workload, args.seed)
    prepared = workloads.prepare(args.workload, args.seed)

    attempted = failed = 0
    walls = []
    loop_start = time.perf_counter()
    while attempted < MIN_REPETITIONS or time.perf_counter() - loop_start < args.seconds:
        attempted += 1
        outcome = repetition(prepared)
        if outcome is None:
            failed += 1
            continue
        walls.append(outcome[0])
        del outcome  # the next repetition must not run beside this one's simulation
    context["wall_s_samples"] = walls
    wall_s = statistics.median(walls) if walls else float("nan")

    if args.trace:
        attempted += 1
        profile = cProfile.Profile()
        outcome = repetition(prepared, profile)
        metrics = {}
        if outcome is None:
            failed += 1
        else:
            traced_s, result, engine = outcome
            profile.create_stats()
            metrics = layer_metrics(profile.stats, result, engine, traced_s, wall_s)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"wall_s": (wall_s, "s"),
                   "setup_s": (statistics.median(setup_samples), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}

    print(json.dumps(context))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
