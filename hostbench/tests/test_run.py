import json
import shutil
import subprocess
import sys
from pathlib import Path

import layers

BENCH_DIR = Path(__file__).resolve().parent.parent


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "cholesky-mpi", "--seed", "3",
         "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_traced_run_reports_every_layer_metric():
    done = bench(BENCH_DIR.parent, "--trace", "1")
    assert done.returncode == 0, done.stderr
    context, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    assert context["seed"] == 3 and context["seed_consumed"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert abs(layer_sum - metrics["trace.self_s"]) < 1e-9
    assert metrics["sanitize.self_s"] == 0.0 and metrics["runtime.mailbox_pops"] == 0
    assert metrics["comm.protocol.rndv_host"] == metrics["comm.messages"] == 3724


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, "--trace", "0")
    assert done.returncode == 2
    assert done.stdout == ""
