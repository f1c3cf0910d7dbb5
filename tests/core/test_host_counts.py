"""The exact host-work count gate (``scripts/host_counts.py``): its compare
rule on synthetic hostbench results, and the committed pins' shape."""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent

_spec = importlib.util.spec_from_file_location(
    "host_counts", REPO / "scripts" / "host_counts.py")
host_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(host_counts)

PINNED = {"ring": {"sim.events": 1000, "sim.joins": 20, "comm.bytes": 4096}}


def _result(failed=0, **counts):
    """One hostbench ``--trace 1`` result line: the given counts plus a
    timing metric the gate must ignore."""
    metrics = {"sim.self_s": {"value": 0.5, "unit": "s"}}
    for name, value in counts.items():
        unit = "bytes" if name == "comm_bytes" else "count"
        metrics[name.replace("_", ".", 1)] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": 4, "failed": failed,
            "metrics": metrics}


def test_unchanged_counts_pass():
    status, measured, lines = host_counts.compare(
        PINNED, {"ring": _result(sim_events=1000, sim_joins=20, comm_bytes=4096)})
    assert (status, lines) == (0, [])
    assert measured == PINNED


def test_a_rise_is_named_with_its_delta():
    status, measured, lines = host_counts.compare(
        PINNED, {"ring": _result(sim_events=1100, sim_joins=20, comm_bytes=4096)})
    assert status == 1
    assert lines == ["ring sim.events 1,000 → 1,100 (+100, +10.0%)"]
    assert measured["ring"]["sim.events"] == 1100


def test_a_fall_moves_too():
    status, _measured, lines = host_counts.compare(
        PINNED, {"ring": _result(sim_events=1000, sim_joins=0, comm_bytes=4096)})
    assert status == 1
    assert lines == ["ring sim.joins 20 → 0 (-20, -100.0%)"]


def test_a_metric_on_one_side_only_has_moved():
    # A renamed counted function: its old metric vanishes, a new one appears.
    status, _measured, lines = host_counts.compare(
        PINNED, {"ring": _result(sim_events=1000, sim_latches=20, comm_bytes=4096)})
    assert status == 1
    assert lines == ["ring sim.joins 20 → (missing)",
                     "ring sim.latches (missing) → 20"]


def test_a_workload_on_one_side_only_has_moved():
    status, _measured, lines = host_counts.compare(PINNED, {})
    assert status == 1 and len(lines) == 3
    assert all(line.endswith("→ (missing)") for line in lines)


def test_a_failed_operation_exits_two():
    for broken in (_result(failed=1, sim_events=1000), None):
        status, measured, lines = host_counts.compare(PINNED, {"ring": broken})
        assert (status, measured) == (2, {})
        assert lines == ["ring: hostbench run failed"]


def test_pins_cover_every_workload_and_count_metric():
    pins = json.loads((REPO / "results" / "host_counts.json").read_text())
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(pins) == {w["name"] for w in bench["workloads"]}
    counted = {m["name"] for m in bench["per_layer"]
               if m["unit"] in host_counts.COUNT_UNITS}
    for workload, counts in pins.items():
        assert set(counts) == counted, workload
        assert all(isinstance(n, int) and n >= 0 for n in counts.values())
