import cProfile
import heapq
from pathlib import Path

import numpy as np
import pytest

import layers
from repro.sim import Engine
from repro.sim.engine import Event

ROOT = Path("/opt/py")
LAYER_MAP = layers.LayerMap(repro_dir=ROOT / "src/repro",
                            numpy_dir=ROOT / "site-packages/numpy",
                            stdlib_dir=ROOT / "lib/python3")


def entry(self_s):
    return (1, 1, self_s, self_s, {})


def test_synthetic_profile_is_bucketed_by_package():
    stats = {
        (str(ROOT / "src/repro/sim/engine.py"), 10, "run"): entry(4.0),
        (str(ROOT / "src/repro/runtime/scheduler.py"), 5, "_drive"): entry(2.0),
        (str(ROOT / "src/repro/exec/cache.py"), 5, "get"): entry(0.25),
        (str(ROOT / "src/repro/cli.py"), 5, "main"): entry(0.125),
        (str(ROOT / "site-packages/numpy/linalg/_linalg.py"), 1, "cholesky"): entry(1.0),
        ("~", 0, "<method 'reduce' of 'numpy.ufunc' objects>"): entry(0.5),
        ("~", 0, "<built-in method _heapq.heappush>"): entry(0.75),
        (str(ROOT / "lib/python3/dataclasses.py"), 1, "replace"): entry(0.5),
        (str(ROOT / "lib/python3/site-packages/other/mod.py"), 1, "f"): entry(0.0625),
        ("<frozen importlib._bootstrap>", 1, "_load"): entry(0.25),
        ("<string>", 2, "__init__"): entry(0.375),
    }
    totals = layers.self_time_by_layer(stats, LAYER_MAP)
    assert list(totals) == list(layers.LAYERS)
    assert totals["sim"] == 4.0
    assert totals["runtime"] == 2.0
    assert totals["numpy"] == 1.5
    assert totals["python"] == 1.5
    assert totals["other"] == 0.25 + 0.125 + 0.0625 + 0.375
    assert totals["sanitize"] == 0.0
    assert sum(totals.values()) == sum(e[2] for e in stats.values())


def workload():
    engine = Engine()
    for delay in range(50):
        engine.timeout(delay)
    engine.run()
    heapq.heapify(list(range(100, 0, -1)))
    return float(np.linalg.norm(np.arange(1000.0)))


def profiled(fn):
    profile = cProfile.Profile()
    profile.enable()
    fn()
    profile.disable()
    profile.create_stats()
    return profile.stats


def test_layer_totals_sum_to_profile_total():
    stats = profiled(workload)
    totals = layers.self_time_by_layer(stats, layers.LayerMap.for_process())
    assert sum(totals.values()) == pytest.approx(sum(e[2] for e in stats.values()), rel=1e-12)
    assert totals["sim"] > 0
    assert totals["numpy"] > 0
    assert totals["python"] > 0


def test_call_counts_are_exact():
    def make_events():
        engine = Engine()
        for _ in range(7):
            Event(engine)
        for delay in range(3):
            engine.timeout(delay)

    counts = layers.call_counts(profiled(make_events), {
        "events": ["repro.sim.engine:Event.__init__"],
        "allocs": ["repro.sim.engine:Event.__init__", "repro.sim.engine:Timeout.__init__"],
        "uncalled": ["repro.sim.engine:Process.__init__"],
    })
    assert counts == {"events": 7, "allocs": 10, "uncalled": 0}


@pytest.mark.parametrize("name", [
    "repro.sim.engine:Event.__renamed__",     # method renamed
    "repro.sim.engine:Gone.__init__",         # class renamed
    "repro.sim.nowhere:Event.__init__",       # module renamed
    "repro.sim.engine:AllOf.__init__",        # inherited, not defined on AllOf
])
def test_unresolvable_function_drops_its_metric(name):
    counts = layers.call_counts(profiled(workload), {
        "missing": [name],
        "partly_missing": ["repro.sim.engine:Event.__init__", name],
        "present": ["repro.sim.engine:Timeout.__init__"],
    })
    assert counts == {"present": 50}
