"""Edge cases for trace export and overlap accounting: empty traces,
adjacent-but-not-overlapping intervals, and the Chrome-trace schema."""

import json

from repro.sim import Engine, Tracer, overlap_seconds, to_chrome_trace
from repro.sim.tracing import merge_intervals


# ---------------------------------------------------------------------------
# overlap_seconds
# ---------------------------------------------------------------------------


def test_overlap_empty_sets():
    assert overlap_seconds([], []) == 0.0
    assert overlap_seconds([(0.0, 1.0)], []) == 0.0
    assert overlap_seconds([], [(0.0, 1.0)]) == 0.0


def test_overlap_adjacent_intervals_is_zero():
    # Touching endpoints share no open time: strictly zero, not epsilon.
    assert overlap_seconds([(0.0, 1.0)], [(1.0, 2.0)]) == 0.0
    assert overlap_seconds([(1.0, 2.0)], [(0.0, 1.0)]) == 0.0


def test_overlap_partial_and_nested():
    assert overlap_seconds([(0.0, 2.0)], [(1.0, 3.0)]) == 1.0
    assert overlap_seconds([(0.0, 10.0)], [(2.0, 3.0), (5.0, 6.0)]) == 2.0


def test_overlap_ignores_degenerate_spans():
    # Zero-width spans contribute nothing on either side.
    assert overlap_seconds([(1.0, 1.0)], [(0.0, 2.0)]) == 0.0


def test_merge_intervals_adjacent_join():
    assert merge_intervals([(0.0, 1.0), (1.0, 2.0)]) == [(0.0, 2.0)]
    assert merge_intervals([]) == []


# ---------------------------------------------------------------------------
# to_chrome_trace
# ---------------------------------------------------------------------------


def test_chrome_trace_empty():
    tracer = Tracer().attach(Engine())
    assert to_chrome_trace(tracer) == []


def test_chrome_trace_complete_event_schema():
    eng = Engine()
    tracer = Tracer().attach(eng)

    def proc():
        yield eng.timeout(2e-6)
        tracer.emit("gpu.compute", "node0.gpu1", op="update", duration=3e-6)

    eng.process(proc())
    eng.run()
    (ev,) = to_chrome_trace(tracer)
    assert ev["ph"] == "X"
    assert ev["name"] == "update"
    assert ev["cat"] == "gpu.compute"
    assert ev["pid"] == "node0"          # pid groups by component prefix
    assert ev["tid"] == "node0.gpu1"
    assert ev["ts"] == 2e-6 * 1e6        # microseconds, as the format requires
    assert ev["dur"] == 3e-6 * 1e6
    assert "s" not in ev                 # instant-only field


def test_chrome_trace_instant_event_schema():
    tracer = Tracer().attach(Engine())
    tracer.emit("sched.message", "pe3", kind="exec")
    (ev,) = to_chrome_trace(tracer)
    assert ev["ph"] == "i"
    assert ev["s"] == "t"
    assert "dur" not in ev
    assert ev["pid"] == "pe3"            # no dot: actor is its own group


def test_chrome_trace_args_keep_scalars_only():
    tracer = Tracer().attach(Engine())
    tracer.emit("net.send", "pe0", size=4096, dst=1, tag=(0, "x"), note="hi")
    (ev,) = to_chrome_trace(tracer)
    assert ev["args"] == {"size": 4096, "dst": 1, "note": "hi"}  # tuple dropped


# ---------------------------------------------------------------------------
# Tracer attachment lifecycle (idempotent attach, detach, context manager)
# ---------------------------------------------------------------------------


def test_attach_same_engine_is_idempotent():
    eng = Engine()
    tracer = Tracer().attach(eng)
    assert tracer.attach(eng) is tracer
    assert eng.probe is tracer
    tracer.emit("x", "a")
    assert len(tracer.records) == 1  # no double-recording after re-attach


def test_reattach_to_new_engine_clears_old_reference():
    eng1, eng2 = Engine(), Engine()
    tracer = Tracer().attach(eng1)
    tracer.attach(eng2)
    assert eng1.probe is None
    assert eng2.probe is tracer


def test_detach_clears_engine_and_is_safe_to_repeat():
    eng = Engine()
    tracer = Tracer().attach(eng)
    tracer.detach()
    assert eng.probe is None
    tracer.detach()  # no-op when unattached


def test_detach_leaves_foreign_tracer_alone():
    # Someone else attached after us: detach must not evict them.
    eng = Engine()
    first = Tracer().attach(eng)
    second = Tracer().attach(eng)
    first.detach()
    assert eng.probe is second


def test_context_manager_detaches_on_exit():
    eng = Engine()
    with Tracer().attach(eng) as tracer:
        tracer.emit("cat", "actor")
    assert eng.probe is None
    assert len(tracer.records) == 1  # records survive detachment


def test_category_prefix_filtering():
    eng = Engine()
    tracer = Tracer(categories=["gpu.", "net.send"]).attach(eng)
    tracer.emit("gpu.compute", "g0", op="k")
    tracer.emit("gpu.copy_d2h", "g0", op="c")
    tracer.emit("net.send", "pe0")
    tracer.emit("net.deliver", "pe1")   # not under any prefix
    tracer.emit("sched.message", "pe0")
    assert [r.category for r in tracer.records] == [
        "gpu.compute", "gpu.copy_d2h", "net.send"]


def test_chrome_trace_is_json_serializable():
    eng = Engine()
    tracer = Tracer().attach(eng)
    tracer.emit("gpu.compute", "node0.gpu0", op="k", duration=1e-6)
    tracer.emit("sched.message", "pe0")
    text = json.dumps(to_chrome_trace(tracer))
    assert json.loads(text)[0]["ph"] == "X"
