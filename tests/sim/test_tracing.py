"""Unit tests for tracing, interval tracking, and overlap math."""

import pytest

from repro.sim import Engine, IntervalTracker, Tracer, merge_intervals, overlap_seconds


def test_tracer_records_time_and_payload():
    eng = Engine()
    tracer = Tracer().attach(eng)

    def proc():
        yield eng.timeout(2.0)
        tracer.emit("gpu.kernel", "gpu0", duration=1.5)

    eng.process(proc())
    eng.run()
    assert len(tracer.records) == 1
    rec = tracer.records[0]
    assert rec.time == 2.0 and rec.category == "gpu.kernel" and rec.actor == "gpu0"
    assert rec.data == {"duration": 1.5}


def test_tracer_category_filter():
    eng = Engine()
    tracer = Tracer(categories=["nic."]).attach(eng)
    tracer.emit("nic.send", "n0")
    tracer.emit("gpu.kernel", "g0")
    assert [r.category for r in tracer.records] == ["nic.send"]


def test_tracer_select():
    eng = Engine()
    tracer = Tracer().attach(eng)
    tracer.emit("nic.send", "n0", size=10)
    tracer.emit("nic.recv", "n1", size=10)
    tracer.emit("gpu.kernel", "g0")
    assert len(tracer.select(category="nic.")) == 2
    assert len(tracer.select(actor="n1")) == 1
    assert len(tracer.select(predicate=lambda r: r.data.get("size") == 10)) == 2


def test_tracer_disable():
    eng = Engine()
    tracer = Tracer().attach(eng)
    tracer.enabled = False
    tracer.emit("a", "b")
    assert tracer.records == []


def test_interval_tracker_busy_and_utilization():
    eng = Engine()
    tracker = IntervalTracker(eng, "gpu0")

    def proc():
        t = tracker.begin()
        yield eng.timeout(2.0)
        tracker.end(t)
        yield eng.timeout(2.0)
        t = tracker.begin()
        yield eng.timeout(1.0)
        tracker.end(t)

    eng.process(proc())
    eng.run()
    assert tracker.busy_seconds() == 3.0
    assert tracker.utilization() == 3.0 / 5.0
    assert tracker.busy_union() == [(0.0, 2.0), (4.0, 5.0)]


def test_interval_tracker_overlapping_spans_union():
    eng = Engine()
    tracker = IntervalTracker(eng, "link")

    def a():
        t = tracker.begin()
        yield eng.timeout(3.0)
        tracker.end(t)

    def b():
        yield eng.timeout(1.0)
        t = tracker.begin()
        yield eng.timeout(4.0)
        tracker.end(t)

    eng.process(a())
    eng.process(b())
    eng.run()
    assert tracker.busy_union() == [(0.0, 5.0)]
    assert tracker.busy_seconds() == 5.0


def test_interval_tracker_reuses_closed_slots():
    eng = Engine()
    tracker = IntervalTracker(eng, "seq")

    def proc():
        for _ in range(50):
            t = tracker.begin()
            yield 1.0
            tracker.end(t)

    eng.process(proc())
    eng.run()
    assert len(tracker._open) == 1
    assert tracker.spans == [(float(i), float(i + 1)) for i in range(50)]
    with pytest.raises(ValueError, match="already closed"):
        tracker.end(0)


def test_interval_tracker_overlapping_spans_unchanged_by_slot_reuse():
    """Interleaved begin/end in every nesting pattern records the same
    spans, in the same order, as one fresh slot per span would."""
    eng = Engine()
    tracker = IntervalTracker(eng, "overlap")
    expected = []

    def span(start, length):
        yield float(start)
        t = tracker.begin()
        yield float(length)
        tracker.end(t)
        expected.append((float(start), float(start + length)))

    for start, length in ((0, 5), (1, 1), (1, 3), (2, 6), (3, 1), (6, 1), (7, 2)):
        eng.process(span(start, length))
    eng.run()
    assert tracker.spans == expected
    assert len(tracker._open) == 4  # most spans ever open at once
    assert all(start is None for start in tracker._open)


def test_interval_tracker_windowed_busy():
    eng = Engine()
    tracker = IntervalTracker(eng, "x")

    def proc():
        t = tracker.begin()
        yield eng.timeout(10.0)
        tracker.end(t)

    eng.process(proc())
    eng.run()
    assert tracker.busy_seconds(t0=2.0, t1=5.0) == 3.0
    assert tracker.utilization(t0=2.0, t1=5.0) == 1.0
    assert tracker.utilization(t0=5.0, t1=5.0) == 0.0


def test_merge_intervals():
    assert merge_intervals([]) == []
    assert merge_intervals([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]
    assert merge_intervals([(0, 2), (1, 3)]) == [(0, 3)]
    assert merge_intervals([(1, 3), (0, 2)]) == [(0, 3)]
    assert merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]
    assert merge_intervals([(0, 0), (1, 2)]) == [(1, 2)]  # empty span dropped


def test_overlap_seconds():
    a = [(0.0, 5.0)]
    b = [(3.0, 8.0)]
    assert overlap_seconds(a, b) == 2.0
    assert overlap_seconds(b, a) == 2.0
    assert overlap_seconds(a, []) == 0.0
    assert overlap_seconds([(0, 1), (4, 6)], [(0.5, 5.0)]) == 0.5 + 1.0


def test_chrome_trace_export():
    import json

    from repro.sim import to_chrome_trace

    eng = Engine()
    tracer = Tracer().attach(eng)
    tracer.emit("gpu.compute", "n0.gpu1", op="update", duration=2e-3)
    tracer.emit("net.send", "pe3", dst=5, size=1024)
    events = to_chrome_trace(tracer)
    assert len(events) == 2
    slice_ev, instant_ev = events
    assert slice_ev["ph"] == "X"
    assert slice_ev["dur"] == 2e-3 * 1e6
    assert slice_ev["name"] == "update"
    assert slice_ev["pid"] == "n0" and slice_ev["tid"] == "n0.gpu1"
    assert instant_ev["ph"] == "i"
    assert instant_ev["args"]["size"] == 1024
    json.dumps(events)  # must be serializable
