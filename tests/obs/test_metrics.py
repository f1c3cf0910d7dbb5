"""Metrics registry: labelled series, cardinality cap, attachment contract."""

import pytest

from repro.obs.metrics import _OVERFLOW_KEY, MetricsRegistry, size_bucket
from repro.sim import Engine


# ---------------------------------------------------------------------------
# Counters / gauges / histograms
# ---------------------------------------------------------------------------


def test_counter_accumulates_per_label_set():
    reg = MetricsRegistry()
    reg.inc("msgs", pe=0)
    reg.inc("msgs", pe=0)
    reg.inc("msgs", 3, pe=1)
    counter = reg.get("msgs")
    assert counter.value(pe=0) == 2
    assert counter.value(pe=1) == 3
    assert counter.total() == 5


def test_counter_label_order_is_irrelevant():
    reg = MetricsRegistry()
    reg.inc("x", pe=0, kind="a")
    reg.inc("x", kind="a", pe=0)
    assert reg.get("x").value(pe=0, kind="a") == 2


def test_counter_rejects_negative_increment():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.inc("x", -1.0)


def test_gauge_tracks_value_and_max():
    reg = MetricsRegistry()
    reg.set("depth", 3, pe=0)
    reg.set("depth", 7, pe=0)
    reg.set("depth", 2, pe=0)
    gauge = reg.get("depth")
    assert gauge.value(pe=0) == 2
    assert gauge.max(pe=0) == 7
    assert gauge.value(pe=9) == 0.0  # unseen label set


def test_histogram_buckets_by_upper_edge():
    reg = MetricsRegistry()
    hist = reg.histogram("lat", buckets=[1.0, 10.0])
    hist.observe(0.5)
    hist.observe(5.0)
    hist.observe(100.0)
    cell = hist.series[()]
    assert cell["buckets"] == [1, 1, 1]  # <=1, <=10, +inf
    assert cell["count"] == 3
    assert cell["sum"] == pytest.approx(105.5)


def test_histogram_rejects_unsorted_edges():
    with pytest.raises(ValueError):
        MetricsRegistry().histogram("bad", buckets=[10.0, 1.0])


def test_size_bucket_edges():
    assert size_bucket(0) == "64"
    assert size_bucket(64) == "64"
    assert size_bucket(65) == "256"
    assert size_bucket(4**15) == str(4**15)
    assert size_bucket(4**15 + 1) == "+inf"


def test_redeclare_with_different_kind_raises():
    reg = MetricsRegistry()
    reg.counter("m")
    with pytest.raises(TypeError):
        reg.gauge("m")
    with pytest.raises(TypeError):
        reg.histogram("m")


# ---------------------------------------------------------------------------
# Label-cardinality cap (satellite: an unbounded label must not grow memory
# without bound)
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cardinality_cap_folds_into_overflow_series():
    reg = MetricsRegistry(max_series=4)
    for i in range(10):
        reg.inc("leaky", msg_id=i)  # a per-message id: the classic bug
    counter = reg.get("leaky")
    assert len(counter.series) == 5  # 4 real series + 1 overflow cell
    assert counter.dropped_series == 6
    assert counter.series[_OVERFLOW_KEY] == 6  # every folded sample counted
    assert counter.total() == 10  # nothing lost, only label detail


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cardinality_cap_existing_series_keep_updating():
    reg = MetricsRegistry(max_series=2)
    reg.inc("c", pe=0)
    reg.inc("c", pe=1)
    reg.inc("c", pe=2)  # overflows
    reg.inc("c", pe=0)  # existing series still addressable past the cap
    counter = reg.get("c")
    assert counter.value(pe=0) == 2
    assert counter.dropped_series == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_snapshot_reports_overflow():
    reg = MetricsRegistry(max_series=1)
    reg.inc("c", pe=0)
    reg.inc("c", pe=1)
    snap = reg.snapshot()["c"]
    assert snap["dropped_series"] == 1
    assert any(s["labels"] == {"_overflow": "true"} for s in snap["series"])


# ---------------------------------------------------------------------------
# Attachment (mirrors the Tracer contract)
# ---------------------------------------------------------------------------


def test_attach_is_idempotent_and_migrates_engines():
    reg = MetricsRegistry()
    eng1, eng2 = Engine(), Engine()
    assert reg.attach(eng1) is reg
    reg.attach(eng1)  # same engine: no-op
    assert eng1.probe is reg
    reg.attach(eng2)  # new engine: old reference cleared
    assert eng1.probe is None
    assert eng2.probe is reg


def test_detach_clears_engine_reference():
    reg = MetricsRegistry()
    eng = Engine()
    reg.attach(eng)
    reg.detach()
    assert eng.probe is None
    reg.detach()  # no-op when unattached


def test_context_manager_detaches_on_exit():
    eng = Engine()
    with MetricsRegistry().attach(eng) as reg:
        assert eng.probe is reg
    assert eng.probe is None


# ---------------------------------------------------------------------------
# Engine counters (derived from the engine at attach)
# ---------------------------------------------------------------------------


def test_engine_counts_events_only_when_registry_attached():
    def proc(eng):
        yield eng.timeout(1.0)

    eng = Engine()
    eng.process(proc(eng))
    eng.run()
    assert eng.probe is None  # zero-cost default: no registry, no counting

    eng2 = Engine()
    reg = MetricsRegistry().attach(eng2)
    eng2.process(proc(eng2))
    eng2.run()
    assert reg.get("sim.events.scheduled").total() > 0
    assert (reg.get("sim.events.executed").total()
            == reg.get("sim.events.scheduled").total())


# ---------------------------------------------------------------------------
# Queries and rendering
# ---------------------------------------------------------------------------


def test_scalar_totals_counters_only():
    reg = MetricsRegistry()
    reg.inc("a", 2, pe=0)
    reg.inc("a", 3, pe=1)
    reg.set("g", 9)
    reg.observe("h", 1.0)
    assert reg.scalar_totals() == {"a": 5}


def test_render_text_mentions_every_metric():
    reg = MetricsRegistry()
    reg.inc("counter.x", pe=0)
    reg.set("gauge.y", 4)
    reg.observe("hist.z", 2.0)
    text = reg.render_text()
    for name in ("counter.x", "gauge.y", "hist.z"):
        assert name in text
    assert "max 4" in text

def test_names_and_contains():
    reg = MetricsRegistry()
    reg.inc("b")
    reg.inc("a")
    assert reg.names() == ["a", "b"]
    assert "a" in reg and "zzz" not in reg


def test_overflow_warns_once_per_metric():
    reg = MetricsRegistry(max_series=2)
    reg.inc("leaky", k=0)
    reg.inc("leaky", k=1)
    with pytest.warns(RuntimeWarning, match="leaky.*folding"):
        reg.inc("leaky", k=2)  # first fold warns
    import warnings as _warnings
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")  # a second warning would raise
        reg.inc("leaky", k=3)
        reg.inc("leaky", k=4)
    # A different metric gets its own single warning.
    reg.inc("other", k=0)
    reg.inc("other", k=1)
    with pytest.warns(RuntimeWarning, match="other"):
        reg.inc("other", k=2)


def test_overflow_total_surfaces_in_summaries():
    from repro.obs.metrics import OVERFLOW_METRIC

    reg = MetricsRegistry(max_series=1)
    reg.inc("clean")
    # No folding yet: the synthetic counter stays out of the way.
    assert OVERFLOW_METRIC not in reg.scalar_totals()
    assert OVERFLOW_METRIC not in reg.snapshot()
    with pytest.warns(RuntimeWarning):
        reg.inc("leaky", k=0)
        reg.inc("leaky", k=1)
        reg.inc("leaky", k=2)
    assert reg.overflow_total() == 2
    assert reg.scalar_totals()[OVERFLOW_METRIC] == 2.0
    snap = reg.snapshot()[OVERFLOW_METRIC]
    assert snap["kind"] == "counter"
    assert snap["series"] == [{"labels": {"metric": "leaky"}, "value": 2}]
