"""Perf reports and the regression gate: collection, serialization and
comparison semantics."""

import json
import warnings

import pytest

from repro.apps import AllreduceConfig, Jacobi3DConfig, run_app
from repro.obs.report import Observatory, PerfReport, collect_perf, compare_perf

CONFIG = Jacobi3DConfig(version="charm-d", nodes=2, grid=(96, 96, 96),
                        odf=4, iterations=6, warmup=2)


@pytest.fixture(scope="module")
def perf():
    return collect_perf(CONFIG)


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------


def test_report_answers_the_papers_questions(perf):
    result, report = perf
    assert report.makespan == result.total_time
    assert report.time_per_iteration == result.time_per_iteration
    assert report.overlap_s == result.overlap_s
    # Per-resource utilization, per-iteration phases, critical path: all there.
    assert any(r["kind"] == "gpu.compute" and r["busy_s"] > 0 for r in report.resources)
    assert len(report.iterations) == CONFIG.total_iterations
    assert report.critical_path["length_s"] == pytest.approx(report.makespan, rel=0.01)
    assert report.counters["ucx.messages"] > 0
    assert report.counters["sim.events.executed"] > 0


@pytest.mark.parametrize("version", ["charm-d", "mpi-h", "ampi-d"])
def test_counters_equal_the_model_tallies(version):
    # The report reads its counters from the model; none is a second tally.
    cfg = Jacobi3DConfig(version=version, nodes=2, grid=(48, 48, 48),
                         iterations=3, warmup=1)
    obs = Observatory()
    result = run_app(cfg, observatory=obs)
    counters = obs.report(result).counters
    assert counters == {
        "net.bytes": result.bytes_sent,
        "net.messages": result.messages_sent,
        "sim.events.executed": obs.engine.events_executed,
        "sim.events.scheduled": obs.engine.events_executed,  # heap drained
        "ucx.messages": sum(result.protocol_counts.values()),
    }
    assert counters["net.messages"] > 0 and counters["ucx.messages"] > 0


def test_report_at_1032_pes_emits_no_warning():
    # Paper scale: the counters are per run, not per PE, so nothing
    # overflows however many PEs the machine has.
    cfg = AllreduceConfig(version="charm-d", nodes=172, algorithm="tree",
                          elements=1032, iterations=1, warmup=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _result, report = collect_perf(cfg)
    assert sum(r["kind"] == "pe" for r in report.resources) == 1032


def test_observatory_run_matches_plain_run(perf):
    # Observability must be a pure observer: results are bit-identical.
    result, _report = perf
    plain = run_app(CONFIG)
    assert plain.total_time == result.total_time
    assert plain.time_per_iteration == result.time_per_iteration
    assert plain.overlap_s == result.overlap_s
    assert plain.messages_sent == result.messages_sent


def test_observatory_report_before_run_raises():
    with pytest.raises(RuntimeError):
        Observatory().report(None)


def test_driver_rejects_tracer_plus_observatory():
    from repro.sim import Tracer
    with pytest.raises(ValueError):
        run_app(CONFIG, tracer=Tracer(), observatory=Observatory())


def test_overlap_odf4_exceeds_odf1():
    # Acceptance: overdecomposition buys overlap on the same config.
    base = CONFIG.to_dict()
    base["odf"] = 1
    r1 = run_app(Jacobi3DConfig.from_dict(base))
    r4 = run_app(CONFIG)
    assert r4.overlap_s > r1.overlap_s


def test_chrome_trace_export(perf):
    obs = Observatory()
    run_app(CONFIG, observatory=obs)
    events = obs.chrome_trace()
    assert events and json.loads(json.dumps(events))


# ---------------------------------------------------------------------------
# Serialization and rendering
# ---------------------------------------------------------------------------


def test_report_json_round_trip(tmp_path, perf):
    _result, report = perf
    path = report.save(tmp_path / "r.perf.json")
    loaded = PerfReport.load(path)
    assert loaded.to_dict() == report.to_dict()
    assert loaded.scalar_metrics() == report.scalar_metrics()


def test_render_text_sections(perf):
    _result, report = perf
    text = report.render_text()
    for needle in ("makespan", "resources", "phase footprint",
                   "per-iteration", "critical path", "counters"):
        assert needle in text


def test_render_html_is_standalone(perf):
    _result, report = perf
    html = report.render_html()
    assert html.startswith("<!doctype html>")
    assert "Critical path" in html and "Resources" in html


# ---------------------------------------------------------------------------
# The regression gate
# ---------------------------------------------------------------------------


def _doc(tpi=1.0, makespan=10.0):
    return {"time_per_iteration": tpi, "makespan": makespan}


def test_identical_inputs_pass():
    comparison = compare_perf(_doc(), _doc(), tolerance=0.05)
    assert comparison.ok
    assert comparison.unchanged == 2


def test_ten_percent_slowdown_fails_at_five_percent_tolerance():
    comparison = compare_perf(_doc(), _doc(tpi=1.10), tolerance=0.05)
    assert not comparison.ok
    (reg,) = comparison.regressions
    assert reg.metric == "time_per_iteration"
    assert reg.ratio == pytest.approx(1.10)
    assert "REGRESSION" in comparison.render_text()


def test_slowdown_within_tolerance_passes():
    assert compare_perf(_doc(), _doc(tpi=1.04), tolerance=0.05).ok


def test_improvement_is_reported_not_failed():
    comparison = compare_perf(_doc(), _doc(tpi=0.5), tolerance=0.05)
    assert comparison.ok
    assert len(comparison.improvements) == 1


def test_only_shared_metrics_compared():
    comparison = compare_perf({"time_per_iteration": 1.0},
                              _doc(tpi=1.0, makespan=99.0))
    assert comparison.ok
    assert comparison.unchanged == 1  # makespan absent from baseline: skipped


def test_metric_missing_from_current_fails_the_gate():
    # An empty file, a report short of one metric, and a non-report document.
    for current in ({}, {"time_per_iteration": 1.0},
                    {"engine": {"latest": {"wall_s": 0.25}}}):
        comparison = compare_perf(_doc(), current, tolerance=0.0)
        assert not comparison.ok
        assert comparison.regressions == []
        assert "makespan" in comparison.missing
        assert "MISSING    makespan" in comparison.render_text()
        assert comparison.to_dict()["missing"] == comparison.missing


def test_negative_tolerance_rejected():
    with pytest.raises(ValueError):
        compare_perf(_doc(), _doc(), tolerance=-0.1)


def test_gate_on_real_report_is_deterministic(perf):
    _result, report = perf
    again = collect_perf(CONFIG)[1]
    comparison = compare_perf(report.to_dict(), again.to_dict(), tolerance=0.0)
    assert comparison.ok  # simulated metrics: bit-identical across runs

