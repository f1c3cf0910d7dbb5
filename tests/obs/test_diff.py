"""Differential perf analysis: exact blame decomposition, schema guards
(including the pre-app report-shape regression), and sidecar-sweep diffs."""

import json

import pytest

from repro.apps import Jacobi3DConfig
from repro.exec import perf_sidecar_reports
from repro.hardware import MachineSpec
from repro.obs.diff import (
    DIFF_SCHEMA,
    SchemaMismatch,
    diff_reports,
    diff_sidecar_dirs,
    ensure_diffable,
)
from repro.obs.report import collect_perf
from repro.obs.whatif import Intervention, apply_to_machine


def _config(machine=None):
    return Jacobi3DConfig(version="charm-d", nodes=2, grid=(64, 64, 64),
                          odf=2, iterations=3, warmup=1,
                          machine=machine or MachineSpec.small_debug())


@pytest.fixture(scope="module")
def pair():
    """Baseline report + the same config on a 2x-slower wire."""
    from repro.apps import spec_for

    base_cfg = _config()
    slow = apply_to_machine(Intervention("net", 2.0), spec_for(base_cfg),
                            base_cfg.machine)
    _, baseline = collect_perf(base_cfg)
    _, current = collect_perf(_config(machine=slow))
    return baseline, current


# ---------------------------------------------------------------------------
# The differential
# ---------------------------------------------------------------------------


def test_blame_is_an_exact_decomposition(pair):
    baseline, current = pair
    diff = diff_reports(baseline, current)
    assert diff.baseline_makespan == pytest.approx(baseline.makespan)
    assert diff.current_makespan == pytest.approx(current.makespan)
    # The critical path tiles [0, makespan], so per-category deltas sum to
    # the makespan delta exactly — blame is arithmetic, not heuristic.
    total = sum(e.delta for e in diff.critpath)
    assert total == pytest.approx(diff.makespan_delta, abs=1e-9)


def test_accepts_reports_and_dicts(pair):
    baseline, current = pair
    a = diff_reports(baseline, current)
    b = diff_reports(baseline.to_dict(), current.to_dict())
    assert a.makespan_delta == pytest.approx(b.makespan_delta)


def test_blame_line_names_the_biggest_mover(pair):
    baseline, current = pair
    diff = diff_reports(baseline, current)
    top = max(diff.critpath, key=lambda e: abs(e.delta))
    assert top.name in diff.blame()
    # Identical reports: nothing to blame.
    null = diff_reports(baseline, baseline)
    assert null.blame() == "no single critical-path category moved"
    assert null.makespan_delta == 0.0


def test_to_dict_schema_is_pinned(pair):
    baseline, current = pair
    doc = diff_reports(baseline, current).to_dict()
    assert doc["schema"] == DIFF_SCHEMA == "repro.perf-diff/1"
    assert set(doc) == {"schema", "baseline_makespan", "current_makespan",
                        "makespan_delta", "blame", "critical_path",
                        "phases", "resources"}
    for row in doc["critical_path"]:
        assert set(row) == {"name", "baseline", "current", "delta"}


def test_render_text_sections(pair):
    baseline, current = pair
    text = diff_reports(baseline, current).render_text()
    assert "perf diff: makespan" in text
    assert "blame:" in text
    assert "exact decomposition" in text
    assert "phase footprint" in text


# ---------------------------------------------------------------------------
# Schema guards — exit-2 material for the CLI
# ---------------------------------------------------------------------------


def test_bench_meta_documents_are_rejected(pair):
    """Any JSON object that is not a perf report (here a wall-clock
    history) has no critical path to diff."""
    baseline, _ = pair
    not_a_report = {"engine": {"latest": {"wall_s": 0.25}, "history": []}}
    with pytest.raises(SchemaMismatch, match="not diffable"):
        diff_reports(not_a_report, baseline)


def test_pre_app_report_shape_is_rejected(pair):
    """Regression guard: reports written before the app registry existed
    carry no ``config.app`` — their phase vocabulary is not comparable."""
    import copy

    baseline, current = pair
    # Deep copy: to_dict() shares the report's config dict, and this test
    # must not mutate the module-scoped fixture.
    old = copy.deepcopy(baseline.to_dict())
    old["config"].pop("app")
    with pytest.raises(SchemaMismatch, match="pre-app report shape"):
        diff_reports(old, current)
    with pytest.raises(SchemaMismatch, match="current"):
        diff_reports(baseline, old)


def test_missing_fields_are_rejected():
    with pytest.raises(SchemaMismatch, match="not a JSON object"):
        ensure_diffable([1, 2, 3])
    with pytest.raises(SchemaMismatch, match="missing 'makespan'"):
        ensure_diffable({"schema": "repro.perf/1"})
    with pytest.raises(SchemaMismatch, match="critical_path"):
        ensure_diffable({"schema": "repro.perf/1", "makespan": 1.0})


# ---------------------------------------------------------------------------
# Sidecar sweep directories
# ---------------------------------------------------------------------------


def test_diff_sidecar_dirs(tmp_path, pair):
    baseline, current = pair
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    (a / "k1.perf.json").write_text(json.dumps(baseline.to_dict()))
    (b / "k1.perf.json").write_text(json.dumps(current.to_dict()))
    # k2: present in both but not diffable on one side -> None.
    (a / "k2.perf.json").write_text(json.dumps(baseline.to_dict()))
    (b / "k2.perf.json").write_text(json.dumps({"schema": "other"}))
    # k3: present on one side only -> absent from the result.
    (a / "k3.perf.json").write_text(json.dumps(baseline.to_dict()))
    # Corrupt sidecars are skipped, not fatal.
    (b / "k4.perf.json").write_text("{not json")

    diffs = diff_sidecar_dirs(a, b)
    assert set(diffs) == {"k1", "k2"}
    assert diffs["k2"] is None
    assert diffs["k1"].makespan_delta == pytest.approx(
        current.makespan - baseline.makespan)

    reports = perf_sidecar_reports(a)
    assert set(reports) == {"k1", "k2", "k3"}
