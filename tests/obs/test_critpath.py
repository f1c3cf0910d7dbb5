"""Critical-path backward walk: tiling invariant, wait attribution, and the
acceptance check that the reported path length equals the simulated makespan."""

import pytest

from repro.apps import Jacobi3DConfig, run_app
from repro.obs.critpath import collect_segments, critical_path
from repro.obs.report import Observatory


def _assert_tiles(path):
    """The path must partition [t_start, t_end] exactly, in time order."""
    assert path.segments[0].start == path.t_start
    assert path.segments[-1].end == path.t_end
    for prev, cur in zip(path.segments, path.segments[1:]):
        assert cur.start == prev.end
    assert sum(s.duration for s in path.segments) == pytest.approx(path.length_s)


# ---------------------------------------------------------------------------
# Synthetic interval sets
# ---------------------------------------------------------------------------


def test_single_chain():
    path = critical_path([(0.0, 2.0, "pe"), (2.0, 5.0, "nic")], t_end=5.0)
    _assert_tiles(path)
    assert path.composition() == {"nic": 3.0, "pe": 2.0}
    assert path.wait_s == 0.0


def test_gap_becomes_wait():
    path = critical_path([(0.0, 1.0, "pe"), (3.0, 5.0, "nic")], t_end=5.0)
    _assert_tiles(path)
    assert path.composition()["wait"] == pytest.approx(2.0)
    waits = [s for s in path.segments if s.category == "wait"]
    assert [(s.start, s.end) for s in waits] == [(1.0, 3.0)]


def test_leading_gap_is_wait_to_t_start():
    path = critical_path([(2.0, 4.0, "pe")], t_start=0.0, t_end=4.0)
    _assert_tiles(path)
    assert path.segments[0].category == "wait"
    assert (path.segments[0].start, path.segments[0].end) == (0.0, 2.0)


def test_earliest_start_wins_among_concurrent_activities():
    # At t=6 both are active; pe began earlier, so the whole step lands on pe.
    path = critical_path([(0.0, 6.0, "pe"), (4.0, 6.0, "nic")], t_end=6.0)
    assert [s.category for s in path.segments] == ["pe"]


def test_overlapping_same_category_intervals_merge():
    # pe's two spans merge to (0,5); nic alone reaches t=6, so the walk
    # attributes (4.5,6) to nic (its whole gating interval) and hands the
    # rest back to pe.
    path = critical_path(
        [(0.0, 3.0, "pe"), (2.0, 5.0, "pe"), (4.5, 6.0, "nic")], t_end=6.0)
    _assert_tiles(path)
    assert path.composition() == {"pe": 4.5, "nic": 1.5}


def test_zero_length_intervals_are_ignored():
    path = critical_path([(1.0, 1.0, "pe"), (0.0, 2.0, "nic")], t_end=2.0)
    assert [s.category for s in path.segments] == ["nic"]


def test_empty_segments_gives_pure_wait():
    path = critical_path([], t_start=0.0, t_end=3.0)
    assert path.composition() == {"wait": 3.0}
    _assert_tiles(path)


def test_empty_window():
    path = critical_path([(0.0, 1.0, "pe")], t_start=1.0, t_end=1.0)
    assert path.segments == []
    assert path.length_s == 0.0


def test_t_end_defaults_to_latest_interval_end():
    path = critical_path([(0.0, 2.0, "pe"), (1.0, 4.0, "nic")])
    assert path.t_end == 4.0


def test_to_dict_and_render():
    path = critical_path([(0.0, 2.0, "pe"), (3.0, 4.0, "nic")], t_end=4.0)
    d = path.to_dict(max_segments=2)
    assert d["length_s"] == 4.0
    assert d["n_segments"] == 3
    assert len(d["longest_segments"]) == 2
    assert d["longest_segments"][0]["duration"] >= d["longest_segments"][1]["duration"]
    text = path.render_text()
    assert "critical path" in text and "wait" in text


# ---------------------------------------------------------------------------
# Acceptance: on a fig-6-style config the path length equals the makespan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("version,legacy", [("charm-h", True), ("charm-d", False)])
def test_critical_path_length_equals_makespan(version, legacy):
    config = Jacobi3DConfig(version=version, nodes=2, grid=(96, 96, 96),
                            odf=4, iterations=6, warmup=2, legacy_sync=legacy)
    obs = Observatory()
    run_app(config, observatory=obs)
    makespan = obs.engine.now
    path = critical_path(collect_segments(obs.cluster, obs.tracer),
                         t_start=0.0, t_end=makespan)
    assert path.length_s == pytest.approx(makespan, rel=0.01)
    _assert_tiles(path)
    comp = path.composition()
    assert sum(comp.values()) == pytest.approx(makespan, rel=1e-9)
    assert any(cat != "wait" for cat in comp)  # real work on the path


def test_collect_segments_uses_trace_phases_when_available():
    config = Jacobi3DConfig(version="charm-d", nodes=1, grid=(96, 96, 96),
                            odf=2, iterations=4, warmup=1)
    obs = Observatory()
    run_app(config, observatory=obs)
    cats = {cat for _, _, cat in collect_segments(obs.cluster, obs.tracer)}
    assert "pe" in cats and "nic" in cats
    # GPU work is phase-classified, not engine-named, when traced.
    assert {"pack", "unpack", "update"} <= cats
    assert not any(c.startswith("gpu.") for c in cats)


def test_collect_segments_falls_back_to_engine_trackers():
    config = Jacobi3DConfig(version="charm-d", nodes=1, grid=(96, 96, 96),
                            odf=2, iterations=4, warmup=1)
    obs = Observatory()
    run_app(config, observatory=obs)
    cats = {cat for _, _, cat in collect_segments(obs.cluster, tracer=None)}
    assert any(c.startswith("gpu.") for c in cats)
