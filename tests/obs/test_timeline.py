"""Timeline analysis: phase classification, resource usage, iteration windows."""

import pytest

from repro.apps import ALL_VERSIONS, AllreduceConfig, CholeskyConfig, Jacobi3DConfig, run_app
from repro.apps.stencil import classify_stencil_op
from repro.obs.timeline import (
    compute_comm_overlap,
    iteration_boundaries,
    per_iteration_phases,
    phase_breakdown,
    phase_intervals,
    resource_usage,
)
from repro.sim import Engine, Tracer, merge_intervals, overlap_seconds


# ---------------------------------------------------------------------------
# classify_op
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("category,op,phase", [
    ("gpu.compute", "pack3", "pack"),
    ("gpu.compute", "pack0a", "pack"),
    ("gpu.compute", "unpack1", "unpack"),
    ("gpu.compute", "update", "update"),
    ("gpu.compute", "interior", "update"),
    ("gpu.compute", "exterior", "update"),
    ("gpu.compute", "fusedC", "update"),
    ("gpu.compute", "graph.pack2", "pack"),  # CUDA-graph prefix stripped
    ("gpu.compute", "graph.update", "update"),
    ("gpu.compute", "mystery", "other"),
    ("gpu.copy_d2h", "d2h0", "d2h"),
    ("gpu.copy_h2d", "h2d0", "h2d"),
    ("gpu.copy_d2d", "ucx.ipc_d2d", "nic"),  # same-device IPC is transport
    ("net.send", "", "nic"),
    ("sched.message", "x", "other"),
])
def test_classify_op(category, op, phase):
    assert classify_stencil_op(category, op) == phase


# ---------------------------------------------------------------------------
# phase_intervals / phase_breakdown on a synthetic trace
# ---------------------------------------------------------------------------


def _synthetic_tracer():
    eng = Engine()
    tracer = Tracer().attach(eng)
    tracer.emit("gpu.compute", "n0.g0", op="pack0", start=0.0, duration=1.0)
    tracer.emit("gpu.copy_d2h", "n0.g0", op="d2h0", start=1.0, duration=2.0)
    tracer.emit("gpu.copy_h2d", "n0.g0", op="h2d0", start=5.0, duration=1.0)
    tracer.emit("gpu.compute", "n0.g0", op="update", start=6.0, duration=2.0)
    tracer.emit("gpu.compute", "n0.g0", op="nodur")  # no duration: skipped

    def deliver():
        yield eng.timeout(5.0)
        tracer.emit("net.deliver", "pe1", src=0, size=4, latency=2.0)

    eng.process(deliver())
    eng.run()
    return tracer


def test_phase_intervals_reconstructs_net_window_from_latency():
    intervals = phase_intervals(_synthetic_tracer())
    assert intervals["pack"] == [(0.0, 1.0)]
    assert intervals["d2h"] == [(1.0, 3.0)]
    assert intervals["nic"] == [(3.0, 5.0)]  # deliver@5 with latency 2
    assert intervals["h2d"] == [(5.0, 6.0)]
    assert intervals["update"] == [(6.0, 8.0)]
    assert intervals["other"] == []


def test_phase_breakdown_clips_to_window():
    tracer = _synthetic_tracer()
    full = phase_breakdown(tracer)
    assert full["d2h"] == pytest.approx(2.0)
    assert sum(full.values()) == pytest.approx(8.0)
    clipped = phase_breakdown(tracer, t0=2.0, t1=6.0)
    assert clipped["pack"] == 0.0
    assert clipped["d2h"] == pytest.approx(1.0)   # (2,3] of (1,3)
    assert clipped["h2d"] == pytest.approx(1.0)
    assert clipped["update"] == 0.0


def test_phase_breakdown_is_footprint_not_sum():
    # Two concurrent same-phase copies count once per unit of wall-clock.
    eng = Engine()
    tracer = Tracer().attach(eng)
    tracer.emit("gpu.copy_d2h", "n0.g0", op="d2h0", start=0.0, duration=2.0)
    tracer.emit("gpu.copy_d2h", "n0.g1", op="d2h1", start=1.0, duration=2.0)
    assert phase_breakdown(tracer, 0.0, 3.0)["d2h"] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# Iteration windows from app.iter_done markers
# ---------------------------------------------------------------------------


def test_iteration_boundaries_take_latest_unit_per_iteration():
    eng = Engine()
    tracer = Tracer().attach(eng)

    def mark():
        yield eng.timeout(1.0)
        tracer.emit("app.iter_done", "(0,)", iter=0)
        yield eng.timeout(0.5)
        tracer.emit("app.iter_done", "(1,)", iter=0)  # straggler defines it
        yield eng.timeout(1.0)
        tracer.emit("app.iter_done", "(1,)", iter=1)
        tracer.emit("app.iter_done", "(0,)", iter=1)

    eng.process(mark())
    eng.run()
    assert iteration_boundaries(tracer) == [1.5, 2.5]


@pytest.mark.parametrize("version", ALL_VERSIONS)
@pytest.mark.parametrize("make_config", [
    lambda v: Jacobi3DConfig(version=v, nodes=1, grid=(48, 48, 48), iterations=2),
    lambda v: CholeskyConfig(version=v, nodes=1, tiles=3, tile=16),
    lambda v: AllreduceConfig(version=v, nodes=1, elements=1 << 10, chunks=2,
                              iterations=2),
], ids=["jacobi3d", "cholesky", "allreduce"])
def test_every_unit_reports_every_iteration_once(make_config, version):
    """Each unit's iteration reports reach the probe bus exactly once per
    iteration, in iteration order, on every frontend."""
    config = make_config(version)
    if not config.is_mpi:
        config = config.with_(odf=2)
    tracer = Tracer(categories=["app."])
    run_app(config, tracer=tracer)
    per_unit = {}
    for rec in tracer.select(category="app.iter_done"):
        per_unit.setdefault(rec.actor, []).append(rec.data["iter"])
    assert len(per_unit) == config.n_blocks()
    assert all(its == list(range(config.total_iterations)) for its in per_unit.values())


def test_per_iteration_phases_empty_without_markers():
    assert per_iteration_phases(_synthetic_tracer()) == []


def test_per_iteration_phases_windows_partition_the_run():
    config = Jacobi3DConfig(version="charm-d", nodes=1, grid=(96, 96, 96),
                            odf=2, iterations=4, warmup=1)
    tracer = Tracer()
    run_app(config, tracer=tracer)
    entries = per_iteration_phases(tracer)
    assert len(entries) == config.total_iterations
    assert entries[0]["t0"] == 0.0
    for prev, cur in zip(entries, entries[1:]):
        assert cur["t0"] == prev["t1"]  # contiguous windows
        assert cur["t1"] > cur["t0"]
    # A charm-d run stages halos through the copy engines every iteration.
    assert all(e["phases"]["update"] > 0 for e in entries)


# ---------------------------------------------------------------------------
# resource_usage / compute_comm_overlap on a real run
# ---------------------------------------------------------------------------


def test_resource_usage_covers_every_resource():
    from repro.obs.report import Observatory
    config = Jacobi3DConfig(version="charm-d", nodes=2, grid=(96, 96, 96),
                            odf=2, iterations=4, warmup=1)
    obs = Observatory()
    run_app(config, observatory=obs)
    usage = resource_usage(obs.cluster)
    kinds = {u.kind for u in usage}
    assert {"pe", "net", "gpu.compute", "gpu.copy_d2h", "gpu.copy_h2d"} <= kinds
    for u in usage:
        assert 0.0 <= u.utilization <= 1.0
        assert u.idle_s == pytest.approx(u.window_s - u.busy_s)
    pes = [u for u in usage if u.kind == "pe"]
    assert len(pes) == obs.cluster.n_gpus  # one PE per GPU in this machine
    assert any(u.busy_s > 0 for u in pes)


def test_compute_comm_overlap_matches_manual_computation():
    config = Jacobi3DConfig(version="charm-d", nodes=2, grid=(96, 96, 96),
                            odf=2, iterations=4, warmup=1)
    from repro.hardware import COMPUTE
    from repro.obs.report import Observatory
    obs = Observatory()
    result = run_app(config, observatory=obs)
    cluster = obs.cluster
    spans = []
    for node in cluster.nodes:
        for gpu in node.gpus:
            spans.extend(gpu.trackers[COMPUTE].spans)
    manual = overlap_seconds(merge_intervals(spans), cluster.network.inflight.spans)
    assert compute_comm_overlap(cluster) == manual
    assert result.overlap_s == manual  # driver uses the shared implementation
