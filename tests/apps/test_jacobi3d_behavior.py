"""Modeled-mode behavioral tests: protocols, overlap, overheads, metrics."""

import pytest

from repro.apps import Jacobi3DConfig, run_app
from repro.comm import Protocol
from repro.hardware import MachineSpec


def run(**kw):
    kw.setdefault("nodes", 2)
    kw.setdefault("iterations", 6)
    kw.setdefault("warmup", 1)
    return run_app(Jacobi3DConfig(**kw))


# ---------------------------------------------------------------------------
# Protocol selection driven by problem size (the Fig. 7a/7b mechanism)
# ---------------------------------------------------------------------------


def test_large_problem_gpu_aware_uses_pipelined_staging():
    res = run(version="charm-d", grid=(1536, 1536, 3072), odf=1)
    assert res.max_halo_bytes > 1024 * 1024
    assert res.protocol_counts.get(Protocol.RNDV_PIPELINED, 0) > 0
    assert res.protocol_counts.get(Protocol.RNDV_GPUDIRECT, 0) == 0


def test_small_problem_gpu_aware_uses_gpudirect():
    res = run(version="mpi-d", grid=(192, 192, 384), odf=1)
    assert res.max_halo_bytes <= 96 * 1024
    assert res.protocol_counts.get(Protocol.RNDV_GPUDIRECT, 0) > 0
    assert res.protocol_counts.get(Protocol.RNDV_PIPELINED, 0) == 0


def test_host_versions_never_touch_device_protocols():
    res = run(version="charm-h", grid=(192, 192, 384), odf=2)
    assert res.protocol_counts.get(Protocol.RNDV_PIPELINED, 0) == 0
    assert res.protocol_counts.get(Protocol.RNDV_GPUDIRECT, 0) == 0
    res = run(version="mpi-h", grid=(192, 192, 384))
    assert res.protocol_counts.get(Protocol.RNDV_HOST, 0) > 0


# ---------------------------------------------------------------------------
# Overlap (the paper's central mechanism)
# ---------------------------------------------------------------------------


def test_overdecomposition_increases_overlap():
    base = run(version="charm-h", grid=(768, 768, 1536), odf=1)
    over = run(version="charm-h", grid=(768, 768, 1536), odf=4)
    assert over.overlap_s > base.overlap_s


def test_charm_overlaps_more_than_blocking_mpi():
    mpi = run(version="mpi-h", grid=(768, 768, 1536))
    charm = run(version="charm-h", grid=(768, 768, 1536), odf=4)
    # Normalize by runtime: fraction of network busy time hidden by compute.
    assert charm.overlap_s / charm.total_time > mpi.overlap_s / mpi.total_time


def test_overdecomposition_improves_large_problem_charm():
    odf1 = run(version="charm-h", grid=(1536, 1536, 3072), odf=1)
    odf4 = run(version="charm-h", grid=(1536, 1536, 3072), odf=4)
    assert odf4.time_per_iteration < odf1.time_per_iteration


def test_overdecomposition_hurts_small_problem():
    odf1 = run(version="charm-d", grid=(192, 192, 384), odf=1)
    odf4 = run(version="charm-d", grid=(192, 192, 384), odf=4)
    assert odf4.time_per_iteration > odf1.time_per_iteration


# ---------------------------------------------------------------------------
# Optimizations (Fig. 6) and fine-grained techniques (Figs. 8-9)
# ---------------------------------------------------------------------------


def test_legacy_baseline_never_faster():
    new = run(version="charm-h", grid=(1536, 1536, 3072), odf=4)
    old = run(version="charm-h", grid=(1536, 1536, 3072), odf=4, legacy_sync=True)
    assert old.time_per_iteration >= new.time_per_iteration * 0.999


def test_fusion_c_beats_baseline_when_launch_bound():
    # Small blocks + ODF 8: kernel launches dominate.
    base = run(version="charm-d", nodes=4, grid=(384, 384, 384), odf=8,
               iterations=4)
    fused = run(version="charm-d", nodes=4, grid=(384, 384, 384), odf=8,
                fusion="C", iterations=4)
    assert fused.time_per_iteration < base.time_per_iteration


def test_cuda_graphs_help_when_launch_bound():
    base = run(version="charm-d", nodes=4, grid=(384, 384, 384), odf=8,
               iterations=4)
    graphs = run(version="charm-d", nodes=4, grid=(384, 384, 384), odf=8,
                 cuda_graphs=True, iterations=4)
    assert graphs.time_per_iteration < base.time_per_iteration


def test_mpi_manual_overlap_helps_or_neutral():
    plain = run(version="mpi-h", grid=(768, 768, 1536))
    overlap = run(version="mpi-h", grid=(768, 768, 1536), mpi_overlap=True)
    assert overlap.time_per_iteration <= plain.time_per_iteration * 1.02


# ---------------------------------------------------------------------------
# Metrics plumbing
# ---------------------------------------------------------------------------


def test_result_fields_sane():
    res = run(version="charm-d", grid=(384, 384, 768), odf=2)
    assert res.total_time > res.warmup_boundary > 0
    assert res.time_per_iteration > 0
    assert 0 < res.gpu_utilization <= 1
    assert res.messages_sent > 0 and res.bytes_sent > 0
    assert res.pe_busy_s > 0
    assert res.blocks is None  # modeled mode


def test_deterministic_repeat():
    a = run(version="charm-d", grid=(384, 384, 768), odf=2)
    b = run(version="charm-d", grid=(384, 384, 768), odf=2)
    assert a.time_per_iteration == b.time_per_iteration
    assert a.total_time == b.total_time
    assert a.messages_sent == b.messages_sent


def test_gpu_memory_accounting_guards_against_oversubscription():
    # 4000^3 on a single node would need ~85 GB per GPU: must raise OOM.
    with pytest.raises(MemoryError):
        run(version="charm-h", nodes=1, grid=(4000, 4000, 4000), odf=1)


def test_summary_mentions_key_facts():
    res = run(version="charm-d", grid=(384, 384, 768), odf=2)
    text = res.summary()
    assert "charm-d" in text and "odf=2" in text and "ms/iter" in text
