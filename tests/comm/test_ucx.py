"""Unit tests for the UCX-like transfer engine."""

import pytest

from repro.comm import Protocol, UcxContext
from repro.hardware import Cluster, KiB, MachineSpec, MiB
from repro.sim import Engine, ProcessCrashed


def make_ctx(n_nodes=2, spec=None):
    eng = Engine()
    cluster = Cluster(eng, spec or MachineSpec.summit(), n_nodes)
    return eng, cluster, UcxContext(cluster)


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def test_send_then_recv_matches():
    eng, cluster, ucx = make_ctx()
    s = ucx.isend(0, 6, 100, tag="a")
    r = ucx.irecv(0, 6, 100, tag="a")
    eng.run()
    assert s.done.processed and r.done.processed
    assert ucx.pending_counts() == (0, 0)


def test_recv_then_send_matches():
    eng, cluster, ucx = make_ctx()
    r = ucx.irecv(0, 6, 100, tag="a")
    s = ucx.isend(0, 6, 100, tag="a")
    eng.run()
    assert s.done.processed and r.done.processed


def test_tag_mismatch_does_not_match():
    eng, cluster, ucx = make_ctx()
    s = ucx.isend(0, 6, 100, tag="x")
    r = ucx.irecv(0, 6, 100, tag="y")
    eng.run()
    assert not r.done.triggered
    assert ucx.pending_counts() == (1, 1)


def test_fifo_matching_same_key():
    eng, cluster, ucx = make_ctx()
    s1 = ucx.isend(0, 6, 100, tag="t")
    s2 = ucx.isend(0, 6, 200, tag="t")
    r1 = ucx.irecv(0, 6, 100, tag="t")
    r2 = ucx.irecv(0, 6, 200, tag="t")
    eng.run()
    assert r1.peer is s1 and r2.peer is s2


def test_matching_leaves_no_empty_queues():
    eng, cluster, ucx = make_ctx()
    for i in range(4):  # both posting orders, each on its own tag
        if i % 2:
            ucx.irecv(0, 6, 100, tag=i)
            ucx.isend(0, 6, 100, tag=i)
        else:
            ucx.isend(0, 6, 100, tag=i)
            ucx.irecv(0, 6, 100, tag=i)
    eng.run()
    assert ucx._pending_sends == {} and ucx._pending_recvs == {}


def test_peer_links_are_strong_forward_and_weak_back():
    """Only the send side gets a ``matched`` event; the send holds its
    receive, while the receive's link back does not keep the send alive."""
    import gc

    eng, cluster, ucx = make_ctx()
    r = ucx.irecv(0, 6, 100, tag="t")
    s = ucx.isend(0, 6, 100, tag="t")
    assert r.matched is None and s.matched.triggered
    assert s.peer is r and r.peer is s
    eng.run()
    assert s.matched.value is r
    gc.disable()
    try:
        del s  # the finished send driver released it too
        assert r.peer is None
    finally:
        gc.enable()


def test_rendezvous_send_blocks_until_recv_posted():
    eng, cluster, ucx = make_ctx()
    s = ucx.isend(0, 6, 100 * KiB, tag="t")  # host rendezvous
    eng.run()
    assert not s.done.triggered  # no matching recv yet
    r = ucx.irecv(0, 6, 100 * KiB, tag="t")
    eng.run()
    assert s.done.processed and r.done.processed


# ---------------------------------------------------------------------------
# Eager
# ---------------------------------------------------------------------------


def test_eager_sender_completes_before_delivery():
    eng, cluster, ucx = make_ctx()
    s = ucx.isend(0, 6, 4 * KiB, tag="e")
    send_t = {}
    s.done.add_callback(lambda e: send_t.setdefault("t", eng.now))
    eng.run()  # no recv posted at all
    assert s.done.processed
    assert send_t["t"] <= 2e-6  # local buffering only
    r = ucx.irecv(0, 6, 4 * KiB, tag="e")
    eng.run()
    assert r.done.processed  # unexpected message drained on late recv


def test_eager_device_uses_copy_engines():
    eng, cluster, ucx = make_ctx()
    s = ucx.isend(0, 6, 4 * KiB, tag="e", on_device=True)
    r = ucx.irecv(0, 6, 4 * KiB, tag="e", on_device=True)
    eng.run()
    assert s.done.processed and r.done.processed
    from repro.hardware.gpu import COPY_D2H, COPY_H2D

    assert cluster.gpu(0).busy_seconds(COPY_D2H) > 0
    assert cluster.gpu(6).busy_seconds(COPY_H2D) > 0


# ---------------------------------------------------------------------------
# GPUDirect
# ---------------------------------------------------------------------------


def test_gpudirect_no_copy_engine_usage():
    eng, cluster, ucx = make_ctx()
    s = ucx.isend(0, 6, 96 * KiB, tag="g", on_device=True)
    r = ucx.irecv(0, 6, 96 * KiB, tag="g", on_device=True)
    eng.run()
    assert s.protocol is Protocol.RNDV_GPUDIRECT
    assert s.done.processed and r.done.processed
    from repro.hardware.gpu import COPY_D2H, COPY_H2D

    assert cluster.gpu(0).busy_seconds(COPY_D2H) == 0.0
    assert cluster.gpu(6).busy_seconds(COPY_H2D) == 0.0


def test_gpudirect_faster_than_host_staged_equivalent():
    """A 96 KiB device transfer must beat D2H + host send + H2D."""
    eng, cluster, ucx = make_ctx()
    ucx.isend(0, 6, 96 * KiB, tag="g", on_device=True)
    r = ucx.irecv(0, 6, 96 * KiB, tag="g", on_device=True)
    eng.run()
    gpu_aware_time = eng.now

    link = cluster.spec.node.host_link
    staged_floor = 2 * (link.latency + 96 * KiB / link.bandwidth)  # copies alone
    assert gpu_aware_time < staged_floor + cluster.network.uncontended_time(0, 6, 96 * KiB)


# ---------------------------------------------------------------------------
# Pipelined host staging
# ---------------------------------------------------------------------------


def test_large_device_message_pipelines():
    eng, cluster, ucx = make_ctx()
    s = ucx.isend(0, 6, 9 * MiB, tag="p", on_device=True)
    r = ucx.irecv(0, 6, 9 * MiB, tag="p", on_device=True)
    eng.run()
    assert s.protocol is Protocol.RNDV_PIPELINED
    assert s.done.processed and r.done.processed
    from repro.hardware.gpu import COPY_D2H, COPY_H2D

    # Staging copies happened on both ends.
    assert cluster.gpu(0).busy_seconds(COPY_D2H) > 0
    assert cluster.gpu(6).busy_seconds(COPY_H2D) > 0


def test_pipelined_send_crash_names_it_and_leaves_the_pipeline():
    """An exception in a chunk step ends the run naming ``ucx.send``, and
    the source device no longer counts the send as an active pipeline."""
    eng, cluster, ucx = make_ctx()

    def broken(src_state, same_node):
        raise RuntimeError("bad chunk")

    ucx._pipeline_efficiency = broken
    ucx.isend(0, 6, 9 * MiB, tag="p", on_device=True)
    ucx.irecv(0, 6, 9 * MiB, tag="p", on_device=True)
    with pytest.raises(ProcessCrashed, match="'ucx.send' crashed.*bad chunk"):
        eng.run()
    assert ucx._device_state(0).active_pipelines == 0


def test_pipelined_slower_than_host_rendezvous_same_bytes():
    """The Fig. 7a mechanism: a 9 MB *device* transfer via the pipelined
    protocol is slower than the same bytes as a *host* rendezvous."""
    size = 9 * MiB

    eng1, _, ucx1 = make_ctx()
    ucx1.isend(0, 6, size, tag="d", on_device=True)
    ucx1.irecv(0, 6, size, tag="d", on_device=True)
    eng1.run()
    device_time = eng1.now

    eng2, _, ucx2 = make_ctx()
    ucx2.isend(0, 6, size, tag="h", on_device=False)
    ucx2.irecv(0, 6, size, tag="h", on_device=False)
    eng2.run()
    host_time = eng2.now

    assert device_time > 1.2 * host_time


def test_pipelined_effective_bandwidth_in_plausible_range():
    size = 16 * MiB
    eng, cluster, ucx = make_ctx()
    ucx.isend(0, 6, size, tag="p", on_device=True)
    r = ucx.irecv(0, 6, size, tag="p", on_device=True)
    eng.run()
    eff_bw = size / eng.now
    wire_bw = cluster.spec.node.nic.injection_bandwidth
    assert 0.3 * wire_bw < eff_bw < 0.85 * wire_bw


def test_protocol_counters():
    eng, cluster, ucx = make_ctx()
    ucx.isend(0, 6, 1 * KiB, tag=1)
    ucx.irecv(0, 6, 1 * KiB, tag=1)
    ucx.isend(0, 6, 64 * KiB, tag=2, on_device=True)
    ucx.irecv(0, 6, 64 * KiB, tag=2, on_device=True)
    ucx.isend(0, 6, 2 * MiB, tag=3, on_device=True)
    ucx.irecv(0, 6, 2 * MiB, tag=3, on_device=True)
    eng.run()
    assert ucx.protocol_counts[Protocol.EAGER] == 1
    assert ucx.protocol_counts[Protocol.RNDV_GPUDIRECT] == 1
    assert ucx.protocol_counts[Protocol.RNDV_PIPELINED] == 1


def test_negative_size_rejected():
    eng, cluster, ucx = make_ctx()
    with pytest.raises(ValueError):
        ucx.isend(0, 6, -5)


def test_concurrent_pipelined_messages_share_port_and_staging():
    """Within a message the chunk pipeline is serial (gaps on the wire);
    a second concurrent message fills those gaps until the shared injection
    port saturates, after which added messages cost full wire time."""
    size = 4 * MiB
    eng1, c1, ucx1 = make_ctx()
    ucx1.isend(0, 6, size, tag=1, on_device=True)
    ucx1.irecv(0, 6, size, tag=1, on_device=True)
    eng1.run()
    one = eng1.now

    eng2, c2, ucx2 = make_ctx()
    for t in (1, 2):
        ucx2.isend(0, 6, size, tag=t, on_device=True)
        ucx2.irecv(0, 6, size, tag=t, on_device=True)
    eng2.run()
    two = eng2.now

    spec = c2.spec
    wire_floor = 2 * size / (spec.node.nic.injection_bandwidth * spec.ucx.pipeline_wire_efficiency)
    assert two > one  # contention is visible
    assert two >= wire_floor  # the shared port bounds aggregate throughput
    assert two < 2 * one  # but cross-message overlap does help
