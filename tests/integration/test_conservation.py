"""Property-based conservation and determinism tests across the stack."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import UcxContext
from repro.hardware import Cluster, MachineSpec, Message
from repro.sim import Engine


def make_cluster(n_nodes=2):
    eng = Engine()
    return eng, Cluster(eng, MachineSpec.small_debug(), n_nodes)


@settings(max_examples=30, deadline=None)
@given(
    msgs=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 2_000_000)),
        min_size=1,
        max_size=25,
    )
)
def test_property_network_delivers_every_message_exactly_once(msgs):
    eng, cluster = make_cluster()
    net = cluster.network
    events = []
    sent_bytes = 0
    for src, dst, size in msgs:
        events.append(net.transfer(Message(src, dst, size)))
        sent_bytes += size
    eng.run()
    assert all(ev.processed for ev in events)
    assert net.messages_sent == len(msgs)
    assert net.bytes_sent == sent_bytes
    # No port is left held.
    for r in net.inject + net.eject + net.intra:
        assert r.in_use == 0 and not r._waiters


@settings(max_examples=30, deadline=None)
@given(
    msgs=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 500_000)),
        min_size=1,
        max_size=15,
    )
)
def test_property_delivery_never_beats_the_wire(msgs):
    eng, cluster = make_cluster()
    net = cluster.network
    records = []
    for src, dst, size in msgs:
        m = Message(src, dst, size)
        net.transfer(m)
        records.append((m, eng.now, size))
    eng.run()
    for m, t0, size in records:
        assert m.delivered_at >= t0 + net.uncontended_time(m.src_pe, m.dst_pe, size) - 1e-15


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(0, 3),  # src pe
            st.integers(0, 3),  # dst pe
            st.sampled_from([512, 64 * 1024, 3 * 1024 * 1024]),  # size/protocol
            st.booleans(),  # device buffers
            st.booleans(),  # recv posted first
        ),
        min_size=1,
        max_size=12,
    )
)
def test_property_ucx_matched_pairs_always_complete(ops):
    eng, cluster = make_cluster()
    ucx = UcxContext(cluster)
    handles = []
    for i, (src, dst, size, device, recv_first) in enumerate(ops):
        def post_send():
            return ucx.isend(src, dst, size, tag=("t", i), on_device=device)

        def post_recv():
            return ucx.irecv(src, dst, size, tag=("t", i), on_device=device)

        first, second = (post_recv, post_send) if recv_first else (post_send, post_recv)
        handles.append(first())
        handles.append(second())
    eng.run()
    assert all(h.done.processed for h in handles)
    assert ucx.pending_counts() == (0, 0)


@settings(max_examples=10, deadline=None)
@given(
    msgs=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 1_000_000)),
        min_size=1,
        max_size=10,
    )
)
def test_property_simulation_is_deterministic(msgs):
    def run():
        eng, cluster = make_cluster()
        for src, dst, size in msgs:
            cluster.network.transfer(Message(src, dst, size))
        eng.run()
        return eng.now, cluster.network.bytes_sent

    assert run() == run()
