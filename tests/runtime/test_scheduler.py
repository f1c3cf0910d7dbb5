"""Core runtime tests: entry methods, SDAG when, HAPI waits, overlap."""

import pytest

from repro.hardware import Cluster, KernelWork, MachineSpec
from repro.sim import Engine, SimulationError
from repro.sim.tracing import overlap_seconds
from repro.runtime import CharmRuntime, Chare, MsgPriority


def make_runtime(n_nodes=1, spec=None):
    eng = Engine()
    cluster = Cluster(eng, spec or MachineSpec.small_debug(), n_nodes)
    return eng, cluster, CharmRuntime(cluster)


# ---------------------------------------------------------------------------
# Basic lifecycle
# ---------------------------------------------------------------------------


class Hello(Chare):
    log = []

    def run(self, msg):
        yield self.work(1e-6)
        Hello.log.append((self.index, self.runtime.engine.now))


def test_broadcast_runs_every_element():
    eng, cluster, rt = make_runtime()
    Hello.log = []
    arr = rt.create_array(Hello, shape=(2, 2))
    arr.broadcast("run")
    rt.run()
    assert sorted(i for i, _t in Hello.log) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_entry_work_occupies_pe_serially():
    eng, cluster, rt = make_runtime()
    Hello.log = []
    arr = rt.create_array(Hello, shape=(4,), mapping={(i,): 0 for i in range(4)})
    arr.broadcast("run")
    rt.run()
    times = sorted(t for _i, t in Hello.log)
    # Four chares on one PE serialize; each needs >= 1 us of work.
    assert times[-1] >= 4e-6
    assert len(set(times)) == 4


class Echo(Chare):
    received = []

    def ping(self, msg):
        Echo.received.append((self.index, msg.payload, self.runtime.engine.now))


def test_plain_entry_method_invocation():
    eng, cluster, rt = make_runtime()
    Echo.received = []
    arr = rt.create_array(Echo, shape=(2,))
    arr.inject((1,), "ping", payload="hi")
    rt.run()
    assert Echo.received == [((1,), "hi", pytest.approx(eng.now, abs=1e-9))]


def test_run_returns_at_quiescence_without_frames():
    eng, cluster, rt = make_runtime()
    rt.create_array(Echo, shape=(2,))
    rt.run()  # nothing to do; must not raise
    assert rt._live_frames == 0


# ---------------------------------------------------------------------------
# SDAG when / mailbox semantics
# ---------------------------------------------------------------------------


class WhenChare(Chare):
    seen = []

    def run(self, msg):
        m = yield self.when("data", ref=1)
        WhenChare.seen.append(("ref1", m.payload))
        m = yield self.when("data", ref=2)
        WhenChare.seen.append(("ref2", m.payload))


def test_when_matches_reference_numbers_out_of_order():
    eng, cluster, rt = make_runtime()
    WhenChare.seen = []
    arr = rt.create_array(WhenChare, shape=(1,))
    arr.broadcast("run")
    # Deliver ref=2 first; the chare must still consume ref=1 first.
    arr.inject((0,), "data", ref=2, payload="second")
    arr.inject((0,), "data", ref=1, payload="first")
    rt.run()
    assert WhenChare.seen == [("ref1", "first"), ("ref2", "second")]


def test_when_buffers_early_messages():
    eng, cluster, rt = make_runtime()
    WhenChare.seen = []
    arr = rt.create_array(WhenChare, shape=(1,))
    arr.inject((0,), "data", ref=1, payload="early1")
    arr.inject((0,), "data", ref=2, payload="early2")
    arr.broadcast("run")  # run starts after both deposits
    rt.run()
    assert WhenChare.seen == [("ref1", "early1"), ("ref2", "early2")]


class AnyRef(Chare):
    got = []

    def run(self, msg):
        m = yield self.when("data")  # ref=None matches anything
        AnyRef.got.append(m.ref)


def test_when_none_ref_matches_any():
    eng, cluster, rt = make_runtime()
    AnyRef.got = []
    arr = rt.create_array(AnyRef, shape=(1,))
    arr.broadcast("run")
    arr.inject((0,), "data", ref=42, payload=None)
    rt.run()
    assert AnyRef.got == [42]


class MixedRefs(Chare):
    """Takes one deposit with any ref, then the rest of ref "a" in order,
    and leaves the ref "b" deposits in the mailbox."""

    got = []

    def run(self, msg):
        m = yield self.when("data")  # oldest deposit across refs
        MixedRefs.got.append((m.ref, m.payload))
        for _ in range(2):
            m = yield self.when("data", ref="a")
            MixedRefs.got.append((m.ref, m.payload))


def test_when_takes_oldest_across_refs_and_fifo_within_a_ref():
    from repro.sanitize.sanitizer import Sanitizer
    from repro.validate.invariants import InvariantChecker

    eng, cluster, rt = make_runtime()
    MixedRefs.got = []
    sanitizer = Sanitizer().attach(eng)
    sanitizer.watch_runtime(rt)
    checker = InvariantChecker().attach(eng)
    checker.watch_runtime(rt)
    arr = rt.create_array(MixedRefs, shape=(1,))
    # Buffered before run starts: b1 is the oldest deposit overall.
    for ref, payload in (("b", "b1"), ("a", "a1"), ("b", "b2"), ("a", "a2"), ("a", "a3")):
        arr.inject((0,), "data", ref=ref, payload=payload)
    arr.broadcast("run")
    rt.run()
    assert MixedRefs.got == [("b", "b1"), ("a", "a1"), ("a", "a2")]
    chare = arr.elements[(0,)]
    assert [(m.ref, m.payload) for m in chare.leftover_deposits()] == [("b", "b2"), ("a", "a3")]
    # An emptied ref leaves no entry behind.
    assert chare._mailbox_pop("data", "a").payload == "a3"
    assert list(chare._mailboxes["data"]) == ["b"]
    # Both end-of-run scanners still see the leftover deposit.
    sanitizer.finish(raise_on_findings=False)
    dangling = [d for d in sanitizer.findings if d.kind == "dangling-mailbox"]
    assert len(dangling) == 1 and "ref='b'" in dangling[0].detail
    checker.finish(raise_on_violation=False)
    unconsumed = [v for v in checker.violations if v.rule == "unconsumed-mailbox"]
    assert len(unconsumed) == 1 and "{'data': 1}" in unconsumed[0].detail


def test_deadlock_detection_reports_stuck_when():
    class Stuck(Chare):
        def run(self, msg):
            yield self.when("never", ref=9)  # repro-lint: disable=RPL011 -- deliberate deadlock

    eng, cluster, rt = make_runtime()
    arr = rt.create_array(Stuck, shape=(1,))
    arr.broadcast("run")
    with pytest.raises(SimulationError, match="never"):
        rt.run()


def test_bad_yield_value_raises():
    class Bad(Chare):
        def run(self, msg):
            yield 42  # repro-lint: disable=RPL003 -- exercises the runtime's own check

    eng, cluster, rt = make_runtime()
    arr = rt.create_array(Bad, shape=(1,))
    arr.broadcast("run")
    with pytest.raises(Exception, match="Command"):
        rt.run()


# ---------------------------------------------------------------------------
# Chare-to-chare sends
# ---------------------------------------------------------------------------


class PingPong(Chare):
    trace = []

    def run(self, msg):
        other = (1 - self.index[0],)
        if self.index[0] == 0:
            self.send(other, "ball", ref=0, data_bytes=1024)
            m = yield self.when("ball", ref=1)
            PingPong.trace.append(("pe0 got", self.runtime.engine.now))
        else:
            m = yield self.when("ball", ref=0)
            self.send(other, "ball", ref=1, data_bytes=1024)


def test_send_between_chares_roundtrip():
    eng, cluster, rt = make_runtime(n_nodes=2)
    PingPong.trace = []
    mapping = {(0,): 0, (1,): 2}  # different nodes
    arr = rt.create_array(PingPong, shape=(2,), mapping=mapping)
    arr.broadcast("run")
    rt.run()
    assert len(PingPong.trace) == 1
    rtt = PingPong.trace[0][1]
    assert rtt > 2 * cluster.network.uncontended_time(0, 2, 1024)


def test_local_send_cheaper_than_remote():
    def roundtrip(mapping, n_nodes):
        eng, cluster, rt = make_runtime(n_nodes=n_nodes)
        PingPong.trace = []
        arr = rt.create_array(PingPong, shape=(2,), mapping=mapping)
        arr.broadcast("run")
        rt.run()
        return PingPong.trace[0][1]

    local = roundtrip({(0,): 0, (1,): 0}, 1)
    remote = roundtrip({(0,): 0, (1,): 2}, 2)
    assert local < remote


# ---------------------------------------------------------------------------
# HAPI-style GPU completion waits and overlap
# ---------------------------------------------------------------------------


class GpuUser(Chare):
    done_at = {}

    def init(self):
        self.stream = self.gpu.create_stream(priority=10)

    def run(self, msg):
        op = yield self.launch(self.stream, KernelWork(bytes_moved=780e9 * 0.01))
        yield self.wait(op.done)
        GpuUser.done_at[self.index] = self.runtime.engine.now


def test_hapi_wait_resumes_after_kernel():
    eng, cluster, rt = make_runtime()
    GpuUser.done_at = {}
    arr = rt.create_array(GpuUser, shape=(1,))
    arr.broadcast("run")
    rt.run()
    assert GpuUser.done_at[(0,)] >= 0.01


def test_two_chares_one_pe_overlap_gpu_and_wait():
    """While chare A waits on its kernel, chare B must get the PE and launch
    its own — message-driven execution does not block on the GPU."""
    eng, cluster, rt = make_runtime()
    GpuUser.done_at = {}
    arr = rt.create_array(GpuUser, shape=(2,), mapping={(0,): 0, (1,): 0})
    arr.broadcast("run")
    rt.run()
    # Kernels serialize on the GPU (10 ms each) but launches interleave:
    # total must be ~20 ms, NOT 20 ms + blocking artifacts, and both finish.
    t = max(GpuUser.done_at.values())
    assert t == pytest.approx(0.02, rel=0.05)
    gpu = cluster.gpu(0)
    from repro.hardware import COMPUTE

    assert gpu.busy_seconds(COMPUTE) == pytest.approx(0.02, rel=0.01)
    # GPU was busy while the PE processed the *other* chare's messages.
    assert gpu.utilization(COMPUTE, 0.0, t) > 0.95


class Blocking(Chare):
    """Anti-pattern for comparison: synchronous completion (Fig. 4 top)."""

    done_at = {}

    def init(self):
        self.stream = self.gpu.create_stream(priority=10)

    def run(self, msg):
        op = yield self.launch(self.stream, KernelWork(bytes_moved=780e9 * 0.01))
        # Busy-wait on the PE until the kernel completes: block the scheduler.
        yield self.work(0.01)
        Blocking.done_at[self.index] = self.runtime.engine.now


def test_synchronous_completion_hogs_the_pe():
    """Fig. 4's point: synchronous completion keeps the host CPU busy for the
    whole GPU duration, so the scheduler cannot do other useful work;
    asynchronous (HAPI) completion leaves the PE almost entirely free."""
    eng, cluster, rt = make_runtime()
    Blocking.done_at = {}
    arr = rt.create_array(Blocking, shape=(2,), mapping={(0,): 0, (1,): 0})
    arr.broadcast("run")
    rt.run()
    blocking_pe_busy = cluster.pe(0).busy.busy_seconds()

    eng2, cluster2, rt2 = make_runtime()
    GpuUser.done_at = {}
    arr2 = rt2.create_array(GpuUser, shape=(2,), mapping={(0,): 0, (1,): 0})
    arr2.broadcast("run")
    rt2.run()
    async_pe_busy = cluster2.pe(0).busy.busy_seconds()

    assert blocking_pe_busy == pytest.approx(0.02, rel=0.05)
    assert async_pe_busy < 0.001  # scheduler free while the GPU works


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------


def test_messages_processed_counter():
    eng, cluster, rt = make_runtime()
    Hello.log = []
    arr = rt.create_array(Hello, shape=(2,))
    arr.broadcast("run")
    rt.run()
    assert rt.total_messages_processed() >= 2


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_identical_runs_are_bit_identical():
    def final_time():
        eng, cluster, rt = make_runtime(n_nodes=2)
        GpuUser.done_at = {}
        arr = rt.create_array(GpuUser, shape=(3, 2))
        arr.broadcast("run")
        rt.run()
        return eng.now

    assert final_time() == final_time()
