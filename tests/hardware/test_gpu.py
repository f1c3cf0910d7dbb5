"""Unit tests for the GPU device model: streams, engines, events, memory."""

import pytest

from repro.hardware import (
    COMPUTE,
    COPY_D2D,
    COPY_D2H,
    COPY_H2D,
    CopyWork,
    GpuDevice,
    GpuSpec,
    HostLinkSpec,
    KernelWork,
    MiB,
)
from repro.sim import Engine, ProcessCrashed
from repro.sim.tracing import overlap_seconds


def make_gpu(engine=None, **gpu_kwargs):
    eng = engine or Engine()
    spec = GpuSpec(**gpu_kwargs)
    return eng, GpuDevice(eng, spec, HostLinkSpec(), name="gpu0")


# ---------------------------------------------------------------------------
# Work models
# ---------------------------------------------------------------------------


def test_kernel_duration_memory_bound():
    spec = GpuSpec(mem_bandwidth=100e9, flops=1e15)
    w = KernelWork(bytes_moved=1e9, flops=1.0)
    assert w.duration(spec, HostLinkSpec()) == pytest.approx(1e9 / 100e9)


def test_kernel_duration_flop_bound():
    spec = GpuSpec(mem_bandwidth=1e15, flops=1e12)
    w = KernelWork(bytes_moved=8.0, flops=1e10)
    assert w.duration(spec, HostLinkSpec()) == pytest.approx(1e10 / 1e12)


def test_kernel_efficiency_slows_duration():
    spec = GpuSpec(mem_bandwidth=100e9)
    fast = KernelWork(bytes_moved=1e9)
    slow = KernelWork(bytes_moved=1e9, efficiency=0.5)
    assert slow.duration(spec, HostLinkSpec()) == pytest.approx(
        2 * fast.duration(spec, HostLinkSpec())
    )


def test_kernel_work_validation():
    with pytest.raises(ValueError):
        KernelWork(bytes_moved=-1)
    with pytest.raises(ValueError):
        KernelWork(bytes_moved=1, efficiency=0.0)
    with pytest.raises(ValueError):
        KernelWork(bytes_moved=1, efficiency=1.5)


def test_copy_duration_uses_host_link():
    link = HostLinkSpec(bandwidth=10e9, latency=1e-6)
    w = CopyWork(size=10 * MiB, direction=COPY_D2H)
    assert w.duration(GpuSpec(), link) == pytest.approx(1e-6 + 10 * MiB / 10e9)


def test_copy_d2d_uses_device_bandwidth():
    spec = GpuSpec(mem_bandwidth=100e9)
    w = CopyWork(size=50 * MiB, direction=COPY_D2D)
    assert w.duration(spec, HostLinkSpec()) == pytest.approx(2 * 50 * MiB / 100e9)


def test_copy_engine_selection():
    assert CopyWork(1, COPY_D2H).engine == COPY_D2H
    assert CopyWork(1, COPY_H2D).engine == COPY_H2D
    assert KernelWork(1).engine == COMPUTE


def test_copy_validation():
    with pytest.raises(ValueError):
        CopyWork(size=-1)
    with pytest.raises(ValueError):
        CopyWork(size=1, direction="sideways")


# ---------------------------------------------------------------------------
# Streams and execution
# ---------------------------------------------------------------------------


def test_single_kernel_executes_with_overheads():
    eng, gpu = make_gpu(mem_bandwidth=100e9, kernel_launch_device_s=1e-6)
    s = gpu.create_stream()
    op = s.enqueue(KernelWork(bytes_moved=1e9))
    eng.run()
    assert op.done.processed
    assert eng.now == pytest.approx(1e-6 + 0.01)


def test_stream_is_fifo():
    eng, gpu = make_gpu(mem_bandwidth=100e9, kernel_launch_device_s=0.0)
    s = gpu.create_stream()
    done_times = {}
    for name, size in [("a", 1e9), ("b", 2e9)]:
        op = s.enqueue(KernelWork(bytes_moved=size), name=name)
        op.done.add_callback(lambda ev, n=name: done_times.setdefault(n, eng.now))
    eng.run()
    assert done_times["a"] == pytest.approx(0.01)
    assert done_times["b"] == pytest.approx(0.03)


def test_compute_engine_serializes_across_streams():
    eng, gpu = make_gpu(mem_bandwidth=100e9, kernel_launch_device_s=0.0)
    s1, s2 = gpu.create_stream(), gpu.create_stream()
    s1.enqueue(KernelWork(bytes_moved=1e9))
    s2.enqueue(KernelWork(bytes_moved=1e9))
    eng.run()
    assert eng.now == pytest.approx(0.02)  # serialized, not 0.01


def test_copy_overlaps_with_kernel_on_different_streams():
    eng, gpu = make_gpu(mem_bandwidth=100e9, kernel_launch_device_s=0.0)
    k_stream = gpu.create_stream()
    c_stream = gpu.create_stream()
    k_stream.enqueue(KernelWork(bytes_moved=1e9))  # 10 ms compute
    c_stream.enqueue(CopyWork(size=450 * MiB, direction=COPY_D2H))  # ~10 ms copy
    eng.run()
    # Full overlap: total time is max, not sum.
    assert eng.now < 0.015
    comp = gpu.trackers[COMPUTE].busy_union()
    copy = gpu.trackers[COPY_D2H].busy_union()
    assert overlap_seconds(comp, copy) > 0.009


def test_d2h_and_h2d_engines_are_independent():
    eng, gpu = make_gpu()
    a = gpu.create_stream().enqueue(CopyWork(size=450 * MiB, direction=COPY_D2H))
    b = gpu.create_stream().enqueue(CopyWork(size=450 * MiB, direction=COPY_H2D))
    eng.run()
    single = CopyWork(size=450 * MiB).duration(gpu.spec, gpu.link) + gpu.spec.kernel_launch_device_s
    assert a.done.processed and b.done.processed
    assert eng.now == pytest.approx(single, rel=1e-6)  # ran concurrently


def test_same_direction_copies_serialize():
    eng, gpu = make_gpu()
    gpu.create_stream().enqueue(CopyWork(size=450 * MiB, direction=COPY_D2H))
    gpu.create_stream().enqueue(CopyWork(size=450 * MiB, direction=COPY_D2H))
    eng.run()
    single = CopyWork(size=450 * MiB).duration(gpu.spec, gpu.link) + gpu.spec.kernel_launch_device_s
    assert eng.now == pytest.approx(2 * single, rel=1e-6)


def test_priority_stream_jumps_queue():
    eng, gpu = make_gpu(mem_bandwidth=100e9, kernel_launch_device_s=0.0)
    low1 = gpu.create_stream(priority=10)
    low2 = gpu.create_stream(priority=10)
    high = gpu.create_stream(priority=0)
    finish = {}

    def track(op, name):
        op.done.add_callback(lambda ev, n=name: finish.setdefault(n, eng.now))

    # Fill the engine: first low kernel runs immediately; second queues.
    track(low1.enqueue(KernelWork(bytes_moved=1e9)), "low1")
    track(low2.enqueue(KernelWork(bytes_moved=1e9)), "low2")
    track(high.enqueue(KernelWork(bytes_moved=1e8)), "high")
    eng.run()
    # High-priority kernel runs after the *running* low1 but before queued low2.
    assert finish["low1"] < finish["high"] < finish["low2"]


def test_cuda_event_cross_stream_dependency():
    eng, gpu = make_gpu(mem_bandwidth=100e9, kernel_launch_device_s=0.0)
    producer = gpu.create_stream()
    consumer = gpu.create_stream()
    producer.enqueue(KernelWork(bytes_moved=1e9))  # 10 ms
    ev = producer.record_event()
    consumer.wait_event(ev)
    op = consumer.enqueue(KernelWork(bytes_moved=1e8))  # 1 ms
    times = {}
    op.done.add_callback(lambda e: times.setdefault("c", eng.now))
    eng.run()
    assert times["c"] == pytest.approx(0.011)


def test_event_records_at_stream_position():
    eng, gpu = make_gpu(mem_bandwidth=100e9, kernel_launch_device_s=0.0)
    s = gpu.create_stream()
    s.enqueue(KernelWork(bytes_moved=1e9))
    ev = s.record_event()
    s.enqueue(KernelWork(bytes_moved=1e9))
    when = {}
    ev.fired.add_callback(lambda e: when.setdefault("t", eng.now))
    eng.run()
    assert when["t"] == pytest.approx(0.01)
    assert eng.now == pytest.approx(0.02)


def test_synchronize_event_waits_all_prior_work():
    eng, gpu = make_gpu(mem_bandwidth=100e9, kernel_launch_device_s=0.0)
    s = gpu.create_stream()
    s.enqueue(KernelWork(bytes_moved=1e9))
    s.enqueue(KernelWork(bytes_moved=1e9))
    sync = s.synchronize_event()
    when = {}
    sync.add_callback(lambda e: when.setdefault("t", eng.now))
    eng.run()
    assert when["t"] == pytest.approx(0.02)


def test_op_explicit_wait_events():
    eng, gpu = make_gpu(mem_bandwidth=100e9, kernel_launch_device_s=0.0)
    gate = eng.event()
    s = gpu.create_stream()
    op = s.enqueue(KernelWork(bytes_moved=1e8), wait_events=[gate])

    def opener():
        yield eng.timeout(5.0)
        gate.succeed()

    eng.process(opener())
    eng.run()
    assert op.done.processed
    assert eng.now == pytest.approx(5.001)


def test_op_waiting_on_a_crashed_process_crashes_its_stream():
    """A failed dependency fails the op's latch; the stream's executor then
    ends the run with ProcessCrashed naming the stream."""
    eng, gpu = make_gpu()
    s = gpu.create_stream(name="gpu0.s0")

    def producer():
        yield 1e-6
        raise RuntimeError("producer died")

    s.enqueue(KernelWork(bytes_moved=1e6), wait_events=[eng.process(producer())])
    with pytest.raises(ProcessCrashed, match=r"'gpu0\.s0\.proc' crashed.*producer died"):
        eng.run()


def test_wait_event_only_applies_to_later_ops():
    eng, gpu = make_gpu(mem_bandwidth=100e9, kernel_launch_device_s=0.0)
    producer = gpu.create_stream()
    consumer = gpu.create_stream()
    first = consumer.enqueue(KernelWork(bytes_moved=1e8), name="first")
    ev = producer.record_event()
    producer.enqueue(KernelWork(bytes_moved=1e9))
    consumer.wait_event(ev)
    times = {}
    first.done.add_callback(lambda e: times.setdefault("first", eng.now))
    eng.run()
    assert times["first"] == pytest.approx(0.001)


# ---------------------------------------------------------------------------
# Memory accounting
# ---------------------------------------------------------------------------


def test_malloc_tracks_and_oom():
    eng, gpu = make_gpu()
    gpu.malloc(10 * 1024**3)
    assert gpu.mem_allocated == 10 * 1024**3
    with pytest.raises(MemoryError):
        gpu.malloc(7 * 1024**3)
    gpu.free(10 * 1024**3)
    assert gpu.mem_allocated == 0


def test_free_more_than_allocated_raises():
    from repro.sim import SimulationError

    eng, gpu = make_gpu()
    with pytest.raises(SimulationError):
        gpu.free(1)


def test_malloc_negative_rejected():
    eng, gpu = make_gpu()
    with pytest.raises(ValueError):
        gpu.malloc(-1)


# ---------------------------------------------------------------------------
# Utilization and cost helpers
# ---------------------------------------------------------------------------


def test_utilization_reflects_busy_fraction():
    eng, gpu = make_gpu(mem_bandwidth=100e9, kernel_launch_device_s=0.0)
    s = gpu.create_stream()
    s.enqueue(KernelWork(bytes_moved=1e9))  # busy 10 ms

    def idle_tail():
        yield eng.timeout(0.02)

    eng.process(idle_tail())
    eng.run()
    assert gpu.utilization(COMPUTE) == pytest.approx(0.5)
    assert gpu.busy_seconds(COMPUTE) == pytest.approx(0.01)


def test_cpu_launch_cost_by_work_type():
    eng, gpu = make_gpu()
    assert gpu.cpu_launch_cost(KernelWork(1)) == gpu.spec.kernel_launch_cpu_s
    assert gpu.cpu_launch_cost(CopyWork(1)) == gpu.link.copy_setup_cpu_s
