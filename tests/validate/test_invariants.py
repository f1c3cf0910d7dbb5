"""InvariantChecker: clean runs pass, injected faults are caught with the
offending actor and simulated time."""

import pytest

from repro.apps import Jacobi3DConfig, run_app
from repro.hardware import Cluster, CudaEvent, KernelWork, MachineSpec
from repro.sim import Engine, Resource, SimulationError
from repro.validate.invariants import InvariantChecker, InvariantError
from repro.validate.faults import (
    inject_double_grant,
    inject_lost_message,
    inject_phantom_release,
)


def _small(**kw):
    kw.setdefault("version", "charm-d")
    kw.setdefault("grid", (24, 24, 24))
    kw.setdefault("odf", 2)
    kw.setdefault("iterations", 3)
    kw.setdefault("warmup", 1)
    kw.setdefault("machine", MachineSpec.small_debug())
    return Jacobi3DConfig(**kw)


# ---------------------------------------------------------------------------
# Clean runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("version", ["charm-d", "charm-h", "ampi-d", "mpi-d", "mpi-h"])
def test_clean_run_passes_all_invariants(version):
    odf = 1 if version.startswith("mpi") else 2
    result = run_app(_small(version=version, odf=odf), validate=True)
    assert result.total_time > 0


def test_checker_report_mentions_audit_scope():
    eng = Engine()
    cluster = Cluster(eng, MachineSpec.small_debug(), 1)
    checker = InvariantChecker().attach(eng)
    checker.watch_cluster(cluster)
    def tick():
        yield eng.timeout(1.0)

    eng.process(tick())
    eng.run()
    checker.finish()
    assert checker.ok
    assert "OK" in checker.report()
    assert "resources" in checker.report()


def test_finish_twice_rejected():
    checker = InvariantChecker().attach(Engine())
    checker.finish()
    with pytest.raises(SimulationError):
        checker.finish()


# ---------------------------------------------------------------------------
# Injected faults: each must be caught and attributed (actor + time)
# ---------------------------------------------------------------------------


def test_injected_exclusivity_violation_reports_actor_and_time():
    """A broken arbiter grants a capacity-1 resource twice: the checker
    names the resource and the simulated time of the second grant."""
    eng = Engine()
    res = Resource(eng, capacity=1, name="node0.gpu0.d2d")
    checker = InvariantChecker().attach(eng)
    checker.watch_resource(res)

    def workload():
        req = res.request()
        yield req
        yield eng.timeout(1.5)
        inject_double_grant(res)  # second exclusive grant at t=1.5
        yield eng.timeout(0.5)
        res.release(req)

    eng.process(workload())
    eng.run()
    with pytest.raises(InvariantError) as exc:
        checker.finish()
    violations = [v for v in exc.value.violations if v.rule == "resource-exclusivity"]
    assert violations, exc.value.violations
    v = violations[0]
    assert v.actor == "node0.gpu0.d2d"
    assert v.time == pytest.approx(1.5)
    assert "2 concurrent grant(s)" in v.detail
    # The forged grant also never gets released: leak reported too.
    rules = {v.rule for v in exc.value.violations}
    assert "resource-leak" in rules


def test_phantom_release_caught():
    eng = Engine()
    res = Resource(eng, capacity=2, name="nic.inject0")
    checker = InvariantChecker()
    checker.attach(eng)
    checker.watch_resource(res)
    inject_phantom_release(res)
    checker.finish(raise_on_violation=False)
    assert not checker.ok
    assert any(v.rule == "resource-release" and v.actor == "nic.inject0"
               for v in checker.violations)


def test_lost_message_breaks_channel_conservation():
    eng = Engine()
    cluster = Cluster(eng, MachineSpec.small_debug(), 1)
    checker = InvariantChecker().attach(eng)
    checker.watch_cluster(cluster)
    inject_lost_message(cluster.network, src_pe=0, dst_pe=1)
    with pytest.raises(InvariantError) as exc:
        checker.finish()
    per_channel = [v for v in exc.value.violations
                   if v.rule == "message-conservation" and v.actor == "pe0->pe1"]
    assert per_channel
    assert "1 sent but 0 delivered" in per_channel[0].detail


def test_time_monotonicity_violation_detected():
    eng = Engine()
    checker = InvariantChecker().attach(eng)
    ev = type("FakeEvent", (), {"name": "bad"})()
    checker.on_event(5.0, ev)
    checker.on_event(3.0, ev)  # time went backwards
    assert any(v.rule == "time-monotonicity" and v.time == 3.0
               for v in checker.violations)


def test_dangling_events_detected_at_finish():
    eng = Engine()
    checker = InvariantChecker().attach(eng)
    eng.timeout(10.0)  # scheduled, never drained
    checker.finish(raise_on_violation=False)
    assert any(v.rule == "dangling-events" for v in checker.violations)


def test_stream_stuck_behind_unfired_cuda_event_reports_dangling_gpu_work():
    """A stream waiting on a CUDA event nobody records takes its next op
    into the wait and leaves the rest queued; finish names the stream."""
    eng = Engine()
    cluster = Cluster(eng, MachineSpec.small_debug(), 1)
    checker = InvariantChecker().attach(eng)
    checker.watch_cluster(cluster)
    stream = cluster.gpu(0).create_stream(name="stuck")
    stream.wait_event(CudaEvent(eng, name="never"))
    for _ in range(3):
        stream.enqueue(KernelWork(bytes_moved=1e6))
    eng.run()
    checker.finish(raise_on_violation=False)
    dangling = [v for v in checker.violations if v.rule == "dangling-gpu-work"]
    assert [(v.actor, v.detail) for v in dangling] == [("stuck", "2 op(s) still queued")]


def test_books_disagree_when_component_lies():
    """Double-entry: if the resource's own counter is corrupted but the
    grant stream was clean, the cross-check fires."""
    eng = Engine()
    res = Resource(eng, capacity=4, name="lying")
    checker = InvariantChecker().attach(eng)
    checker.watch_resource(res)
    res.in_use = 3  # corrupted directly, bypassing request/release
    checker.finish(raise_on_violation=False)
    assert any(v.rule == "resource-books-disagree" and v.actor == "lying"
               for v in checker.violations)


def test_violation_cap_respected():
    eng = Engine()
    res = Resource(eng, capacity=1, name="r")
    checker = InvariantChecker(max_violations=5)
    checker.attach(eng)
    checker.watch_resource(res)
    for _ in range(20):
        inject_phantom_release(res)
    assert len(checker.violations) == 5
