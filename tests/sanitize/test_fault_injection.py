"""Each injected defect class is detected, with a report naming the
offending task key / buffer / cycle (the sanitizer's liveness proof):

* a dropped Cholesky dependency declaration -> race / missing-dependency
  naming the task;
* a skipped halo-copy wait -> race naming the staging buffer;
* a channel deposit that is never awaited -> dangling-mailbox;
* an artificial cross-stream wait cycle -> deadlock-cycle naming the ops,
  and the runtime's quiescence error is enriched with the pending ops.
"""

import pytest

from repro.apps import ALL_VERSIONS, get_app, run_app
from repro.apps.cholesky import CholeskyConfig
from repro.hardware import Cluster, KiB, MachineSpec
from repro.hardware.gpu import COPY_D2H, CopyWork
from repro.runtime import Chare, CharmRuntime
from repro.sanitize.faults import declared_dep_pairs, drop_cholesky_dep, drop_wait
from repro.sanitize.sanitizer import Sanitizer
from repro.sim import Engine, Event
from repro.sim.errors import SimulationError

MACHINE = MachineSpec.small_debug()


def _cholesky_config(version):
    return CholeskyConfig(version=version, nodes=2, tiles=4, tile=16,
                          odf=1 if version.startswith("mpi") else 2,
                          machine=MACHINE)


def _key_name(key):
    return ".".join(str(part) for part in key)


# -- dropped DAG dependency --------------------------------------------------

@pytest.mark.parametrize("version", ALL_VERSIONS)
def test_dropped_cholesky_dep_detected_on_every_frontend(version):
    sanitizer = Sanitizer()
    dropped = {}

    def hook(ctx):
        pairs = declared_dep_pairs(ctx)
        task, dep = pairs[len(pairs) // 2]
        dropped["task"], dropped["dep"] = drop_cholesky_dep(ctx, task, dep)

    run_app(_cholesky_config(version), sanitize=sanitizer, context_hook=hook)
    kinds = {d.kind for d in sanitizer.findings}
    assert kinds & {"race", "missing-dependency"}, sanitizer.report()
    text = "\n".join(str(d) for d in sanitizer.findings)
    assert (_key_name(dropped["task"]) in text
            or _key_name(dropped["dep"]) in text), text


def test_dropped_dep_report_names_the_undeclared_edge():
    sanitizer = Sanitizer()
    dropped = {}

    def hook(ctx):
        pairs = declared_dep_pairs(ctx)
        task, dep = pairs[len(pairs) // 2]
        dropped["task"], dropped["dep"] = drop_cholesky_dep(ctx, task, dep)

    run_app(_cholesky_config("charm-d"), sanitize=sanitizer, context_hook=hook)
    missing = [d for d in sanitizer.findings if d.kind == "missing-dependency"]
    races = [d for d in sanitizer.findings if d.kind == "race"]
    assert missing or races, sanitizer.report()
    text = "\n".join(str(d) for d in missing + races)
    assert _key_name(dropped["task"]) in text, text


# -- skipped halo wait -------------------------------------------------------

def test_skipped_halo_wait_detected():
    spec = get_app("jacobi3d")
    config = spec.config_cls(version="charm-h", nodes=2, odf=2,
                             grid=(48, 48, 48), iterations=3, warmup=1)
    sanitizer = Sanitizer()
    with drop_wait("unpack") as state:
        run_app(config, sanitize=sanitizer)
    assert state["dropped"] == 1
    races = [d for d in sanitizer.findings if d.kind == "race"]
    assert races, sanitizer.report()
    assert any("gstage" in d.detail for d in races), sanitizer.report()


def test_drop_wait_is_scoped_to_the_context():
    spec = get_app("jacobi3d")
    config = spec.config_cls(version="charm-h", nodes=2, odf=2,
                             grid=(48, 48, 48), iterations=3, warmup=1)
    with drop_wait("unpack"):
        pass  # nothing ran inside: the patch must not leak out
    sanitizer = Sanitizer()
    run_app(config, sanitize=sanitizer)
    assert sanitizer.ok, sanitizer.report()


# -- channel deposit never awaited -------------------------------------------

class LeakyPair(Chare):
    """Exchanges one chunk per direction but never awaits the receive
    completion — the deposit rots in the mailbox."""

    size = 64 * KiB

    def run(self, msg):
        other = (1 - self.index[0],)
        ch = self.channel_to(other)
        ch.send(self.size, ref=("s", 0))
        ch.recv(self.size, ref=("r", 0))
        yield self.when("ch_send", ref=("s", 0))
        # BUG under test: no when("ch_recv") for the posted receive.


def test_unawaited_channel_deposit_detected():
    engine = Engine()
    cluster = Cluster(engine, MACHINE, 2)
    runtime = CharmRuntime(cluster)
    sanitizer = Sanitizer().attach(engine)
    sanitizer.watch_runtime(runtime)
    array = runtime.create_array(LeakyPair, shape=(2,))
    array.broadcast("run")
    runtime.run()
    sanitizer.finish(raise_on_findings=False)
    dangling = [d for d in sanitizer.findings if d.kind == "dangling-mailbox"]
    assert dangling, sanitizer.report()
    assert any("ch_recv" in d.detail for d in dangling), sanitizer.report()


# -- artificial wait cycle ---------------------------------------------------

def test_cross_stream_wait_cycle_detected():
    engine = Engine()
    cluster = Cluster(engine, MACHINE, 1)
    gpu = cluster.nodes[0].gpus[0]
    sanitizer = Sanitizer().attach(engine)
    s1 = gpu.create_stream(name="s1")
    s2 = gpu.create_stream(name="s2")
    a = s1.enqueue(CopyWork(4 * KiB, COPY_D2H), name="A")
    b = s2.enqueue(CopyWork(4 * KiB, COPY_D2H), name="B", wait_events=[a.done])
    # No declaration order can produce a cycle, so inject one post-hoc.
    a.wait_events = [b.done]
    engine.run()
    sanitizer.finish(raise_on_findings=False)
    cycles = [d for d in sanitizer.findings if d.kind == "deadlock-cycle"]
    assert cycles, sanitizer.report()
    assert "A" in cycles[0].detail and "B" in cycles[0].detail


class StuckChare(Chare):
    """Launches a kernel gated on an event nothing ever fires."""

    def run(self, msg):
        stream = self.gpu.create_stream(name="stuck")
        never = Event(self.runtime.engine, name="never-fired")
        op = yield self.launch(stream, CopyWork(4 * KiB, COPY_D2H),
                               name="k1", wait=[never])
        yield self.wait(op.done)


def test_runtime_deadlock_error_is_enriched():
    engine = Engine()
    cluster = Cluster(engine, MACHINE, 1)
    runtime = CharmRuntime(cluster)
    sanitizer = Sanitizer().attach(engine)
    sanitizer.watch_runtime(runtime)
    array = runtime.create_array(StuckChare, shape=(1,))
    array.broadcast("run")
    with pytest.raises(SimulationError) as excinfo:
        runtime.run()
    message = str(excinfo.value)
    assert "deadlock" in message
    assert "sanitizer:" in message and "k1" in message
