"""Tests for chare-array messaging edges."""

import pytest

from repro.hardware import Cluster, MachineSpec
from repro.runtime import Chare, CharmRuntime, block_map
from repro.sim import Engine


class Echo(Chare):
    got = []

    def ping(self, msg):
        Echo.got.append((self.index, msg.ref, msg.payload))


def make(n_nodes=1):
    eng = Engine()
    cluster = Cluster(eng, MachineSpec.small_debug(), n_nodes)
    rt = CharmRuntime(cluster)
    Echo.got = []
    arr = rt.create_array(Echo, shape=(2, 2))
    return eng, rt, arr


def test_send_to_missing_element_raises():
    class Bad(Chare):
        def run(self, msg):
            self.send((9, 9), "ping")
            yield self.work(1e-9)

    eng = Engine()
    cluster = Cluster(eng, MachineSpec.small_debug(), 1)
    rt = CharmRuntime(cluster)
    arr = rt.create_array(Bad, shape=(1, 1))
    arr.broadcast("run")
    with pytest.raises(Exception, match="no element"):
        rt.run()


def test_array_len_and_element():
    eng, rt, arr = make()
    assert len(arr) == 4
    assert arr.element([1, 1]).index == (1, 1)


def test_array_mapping_defaults_to_block_map():
    eng, rt, arr = make()
    assert arr.mapping == block_map((2, 2), rt.cluster.n_pes)
    explicit = rt.create_array(Echo, shape=(2,), mapping={(0,): 1, (1,): 0})
    assert explicit.element((0,)).pe.index == 1
