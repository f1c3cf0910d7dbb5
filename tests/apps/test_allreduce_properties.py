"""Property-based suite for the allreduce collectives app (docs/apps.md).

The per-unit contributions are integer-valued float64 vectors, so the
reduction is exact in any association order — ring, binomial tree,
pipelined-chunk and serial reference results must all be *bit-identical*.
Random unit counts (including odd and single-unit), vector lengths
(including zero) and chunk counts all reduce to the same bits on every
frontend.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import run_app
from repro.apps.allreduce import AllreduceConfig
from repro.apps.allreduce.context import AllreduceContext, reference_allreduce
from repro.apps import ALL_VERSIONS
from repro.hardware import MachineSpec

MACHINE = MachineSpec.small_debug()
#: One GPU per node: lets ``nodes`` drive odd/prime unit counts directly.
MACHINE_1GPU = dataclasses.replace(
    MACHINE, node=dataclasses.replace(MACHINE.node, gpus_per_node=1))


def _expected(config):
    """The serial reference for the *final* measured iteration (each
    iteration rebuilds its accumulator, so the last one is the survivor)."""
    return reference_allreduce(config, config.total_iterations - 1)


def _check(config):
    result = run_app(config)
    final = result.assemble_state()  # raises if any two replicas disagree
    assert final.dtype == np.float64
    assert np.array_equal(final, _expected(config))


@st.composite
def _configs(draw):
    version = draw(st.sampled_from(ALL_VERSIONS))
    return AllreduceConfig(
        version=version,
        nodes=draw(st.integers(1, 5)),
        odf=1 if version.startswith("mpi") else draw(st.integers(1, 3)),
        elements=draw(st.integers(0, 200)),
        algorithm=draw(st.sampled_from(["ring", "tree"])),
        chunks=draw(st.integers(1, 4)),
        iterations=draw(st.integers(1, 3)),
        warmup=draw(st.integers(0, 1)),
        seed=draw(st.integers(0, 2**16)),
        data_mode="functional",
        machine=MACHINE_1GPU,
    )


@settings(max_examples=25, deadline=None)
@given(config=_configs())
def test_any_algorithm_any_shape_reduces_to_the_serial_bits(config):
    _check(config)


@settings(max_examples=10, deadline=None)
@given(
    nodes=st.integers(1, 3),
    elements=st.integers(0, 128),
    chunks=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_ring_and_tree_agree_bitwise(nodes, elements, chunks, seed):
    """ring(x) == tree(x) == serial(x), bit for bit, on the same input."""
    base = AllreduceConfig(
        version="charm-d", nodes=nodes, odf=1, elements=elements,
        chunks=chunks, iterations=2, warmup=0, seed=seed,
        data_mode="functional", machine=MACHINE,
    )
    results = {}
    for algorithm in ("ring", "tree"):
        results[algorithm] = run_app(
            base.with_(algorithm=algorithm)).assemble_state()
    assert np.array_equal(results["ring"], results["tree"])
    assert np.array_equal(results["ring"], _expected(base))


def test_single_unit_is_the_identity_reduction():
    """U=1: no communication rounds at all; the result is the local vector."""
    for version in ALL_VERSIONS:
        config = AllreduceConfig(
            version=version, nodes=1, odf=1, elements=64, algorithm="tree",
            iterations=2, warmup=0, data_mode="functional",
            machine=MACHINE_1GPU,
        )
        assert not AllreduceContext(config).round_steps
        _check(config)


def test_zero_length_vectors_terminate_on_both_algorithms():
    """elements=0: every message is zero bytes and every kernel is empty,
    but the protocol still runs to completion."""
    for algorithm in ("ring", "tree"):
        _check(AllreduceConfig(
            version="charm-d", nodes=2, odf=1, elements=0,
            algorithm=algorithm, iterations=2, warmup=1,
            data_mode="functional", machine=MACHINE,
        ))


def test_more_chunks_than_elements_leaves_empty_chunks():
    """chunks > elements/segment: trailing chunks are zero-length messages."""
    _check(AllreduceConfig(
        version="mpi-d", nodes=4, odf=1, elements=3, algorithm="ring",
        chunks=4, iterations=1, warmup=0, data_mode="functional",
        machine=MACHINE,
    ))
