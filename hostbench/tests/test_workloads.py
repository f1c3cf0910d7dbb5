import dataclasses

import numpy as np
import pytest

import workloads
from repro.apps import run_app


def run(prepared):
    context_out = []
    result = run_app(prepared.config, context_out=context_out, **prepared.workload.run_kwargs)
    return result, context_out[0]


@pytest.fixture(scope="module")
def cholesky_runs():
    runs = {}
    for seed in (1, 2):
        prepared = workloads.prepare("cholesky-mpi", seed)
        runs[seed] = (prepared, *run(prepared))
    return runs


def test_seed_reaches_only_the_cholesky_input(cholesky_runs):
    (p1, _, ctx1), (p2, _, ctx2) = cholesky_runs[1], cholesky_runs[2]
    assert (p1.config.seed, p2.config.seed) == (1, 2)
    assert not np.array_equal(ctx1.matrix, ctx2.matrix)
    for name, workload in workloads.WORKLOADS.items():
        if name != "cholesky-mpi":
            assert not workload.seeded
            assert workload.make_config(1) == workload.make_config(2)


@pytest.mark.parametrize("seed", [1, 2])
def test_check_passes_on_a_correct_run(cholesky_runs, seed):
    prepared, result, context = cholesky_runs[seed]
    assert workloads.check(prepared, result, context) == []


@pytest.mark.parametrize("key", ["time_per_iteration", "total_time", "messages_sent",
                                 "bytes_sent", "protocol_counts"])
def test_check_fires_on_a_perturbed_pin(cholesky_runs, key):
    prepared, result, context = cholesky_runs[1]
    expected = dict(prepared.workload.expected)
    want = expected[key]
    expected[key] = ({**want, "rndv_host": want["rndv_host"] + 1} if key == "protocol_counts"
                     else want * 1.0000001 if isinstance(want, float) else want + 1)
    perturbed = dataclasses.replace(
        prepared, workload=dataclasses.replace(prepared.workload, expected=expected))
    problems = workloads.check(perturbed, result, context)
    assert len(problems) == 1 and problems[0].startswith(key)


def test_check_fires_on_a_wrong_factor_bit(cholesky_runs):
    prepared, result, context = cholesky_runs[1]
    owned = next(iter(result.blocks.values()))
    tile = next(iter(owned.values()))
    saved = tile[-1, 0]
    tile[-1, 0] = np.nextafter(saved, np.inf)
    try:
        problems = workloads.check(prepared, result, context)
    finally:
        tile[-1, 0] = saved
    assert len(problems) == 1 and problems[0].startswith("factor differs")


def test_check_fires_on_the_wrong_input(cholesky_runs):
    prepared, result, context = cholesky_runs[1]
    other_input = dataclasses.replace(prepared, matrix=cholesky_runs[2][0].matrix)
    assert workloads.check(other_input, result, context) == [
        "input matrix differs from the seeded input"]
