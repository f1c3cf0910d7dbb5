"""Tests for experiment plans and the stable config/result serialization
they and the cache rely on."""

import json

import pytest

from repro.apps import Jacobi3DConfig, StencilResult, run_app
from repro.exec import ExperimentPlan, ExperimentPoint
from repro.hardware import MachineSpec


def _small_config(**kw):
    kw.setdefault("version", "charm-d")
    kw.setdefault("grid", (96, 96, 96))
    kw.setdefault("iterations", 2)
    kw.setdefault("warmup", 0)
    return Jacobi3DConfig(**kw)


# -- serialization ----------------------------------------------------------


def test_config_dict_round_trip():
    cfg = _small_config(odf=2, fusion="C", cuda_graphs=True)
    restored = Jacobi3DConfig.from_dict(cfg.to_dict())
    assert restored == cfg


def test_config_dict_is_json_stable():
    cfg = _small_config(machine=MachineSpec.summit().with_nic(overhead_s=2e-6))
    blob1 = json.dumps(cfg.to_dict(), sort_keys=True)
    blob2 = json.dumps(Jacobi3DConfig.from_dict(cfg.to_dict()).to_dict(), sort_keys=True)
    assert blob1 == blob2
    assert json.loads(blob1)["machine"]["node"]["nic"]["overhead_s"] == 2e-6


def test_machine_spec_round_trip_covers_ablations():
    spec = MachineSpec.summit().with_ucx(pipeline_concurrency_penalty=0.04).with_gpu(
        kernel_launch_cpu_s=1e-6)
    restored = MachineSpec.from_dict(spec.to_dict())
    assert restored == spec
    assert restored.ucx.pipeline_concurrency_penalty == 0.04


def test_result_round_trip_is_exact():
    result = run_app(_small_config())
    restored = StencilResult.from_dict(result.to_dict())
    assert restored == result  # bit-exact floats, enum keys, config


def test_functional_result_refuses_serialization():
    result = run_app(_small_config(grid=(24, 24, 24), data_mode="functional",
                                        machine=MachineSpec.small_debug()))
    assert result.blocks is not None
    with pytest.raises(ValueError, match="functional"):
        result.to_dict()


# -- plan construction and assembly ----------------------------------------


def test_plan_add_returns_indices():
    plan = ExperimentPlan("figX")
    i0 = plan.add(_small_config(), "a", 1)
    i1 = plan.add(_small_config(odf=2), "a", 2)
    assert (i0, i1) == (0, 1)
    assert len(plan) == 2
    assert [p.x for p in plan] == [1.0, 2.0]
    assert plan.configs()[1].odf == 2


def test_plan_generic_assembly_orders_series_by_first_encounter():
    plan = ExperimentPlan("figX", "title", "nodes", "t")
    cfg = _small_config()
    plan.add(cfg, "legacy", 1, meta_fields=(("util", "gpu_utilization"),))
    plan.add(cfg, "optimized", 1)
    plan.add(cfg, "legacy", 2, meta_fields=(("util", "gpu_utilization"),))
    res = run_app(cfg)
    fig = plan.figure([res, res, res])
    assert list(fig.series) == ["legacy", "optimized"]
    assert fig.series["legacy"].points == [(1.0, res.time_per_iteration),
                                           (2.0, res.time_per_iteration)]
    assert fig.series["legacy"].meta[0] == {"util": res.gpu_utilization}
    assert fig.series["optimized"].meta == [{}]


def test_plan_assembly_rejects_length_mismatch():
    plan = ExperimentPlan("figX")
    plan.add(_small_config(), "a", 1)
    with pytest.raises(ValueError, match="1 points"):
        plan.figure([])


def test_point_is_frozen():
    point = ExperimentPoint(_small_config(), "s", 1.0)
    with pytest.raises(AttributeError):
        point.x = 2.0
