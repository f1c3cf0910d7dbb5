"""Tests for Jacobi3D configuration validation and derived properties."""

import pytest

from repro.apps import (
    AllreduceConfig,
    CholeskyConfig,
    Jacobi2DConfig,
    Jacobi3DConfig,
    StencilConfig,
)
from repro.hardware import MachineSpec
from repro.kernels import FusionStrategy


def base(**kw):
    kw.setdefault("grid", (96, 96, 96))
    kw.setdefault("nodes", 1)
    return Jacobi3DConfig(**kw)


def test_defaults_valid():
    cfg = base()
    assert cfg.version == "charm-d"
    assert cfg.is_charm and not cfg.is_mpi
    assert cfg.gpu_aware
    assert cfg.fusion is FusionStrategy.NONE


def test_unknown_version_rejected():
    with pytest.raises(ValueError, match="version"):
        base(version="openmp")


def test_mpi_odf_must_be_one():
    with pytest.raises(ValueError, match="odf"):
        base(version="mpi-h", odf=2)


def test_fusion_only_with_charm_d():
    base(version="charm-d", fusion="A")
    for version in ("charm-h", "mpi-d", "mpi-h"):
        with pytest.raises(ValueError, match="fusion"):
            base(version=version, fusion="A")


def test_graphs_only_with_charm_d():
    base(version="charm-d", cuda_graphs=True)
    with pytest.raises(ValueError, match="Graphs"):
        base(version="charm-h", cuda_graphs=True)


def test_mpi_overlap_only_with_mpi():
    base(version="mpi-h", mpi_overlap=True)
    with pytest.raises(ValueError, match="mpi_overlap"):
        base(version="charm-h", mpi_overlap=True)


def test_fusion_string_parsed():
    assert base(fusion="B").fusion is FusionStrategy.B


def test_functional_size_guard():
    with pytest.raises(ValueError, match="functional"):
        base(grid=(512, 512, 512), data_mode="functional")
    base(grid=(512, 512, 512), data_mode="functional", allow_large_functional=True)


def test_bad_numbers_rejected():
    with pytest.raises(ValueError):
        base(nodes=0)
    with pytest.raises(ValueError):
        base(odf=0)
    with pytest.raises(ValueError):
        base(iterations=0)
    with pytest.raises(ValueError):
        base(warmup=-1)
    with pytest.raises(ValueError):
        base(grid=(0, 4, 4))
    with pytest.raises(ValueError):
        base(data_mode="imaginary")


@pytest.mark.parametrize("config_cls,field,value", [
    (Jacobi3DConfig, "iterations", 2.5),
    (Jacobi3DConfig, "warmup", 1.0),
    (Jacobi3DConfig, "nodes", 1.5),
    (Jacobi3DConfig, "nodes", True),
    (Jacobi3DConfig, "odf", 1.5),
    (Jacobi3DConfig, "grid", (48.5, 48, 48)),
    (Jacobi2DConfig, "grid", (96, True)),
    (CholeskyConfig, "tiles", 2.5),
    (CholeskyConfig, "tile", "64"),
    (AllreduceConfig, "chunks", 1.5),
    (AllreduceConfig, "elements", 4096.0),
])
def test_count_fields_must_be_plain_ints(config_cls, field, value):
    """A float runs deep and fails late, a bool runs under another cache key:
    both are rejected up front, naming the field."""
    kw = {"nodes": 1}
    if issubclass(config_cls, StencilConfig):
        kw["grid"] = (48,) * config_cls.NDIM
    kw[field] = value
    with pytest.raises(ValueError, match=field):
        config_cls(**kw)


def test_derived_counts():
    cfg = base(version="charm-h", nodes=2, odf=4)
    assert cfg.n_pes() == 12
    assert cfg.n_blocks() == 48
    assert cfg.total_iterations == cfg.iterations + cfg.warmup
    mpi = base(version="mpi-d", nodes=2)
    assert mpi.n_blocks() == 12


def test_gpu_aware_flag():
    assert base(version="mpi-d").gpu_aware
    assert not base(version="mpi-h").gpu_aware
    assert not base(version="charm-h").gpu_aware


def test_with_copies():
    cfg = base(version="charm-h", odf=2)
    cfg2 = cfg.with_(odf=8)
    assert cfg2.odf == 8 and cfg.odf == 2
    assert cfg2.version == "charm-h"


def test_custom_machine():
    cfg = base(machine=MachineSpec.small_debug())
    assert cfg.n_pes() == 2
