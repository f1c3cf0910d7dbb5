"""App registry coverage: the AppSpec contract, round-trips through the
registry dispatchers for every registered app, cache-key stability, and the
cross-app collision guarantee (same grid parameters under a different app
name never alias in the result cache)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    ALL_VERSIONS,
    BaseAppConfig,
    Jacobi2DConfig,
    Jacobi3DConfig,
    StencilResult,
    app_names,
    config_from_dict,
    get_app,
    result_from_dict,
    run_app,
    spec_for,
)
from repro.apps.jacobi3d import SPEC as JACOBI3D_SPEC
from repro.apps.registry import register
from repro.exec import config_key
from repro.hardware import MachineSpec

MACHINE = MachineSpec.small_debug()

APP_CLASSES = {"jacobi3d": Jacobi3DConfig, "jacobi2d": Jacobi2DConfig}


def _configs(config_cls):
    """Arbitrary valid modeled-mode configs for one app, every frontend."""

    @st.composite
    def strat(draw):
        version = draw(st.sampled_from(ALL_VERSIONS))
        charm_d = version == "charm-d"
        return config_cls(
            version=version,
            nodes=draw(st.integers(1, 4)),
            grid=tuple(draw(st.integers(8, 96)) for _ in range(config_cls.NDIM)),
            odf=1 if version.startswith("mpi") else draw(st.integers(1, 4)),
            iterations=draw(st.integers(1, 12)),
            warmup=draw(st.integers(0, 3)),
            fusion=draw(st.sampled_from(["none", "A", "B", "C"])) if charm_d else "none",
            cuda_graphs=draw(st.booleans()) if charm_d else False,
            legacy_sync=draw(st.booleans()) if charm_d else False,
            mpi_overlap=draw(st.booleans()) if version.startswith("mpi") else False,
            machine=MACHINE,
        )

    return strat()


# ---------------------------------------------------------------------------
# Registry API
# ---------------------------------------------------------------------------


def test_all_bundled_apps_registered():
    assert app_names() == ["allreduce", "cholesky", "jacobi2d", "jacobi3d"]


def test_get_app_unknown_name():
    with pytest.raises(ValueError, match="unknown app 'nope'"):
        get_app("nope")


def test_config_from_dict_unknown_app_names_the_culprit():
    with pytest.raises(KeyError, match="unknown app 'nope'") as exc:
        config_from_dict({"app": "nope", "nodes": 1})
    # The error enumerates what IS registered, so a typo'd cache entry or
    # hand-edited config is self-diagnosing.
    assert "allreduce" in str(exc.value)
    assert "cholesky" in str(exc.value)
    assert "jacobi3d" in str(exc.value)


def test_spec_matches_config_class():
    for name, cls in APP_CLASSES.items():
        spec = get_app(name)
        assert spec.name == cls.APP == name
        assert spec.config_cls is cls
        assert spec_for(cls(machine=MACHINE)) is spec


def test_spec_for_rejects_foreign_objects():
    with pytest.raises(TypeError):
        spec_for(object())


def test_register_is_idempotent_but_rejects_conflicts():
    assert register(JACOBI3D_SPEC) is JACOBI3D_SPEC
    imposter = dataclasses.replace(JACOBI3D_SPEC, description="different")
    with pytest.raises(ValueError, match="already registered"):
        register(imposter)


def test_spec_name_must_match_config_class():
    with pytest.raises(ValueError, match="does not match its config class"):
        dataclasses.replace(JACOBI3D_SPEC, name="jacobi2d")


# ---------------------------------------------------------------------------
# Round-trips through the registry dispatchers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("app", sorted(APP_CLASSES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_config_roundtrip_per_app(app, data):
    assert issubclass(get_app(app).config_cls, BaseAppConfig)
    config = data.draw(_configs(APP_CLASSES[app]))
    d = config.to_dict()
    assert d["app"] == app
    assert next(iter(d)) == "app"  # the app name leads the canonical form
    back = config_from_dict(d)
    assert type(back) is APP_CLASSES[app]
    assert back == config
    assert config_key(back) == config_key(config)


def test_from_dict_rejects_wrong_app():
    d = Jacobi2DConfig(machine=MACHINE).to_dict()
    with pytest.raises(ValueError, match="use repro.apps.registry.config_from_dict"):
        Jacobi3DConfig.from_dict(d)


def test_config_from_dict_without_app_names_the_missing_field():
    d = Jacobi3DConfig(machine=MACHINE).to_dict()
    del d["app"]  # no app to dispatch on: no default is guessed
    with pytest.raises(KeyError) as excinfo:
        config_from_dict(d)
    assert excinfo.value.args == ("app",)


def test_result_from_dict_dispatches_and_checks_expectation():
    cfg = Jacobi2DConfig(version="charm-d", grid=(16, 16), odf=2,
                         iterations=2, warmup=0, machine=MACHINE)
    d = run_app(cfg).to_dict()
    result = result_from_dict(d)
    assert isinstance(result, StencilResult)
    assert result.config == cfg
    assert result_from_dict(d, expected=get_app("jacobi2d")).config == cfg
    with pytest.raises(ValueError, match="expected 'jacobi3d'"):
        result_from_dict(d, expected=get_app("jacobi3d"))


# ---------------------------------------------------------------------------
# Cross-app cache-key separation
# ---------------------------------------------------------------------------


class _RenamedJacobi3D(Jacobi3DConfig):
    """Identical fields to Jacobi3DConfig under a different app name."""

    APP = "jacobi3d-renamed"


def test_same_parameters_different_app_different_key():
    kwargs = dict(version="charm-d", nodes=2, grid=(64, 64, 64), odf=2,
                  iterations=5, warmup=1, machine=MACHINE)
    a, b = Jacobi3DConfig(**kwargs), _RenamedJacobi3D(**kwargs)
    assert config_key(a) != config_key(b)
    # ... and the app name is the ONLY divergence in the canonical form.
    da, db = a.to_dict(), b.to_dict()
    assert da.pop("app") == "jacobi3d" and db.pop("app") == "jacobi3d-renamed"
    assert da == db


@settings(max_examples=40, deadline=None)
@given(d2=_configs(Jacobi2DConfig), d3=_configs(Jacobi3DConfig))
def test_property_apps_never_alias(d2, d3):
    assert config_key(d2) != config_key(d3)
