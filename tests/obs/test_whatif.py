"""What-if projection engine: prediction-vs-actual across every registered
app and both frontends, target resolution, projection properties, and the
ODF advisor held against the true sweep.

The matrix configs and intervention sets below are the pinned validation
surface for :data:`repro.obs.whatif.DEFAULT_TOLERANCE`: every projection
must match an *actual* re-run on the equivalently modified machine within
that tolerance.  If a model change pushes an error past the bound, either
the projection engine or the tolerance needs revisiting — not the test.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import get_app, spec_for
from repro.hardware import MachineSpec
from repro.obs.whatif import (
    DEFAULT_TOLERANCE,
    Intervention,
    advise_odf,
    apply_to_machine,
    odf_sweep,
    record_run,
    resolve_targets,
    validate_intervention,
)

MACHINE = MachineSpec.small_debug()

#: Per-app pinned validation configs (small enough for tier-1, large
#: enough that every intervention target has real footprint).
def make_config(app: str, version: str, odf: int):
    cls = get_app(app).config_cls
    if app == "jacobi3d":
        return cls(version=version, nodes=2, grid=(128, 128, 128), odf=odf,
                   iterations=4, warmup=1, machine=MACHINE)
    if app == "jacobi2d":
        return cls(version=version, nodes=2, grid=(1024, 1024), odf=odf,
                   iterations=4, warmup=1, machine=MACHINE)
    if app == "cholesky":
        return cls(version=version, nodes=2, tiles=8, tile=128, odf=odf,
                   machine=MACHINE)
    if app == "allreduce":
        return cls(version=version, nodes=2, elements=1 << 16, odf=odf,
                   iterations=3, warmup=1, machine=MACHINE)
    raise AssertionError(app)


#: The per-app intervention vocabulary under test: the generic machine
#: aliases plus app-declared phases (pack for stencils, factor/update for
#: cholesky, chunk/reduce-scatter for allreduce).
INTERVENTIONS = {
    "jacobi3d": ("net*0", "net*2", "h2d*0.5", "pack=0", "gpu*0.5"),
    "jacobi2d": ("net*0", "net*2", "h2d*0.5", "pack=0", "gpu*0.5"),
    "cholesky": ("net*0", "net*2", "h2d*0.5", "gpu*0.5", "factor=0",
                 "update*0.5"),
    "allreduce": ("net*0", "net*2", "h2d*0.5", "gpu*0.5", "chunk=0",
                  "reduce-scatter*0.5"),
}

FRONTENDS = (("charm-d", 2), ("mpi-h", 1))

MATRIX = [
    (app, version, odf, spec)
    for app, specs in sorted(INTERVENTIONS.items())
    for version, odf in FRONTENDS
    for spec in specs
]


@lru_cache(maxsize=None)
def recorded(app: str, version: str, odf: int):
    """One recorded run + projection model per matrix cell (cached: the
    whole point of the engine is many projections from one profile)."""
    config = make_config(app, version, odf)
    _, model = record_run(config)
    return config, model


# ---------------------------------------------------------------------------
# Prediction vs actual — the pinned-tolerance matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("app,version,odf,spec", MATRIX)
def test_prediction_matches_actual_rerun(app, version, odf, spec):
    config, model = recorded(app, version, odf)
    validation = validate_intervention(config, Intervention.parse(spec),
                                       model=model)
    assert validation.ok(), (
        f"{app}/{version} {spec}: predicted {validation.predicted:.6g}s, "
        f"actual {validation.actual:.6g}s — rel error "
        f"{validation.rel_error * 100:.1f}% exceeds "
        f"{DEFAULT_TOLERANCE * 100:.0f}%")


def test_validation_reports_baseline_and_error():
    config, model = recorded("jacobi3d", "charm-d", 2)
    v = validate_intervention(config, Intervention.parse("net*0"), model=model)
    assert v.baseline == pytest.approx(model.makespan)
    assert v.rel_error == abs(v.predicted - v.actual) / v.actual
    doc = v.to_dict()
    assert set(doc) >= {"intervention", "predicted", "actual", "baseline",
                        "rel_error"}


# ---------------------------------------------------------------------------
# Target resolution & the machine mapping
# ---------------------------------------------------------------------------


def test_targets_cover_phases_and_aliases():
    for app in INTERVENTIONS:
        spec = get_app(app)
        targets = resolve_targets(spec)
        assert {"net", "gpu", "d2h", "h2d"} <= set(targets)
        for phase, _ in spec.phase_kernels:
            assert phase in targets, f"{app}: declared phase {phase} missing"


def test_unknown_target_lists_the_valid_ones():
    _, model = recorded("jacobi3d", "charm-d", 2)
    with pytest.raises(ValueError, match="valid targets"):
        model.predict(Intervention("warp-drive", 0.5))


def test_parse_accepts_the_documented_spellings():
    assert Intervention.parse("net*0") == Intervention("net", 0.0)
    assert Intervention.parse("h2d×0.5") == Intervention("h2d", 0.5)
    assert Intervention.parse("pack=0") == Intervention("pack", 0.0)
    for bad in ("", "net", "*2", "net*-1", "net*two"):
        with pytest.raises(ValueError):
            Intervention.parse(bad)


def test_apply_to_machine_moves_the_right_knob():
    spec = get_app("jacobi3d")
    wire = apply_to_machine(Intervention("net", 2.0), spec, MACHINE)
    assert wire.node.nic.wire_scale == pytest.approx(2.0)
    h2d = apply_to_machine(Intervention("h2d", 0.5), spec, MACHINE)
    assert h2d.node.gpu.h2d_scale == pytest.approx(0.5)
    pack = apply_to_machine(Intervention("pack", 0.0), spec, MACHINE)
    assert any(prefix == "pack" and scale == 0.0
               for prefix, scale in pack.node.gpu.op_scales)
    # The baseline machine is untouched (interventions are virtual).
    assert MACHINE.node.nic.wire_scale == 1.0
    assert MACHINE.node.gpu.op_scales == ()


def test_config_app_spec_roundtrip():
    config = make_config("cholesky", "charm-d", 2)
    assert spec_for(config).name == "cholesky"


# ---------------------------------------------------------------------------
# Projection properties (no re-simulation: these are pure model checks)
# ---------------------------------------------------------------------------


def _model_and_targets():
    _, model = recorded("jacobi3d", "charm-d", 2)
    return model, sorted(resolve_targets(model.app_spec))


def test_noop_predicts_the_recorded_makespan_exactly():
    model, targets = _model_and_targets()
    for target in targets:
        pred = model.predict(Intervention(target, 1.0))
        assert pred.makespan == pytest.approx(model.makespan, rel=1e-12), \
            f"no-op on {target} moved the makespan"


@given(scale=st.floats(min_value=0.0, max_value=1.0), data=st.data())
@settings(max_examples=60, deadline=None)
def test_scaling_down_never_predicts_slower(scale, data):
    model, targets = _model_and_targets()
    target = data.draw(st.sampled_from(targets))
    pred = model.predict(Intervention(target, scale))
    assert pred.makespan <= model.makespan * (1 + 1e-9)


@given(scale=st.floats(min_value=1.0, max_value=8.0), data=st.data())
@settings(max_examples=60, deadline=None)
def test_scaling_up_never_predicts_faster(scale, data):
    model, targets = _model_and_targets()
    target = data.draw(st.sampled_from(targets))
    pred = model.predict(Intervention(target, scale))
    assert pred.makespan >= model.makespan * (1 - 1e-9)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_zeroing_never_predicts_below_the_compute_floor(data):
    """Zeroing a *communication* category cannot beat the busiest serial
    compute lane: the GPU still has to do all the compute work."""
    model, targets = _model_and_targets()
    compute_phases = {phase for phase, _ in model.app_spec.phase_kernels}
    comm_targets = [t for t in targets if t not in compute_phases
                    and t != "gpu"]
    target = data.draw(st.sampled_from(comm_targets))
    compute_floor = max(
        (sum(secs for cat, secs in lane.items() if cat in compute_phases)
         for lane in model.lane_sums.values()), default=0.0)
    pred = model.predict(Intervention(target, 0.0))
    assert pred.makespan >= compute_floor * (1 - 1e-9)


# ---------------------------------------------------------------------------
# ODF advisor vs the true sweep
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("grid,best_odf", [
    # Large grid: deep pipeline, overlap wins — the paper's §IV-B regime.
    ((1536, 1536, 1536), 4),
    # Small grid: per-block overheads dominate, no decomposition wins.
    ((256, 256, 256), 1),
])
def test_odf_advisor_agrees_with_the_true_sweep(grid, best_odf):
    cls = get_app("jacobi3d").config_cls
    config = cls(version="charm-d", nodes=4, grid=grid, odf=2,
                 iterations=3, warmup=1, machine=MACHINE)
    _, model = record_run(config)
    odfs = (1, 2, 4, 8)
    advice = advise_odf(model, odfs)
    actual = odf_sweep(config, odfs)
    assert advice[0].odf == best_odf
    assert min(actual, key=actual.get) == best_odf
    # Calibration makes the prediction at the recorded ODF exact.
    at_b0 = next(a for a in advice if a.odf == config.odf)
    assert at_b0.predicted_s == pytest.approx(model.makespan, rel=1e-12)
    # Ranked output, best first.
    assert [a.predicted_s for a in advice] == \
        sorted(a.predicted_s for a in advice)
