"""Causal what-if projection over a recorded run.

The critical-path walk (:mod:`repro.obs.critpath`) *attributes* a makespan;
this module answers the counterfactual the paper's figures pose: "how much
faster would this run be if communication were free, GPU compute halved,
packing removed?"  The engine takes one profiled run, applies a virtual
**intervention** — scale (or zero) one cost category — and projects the new
makespan from the recorded dependency structure:

* every recorded activity interval is re-labelled with a *what-if category*
  (the app's compute phases for kernels; ``d2h``/``h2d``/``d2d`` for copy
  engines; ``wire`` for network in-flight windows; ``pe`` for host cores);
* the recorded critical path is re-costed segment by segment — a path
  segment on a scaled category contributes ``duration × factor``, anything
  else (including dependency ``wait`` gaps) is untouched;
* the projection is clamped from below by per-lane serial floors: each
  GPU engine and each PE is a serial resource, so its scaled busy total is
  a lower bound on any feasible schedule.

Because the backend is a simulator, every projection is *checkable*: each
intervention has an equivalent machine-level knob (``GpuSpec.op_scales`` /
``*_scale``, ``NicSpec.wire_scale``) that scales exactly the traced
durations the projection scaled, so :func:`validate_intervention` re-runs
the config on the modified machine and reports the prediction error — the
rigor causal profilers on real systems (Coz) can only approximate.

The :func:`advise_odf` mode fits a pipeline-overlap model
(``max(C,N) + min(C,N)/b + overhead·b``) to one profiled run and ranks
overdecomposition factors without running the sweep.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional

from ..sim import Tracer, merge_intervals
from .critpath import CriticalPath, critical_path

__all__ = [
    "DEFAULT_TOLERANCE",
    "Intervention",
    "OdfAdvice",
    "TargetKnobs",
    "WhatIfModel",
    "WhatIfPrediction",
    "WhatIfValidation",
    "advise_odf",
    "apply_to_machine",
    "odf_sweep",
    "record_run",
    "resolve_targets",
    "validate_intervention",
]

#: Pinned prediction-error tolerance (relative) for the validation suite:
#: every intervention in the acceptance matrix must re-run within this of
#: its projection.  The simulator is deterministic, so observed errors are
#: stable; this bound was pinned above the worst case measured across the
#: 6-intervention × 4-app × charm/mpi matrix (15.4%, cholesky/charm-d
#: net×2 — see tests/obs/test_whatif.py).
DEFAULT_TOLERANCE = 0.2

#: Copy-engine lanes (GPU trace categories ``gpu.copy_<kind>``).
COPY_KINDS = ("d2h", "h2d", "d2d")
#: What-if category for network in-flight windows.
WIRE = "wire"
#: What-if category for host-core busy time.
PE = "pe"

_PARSE_RE = re.compile(
    r"^\s*([A-Za-z][A-Za-z0-9_.\-]*)\s*[*×=]\s*"
    r"([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)\s*$")


@dataclass(frozen=True)
class Intervention:
    """One virtual change: multiply cost category ``target`` by ``scale``.

    ``scale=0`` zeroes the category ("what if packing were free"),
    ``scale=2`` doubles it ("what if the network were twice as slow").
    Targets are resolved per app (:func:`resolve_targets`): the app's
    declared phases plus the generic aliases ``net``, ``gpu``, ``d2h``,
    ``h2d``.
    """

    target: str
    scale: float

    def __post_init__(self):
        if not self.target:
            raise ValueError("intervention needs a target category")
        if self.scale < 0:
            raise ValueError(f"intervention scale must be >= 0, got {self.scale}")

    def __str__(self) -> str:
        return f"{self.target}x{self.scale:g}"

    @classmethod
    def parse(cls, text: str) -> "Intervention":
        """Parse ``"net*0"``, ``"h2d×0.5"``, or ``"pack=0"``."""
        m = _PARSE_RE.match(text)
        if m is None:
            raise ValueError(
                f"cannot parse intervention {text!r} (expected TARGET*SCALE, "
                f"e.g. net*0, h2d*0.5, pack=0)")
        return cls(target=m.group(1), scale=float(m.group(2)))


@dataclass(frozen=True)
class TargetKnobs:
    """The machine-level footprint of one intervention target: which
    compute-kernel prefixes, copy engines, and/or the wire it scales.
    ``trace_cats`` is the matching set of what-if categories; the sentinel
    ``"<compute>"`` means "every compute phase" (the ``gpu`` alias)."""

    compute_prefixes: tuple = ()
    copy_kinds: tuple = ()
    wire: bool = False
    trace_cats: tuple = ()


def resolve_targets(app_spec) -> dict[str, TargetKnobs]:
    """Every valid intervention target for ``app_spec`` and its knobs.

    Compute phases come from the app's declared ``phase_kernels``; copy
    engines and the wire attach to whatever phase the app's classifier
    assigns them (probed with empty op names), so e.g. allreduce's
    ``chunk`` phase resolves to both staging copy engines.  Generic
    aliases — ``net`` (wire + same-device transport), ``gpu`` (all compute
    kernels), ``d2h``/``h2d`` — are added when the app does not already
    declare a phase of that name.
    """
    acc: dict[str, dict] = {}

    def slot(name: str) -> dict:
        return acc.setdefault(
            name, {"compute": [], "copies": [], "wire": False, "cats": []})

    for phase, prefixes in app_spec.phase_kernels:
        s = slot(phase)
        s["compute"].extend(prefixes)
        s["cats"].append(phase)
    classify = app_spec.classify_op
    for kind in COPY_KINDS:
        phase = classify(f"gpu.copy_{kind}", "")
        if phase != "other":
            s = slot(phase)
            s["copies"].append(kind)
            s["cats"].append(kind)
    net_phase = classify("net.deliver", "")
    if net_phase != "other":
        s = slot(net_phase)
        s["wire"] = True
        s["cats"].append(WIRE)
    if "net" not in acc and net_phase in acc:
        acc["net"] = dict(acc[net_phase])
    if "gpu" not in acc:
        acc["gpu"] = {"compute": [""], "copies": [], "wire": False,
                      "cats": ["<compute>"]}
    for kind in ("d2h", "h2d"):
        if kind not in acc:
            acc[kind] = {"compute": [], "copies": [kind], "wire": False,
                         "cats": [kind]}
    return {
        name: TargetKnobs(
            compute_prefixes=tuple(s["compute"]),
            copy_kinds=tuple(s["copies"]),
            wire=s["wire"],
            trace_cats=tuple(s["cats"]),
        )
        for name, s in acc.items()
    }


def apply_to_machine(intervention: Intervention, app_spec, machine):
    """The :class:`~repro.hardware.specs.MachineSpec` whose runs differ
    from ``machine``'s by exactly the intervention: matching traced
    durations are multiplied by ``scale``, everything else (host launch
    costs, per-message CPU overheads, rendezvous handshakes) unchanged.

    New ``op_scales`` entries are prepended, so the most recent
    intervention wins where prefixes overlap (first match wins).
    """
    targets = resolve_targets(app_spec)
    knobs = targets.get(intervention.target)
    if knobs is None:
        raise ValueError(
            f"unknown intervention target {intervention.target!r} for app "
            f"{app_spec.name!r}; valid targets: {', '.join(sorted(targets))}")
    out = machine
    gpu = machine.node.gpu
    gpu_kwargs = {}
    if knobs.compute_prefixes:
        new = tuple((p, intervention.scale) for p in knobs.compute_prefixes)
        gpu_kwargs["op_scales"] = new + gpu.op_scales
    for kind in knobs.copy_kinds:
        attr = f"{kind}_scale"
        gpu_kwargs[attr] = getattr(gpu, attr) * intervention.scale
    if gpu_kwargs:
        out = out.with_gpu(**gpu_kwargs)
    if knobs.wire:
        out = out.with_nic(
            wire_scale=machine.node.nic.wire_scale * intervention.scale)
    return out


# ---------------------------------------------------------------------------
# The projection model
# ---------------------------------------------------------------------------


@dataclass
class WhatIfPrediction:
    """One intervention's projected outcome."""

    intervention: Intervention
    baseline_makespan: float
    makespan: float
    path_s: float  #: re-costed critical-path length
    floor_s: float  #: tightest serial-lane lower bound
    overlap_s: float  #: coarse overlap estimate (not tolerance-validated)
    scales: dict = field(default_factory=dict)  #: category -> factor applied

    @property
    def speedup(self) -> float:
        return self.baseline_makespan / self.makespan if self.makespan > 0 \
            else float("inf")

    def to_dict(self) -> dict:
        return {
            "intervention": str(self.intervention),
            "target": self.intervention.target,
            "scale": self.intervention.scale,
            "baseline_makespan": self.baseline_makespan,
            "makespan": self.makespan,
            "speedup": self.speedup,
            "path_s": self.path_s,
            "floor_s": self.floor_s,
            "overlap_s": self.overlap_s,
            "scaled_categories": dict(self.scales),
        }

    def render_text(self) -> str:
        cats = ", ".join(sorted(self.scales)) or "(none)"
        return (f"what-if {self.intervention}: "
                f"{self.baseline_makespan * 1e3:.3f} ms -> "
                f"{self.makespan * 1e3:.3f} ms "
                f"({self.speedup:.2f}x; scaled: {cats})")


class WhatIfModel:
    """The projection engine for one recorded run.

    Build with :meth:`from_run` (or :func:`record_run`); then
    :meth:`predict` any number of interventions without re-simulating.
    """

    def __init__(self, app_spec, makespan: float,
                 segments: list[tuple[float, float, str]],
                 lane_sums: dict[tuple, dict[str, float]],
                 overlap_s: float = 0.0,
                 iterations: int = 1,
                 odf: int = 1):
        self.app_spec = app_spec
        self.makespan = makespan
        self.segments = segments
        self.lane_sums = lane_sums
        self.overlap_s = overlap_s
        self.iterations = max(1, iterations)
        self.odf = max(1, odf)
        self.targets = resolve_targets(app_spec)
        #: Compute phases actually observed in the trace (the ``gpu``
        #: alias's ``<compute>`` sentinel expands to these).
        self.compute_cats = {
            cat for (_, lane), sums in lane_sums.items() if lane == "compute"
            for cat in sums
        }
        self._path: Optional[CriticalPath] = None

    # -- construction --------------------------------------------------------
    @classmethod
    def from_run(cls, config, cluster, tracer: Tracer, makespan: float,
                 overlap_s: float = 0.0) -> "WhatIfModel":
        """Relabel one finished run's activity into what-if categories.

        GPU trace records keep their device and engine lane so serial
        floors stay per-resource; PE busy and the network in-flight
        tracker come from the cluster, as in
        :func:`~repro.obs.critpath.collect_segments`.
        """
        from ..apps import spec_for

        spec = spec_for(config)
        classify = spec.classify_op
        segments: list[tuple[float, float, str]] = []
        lane_sums: dict[tuple, dict[str, float]] = {}

        def charge(actor, lane, cat, duration):
            sums = lane_sums.setdefault((actor, lane), {})
            sums[cat] = sums.get(cat, 0.0) + duration

        for rec in tracer.records:
            if not rec.category.startswith("gpu."):
                continue
            duration = rec.data.get("duration")
            if duration is None:
                continue
            duration = float(duration)
            start = float(rec.data.get("start", rec.time))
            kind = rec.category[len("gpu."):]
            if kind.startswith("copy_"):
                cat = kind[len("copy_"):]  # d2h / h2d / d2d
                lane = cat
            else:
                cat = classify(rec.category, str(rec.data.get("op", "")))
                lane = "compute"
            segments.append((start, start + duration, cat))
            charge(rec.actor, lane, cat, duration)
        for pe in cluster.all_pes():
            for a, b in pe.busy.spans:
                segments.append((a, b, PE))
                charge(pe.name, PE, PE, b - a)
        for a, b in cluster.network.inflight.spans:
            segments.append((a, b, WIRE))
        # The in-flight tracker is cluster-wide (windows overlap freely),
        # so its *footprint* — not its sum — is the wire lane floor.
        wire_busy = sum(
            b - a for a, b in merge_intervals(cluster.network.inflight.spans))
        if wire_busy > 0:
            lane_sums[("net", WIRE)] = {WIRE: wire_busy}
        return cls(
            spec, makespan, segments, lane_sums,
            overlap_s=overlap_s,
            iterations=getattr(config, "total_iterations", 1),
            odf=getattr(config, "odf", 1),
        )

    # -- projection ----------------------------------------------------------
    @property
    def path(self) -> CriticalPath:
        """The recorded critical path over what-if categories (cached)."""
        if self._path is None:
            self._path = critical_path(self.segments, 0.0, self.makespan)
        return self._path

    def category_scales(self, intervention: Intervention) -> dict[str, float]:
        """Per-category factors the intervention applies to the trace."""
        knobs = self.targets.get(intervention.target)
        if knobs is None:
            raise ValueError(
                f"unknown intervention target {intervention.target!r} for "
                f"app {self.app_spec.name!r}; valid targets: "
                f"{', '.join(sorted(self.targets))}")
        cats = set(knobs.trace_cats)
        if "<compute>" in cats:
            cats.discard("<compute>")
            cats.update(self.compute_cats)
        return {cat: intervention.scale for cat in cats}

    def predict(self, intervention: Intervention) -> WhatIfPrediction:
        """Project ``intervention``'s makespan and overlap.

        The projection is ``max(re-costed path, serial-lane floor)``:
        scaling a category off the critical path cannot help, and no
        schedule beats its busiest serial resource.  A no-op
        (``scale=1``) re-costs every segment by 1 and the path tiles
        ``[0, makespan]``, so it predicts the recorded makespan exactly.
        """
        scales = self.category_scales(intervention)
        path_s = math.fsum(
            seg.duration * scales.get(seg.category, 1.0)
            for seg in self.path.segments)
        floor_s = 0.0
        for sums in self.lane_sums.values():
            lane_total = math.fsum(
                secs * scales.get(cat, 1.0) for cat, secs in sums.items())
            floor_s = max(floor_s, lane_total)
        return WhatIfPrediction(
            intervention=intervention,
            baseline_makespan=self.makespan,
            makespan=max(path_s, floor_s),
            path_s=path_s,
            floor_s=floor_s,
            overlap_s=self._predict_overlap(scales),
            scales=scales,
        )

    def _predict_overlap(self, scales: dict[str, float]) -> float:
        """Coarse overlap estimate: recorded overlap tracks the smaller of
        the comm/compute footprints, so scale it by the communication
        factor and cap at the scaled compute total."""
        comm_cats = set(COPY_KINDS) | {WIRE}
        comm = {cat: 0.0 for cat in comm_cats}
        compute_scaled = 0.0
        for (_, lane), sums in self.lane_sums.items():
            for cat, secs in sums.items():
                if cat in comm_cats:
                    comm[cat] += secs
                elif lane == "compute":
                    compute_scaled += secs * scales.get(cat, 1.0)
        comm_total = sum(comm.values())
        if comm_total <= 0:
            return 0.0
        f_comm = sum(
            secs * scales.get(cat, 1.0) for cat, secs in comm.items()
        ) / comm_total
        return min(self.overlap_s * f_comm, compute_scaled)


# ---------------------------------------------------------------------------
# Prediction-vs-actual validation
# ---------------------------------------------------------------------------


@dataclass
class WhatIfValidation:
    """One prediction held against its actual re-run."""

    intervention: Intervention
    predicted: float
    actual: float
    baseline: float

    @property
    def rel_error(self) -> float:
        if self.actual > 0:
            return abs(self.predicted - self.actual) / self.actual
        return 0.0 if self.predicted == self.actual else float("inf")

    def ok(self, tolerance: float = DEFAULT_TOLERANCE) -> bool:
        return self.rel_error <= tolerance

    def to_dict(self) -> dict:
        return {
            "intervention": str(self.intervention),
            "predicted": self.predicted,
            "actual": self.actual,
            "baseline": self.baseline,
            "rel_error": self.rel_error,
        }

    def render_text(self) -> str:
        return (f"{str(self.intervention):14s} predicted "
                f"{self.predicted * 1e3:9.3f} ms  actual "
                f"{self.actual * 1e3:9.3f} ms  error {self.rel_error * 100:5.1f}%")


def record_run(config, validate: bool = False):
    """Run ``config`` once under a fresh probe and build its projection
    model; returns ``(result, model)``.  (App import is lazy so
    ``repro.obs`` stays importable without the application stack.)"""
    from ..apps import run_app
    from .report import Observatory

    obs = Observatory()
    result = run_app(config, observatory=obs, validate=validate)
    model = WhatIfModel.from_run(config, obs.cluster, obs.tracer,
                                 makespan=result.total_time,
                                 overlap_s=result.overlap_s)
    return result, model


def validate_intervention(config, intervention: Intervention,
                          model: Optional[WhatIfModel] = None) -> WhatIfValidation:
    """Predict ``intervention`` on ``config``'s recorded run, then actually
    re-run on the equivalently modified machine and report the error."""
    from ..apps import run_app, spec_for

    if model is None:
        _, model = record_run(config)
    prediction = model.predict(intervention)
    machine = apply_to_machine(intervention, spec_for(config), config.machine)
    actual = run_app(config.with_(machine=machine))
    return WhatIfValidation(
        intervention=intervention,
        predicted=prediction.makespan,
        actual=actual.total_time,
        baseline=model.makespan,
    )


# ---------------------------------------------------------------------------
# ODF advisor
# ---------------------------------------------------------------------------


@dataclass
class OdfAdvice:
    """One ODF's projected per-run time under the pipeline-overlap model."""

    odf: int
    predicted_s: float

    def to_dict(self) -> dict:
        return {"odf": self.odf, "predicted_s": self.predicted_s}


def advise_odf(model: WhatIfModel, odfs) -> list[OdfAdvice]:
    """Rank overdecomposition factors from one profiled run.

    Fits the classic pipeline-overlap model to the recorded aggregates:
    with ``b`` blocks per PE, per-iteration time is approximately
    ``max(C, N) + min(C, N)/b + o·b`` — the larger of compute and
    communication, a pipeline-fill term that overlap amortizes away, and
    per-task fixed costs that grow with the block count.  ``C`` is the
    busiest device's compute total, ``N`` the network in-flight footprint
    and ``o`` the busiest PE's per-block host cost, all per iteration; a
    constant calibrated at the recorded ODF absorbs what the model does
    not capture.  Returns advice sorted fastest-first.
    """
    iters = model.iterations
    b0 = model.odf
    compute = max(
        (math.fsum(sums.values())
         for (_, lane), sums in model.lane_sums.items() if lane == "compute"),
        default=0.0)
    wire = model.lane_sums.get(("net", WIRE), {}).get(WIRE, 0.0)
    pe_busy = max(
        (math.fsum(sums.values())
         for (_, lane), sums in model.lane_sums.items() if lane == PE),
        default=0.0)
    c = compute / iters
    n = wire / iters
    o = pe_busy / iters / b0

    def t_model(b: int) -> float:
        return max(c, n) + min(c, n) / b + o * b

    c0 = model.makespan / iters - t_model(b0)
    advice = [
        OdfAdvice(odf=b, predicted_s=(t_model(b) + c0) * iters)
        for b in odfs
    ]
    advice.sort(key=lambda a: (a.predicted_s, a.odf))
    return advice


def odf_sweep(config, odfs) -> dict[int, float]:
    """The ground truth for :func:`advise_odf`: actually run every ODF and
    return ``{odf: makespan}``."""
    from ..apps import run_app

    return {b: run_app(config.with_(odf=b)).total_time for b in odfs}
