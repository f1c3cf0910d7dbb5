"""The application registry: one :class:`AppSpec` per registered workload.

The runtime mechanisms under study (overdecomposition, GPU-aware channels,
kernel fusion, CUDA graphs) are app-agnostic; an :class:`AppSpec` is the
complete contract an application signs to plug into every layer of the
harness:

* the **exec layer** builds cache keys from ``config_cls.to_dict()`` (which
  carries the app name) and revives cached results via
  :func:`result_from_dict`;
* the **generic driver** (:func:`repro.apps.driver.run_app`) uses
  ``make_context``, the Charm++ chare factory and the rank program it
  hosts under MPI or AMPI;
* the **observability layer** consumes the app-declared ``phases`` and
  ``classify_op`` instead of a hardcoded phase tuple;
* the **validation layer** runs ``differential_base`` through the
  cross-runtime matrix and pins ``golden_configs`` to trace digests.

Apps self-register at import time (``repro.apps`` imports every bundled
app package), so the registry is always populated once :mod:`repro.apps`
is loaded.  See ``docs/apps.md`` for the authoring guide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

__all__ = [
    "AppSpec",
    "app_names",
    "config_from_dict",
    "get_app",
    "register",
    "result_from_dict",
    "spec_for",
]


@dataclass(frozen=True)
class AppSpec:
    """Everything the harness needs to know about one application."""

    #: Registry name (the ``--app`` value and the ``app`` field of config
    #: dicts); must equal ``config_cls.APP``.
    name: str
    #: One-line human description (``repro apps``).
    description: str
    #: The app's :class:`~repro.apps.appbase.BaseAppConfig` subclass.
    config_cls: type
    #: The app's result class (``from_dict`` revives cache entries).
    result_cls: type
    #: ``(config, initial_state=None) -> context`` for the frontends below.
    make_context: Callable
    #: ``ctx -> Chare subclass`` (Charm++ frontend).
    make_block_class: Callable
    #: ``ctx -> rank-program mixin`` defining ``_bind_unit``,
    #: ``_setup_device`` and ``_main_body``; the driver hosts it as an
    #: ``MpiProcess`` (plain MPI) or an ``AmpiProcess`` (AMPI).
    make_rank_program: Callable
    #: Declared cost-phase vocabulary, in display order.
    phases: tuple
    #: ``(category, op_name) -> phase`` trace classifier.
    classify_op: Callable
    #: ``() -> config``: the functional-mode base the differential matrix
    #: mutates across runtimes/fusion/graphs.
    differential_base: Callable
    #: ``() -> {name: config}``: canonical configs pinned in the golden store.
    golden_configs: Callable
    #: Optional ``(base, quick) -> [(label, config), ...]``: the app's own
    #: differential matrix.  ``None`` selects the stencil-shaped default
    #: (:func:`repro.validate.differential.default_matrix`) — apps without
    #: fusion/graphs axes, or whose numerics constrain which axes may vary
    #: (an allreduce sum depends on the contributor count), declare their
    #: own cases here.
    differential_cases: Optional[Callable] = None
    #: ``((phase, (op-name prefix, ...)), ...)`` pairs mapping each
    #: *compute* phase to the kernel-name prefixes that belong to it — the
    #: inverse of ``classify_op`` restricted to ``gpu.compute``, declared
    #: so the what-if engine (:mod:`repro.obs.whatif`) can turn "scale
    #: phase X" into the equivalent :class:`~repro.hardware.specs.GpuSpec`
    #: ``op_scales`` machine intervention.  Copy/network phases need no
    #: entry (they map to the d2h/h2d/d2d/wire scale knobs instead).
    phase_kernels: tuple = ()

    def __post_init__(self):
        if self.name != getattr(self.config_cls, "APP", None):
            raise ValueError(
                f"AppSpec {self.name!r} does not match its config class "
                f"(config_cls.APP == {getattr(self.config_cls, 'APP', None)!r})"
            )


_REGISTRY: dict[str, AppSpec] = {}


def register(spec: AppSpec) -> AppSpec:
    """Register ``spec`` (idempotent for the identical spec; a different
    spec under an existing name is an error)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing != spec:
        raise ValueError(f"app {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def app_names() -> list[str]:
    """All registered app names, sorted."""
    return sorted(_REGISTRY)


def get_app(name: str) -> AppSpec:
    """The spec registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown app {name!r}; registered apps: {', '.join(app_names()) or 'none'}"
        ) from None


def spec_for(config) -> AppSpec:
    """The spec owning ``config`` (via its class's ``APP`` name)."""
    app = getattr(type(config), "APP", "")
    if not app:
        raise TypeError(f"{type(config).__name__} does not belong to a registered app")
    return get_app(app)


def config_from_dict(d: dict) -> object:
    """Revive a config dict produced by any registered app's ``to_dict``.

    Raises :class:`KeyError` naming the field when the dict has no ``app``,
    and naming the unknown app and listing the registered names when its
    ``app`` matches no registered application (a stale cache entry, a typo
    in a hand-written dict, or an app package that was not imported)."""
    name = d["app"]
    if name not in _REGISTRY:
        raise KeyError(
            f"config dict names unknown app {name!r}; registered apps: "
            f"{', '.join(app_names()) or 'none'}"
        )
    return _REGISTRY[name].config_cls.from_dict(d)


def result_from_dict(d: dict, expected: Optional[AppSpec] = None) -> object:
    """Revive a result dict produced by any registered app's ``to_dict``.
    ``expected`` (optional) asserts the dict belongs to that app."""
    spec = get_app(d["config"]["app"])
    if expected is not None and spec.name != expected.name:
        raise ValueError(f"result is for app {spec.name!r}, expected {expected.name!r}")
    return spec.result_cls.from_dict(d)
