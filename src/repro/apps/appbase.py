"""Config/result/metrics machinery shared by every application.

* :class:`BaseAppConfig` — the config base every registered app's config
  subclasses: version/nodes/odf/data_mode/machine plus the derived
  predicates and the ``to_dict``/``from_dict``/cache-key conventions the
  generic driver (:func:`repro.apps.driver.run_app`) and the exec layer
  rely on.  The stencil apps add their grid/fusion/graphs axes on
  :class:`~repro.apps.stencil.config.StencilConfig`.
* :class:`AppResult` — the measured outcome every app run produces; the
  driver constructs it field-by-field, so its field list *is* the driver
  contract.  :class:`~repro.apps.stencil.config.StencilResult` subclasses
  it (adding grid assembly), as do the cholesky/allreduce results.
* :class:`MetricsCollector` / :class:`ResidualHistory` — per-unit
  iteration reports (the one call a unit makes when it finishes an
  iteration) and the per-iteration exact residual combiner, fed by every
  app's context.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Any, ClassVar, Optional

from ..hardware.specs import MachineSpec

__all__ = [
    "ALL_VERSIONS",
    "VERSIONS",
    "AppResult",
    "BaseAppConfig",
    "MetricsCollector",
    "ResidualHistory",
]

#: The paper's four versions (§IV-A): MPI/Charm++ × host-staging/GPU-aware.
VERSIONS = ("mpi-h", "mpi-d", "charm-h", "charm-d")

#: All runnable frontends: the paper's four plus AMPI (virtualized MPI ranks
#: hosted on the Charm++ runtime; ``odf`` is the virtualization ratio).
#: The AMPI versions exist for the cross-backend differential validation
#: harness and the AMPI extension experiments, not for the paper's figures.
ALL_VERSIONS = VERSIONS + ("ampi-h", "ampi-d")


@dataclass(frozen=True)
class BaseAppConfig:
    """Config base for every app.

    Subclasses declare :attr:`APP`, append their own axes, and call
    :meth:`_validate_common` from ``__post_init__``.  ``iterations`` and
    ``warmup`` are *not* fields here — iterative apps add them as fields,
    DAG apps derive them (Cholesky's step count is its tile count).

    Parameters
    ----------
    version:
        ``"mpi-h"`` | ``"mpi-d"`` | ``"charm-h"`` | ``"charm-d"`` —
        plus ``"ampi-h"`` | ``"ampi-d"`` (virtualized MPI ranks on the
        Charm++ runtime; used by the differential validation harness).
    nodes:
        Node count (6 GPUs/PEs per node on Summit).
    odf:
        Overdecomposition factor — chares per PE (Charm++ versions) or
        virtual ranks per PE (AMPI versions); plain MPI is always one
        rank per GPU.
    data_mode:
        ``"modeled"`` (sizes only — any scale) or ``"functional"`` (real
        NumPy data — validates numerics, test-scale problems only).
    machine:
        Hardware model; defaults to Summit.
    """

    #: Registry name of the app this config class belongs to.
    APP: ClassVar[str] = ""

    version: str = "charm-d"
    nodes: int = 1
    odf: int = 1
    data_mode: str = "modeled"
    machine: MachineSpec = None  # type: ignore[assignment]

    def _validate_common(self) -> None:
        if not type(self).APP:
            raise TypeError("BaseAppConfig is abstract: subclasses must set APP")
        for f in fields(self):
            # Counts must be plain ints: a float runs deep and fails late, a
            # bool runs silently under a different cache key.
            value = getattr(self, f.name)
            if f.type == "int" and type(value) is not int:
                raise ValueError(f"{f.name} must be an int, got {value!r}")
        if self.machine is None:
            object.__setattr__(self, "machine", MachineSpec.summit())
        if self.version not in ALL_VERSIONS:
            raise ValueError(
                f"unknown version {self.version!r}; expected one of {ALL_VERSIONS}")
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.odf < 1:
            raise ValueError("odf must be >= 1")
        if self.is_mpi and self.odf != 1:
            raise ValueError("MPI versions run one rank per GPU (odf must be 1)")
        if self.data_mode not in ("modeled", "functional"):
            raise ValueError(f"bad data_mode {self.data_mode!r}")

    # -- derived ---------------------------------------------------------------
    @property
    def app(self) -> str:
        """Registry name of this config's app."""
        return type(self).APP

    @property
    def is_mpi(self) -> bool:
        return self.version.startswith("mpi")

    @property
    def is_charm(self) -> bool:
        return self.version.startswith("charm")

    @property
    def is_ampi(self) -> bool:
        return self.version.startswith("ampi")

    @property
    def gpu_aware(self) -> bool:
        """Device-resident payloads (CUDA-aware MPI / Channel API)."""
        return self.version.endswith("-d")

    @property
    def functional(self) -> bool:
        return self.data_mode == "functional"

    @property
    def total_iterations(self) -> int:
        return self.warmup + self.iterations

    def n_pes(self) -> int:
        return self.nodes * self.machine.node.pes_per_node

    def n_blocks(self) -> int:
        """Participating units: one per PE for MPI, ``odf`` per PE for the
        overdecomposed runtimes."""
        return self.n_pes() * (1 if self.is_mpi else self.odf)

    def with_(self, **kwargs) -> "BaseAppConfig":
        """A modified copy (sweep/matrix helper)."""
        return replace(self, **kwargs)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data form, stable across processes: only numbers, strings,
        bools, lists and the machine dict (tuples become lists, enums their
        ``.value``).  The dict fully determines the run, so it doubles as the
        content-addressed cache identity (:mod:`repro.exec.cache`) and the
        worker-dispatch payload; the ``app`` name leads so two apps with
        coincidentally equal parameters never share a cache key."""
        out = {"app": type(self).APP}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "machine":
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, Enum):
                value = value.value
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "BaseAppConfig":
        """Inverse of :meth:`to_dict` (revalidates via ``__post_init__``).
        ``app`` (when present) must name *this* class's app — use
        :func:`repro.apps.registry.config_from_dict` to dispatch a dict of
        unknown provenance."""
        d = dict(d)
        app = d.pop("app", cls.APP)
        if app != cls.APP:
            raise ValueError(
                f"config dict is for app {app!r}, not {cls.APP!r} "
                "(use repro.apps.registry.config_from_dict)"
            )
        if isinstance(d.get("machine"), dict):
            d["machine"] = MachineSpec.from_dict(d["machine"])
        return cls(**d)


@dataclass
class AppResult:
    """Measured outcome of one app run.

    The generic driver constructs this field-by-field, so every registered
    app's result class is this dataclass (or a subclass adding app-specific
    assembly helpers).  ``max_halo_bytes`` is the largest single message
    payload of the run — named after the stencil apps' halos for cache/golden
    continuity, but any app's dominant payload (a Cholesky tile, an
    allreduce chunk) lands in the same field.
    """

    config: Any
    total_time: float
    warmup_boundary: float
    time_per_iteration: float
    gpu_busy_s: float
    gpu_utilization: float
    pe_busy_s: float
    messages_sent: int
    bytes_sent: int
    protocol_counts: dict
    overlap_s: float
    max_halo_bytes: int
    blocks: Optional[dict] = None  # functional mode: unit index -> final data
    residuals: Optional[list] = None  # functional mode: per-iteration exact combiner

    def assemble_state(self):
        """Stitch functional-mode per-unit data into one comparable global
        array (the differential matrix compares this bitwise across
        frontends).  Subclasses implement the app-specific assembly."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement assemble_state()")

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready form for cache persistence.  Functional-mode results
        carry NumPy data and are deliberately not serializable (they are
        also the one case where re-running is the point)."""
        if self.blocks is not None:
            raise ValueError("functional-mode results (with blocks) are not serializable")
        return {
            "config": self.config.to_dict(),
            "total_time": self.total_time,
            "warmup_boundary": self.warmup_boundary,
            "time_per_iteration": self.time_per_iteration,
            "gpu_busy_s": self.gpu_busy_s,
            "gpu_utilization": self.gpu_utilization,
            "pe_busy_s": self.pe_busy_s,
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "protocol_counts": {p.value: c for p, c in self.protocol_counts.items()},
            "overlap_s": self.overlap_s,
            "max_halo_bytes": self.max_halo_bytes,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AppResult":
        """Inverse of :meth:`to_dict`.  Floats round-trip exactly through
        JSON (``repr`` round-trip), so a cached result is bit-identical to
        the run that produced it.  The embedded config dict is dispatched to
        the right app's config class via the registry."""
        from ..comm.protocols import Protocol
        from .registry import config_from_dict

        return cls(
            config=config_from_dict(d["config"]),
            total_time=d["total_time"],
            warmup_boundary=d["warmup_boundary"],
            time_per_iteration=d["time_per_iteration"],
            gpu_busy_s=d["gpu_busy_s"],
            gpu_utilization=d["gpu_utilization"],
            pe_busy_s=d["pe_busy_s"],
            messages_sent=d["messages_sent"],
            bytes_sent=d["bytes_sent"],
            protocol_counts={Protocol(k): v for k, v in d["protocol_counts"].items()},
            overlap_s=d["overlap_s"],
            max_halo_bytes=d["max_halo_bytes"],
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        cfg = self.config
        odf = f" (odf={cfg.odf})" if not cfg.is_mpi else ""
        return (
            f"{cfg.app} {cfg.version}{odf} nodes={cfg.nodes}: "
            f"{self.time_per_iteration * 1e3:.3f} ms/iter, "
            f"GPU util {self.gpu_utilization * 100:.0f}%"
        )


class ResidualHistory:
    """Per-iteration residual of an app's functional run.

    Each unit records one exact scalar per iteration (the stencils' max-norm
    delta ``max |out - u|`` over the unit's own cells, Cholesky's and
    allreduce's update magnitudes); :meth:`history` combines units by
    ``max``.  Because ``max`` is an exact selection (no rounding), the
    combined history is **bitwise identical** across decompositions,
    schedules and runtimes — which is exactly what the differential
    validation harness (:mod:`repro.validate.differential`) asserts.
    """

    def __init__(self, n_blocks: int, total_iterations: int):
        self.n_blocks = n_blocks
        self.total_iterations = total_iterations
        self._deltas: dict[int, dict] = {}  # iteration -> {block index: delta}

    def record(self, block_index, iteration: int, delta: float) -> None:
        per_block = self._deltas.setdefault(iteration, {})
        key = tuple(block_index)
        if key in per_block:
            raise RuntimeError(f"block {key} recorded iteration {iteration} twice")
        per_block[key] = delta

    def history(self) -> list[float]:
        """Combined per-iteration residuals; raises if any block is missing."""
        out = []
        for it in range(self.total_iterations):
            per_block = self._deltas.get(it, {})
            if len(per_block) != self.n_blocks:
                raise RuntimeError(
                    f"iteration {it}: only {len(per_block)}/{self.n_blocks} "
                    "blocks recorded a residual"
                )
            out.append(max(per_block.values()))
        return out


class MetricsCollector:
    """The one place a unit reports "I finished iteration ``it`` now".

    Units call :meth:`iter_done` (or :meth:`iter_done_when` /
    :meth:`iter_done_after` to report from a GPU completion without a host
    sync); each report records the unit's period sample and, when a probe
    is attached, emits ``probe.on_iter_done``.  :func:`~repro.apps.driver.run_app`
    attaches the collector to the run's engine before any unit starts.

    ``warmup_boundary`` is the latest time at which any unit finished the
    last warmup iteration: the measured window is ``[boundary, end]``.
    """

    #: Steady-state tail: the per-unit period is taken over (up to) this many
    #: final iterations, so startup transients and cross-unit skew cancel.
    TAIL = 6

    def __init__(self, n_units: int, warmup: int):
        self.n_units = n_units
        self.warmup = warmup
        self.warmup_boundary = 0.0
        self.last_iteration: dict[Any, int] = {}
        self._tail_times: dict[Any, deque] = {}
        self.engine = None

    def attach(self, engine) -> "MetricsCollector":
        self.engine = engine
        return self

    def iter_done(self, unit, it: int) -> None:
        """``unit`` finished iteration ``it`` at the current simulated time
        (costs nothing in model time)."""
        engine = self.engine
        now = engine.now
        key = getattr(unit, "index", None) or getattr(unit, "rank", None)
        self.last_iteration[key] = it
        if it >= self.warmup:  # warmup iterations never enter the estimate
            tail = self._tail_times.get(key)
            if tail is None:
                tail = self._tail_times[key] = deque(maxlen=self.TAIL + 1)
            tail.append(now)
        if self.warmup > 0 and it == self.warmup - 1 and now > self.warmup_boundary:
            self.warmup_boundary = now
        probe = engine.probe
        if probe is not None:
            probe.on_iter_done(unit, it)

    def iter_done_when(self, unit, it: int, trigger) -> None:
        """Report iteration ``it`` when ``trigger`` fires, without suspending
        the unit (timestamps a GPU completion while execution stays fully
        asynchronous)."""
        trigger.add_callback(lambda _e: self.iter_done(unit, it))

    def iter_done_after(self, unit, it: int, events, chain=None):
        """Report iteration ``it`` once ``events`` and ``chain`` (the trigger
        this returned for the unit's previous iteration) have all fired, and
        return the new chain trigger (``None`` when there was nothing to wait
        for and the report was immediate).

        Chaining keeps a unit's reports monotone in ``it`` even though an
        iteration's kernels can drain after the next one was issued."""
        if chain is not None:
            events = [chain, *events]
        if not events:
            self.iter_done(unit, it)
            return None
        trigger = self.engine.all_of(events)
        self.iter_done_when(unit, it, trigger)
        return trigger

    def time_per_iteration(self, measured_iterations: int) -> float:
        """Steady-state iteration period.

        Each unit's period is measured over its own last ``TAIL``
        iterations (self-referencing timestamps, so cross-unit skew does not
        bias the estimate and startup transients are excluded).  When no
        unit recorded two post-warmup completions (a one-iteration run, a
        single-tile Cholesky) the period falls back to the whole measured
        window divided by ``measured_iterations``.
        """
        periods = []
        for times in self._tail_times.values():
            if len(times) >= 2:
                periods.append((times[-1] - times[0]) / (len(times) - 1))
        if periods:
            # Mean over units: halo coupling locks every unit to the same
            # long-run rate, and the mean damps per-unit pipeline oscillation
            # that a max would amplify.
            return sum(periods) / len(periods)
        window = max(t[-1] for t in self._tail_times.values()) - self.warmup_boundary
        return window / measured_iterations

    def check_complete(self, total_iterations: int) -> None:
        if len(self.last_iteration) != self.n_units:
            raise RuntimeError(
                f"only {len(self.last_iteration)}/{self.n_units} units reported progress"
            )
        lagging = {k: v for k, v in self.last_iteration.items() if v != total_iterations - 1}
        if lagging:
            raise RuntimeError(f"units stopped early: {lagging}")
