"""Labelled counters, gauges, and histograms for simulated runs.

The registry plays the role of Charm++'s Projections summary counters: a
cheap, always-consistent tally of *what happened* (events scheduled,
messages by protocol path, bytes by size bucket, launches per PE), as
opposed to the tracer's *when it happened* timeline.

The registry is a :class:`~repro.sim.probe.Probe` subscriber: its hooks
turn bus events into counters, and this module is the one place that fixes
metric names and labels.  The two event-kernel counters,
``sim.events.scheduled`` and ``sim.events.executed``, are not counted in the
kernel: the registry derives them from the engine's sequence number and
``Engine.events_executed``, relative to their values at attach (synced when
the registry is read or detached), so the kernel's push paths and loops
carry no counting at all.

Label discipline
----------------
Metrics are keyed by ``(name, sorted label items)``.  Label values come
from small enumerable domains (pe index, protocol name, msg-size bucket);
a per-metric cardinality cap (default :data:`MAX_SERIES`) guards against a
bug introducing an unbounded label (e.g. a per-message id): past the cap,
samples are folded into a single ``(overflow)`` series instead of growing
memory without bound, and ``dropped_series`` records how many distinct
label sets were folded.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from typing import Any, Iterable, Optional

from ..sim.probe import Probe

__all__ = [
    "MAX_SERIES",
    "OVERFLOW_METRIC",
    "SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "size_bucket",
]

#: Per-metric cap on distinct label sets (series).
MAX_SERIES = 1024

#: Synthetic counter name under which the registry exposes how many label
#: sets each metric folded into its ``(overflow)`` series — present in
#: ``snapshot()`` / ``scalar_totals()`` only when folding happened, so a
#: cardinality bug is visible in the perf report instead of silent.
OVERFLOW_METRIC = "repro_metrics_overflow_total"

#: Power-of-4 byte buckets for message-size histograms: "64", "256", ...,
#: "(2^30)+" — coarse enough to stay readable, fine enough to separate the
#: eager / rendezvous / pipelined protocol regimes.
SIZE_BUCKETS = tuple(4 ** k for k in range(3, 16))

_OVERFLOW_KEY = (("_overflow", "true"),)


def size_bucket(size: float) -> str:
    """The histogram bucket label for a byte count (upper edge, or ``+inf``)."""
    idx = bisect_left(SIZE_BUCKETS, size)
    if idx >= len(SIZE_BUCKETS):
        return "+inf"
    return str(SIZE_BUCKETS[idx])


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared storage: one value cell per distinct label set."""

    kind = "metric"

    def __init__(self, name: str, help: str = "", max_series: int = MAX_SERIES):
        self.name = name
        self.help = help
        self.max_series = max_series
        self.series: dict[tuple, Any] = {}
        self.dropped_series = 0
        self._overflow_warned = False

    def _cell_key(self, labels: dict) -> tuple:
        # Unlabelled series (the engine's per-event counters) skip the
        # sort/str tuple build entirely — the enabled path must stay
        # append-only with no per-call allocation beyond the cell update.
        key = _label_key(labels) if labels else ()
        if key not in self.series and len(self.series) >= self.max_series:
            self.dropped_series += 1
            if not self._overflow_warned:
                # Warn once per metric: the first fold is the signal (an
                # unbounded label leaked in); repeating it per sample
                # would bury the run's output.
                self._overflow_warned = True
                warnings.warn(
                    f"metric {self.name!r} exceeded {self.max_series} label "
                    f"sets; folding further series into (overflow) — see "
                    f"{OVERFLOW_METRIC}", RuntimeWarning, stacklevel=4)
            return _OVERFLOW_KEY
        return key

    def labels_of(self, key: tuple) -> dict:
        return dict(key)

    def snapshot(self) -> dict:
        out = {
            "kind": self.kind,
            "series": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self.series.items())
            ],
        }
        if self.help:
            out["help"] = self.help
        if self.dropped_series:
            out["dropped_series"] = self.dropped_series
        return out


class Counter(_Metric):
    """A monotonically increasing sum (events, messages, bytes, seconds)."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name}: negative increment {value}")
        key = self._cell_key(labels)
        self.series[key] = self.series.get(key, 0.0) + value

    def value(self, **labels) -> float:
        return self.series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        return sum(self.series.values())


class Gauge(_Metric):
    """A point-in-time level (queue depth, live frames); tracks the max seen."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._cell_key(labels)
        cell = self.series.get(key)
        if cell is None:
            self.series[key] = {"value": value, "max": value}
        else:
            cell["value"] = value
            if value > cell["max"]:
                cell["max"] = value

    def value(self, **labels) -> float:
        cell = self.series.get(_label_key(labels))
        return cell["value"] if cell else 0.0

    def max(self, **labels) -> float:
        cell = self.series.get(_label_key(labels))
        return cell["max"] if cell else 0.0


class Histogram(_Metric):
    """Bucketed distribution; buckets are *upper edges* (last bucket +inf).

    Defaults to the message-size buckets of :data:`SIZE_BUCKETS`.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "", buckets: Optional[Iterable[float]] = None,
                 max_series: int = MAX_SERIES):
        super().__init__(name, help=help, max_series=max_series)
        edges = tuple(buckets) if buckets is not None else SIZE_BUCKETS
        if list(edges) != sorted(edges):
            raise ValueError(f"histogram {name}: bucket edges must be sorted")
        self.edges = edges

    def observe(self, value: float, **labels) -> None:
        key = self._cell_key(labels)
        cell = self.series.get(key)
        if cell is None:
            cell = self.series[key] = {
                "count": 0, "sum": 0.0, "buckets": [0] * (len(self.edges) + 1)
            }
        cell["count"] += 1
        cell["sum"] += value
        cell["buckets"][bisect_left(self.edges, value)] += 1

    def count(self, **labels) -> int:
        cell = self.series.get(_label_key(labels))
        return cell["count"] if cell else 0

    def sum(self, **labels) -> float:
        cell = self.series.get(_label_key(labels))
        return cell["sum"] if cell else 0.0


class MetricsRegistry(Probe):
    """A named collection of metrics, attachable to one :class:`Engine`.

    The probe hooks and analysis code use the auto-creating helpers
    (:meth:`inc`, :meth:`set`, :meth:`observe`), so no metric has to be
    pre-declared; analysis code can also :meth:`declare` metrics up front
    with help strings for the catalogue.
    """

    def __init__(self, max_series: int = MAX_SERIES):
        self._metrics: dict[str, _Metric] = {}
        self.max_series = max_series
        #: The engine's ``(_seq, events_executed)`` already counted.
        self._marks = (0, 0)

    # -- attachment --------------------------------------------------------
    def attach(self, engine) -> "MetricsRegistry":
        if self.engine is not engine:
            super().attach(engine)
            self._marks = (engine._seq, engine.events_executed)
        return self

    def detach(self) -> None:
        self._sync()
        super().detach()

    def _sync(self) -> None:
        """Fold the attached engine's scheduled/executed events since the
        last sync into the ``sim.events.*`` counters."""
        engine = self.engine
        if engine is None:
            return
        (scheduled, executed), self._marks = self._marks, (engine._seq, engine.events_executed)
        if self._marks[0] != scheduled:
            self.inc("sim.events.scheduled", self._marks[0] - scheduled)
        if self._marks[1] != executed:
            self.inc("sim.events.executed", self._marks[1] - executed)

    # -- probe hooks -------------------------------------------------------
    def on_net_send(self, net, message) -> None:
        same = net.node_of_pe(message.src_pe) == net.node_of_pe(message.dst_pe)
        route = "intra" if same else "inter"
        self.inc("net.messages", route=route)
        self.inc("net.bytes", message.size, route=route)

    def on_ucx_post(self, handle) -> None:
        device = "gpu" if handle.on_device else "host"
        if handle.kind == "send":
            proto = handle.protocol.name.lower()
            self.inc("ucx.messages", protocol=proto, device=device)
            self.inc("ucx.bytes", handle.size, protocol=proto)
            self.observe("ucx.msg_bytes", handle.size, protocol=proto)
        else:
            self.inc("ucx.recvs_posted", device=device)

    def on_ucx_pipeline(self, send, chunks) -> None:
        self.inc("ucx.pipeline_chunks", chunks, pe=send.src_pe)

    def on_launch_issue(self, owner, op, pe=None, graph=False) -> None:
        if pe is not None:
            self.inc("sched.launches", pe=pe.index, kind="graph" if graph else "kernel")

    def on_gm_send(self, pe, size) -> None:
        self.inc("gm.sends", pe=pe)
        self.inc("gm.bytes", size, pe=pe)

    def on_sched_message(self, sched, resume) -> None:
        pe = sched.pe.index
        self.inc("sched.messages", pe=pe, kind="resume" if resume else "entry")
        self.set("sched.queue_depth", len(sched.queue.items), pe=pe)

    def on_sched_busy(self, pe, seconds) -> None:
        self.inc("sched.busy_s", seconds, pe=pe.index)

    # -- declaration ------------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        return self._declare(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._declare(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Iterable[float]] = None) -> Histogram:
        return self._declare(Histogram, name, help, buckets=buckets)

    def _declare(self, cls, name, help, **options):
        self._sync()
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(
                name, help=help, max_series=self.max_series, **options)
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {name!r} already declared as {metric.kind}")
        return metric

    # -- instrumentation-site helpers (auto-create) ------------------------
    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        metric = self._metrics.get(name)
        if metric is None or metric.__class__ is not Counter:
            metric = self.counter(name)  # create, or raise on kind clash
        metric.inc(value, **labels)

    def set(self, name: str, value: float, **labels) -> None:
        metric = self._metrics.get(name)
        if metric is None or metric.__class__ is not Gauge:
            metric = self.gauge(name)
        metric.set(value, **labels)

    def observe(self, name: str, value: float, **labels) -> None:
        metric = self._metrics.get(name)
        if metric is None or metric.__class__ is not Histogram:
            metric = self.histogram(name)
        metric.observe(value, **labels)

    # -- queries -----------------------------------------------------------
    def get(self, name: str) -> Optional[_Metric]:
        self._sync()
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        self._sync()
        return name in self._metrics

    def names(self) -> list[str]:
        self._sync()
        return sorted(self._metrics)

    def overflow_total(self) -> int:
        """Label sets folded into ``(overflow)`` across every metric."""
        return sum(m.dropped_series for m in self._metrics.values())

    def snapshot(self) -> dict:
        """JSON-ready dump of every metric (stable ordering), plus the
        synthetic :data:`OVERFLOW_METRIC` counter when any metric folded."""
        out = {name: self._metrics[name].snapshot() for name in self.names()}
        if self.overflow_total():
            out[OVERFLOW_METRIC] = {
                "kind": "counter",
                "help": "label sets folded into (overflow), per metric",
                "series": [
                    {"labels": {"metric": name}, "value": metric.dropped_series}
                    for name, metric in sorted(self._metrics.items())
                    if metric.dropped_series
                ],
            }
        return out

    def scalar_totals(self) -> dict[str, float]:
        """Counter totals across labels — the compact summary used by
        :class:`~repro.obs.report.PerfReport`.  Includes
        :data:`OVERFLOW_METRIC` when any metric hit its cardinality cap."""
        self._sync()
        out = {
            name: metric.total()
            for name, metric in sorted(self._metrics.items())
            if isinstance(metric, Counter)
        }
        overflow = self.overflow_total()
        if overflow:
            out[OVERFLOW_METRIC] = float(overflow)
        return out

    def render_text(self) -> str:
        lines = []
        for name in self.names():
            metric = self._metrics[name]
            lines.append(f"{name} ({metric.kind})")
            for key, value in sorted(metric.series.items()):
                label_txt = ", ".join(f"{k}={v}" for k, v in key) or "-"
                if metric.kind == "counter":
                    shown = f"{value:g}"
                elif metric.kind == "gauge":
                    shown = f"{value['value']:g} (max {value['max']:g})"
                else:
                    shown = f"count={value['count']} sum={value['sum']:g}"
                lines.append(f"  {label_txt:40s} {shown}")
            if metric.dropped_series:
                lines.append(f"  (overflow: {metric.dropped_series} label sets folded)")
        return "\n".join(lines)
