"""Differential analysis of two perf reports: who to blame for a delta.

:func:`compare_perf <repro.obs.report.compare_perf>` says *that* a run got
slower; this module says *why*.  :func:`diff_reports` aligns two
:class:`~repro.obs.report.PerfReport` documents and attributes the makespan
delta three ways:

* **per critical-path category** — the headline.  The critical path tiles
  ``[0, makespan]`` exactly, so its composition sums to the makespan and
  the per-category deltas sum to the makespan delta *exactly*: the blame
  summary ("+38% from wire, −12% from update") is a decomposition, not a
  heuristic;
* **per phase footprint** — total busy seconds in the app's declared phase
  vocabulary (these overlap in time, so their deltas explain *activity*
  changes rather than summing to the makespan delta);
* **per resource kind** — busy-second rollups over PEs, GPU engines and
  the wire.

``repro perf compare`` appends the blame summary when a gate trips;
``repro perf diff`` renders the full differential and exits 2 (distinct
from gate-fail 1) when either document is not a diffable perf report —
see :class:`SchemaMismatch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "DeltaEntry",
    "DiffReport",
    "SchemaMismatch",
    "diff_reports",
    "diff_sidecar_dirs",
    "ensure_diffable",
]

#: Diff schema identifier pinned in tests (``repro perf diff --format json``).
DIFF_SCHEMA = "repro.perf-diff/1"


class SchemaMismatch(ValueError):
    """One of the inputs is not a diffable ``repro.perf/1`` report.

    Raised for documents missing the schema tag or the fields the
    differential needs (``makespan``, ``critical_path``), and for reports
    written before the app registry existed (no ``config.app``): those
    predate the per-app phase vocabulary, so their phase footprints are
    not comparable.  ``repro perf diff`` maps this to exit code 2 so CI
    can tell "incomparable inputs" from "gate failed" (exit 1).
    """


def ensure_diffable(doc: dict, label: str = "report") -> dict:
    """Validate one perf-gate document for differential analysis."""
    if not isinstance(doc, dict):
        raise SchemaMismatch(f"{label}: not a JSON object")
    schema = doc.get("schema")
    if schema != "repro.perf/1":
        raise SchemaMismatch(
            f"{label}: schema {schema!r} is not diffable (expected "
            f"'repro.perf/1', a perf report with a critical path)")
    if "makespan" not in doc:
        raise SchemaMismatch(f"{label}: missing 'makespan'")
    if not isinstance(doc.get("critical_path"), dict) or \
            "composition" not in doc["critical_path"]:
        raise SchemaMismatch(f"{label}: missing critical_path.composition")
    config = doc.get("config") or {}
    if "app" not in config:
        raise SchemaMismatch(
            f"{label}: config has no 'app' field (pre-app report shape; "
            f"its phase vocabulary is not comparable)")
    return doc


@dataclass(frozen=True)
class DeltaEntry:
    """One named quantity in both reports."""

    name: str
    baseline: float
    current: float

    @property
    def delta(self) -> float:
        return self.current - self.baseline

    def pct_of(self, denom: float) -> float:
        """The delta as a signed percentage of ``denom`` (0 when empty)."""
        return 100.0 * self.delta / denom if denom > 0 else 0.0


@dataclass
class DiffReport:
    """The aligned differential between two perf reports."""

    baseline_makespan: float
    current_makespan: float
    critpath: list[DeltaEntry] = field(default_factory=list)
    phases: list[DeltaEntry] = field(default_factory=list)
    resources: list[DeltaEntry] = field(default_factory=list)

    @property
    def makespan_delta(self) -> float:
        return self.current_makespan - self.baseline_makespan

    def blame(self, top: int = 4, min_pct: float = 0.5) -> str:
        """The one-line exact decomposition of the makespan delta:
        critical-path categories sorted by absolute contribution, as
        signed percentages of the baseline makespan."""
        parts = []
        for entry in sorted(self.critpath, key=lambda e: -abs(e.delta)):
            pct = entry.pct_of(self.baseline_makespan)
            if abs(pct) < min_pct or len(parts) >= top:
                continue
            parts.append(f"{pct:+.1f}% from {entry.name}")
        if not parts:
            return "no single critical-path category moved"
        return ", ".join(parts)

    def to_dict(self) -> dict:
        def rows(entries):
            return [
                {"name": e.name, "baseline": e.baseline, "current": e.current,
                 "delta": e.delta}
                for e in entries
            ]

        return {
            "schema": DIFF_SCHEMA,
            "baseline_makespan": self.baseline_makespan,
            "current_makespan": self.current_makespan,
            "makespan_delta": self.makespan_delta,
            "blame": self.blame(),
            "critical_path": rows(self.critpath),
            "phases": rows(self.phases),
            "resources": rows(self.resources),
        }

    def render_text(self) -> str:
        base = self.baseline_makespan
        pct = 100.0 * self.makespan_delta / base if base > 0 else 0.0
        lines = [
            f"perf diff: makespan {base * 1e3:.3f} ms -> "
            f"{self.current_makespan * 1e3:.3f} ms ({pct:+.1f}%)",
            f"  blame: {self.blame()}",
            "  critical path (exact decomposition of the delta):",
        ]
        for e in sorted(self.critpath, key=lambda e: -abs(e.delta)):
            lines.append(
                f"    {e.name:14s} {e.baseline * 1e3:9.3f} -> "
                f"{e.current * 1e3:9.3f} ms  "
                f"({e.pct_of(base):+6.1f}% of baseline)")
        if self.phases:
            lines.append("  phase footprint:")
            for e in sorted(self.phases, key=lambda e: -abs(e.delta)):
                if e.baseline == 0.0 and e.current == 0.0:
                    continue
                lines.append(
                    f"    {e.name:14s} {e.baseline * 1e3:9.3f} -> "
                    f"{e.current * 1e3:9.3f} ms")
        if self.resources:
            lines.append("  resource busy (by kind):")
            for e in sorted(self.resources, key=lambda e: -abs(e.delta)):
                lines.append(
                    f"    {e.name:14s} {e.baseline * 1e3:9.3f} -> "
                    f"{e.current * 1e3:9.3f} ms")
        return "\n".join(lines)


def _aligned(base: dict, curr: dict) -> list[DeltaEntry]:
    names = sorted(set(base) | set(curr))
    return [
        DeltaEntry(name, float(base.get(name, 0.0)), float(curr.get(name, 0.0)))
        for name in names
    ]


def _resource_busy_by_kind(doc: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for r in doc.get("resources", []):
        if isinstance(r, dict) and isinstance(r.get("busy_s"), (int, float)):
            kind = str(r.get("kind", "?"))
            out[kind] = out.get(kind, 0.0) + float(r["busy_s"])
    return out


def diff_reports(baseline, current) -> DiffReport:
    """Differential between two perf reports (dicts or
    :class:`~repro.obs.report.PerfReport` instances).

    Raises :class:`SchemaMismatch` unless both are ``repro.perf/1``
    documents with a critical path and an app-tagged config.
    """
    docs = []
    for label, doc in (("baseline", baseline), ("current", current)):
        if hasattr(doc, "to_dict"):
            doc = doc.to_dict()
        docs.append(ensure_diffable(doc, label))
    base, curr = docs
    return DiffReport(
        baseline_makespan=float(base["makespan"]),
        current_makespan=float(curr["makespan"]),
        critpath=_aligned(base["critical_path"].get("composition", {}),
                          curr["critical_path"].get("composition", {})),
        phases=_aligned(base.get("phases", {}), curr.get("phases", {})),
        resources=_aligned(_resource_busy_by_kind(base),
                           _resource_busy_by_kind(curr)),
    )


def diff_sidecar_dirs(baseline_dir, current_dir) -> dict[str, Optional[DiffReport]]:
    """Differentials for every config key present in both sweep sidecar
    directories (``<key>.perf.json`` files written by
    :class:`~repro.exec.runner.ParallelRunner` with ``perf_dir=``).
    Keys whose reports are not diffable map to ``None``."""
    from ..exec.runner import perf_sidecar_reports

    base = perf_sidecar_reports(baseline_dir)
    curr = perf_sidecar_reports(current_dir)
    out: dict[str, Optional[DiffReport]] = {}
    for key in sorted(set(base) & set(curr)):
        try:
            out[key] = diff_reports(base[key], curr[key])
        except SchemaMismatch:
            out[key] = None
    return out
