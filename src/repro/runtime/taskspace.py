"""A TaskSpace-style dependency tracker for DAG applications.

Stencil apps need no dependency bookkeeping — every iteration touches the
same neighbours in the same pattern.  Task-DAG apps (tiled Cholesky) are
different: each task (POTRF/TRSM/SYRK/GEMM on a tile) declares *which*
prior tasks it consumes, and the set changes every step.  A
:class:`TaskSpace` is the app-side ledger for that structure, in the style
of Parla/PaRSEC task spaces: tasks are named by tuple keys
(``("potrf", k)``, ``("gemm", i, j, k)``), declared with their dependency
keys, and bound to the simulator by attaching each task's
kernel-completion :class:`~repro.sim.Event`.

It serves three masters at once:

* **frontends** look up :meth:`completion` events of locally-executed
  dependencies to gate dependent kernels on *other* streams
  (``Launch(..., wait_events=...)``) — cross-stream ordering without
  serializing the generator.  Cross-unit dependencies never use this:
  they are satisfied by the arrival of the dependency's data (the
  received tile *is* the proof of completion).
* the **property-based test suite** reads :meth:`journal` to assert every
  declared task ran exactly once and, against the engine's trace, that no
  task started before all of its declared dependencies finished.
* the **run itself** can call :meth:`check_all_finished` as a cheap
  end-of-run audit (every declared task attached and completed).

The tracker is a pure observer of simulation time: it never creates
events or schedules callbacks of its own beyond appending a finish
recorder to an existing completion event, so attaching it cannot perturb
the event schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["TaskRecord", "TaskSpace"]


@dataclass
class TaskRecord:
    """One task's ledger entry (times are simulation seconds)."""

    key: tuple
    deps: tuple
    unit: Any = None
    issued_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def finished(self) -> bool:
        return self.finished_at is not None


@dataclass
class TaskSpace:
    """Keyed task ledger with dependency declarations (see module doc)."""

    name: str = "tasks"
    _records: dict = field(default_factory=dict)  # key -> TaskRecord
    _events: dict = field(default_factory=dict)  # key -> completion Event

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key) -> bool:
        return tuple(key) in self._records

    def declare(self, key, deps=(), unit=None) -> TaskRecord:
        """Declare task ``key`` with its dependency keys.  Every dependency
        must already be declared (enforcing a topological declaration
        order), and a key can be declared only once."""
        key = tuple(key)
        if key in self._records:
            raise ValueError(f"{self.name}: task {key} declared twice")
        deps = tuple(tuple(d) for d in deps)
        for d in deps:
            if d not in self._records:
                raise ValueError(
                    f"{self.name}: task {key} depends on undeclared task {d}")
        rec = TaskRecord(key=key, deps=deps, unit=unit)
        self._records[key] = rec
        return rec

    def attach(self, key, done_event, engine) -> None:
        """Bind task ``key`` to its kernel-completion ``done_event``: records
        the issue time now and the finish time when the event fires.  Each
        task attaches exactly once (a second attach is the bug the DAG test
        suite exists to catch)."""
        rec = self._records[tuple(key)]
        if rec.issued_at is not None:
            raise RuntimeError(f"{self.name}: task {rec.key} issued twice")
        rec.issued_at = engine.now
        self._events[rec.key] = done_event
        probe = engine.probe
        if probe is not None:
            probe.on_task_attach(self, rec.key, done_event)

        def _record_finish(_ev, rec=rec, engine=engine):
            if rec.finished_at is not None:
                raise RuntimeError(f"{self.name}: task {rec.key} finished twice")
            rec.finished_at = engine.now

        done_event.callbacks.append(_record_finish)

    def completion(self, key):
        """The completion event attached for ``key`` (local-dependency
        gating; raises if the task has not been issued yet)."""
        return self._events[tuple(key)]

    def record(self, key) -> TaskRecord:
        return self._records[tuple(key)]

    def declared_deps(self, key) -> tuple:
        """The *currently declared* dependency keys of ``key`` (the
        sanitizer walks these to build transitive closures; fault injectors
        mutate them to model a forgotten declaration)."""
        return self._records[tuple(key)].deps

    def journal(self) -> list:
        """All records in declaration (topological) order."""
        return list(self._records.values())

    def unfinished(self) -> list:
        """Keys declared but not (yet) finished, declaration order."""
        return [rec.key for rec in self._records.values() if not rec.finished]

    def never_attached(self) -> list:
        """Keys declared but never bound to a completion event, declaration
        order.  A never-launched task passes silently through the finish
        checks when nothing downstream consumes it — this names it."""
        return [rec.key for rec in self._records.values()
                if rec.issued_at is None]

    def check_all_finished(self) -> None:
        """Raise unless every declared task was attached and completed.
        Declared-but-never-attached tasks are called out separately (with
        their keys) from attached-but-unfinished ones."""
        unattached = self.never_attached()
        if unattached:
            raise RuntimeError(
                f"{self.name}: {len(unattached)}/{len(self._records)} task(s) "
                f"declared but never attached, first: {unattached[:5]}"
            )
        missing = self.unfinished()
        if missing:
            raise RuntimeError(
                f"{self.name}: {len(missing)}/{len(self._records)} task(s) "
                f"never finished, first: {missing[:5]}"
            )
