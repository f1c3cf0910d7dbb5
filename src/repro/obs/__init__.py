"""Projections-style observability: timeline analysis, critical path, perf
reports, what-if projections and the perf-regression gate.

The package re-exports nothing; import each name from its defining module
(:mod:`~repro.obs.timeline`, :mod:`~repro.obs.critpath`,
:mod:`~repro.obs.report`, :mod:`~repro.obs.diff`,
:mod:`~repro.obs.whatif`).  The modules subscribe
to the simulator's observer bus (:mod:`repro.sim.probe`) without importing
the application stack; :func:`~repro.obs.report.collect_perf` lazy-imports
the app driver.
"""
