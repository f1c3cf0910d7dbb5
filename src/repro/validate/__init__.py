"""Simulation correctness tooling.

Three layers (docs/validation.md):

* :mod:`~repro.validate.invariants` — :class:`InvariantChecker`, a live
  auditor attached to the DES engine, every exclusive resource, the network
  and the UCX engine; asserts time monotonicity, capacity conservation, and
  message conservation, plus end-of-run "nothing dangling" checks.
* :mod:`~repro.validate.differential` — runs one physical problem through
  the Charm++, AMPI and MPI frontends (× fusion strategies × CUDA graphs)
  and asserts bitwise-identical physics, for every registered app.
* :mod:`~repro.validate.golden` — golden-trace regression store: canonical
  configs hashed to trace digests + result summaries under ``tests/golden``.

:mod:`~repro.validate.faults` holds test-only fault injectors used to prove
the checker actually catches violations.

The package re-exports nothing; import each name from its defining module.
The app drivers import :mod:`~repro.validate.invariants`, while the
differential and golden layers import the app package, so naming the
module keeps that from ever becoming an import cycle.
"""
