"""Happens-before concurrency sanitizer (docs/sanitizer.md).

The package re-exports nothing; import each name from its defining module:

* :mod:`repro.sanitize.sanitizer` — :class:`~repro.sanitize.sanitizer.Sanitizer`,
  :class:`~repro.sanitize.sanitizer.SanitizerError` and
  :class:`~repro.sanitize.sanitizer.Diagnostic`, the vector-clock
  happens-before engine;
* :mod:`repro.sanitize.faults` — fault injectors proving the detectors
  fire (dropped DAG dependency, skipped wait);
* :mod:`repro.sanitize.driver` — ``sanitize_matrix``/``render_matrix``, the
  canonical all-apps × all-frontends runs behind ``repro sanitize``.
"""
