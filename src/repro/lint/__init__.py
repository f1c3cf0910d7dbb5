"""``repro.lint``: AST-based SDAG-protocol & determinism linter.

The static counterpart of the runtime validation layer
(docs/validation.md): where the :class:`~repro.validate.invariants.InvariantChecker`
audits a *running* simulation, the linter proves protocol and determinism
properties of the *source* — before anything runs.  Four rule families
with stable ``RPL0xx`` codes (catalogue: docs/linting.md):

* **SDAG protocol** (RPL001-RPL004): command factories never yielded,
  generator helpers called without ``yield from``, non-Command yields,
  suspend-only APIs in plain entry methods;
* **message flow** (RPL010-RPL011): cross-file matching of ``send``
  deposits against entry methods and ``when`` consumers;
* **determinism** (RPL020-RPL023): wall-clock, unseeded RNG, OS entropy
  and unordered-set iteration inside the simulation model packages;
* **stream/DAG protocol** (RPL030-RPL036): TaskSpace literal-key misuse
  (undeclared/redeclared/never-attached keys, completion-before-declare),
  set-ordered stream launches, and monitors attached after ``run()`` —
  the static counterpart of the runtime sanitizer (docs/sanitizer.md).

Entry points: ``python -m repro lint [--strict] [--format json] PATH...``
or :func:`run_lint` from code.  Stdlib-only (``ast`` + ``tokenize``).
"""

from .engine import (
    DEFAULT_MAILBOX_ALLOWLIST,
    LintConfig,
    LintEngine,
    LintReport,
    run_lint,
)
from .reporting import JSON_SCHEMA_VERSION, render_json, render_text, rules_catalogue
from .rules import RULES, Finding, Rule
from .streamdag import StreamDagChecker

__all__ = [
    "DEFAULT_MAILBOX_ALLOWLIST",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LintConfig",
    "LintEngine",
    "LintReport",
    "RULES",
    "Rule",
    "StreamDagChecker",
    "render_json",
    "render_text",
    "rules_catalogue",
    "run_lint",
]
