"""Canonical sanitizer runs for the CLI (``repro sanitize``).

One small-but-representative configuration per registered app, executed
under every frontend with a :class:`~repro.sanitize.sanitizer.Sanitizer` attached.
The expectation is *zero findings everywhere* — the apps self-host clean —
so the command doubles as the regression gate CI runs (``repro sanitize
--strict``).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

__all__ = ["SanitizeCase", "sanitize_matrix", "render_matrix"]

# Small shapes: enough blocks per PE to exercise overdecomposition and
# cross-unit messaging, small enough to keep the whole matrix quick.
_SMALL_CONFIGS = {
    "jacobi3d": dict(nodes=2, odf=2, grid=(48, 48, 48), iterations=3, warmup=1),
    "jacobi2d": dict(nodes=2, odf=2, grid=(96, 96), iterations=3, warmup=1),
    "cholesky": dict(nodes=2, odf=2, tiles=5, tile=32),
    "allreduce": dict(nodes=2, odf=2, elements=4096, iterations=2, warmup=1),
}


@dataclasses.dataclass
class SanitizeCase:
    """Outcome of one sanitized run."""

    app: str
    version: str
    sanitizer: object  # the finished Sanitizer

    @property
    def ok(self) -> bool:
        return self.sanitizer.ok

    def describe(self) -> str:
        s = self.sanitizer
        status = "clean" if s.ok else f"{len(s.findings)} FINDING(S)"
        return (f"{self.app:10s} {self.version:8s} "
                f"{s.ops_checked:6d} ops {s.accesses_checked:6d} accesses "
                f"— {status}")


def sanitize_matrix(app: Optional[str] = None, progress=None) -> list:
    """Run the canonical config of every (or one) registered app under all
    frontends with the sanitizer attached; returns a list of
    :class:`SanitizeCase` (never raises on findings — callers decide)."""
    from ..apps import ALL_VERSIONS, app_names, get_app, run_app
    from .sanitizer import Sanitizer

    apps = [app] if app else sorted(
        app_names(), key=lambda name: (name != "jacobi3d", name))
    cases = []
    for name in apps:
        spec = get_app(name)
        fields = {f.name for f in dataclasses.fields(spec.config_cls)}
        base = {k: v for k, v in _SMALL_CONFIGS.get(name, {}).items()
                if k in fields}
        for version in ALL_VERSIONS:
            kwargs = dict(base)
            if version.startswith("mpi"):
                kwargs.pop("odf", None)  # plain MPI: one rank per GPU
            config = spec.config_cls(version=version, **kwargs)
            sanitizer = Sanitizer()
            run_app(config, sanitize=sanitizer)
            case = SanitizeCase(name, version, sanitizer)
            cases.append(case)
            if progress is not None:
                progress(case.describe())
    return cases


def render_matrix(cases: list) -> str:
    """Summary table plus every finding of the failing cases."""
    lines = [case.describe() for case in cases]
    bad = [case for case in cases if not case.ok]
    for case in bad:
        lines.append("")
        lines.append(f"-- {case.app} {case.version} --")
        lines.extend(f"  {d}" for d in case.sanitizer.findings)
    total = len(cases)
    lines.append("")
    if bad:
        lines.append(f"sanitize: {len(bad)}/{total} case(s) with findings")
    else:
        lines.append(f"sanitize: all {total} case(s) clean")
    return "\n".join(lines)
