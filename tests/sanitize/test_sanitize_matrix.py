"""Self-hosting: the registered apps run clean under the sanitizer.

The full all-apps × all-frontends matrix is the CI gate (``repro sanitize
--strict``); here the cheap apps run the whole matrix and the expensive
ones one representative frontend each, so the suite stays fast while
every app keeps a sanitized regression test.
"""

import pytest

from repro.apps import get_app, run_app
from repro.sanitize.sanitizer import Sanitizer
from repro.sanitize.driver import SanitizeCase, render_matrix, sanitize_matrix


@pytest.mark.parametrize("app", ["cholesky", "jacobi3d"])
def test_matrix_is_clean(app):
    cases = sanitize_matrix(app=app)
    assert len(cases) == 6  # every frontend
    for case in cases:
        assert case.ok, render_matrix([case])
        assert case.sanitizer.ops_checked > 0
        assert case.sanitizer.accesses_checked > 0


@pytest.mark.parametrize("app,version,kwargs", [
    ("jacobi2d", "charm-h", dict(nodes=2, odf=2, grid=(96, 96),
                                 iterations=3, warmup=1)),
    ("jacobi2d", "mpi-d", dict(nodes=2, grid=(96, 96),
                               iterations=3, warmup=1)),
    ("allreduce", "mpi-h", dict(nodes=2, elements=4096,
                                iterations=2, warmup=1)),
    ("allreduce", "charm-d", dict(nodes=2, odf=2, elements=4096,
                                  iterations=2, warmup=1)),
])
def test_representative_cases_clean(app, version, kwargs):
    spec = get_app(app)
    sanitizer = Sanitizer()
    run_app(spec.config_cls(version=version, **kwargs), sanitize=sanitizer)
    assert sanitizer.ok, sanitizer.report()
    assert sanitizer.accesses_checked > 0


def test_render_matrix_shows_findings():
    sanitizer = Sanitizer()
    sanitizer._record("race", "gpu0.s1", "synthetic finding for rendering")
    case = SanitizeCase("demo", "charm-d", sanitizer)
    text = render_matrix([case])
    assert "1 FINDING(S)" in text
    assert "synthetic finding" in text
    assert "1/1 case(s) with findings" in text
