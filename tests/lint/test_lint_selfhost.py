"""Self-hosting: the shipped tree must lint clean with the default config.

This is the static counterpart of the runtime InvariantChecker suite — any
protocol or determinism regression introduced into src/repro turns this red
before a simulation ever runs.
"""
from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.lint import run_lint

SRC = Path(repro.__file__).resolve().parent


@pytest.fixture(scope="module")
def report():
    return run_lint([SRC])


def test_src_repro_is_clean(report):
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.findings == [], f"src/repro has lint findings:\n{rendered}"


def test_src_repro_coverage(report):
    # The walk must actually traverse the package, not skip it.
    assert report.files > 50


def test_shipped_suppressions_are_counted(report):
    # Exactly one justified inline suppression ships: the bare-yield
    # generator marker under MpiProcess.main in mpi/api.py (AmpiProcess
    # inherits main).  The engine must count it, not drop it.
    marker = "yield  # repro-lint: disable=RPL003 -- unreachable generator-marker idiom"
    assert marker in (SRC / "mpi" / "api.py").read_text()
    assert report.suppressed == 1
