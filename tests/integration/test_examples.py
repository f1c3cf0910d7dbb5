"""Smoke tests for the example scripts.

Each example must import cleanly; the fast ones also run end to end (the
heavier scaling examples are exercised by the benchmark suite instead).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent.parent / "examples"


def load(name: str):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ALL_EXAMPLES = sorted(p.stem for p in EXAMPLES.glob("*.py"))


def test_every_example_is_covered_here():
    assert len(ALL_EXAMPLES) >= 8


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_imports(name):
    module = load(name)
    assert hasattr(module, "main")
    assert module.__doc__  # every example documents itself


def test_quickstart_runs(capsys):
    load("quickstart").main()
    out = capsys.readouterr().out
    assert "bit-identical to the serial reference: True" in out


@pytest.mark.slow
def test_fault_tolerance_runs(capsys):
    load("fault_tolerance").main()
    out = capsys.readouterr().out
    assert "bit-identical to an uninterrupted 12-iteration solve: True" in out


@pytest.mark.slow
def test_heat_until_converged_runs(capsys):
    load("heat_until_converged").main()
    out = capsys.readouterr().out
    assert "converged after" in out
