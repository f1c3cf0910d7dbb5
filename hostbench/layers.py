"""Attribute a cProfile run's host self time to layers, and count named calls.

A layer is a package under ``src/repro`` (``sim``, ``runtime``, ...), plus
``numpy`` (NumPy's Python files and its C functions) and ``python`` (the
standard library, builtins and C helpers such as ``heapq``).  Everything else
(the other ``repro`` packages, ``repro``'s top-level modules, code that
``dataclasses`` generates at run time, the benchmark itself) is ``other``, so
the layer totals always sum to the profile's total self time.

The helpers read the ``stats`` dict of a :class:`cProfile.Profile` after
``create_stats()``: ``(filename, firstlineno, funcname) -> (primitive calls,
total calls, self time, cumulative time, callers)``.
"""

from __future__ import annotations

import importlib
import sysconfig
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

__all__ = ["LAYERS", "LayerMap", "call_counts", "function_key", "self_time_by_layer"]

#: The measured layers, in report order.
LAYERS = ("sim", "runtime", "hardware", "comm", "mpi", "apps", "kernels", "numpy",
          "sanitize", "validate", "obs", "python", "other")


@dataclass(frozen=True)
class LayerMap:
    """Maps a profile entry's source file to its layer."""

    repro_dir: Path
    numpy_dir: Path
    stdlib_dir: Path

    @classmethod
    def for_process(cls) -> "LayerMap":
        """The map for the ``repro`` and ``numpy`` this process imported."""
        import numpy

        import repro

        return cls(Path(repro.__file__).resolve().parent,
                   Path(numpy.__file__).resolve().parent,
                   Path(sysconfig.get_paths()["stdlib"]).resolve())

    def layer(self, filename: str, funcname: str) -> str:
        if filename == "~":  # a C function: cProfile names it, with its module
            return "numpy" if "numpy" in funcname else "python"
        if filename.startswith("<frozen "):
            return "python"
        path = Path(filename)
        if not path.is_absolute():  # "<string>": dataclass-generated methods
            return "other"
        path = path.resolve()
        if path.is_relative_to(self.repro_dir):
            parts = path.relative_to(self.repro_dir).parts
            if len(parts) > 1 and parts[0] in LAYERS:
                return parts[0]
            return "other"
        if path.is_relative_to(self.numpy_dir):
            return "numpy"
        if path.is_relative_to(self.stdlib_dir) and "site-packages" not in path.parts:
            return "python"
        return "other"


def self_time_by_layer(stats: dict, layer_map: LayerMap) -> dict:
    """Host self seconds per layer; every layer of :data:`LAYERS` is present."""
    totals = dict.fromkeys(LAYERS, 0.0)
    resolved = {}
    for (filename, _line, funcname), (_cc, _nc, self_s, _cum, _callers) in stats.items():
        # One path resolution per file, not per function.
        key = filename if filename != "~" else (filename, funcname)
        layer = resolved.get(key)
        if layer is None:
            layer = resolved[key] = layer_map.layer(filename, funcname)
        totals[layer] += self_s
    return totals


def function_key(qualified: str) -> Optional[tuple]:
    """The cProfile key of ``"package.module:Class.method"``, or ``None`` when
    no such function is defined there (e.g. after a rename)."""
    module_name, _, qualname = qualified.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, leaf = qualname.split(".")
    for part in owners:
        obj = getattr(obj, part, None)
    # The leaf must be defined on its owner itself, not inherited.
    fn = vars(obj).get(leaf) if obj is not None else None
    code = getattr(fn, "__code__", None)
    if code is None:
        return None
    return code.co_filename, code.co_firstlineno, code.co_name


def call_counts(stats: dict, names: dict) -> dict:
    """Exact call counts: ``{metric: [qualified function, ...]}`` -> ``{metric:
    summed calls}``.  A metric any of whose functions cannot be resolved is
    left out.  Only plain functions are meant: cProfile counts each resumption
    of a generator as a call."""
    counts = {}
    for metric, functions in names.items():
        keys = [function_key(f) for f in functions]
        if None in keys:
            continue
        counts[metric] = sum(stats[k][1] if k in stats else 0 for k in keys)
    return counts
