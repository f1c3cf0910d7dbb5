"""What a plain ``run_app`` loads: the driver needs only the timeline and
invariant modules of the checker packages, so a run pays nothing for the
reporting, what-if, golden, differential or sanitizer modules it does not use.

Checked in a fresh interpreter, since this process has imported them all."""

import os
import subprocess
import sys
from pathlib import Path

import repro

NOT_LOADED = (
    "repro.obs.whatif",
    "repro.obs.report",
    "repro.obs.diff",
    "repro.obs.critpath",
    "repro.validate.golden",
    "repro.validate.differential",
    "repro.sanitize.sanitizer",
    "repro.sanitize.driver",
)

RUN = """
import sys
from repro.apps import Jacobi3DConfig, run_app
from repro.hardware import MachineSpec

run_app(Jacobi3DConfig(version="charm-d", grid=(16, 16, 16), odf=2, iterations=2,
                       warmup=0, machine=MachineSpec.small_debug()))
print("\\n".join(sorted(name for name in sys.modules if name.startswith("repro."))))
"""


def test_run_app_loads_no_reporting_or_checker_modules():
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", RUN], capture_output=True, text=True,
                          env=env, check=True)
    loaded = set(proc.stdout.split())
    assert {"repro.apps.driver", "repro.obs.timeline", "repro.validate.invariants"} <= loaded
    assert sorted(loaded.intersection(NOT_LOADED)) == []
