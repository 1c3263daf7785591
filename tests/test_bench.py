"""Short runs of the benchmark's workloads, each output checked against the
independent references in bench/references.py: random and catalog pairs
through ``engelkit char`` and ``engelkit analyze`` (algebra), controls
through ``engelkit endpoint`` (detect) and grids through ``engelkit
surface`` (surface).  Detect and surface run the generated float kernels."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import TEST_MAX_STEPS

ROOT = Path(__file__).resolve().parent.parent

# Runs bench/run.py under the tests' step budget, which conftest.py's fixture
# cannot set in another process: each time the run imports engelkit.flow
# afresh, the module's MAX_STEPS is lowered before engelkit reads it.
_LAUNCHER = f"""
import importlib.machinery, runpy, sys


class StepBudget:
    def find_spec(self, name, path, target=None):
        if name != "engelkit.flow":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        exec_module = spec.loader.exec_module

        def exec_with_budget(module):
            exec_module(module)
            module.MAX_STEPS = {TEST_MAX_STEPS}

        spec.loader.exec_module = exec_with_budget
        return spec


sys.meta_path.insert(0, StepBudget())
sys.argv = sys.argv[1:]
sys.path[0] = "bench"
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def _assert_correct(workload: str, seed: int) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0


def test_algebra_workload_is_correct():
    _assert_correct("algebra", 1)


@pytest.mark.parametrize("workload", ["detect", "surface"])
def test_numeric_workload_is_correct(workload):
    _assert_correct(workload, 2)
