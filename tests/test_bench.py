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

ROOT = Path(__file__).resolve().parent.parent


def _assert_correct(workload: str, seed: int) -> None:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2"],
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
