"""A short run of the benchmark's algebra workload: random and catalog pairs
through ``engelkit char`` and ``engelkit analyze``, each output checked
against the independent references in bench/references.py."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_algebra_workload_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "algebra", "--seed", "1",
         "--seconds", "0.2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0
