"""Planted faults that tier-1 must catch.

Usage, from the repository root::

    python tests/mutants.py            # every fault
    python tests/mutants.py NAME ...   # the named ones

Each fault is one text replacement, (file, old text, new text), where the
old text must occur exactly once in the file.  For each, the files git
knows (tracked, and untracked but not ignored) are copied into a temporary
directory, the fault is applied there, and tier-1 runs on the copy with
``-x`` under a timeout.  Each line reports caught or SURVIVED, the time
and the first failing test.  The exit status is 1 when a fault survives,
times out or does not apply.  The script uses only the standard library
and git, and pytest does not collect it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120

# name -> (file, old text, new text)
FAULTS = {
    # The Dormand-Prince error estimate with the 4th-order weights 0.1 % off.
    "b4-weights": (
        "src/engelkit/codegen.py",
        "_ERR = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))",
        "_ERR = tuple(b5 - b4 * (1 + 1e-3) for b5, b4 in zip(_B5, _B4))",
    ),
    # A node's orientation read backwards: attracting nodes get sign -1.
    "node-sign": (
        "src/engelkit/charfield.py",
        "return OriginKind(NODE, rate, skew, 1 if tr < 0 else -1)",
        "return OriginKind(NODE, rate, skew, -1 if tr < 0 else 1)",
    ),
    # Every field with a kind called a skew product.
    "kind-always-skew": (
        "src/engelkit/charfield.py",
        'skew = all(p.degree_in("x") <= 0',
        'skew = True or all(p.degree_in("x") <= 0',
    ),
    # The kind read from M = d(c, e)/d(z, w)(0) in place of the frame matrix.
    "m-for-frame-matrix": (
        "src/engelkit/charfield.py",
        "p.get(_W, 0) - f0 * p.get(_X, 0) - g0 * p.get(_Y, 0)",
        "p.get(_W, 0)",
    ),
    # Every back-run under -C, whatever the orientation, so a repelling
    # node's curves run into the origin instead of away from it.
    "back-run-ignores-sign": (
        "src/engelkit/endpoint.py",
        "-kind.sign * t_back",
        "-t_back",
    ),
    # Back-run and center times no longer in units of 2 / rate.
    "no-rate-unit": (
        "src/engelkit/endpoint.py",
        "unit = 2.0 / kind.rate",
        "unit = 1.0",
    ),
    # Surfaces of repelling skew-product nodes integrated under +C.
    "surface-ignores-sign": (
        "src/engelkit/flow.py",
        "and kind.skew and kind.sign < 0:",
        "and kind.skew and kind.sign < -1:",
    ),
    # Surfaces of repelling nodes integrated under -C even when C involves
    # x or y, so the flow from (0, 0, z, w) is not the fibre's.
    "surface-flips-non-skew": (
        "src/engelkit/flow.py",
        "is not None and kind.skew and kind.sign < 0:",
        "is not None and kind.sign < 0:",
    ),
    # A surface sample converged without the quadrature tail bound.
    "no-tail-bound": (
        "src/engelkit/flow.py",
        "and _tail_bound(rhs, states, times) < TAIL_BOUND_LIMIT",
        "and _tail_bound(rhs, states, times) < math.inf",
    ),
}


def _files() -> list[str]:
    out = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode()
    return [name for name in out.split("\0") if name and (ROOT / name).is_file()]


def _first_failure(output: str) -> str:
    match = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    return match.group(1) if match else "(no failing test named)"


def run_fault(name: str, files: list[str]) -> tuple[str, float, str]:
    """(verdict, seconds, first failing test) of one fault."""
    path, old, new = FAULTS[name]
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        copy = Path(tmp)
        for file in files:
            (copy / file).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / file, copy / file)
        target = copy / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return "NOT APPLIED", 0.0, f"{path} holds the old text {text.count(old)} times"
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors"],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "TIMED OUT", time.perf_counter() - start, f"after {TIMEOUT_S} s"
        seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return "SURVIVED", seconds, "-"
    return "caught", seconds, _first_failure(proc.stdout)


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in FAULTS]
    if unknown:
        print(f"unknown faults {unknown}; known: {', '.join(FAULTS)}", file=sys.stderr)
        return 2
    files = _files()
    ok = True
    for name in argv or FAULTS:
        verdict, seconds, test = run_fault(name, files)
        ok &= verdict == "caught"
        print(f"{verdict:11s} {name:22s} {seconds:6.1f} s  {test}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
