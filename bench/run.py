"""engelkit benchmark: one workload per process, through the CLI in-process.

    python3 bench/run.py --workload detect|surface|algebra --seed N \
        --seconds S --trace 0|1

Run from the root of an engelkit source tree; the package is imported from
its ``src`` directory.  Set-up (importing engelkit and building the
workload's fixed inputs) is done SETUP_REPEATS times.  Whole rounds of
operations then run until ``--seconds`` have been spent in them and at
least MIN_OPS operations completed.  Every operation and set-up is timed
on the wall clock and scaled by the core's current speed, probed with a
fixed loop just before and after it.  Each operation's files are checked
against the independent references afterwards.  The last line of
standard output is one JSON object: correct, attempted, failed, and the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``, a separate run with the tracing wrappers installed, which
sets up once).  See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import references
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MIN_OPS = 100
LAYERS = ("cli", "endpoint", "flow", "poly", "distribution", "charfield")
# The calibration loop's fastest time on the 2-core host the benchmark was
# written on; scaled times read as wall time on that host at full speed.
CALIBRATION_S = 1.25e-3


def calibration() -> float:
    """Seconds a fixed pure-Python loop takes now: a probe of core speed."""
    start = time.perf_counter()
    total = 0
    for k in range(20000):
        total += k * k
    return time.perf_counter() - start


def scaled(wall: float, cal_before: float, cal_after: float) -> float:
    return wall * CALIBRATION_S / min(cal_before, cal_after)


def import_engelkit() -> dict:
    """Import engelkit from ROOT/src afresh, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "engelkit" or m.startswith("engelkit.")]:
        del sys.modules[name]
    importlib.import_module("engelkit.cli")
    return {layer: sys.modules[f"engelkit.{layer}"] for layer in LAYERS}


def run_op(cli, op: workloads.Op) -> tuple[int, str]:
    for argv in op.argvs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            return code, err.getvalue().strip()
    return 0, ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "engelkit" / "__init__.py").is_file():
        print(f"error: no engelkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    failed_refs = references.self_test()
    if failed_refs:
        print("error: reference self-test failed: " + "; ".join(failed_refs), file=sys.stderr)
        return 2

    workload_cls = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    setup_times: list[float] = []
    setup_wall: list[float] = []

    def set_up():
        cal = calibration()
        start = time.perf_counter()
        ek = import_engelkit()
        if tracer:
            tracer.install(ek)
        workload = workload_cls(ek, args.seed, work)
        wall = time.perf_counter() - start
        setup_times.append(scaled(wall, cal, calibration()))
        setup_wall.append(wall)
        return ek["cli"], workload

    try:
        for _ in range(1 if tracer else SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            cli, workload = set_up()
        if tracer:
            tracer.start_ops()
        times: list[float] = []
        walls: list[float] = []
        done: list[workloads.Op] = []
        failures: dict[str, int] = {}
        attempted = 0
        elapsed = 0.0
        rounds = 0
        while elapsed < args.seconds or (len(times) < MIN_OPS and elapsed < 3 * args.seconds):
            ops = workload.round(rounds)
            rounds += 1
            # Keep the run's own growing records out of the collections
            # that happen inside later ops; a fresh engelkit process would
            # not carry them.
            gc.collect()
            gc.freeze()
            round_start = time.perf_counter()
            cal_prev = calibration()
            for op in ops:
                if tracer:
                    tracer.op = attempted
                attempted += 1
                start = time.perf_counter()
                code, message = run_op(cli, op)
                wall = time.perf_counter() - start
                cal = calibration()
                if code == 0:
                    times.append(scaled(wall, cal_prev, cal))
                    walls.append(wall)
                    done.append(op)
                else:
                    key = f"exit {code}: {message}"
                    failures[key] = failures.get(key, 0) + 1
                cal_prev = cal
            elapsed += time.perf_counter() - round_start
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.unpatch()
        problems = [line for op in done for line in op.check()]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()

    for key, count in sorted(failures.items()):
        print(f"failed x{count}: {key}", file=sys.stderr)
    for line in problems[:20]:
        print(f"incorrect: {line}", file=sys.stderr)
    if not times:
        print("error: no operation completed", file=sys.stderr)
        return 1

    failed = sum(failures.values())
    op_ms = 1e3 * np.array(times)
    op_ms_p50 = float(np.percentile(op_ms, 50))
    if tracer:
        values = tracer.metrics(attempted, op_ms_p50)
        units = {name: tracing.PER_LAYER[name][0] for name in values}
    else:
        values = {
            "ops_per_s": len(times) / sum(times),
            "op_ms_p50": op_ms_p50,
            "op_ms_p90": float(np.percentile(op_ms, 90)),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": peak_rss_mib,
        }
        units = {"ops_per_s": "op/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
                 "setup_s": "s", "peak_rss_mib": "MiB"}
    print(
        f"{args.workload}: {len(times)}/{attempted} ops in {rounds} rounds, "
        f"{elapsed:.2f} s, {len(problems)} problems; "
        f"unscaled op p50 {1e3 * float(np.percentile(walls, 50)):.2f} ms, "
        f"set-up {statistics.median(setup_wall):.3f} s",
        file=sys.stderr,
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
