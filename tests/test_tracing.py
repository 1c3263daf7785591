"""The benchmark's tracer (bench/tracing.py) wraps engelkit functions by
module attribute name.  Installing it here makes a renamed or removed hook
fail the test suite instead of breaking ``bench/run.py --trace 1``."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

from engelkit import charfield, cli, distribution, endpoint, flow, poly
from engelkit.distribution import CATALOG
from engelkit.endpoint import ControlPath
from engelkit.poly import Point4

MODULES = {
    "cli": cli,
    "endpoint": endpoint,
    "flow": flow,
    "poly": poly,
    "distribution": distribution,
    "charfield": charfield,
}


def _load_tracing():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    return {name: dict(vars(mod)) for name, mod in MODULES.items()} | {
        "SparsePoly": dict(vars(poly.SparsePoly))
    }


def test_tracer_installs_on_every_hook_and_unpatches():
    tracing = _load_tracing()
    before = _namespaces()
    tracer = tracing.Tracer()
    tracer.install(MODULES)
    args = (CATALOG["d224"], Point4.origin(), ControlPath.constant(0.3, 0.8, 2))
    untraced = cli.bryant_hsu_test(*args)
    try:
        tracer.start_ops()
        # one surface flow, through adaptive_rk45, and a two-segment
        # detector pass, whose kernel runs both segments without it
        flow.singular_surface(CATALOG["d224"], [(0.1, 0.1)])
        traced = cli.bryant_hsu_test(*args)
        metrics = tracer.metrics(2, 0.0)
    finally:
        tracer.unpatch()
    assert _namespaces() == before
    assert set(metrics) == set(tracing.PER_LAYER)
    assert metrics["flow.rk45_calls_per_op"] == 0.5
    # a traced detector runs the code an untraced one runs: every field of
    # its verdict is equal byte for byte
    for f in dataclasses.fields(traced):
        got, want = getattr(traced, f.name), getattr(untraced, f.name)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), f.name
    assert metrics["flow.accepted_steps_per_op"] > 0
    # first-same-as-last: six rhs calls per step, plus one per call
    assert 6.0 < metrics["flow.rhs_evals_per_step"] < 7.0
    assert metrics["endpoint.bryant_hsu_test_ms"] > 0


def test_tracer_times_the_exact_algebra_layers():
    # one cold cross_check and one cold sigma_check: every product goes
    # through SparsePoly.__mul__ and the certificate through eval_exact, so
    # a route around either leaves a per-layer metric at 0 and fails here.
    # cross_check builds bracket levels 2 and 3 for the oracle, so the point
    # sits on y = 0, where the growth (2,3,3,3,3,3) needs levels 4 to 6 and
    # sigma_check's growth_vector still misses the bracket cache.
    tracing = _load_tracing()
    for cache in (distribution.bracket_levels, distribution.engel_certificate,
                  charfield.coefficients):
        cache.cache_clear()
    pair = distribution.PfaffianPair.from_json_dict(
        {"f": [[1, [0, 0, 2, 0]], ["1/2", [1, 0, 1, 1]]], "g": [[-3, [0, 1, 1, 0]]]}
    )
    tracer = tracing.Tracer()
    tracer.install(MODULES)
    try:
        tracer.start_ops()
        cli.cross_check(pair)
        cli.sigma_check(pair, Point4(0.5, 0, 2, 0.25))
        metrics = tracer.metrics(2, 0.0)
    finally:
        tracer.unpatch()
    for name in ("poly.exact_mul_us", "poly.eval_exact_us",
                 "distribution.growth_vector_cold_ms", "charfield.cross_check_ms"):
        assert metrics[name] > 0, name
