"""In-memory tracing of calls between engelkit's modules.

The traced run replaces, in the namespace of the calling module, each
public function one layer calls in another with a wrapper that records a
span (name, op, parent span, start, end).  Hot leaf calls (the rhs handed
to the integrator, exact polynomial products and evaluations, exact rank)
are not stored one by one: each adds its count and time to totals that
start_ops resets, and its time to the enclosing span.  Compiled polynomial closures
are only counted.  A span's self time is its duration minus the time of
its child spans and leaf calls.  The untraced run installs none of this.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

_NAME, _OP, _PARENT, _START, _END, _CHILD, _INFO = range(7)

# Per-layer metric -> (unit, better).  "_ms" / "_us" / "_ns" without
# "_per_op" are means per call; "_per_op" values are totals over the traced
# ops divided by the ops attempted.
PER_LAYER = {
    "cli.self_ms_per_op": ("ms", "lower"),
    "endpoint.bryant_hsu_test_ms": ("ms", "lower"),
    "endpoint.adjoint_transport_ms": ("ms", "lower"),
    "endpoint.endpoint_jacobian_ms": ("ms", "lower"),
    "endpoint.horizontal_integrate_ms": ("ms", "lower"),
    "endpoint.self_ms_per_op": ("ms", "lower"),
    "endpoint.bh_over_jacobian": ("ratio", "lower"),
    "endpoint.char_control_ms": ("ms", "lower"),
    "flow.rk45_calls_per_op": ("count", "lower"),
    "flow.accepted_steps_per_op": ("count", "lower"),
    "flow.rhs_evals_per_op": ("count", "lower"),
    "flow.rhs_evals_per_step": ("ratio", "lower"),
    "flow.rk45_self_ms_per_op": ("ms", "lower"),
    "flow.rhs_us_per_eval": ("us", "lower"),
    "flow.singular_surface_ms_per_sample": ("ms", "lower"),
    "poly.compiled_evals_per_op": ("count", "lower"),
    "poly.compiled_eval_ns": ("ns", "lower"),
    "poly.exact_mul_us": ("us", "lower"),
    "poly.eval_exact_us": ("us", "lower"),
    "distribution.growth_vector_cold_ms": ("ms", "lower"),
    "distribution.growth_vector_warm_ms": ("ms", "lower"),
    "distribution.rational_rank_us": ("us", "lower"),
    "distribution.bracket_cache_hits": ("count", "higher"),
    "distribution.bracket_cache_misses": ("count", "lower"),
    "charfield.cross_check_ms": ("ms", "lower"),
    "charfield.char_field_ms": ("ms", "lower"),
    "trace.op_ms_p50": ("ms", "lower"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.compiled: list[tuple[object, list[int]]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` so each call records a span.

        ``before()`` runs ahead of the call; ``after(token, args, result)``
        gives the span's info field.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            token = before() if before else None
            rec = [name, self.op, parent, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = end = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][_CHILD] += end - rec[_START]
            if after:
                rec[_INFO] = after(token, args, result)
            return result

        return traced

    def leaf(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                total = self.leaves[name]
                total[0] += 1
                total[1] += dt
                if stack:
                    spans[stack[-1]][_CHILD] += dt

        return traced

    def patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- engelkit boundaries ---------------------------------------------------

    def install(self, ek: dict) -> None:
        """Wrap the calls between layers.  ``ek`` maps short module names
        (cli, endpoint, flow, poly, distribution, charfield) to modules."""
        cli, endpoint, flow = ek["cli"], ek["endpoint"], ek["flow"]
        poly, distribution = ek["poly"], ek["distribution"]

        self.patch(cli, "main", self.span("cli.main", cli.main))
        for name in ("bryant_hsu_test", "horizontal_integrate"):
            self.patch(cli, name, self.span(f"endpoint.{name}", getattr(cli, name)))
        for name in ("adjoint_transport", "endpoint_jacobian", "char_control"):
            self.patch(endpoint, name, self.span(f"endpoint.{name}", getattr(endpoint, name)))

        def rk45_wrapper(orig):
            inner = self.span(
                "flow.adaptive_rk45", orig, after=lambda _t, _a, res: len(res[0]) - 1
            )

            def rk45(rhs, *args, **kwargs):
                return inner(self.leaf("flow.rhs", rhs), *args, **kwargs)

            return rk45

        self.patch(endpoint, "adaptive_rk45", rk45_wrapper(endpoint.adaptive_rk45))
        self.patch(flow, "adaptive_rk45", rk45_wrapper(flow.adaptive_rk45))
        self.patch(
            cli,
            "singular_surface",
            self.span(
                "flow.singular_surface",
                cli.singular_surface,
                after=lambda _t, _a, res: len(res.grid),
            ),
        )

        for owner in (flow, endpoint):
            self.patch(owner, "char_field", self.span("charfield.char_field", owner.char_field))
        self.patch(cli, "cross_check", self.span("charfield.cross_check", cli.cross_check))

        self.patch(cli, "sigma_check", self.span("distribution.sigma_check", cli.sigma_check))
        cache_info = distribution.bracket_levels.cache_info
        self.patch(
            distribution,
            "growth_vector",
            self.span(
                "distribution.growth_vector",
                distribution.growth_vector,
                before=lambda: cache_info().misses,
                after=lambda misses, _a, _r: cache_info().misses > misses,
            ),
        )
        self.patch(
            distribution,
            "rational_rank",
            self.leaf("distribution.rational_rank", distribution.rational_rank),
        )

        sparse = poly.SparsePoly
        mul = self.leaf("poly.mul", sparse.__mul__)
        self.patch(sparse, "__mul__", mul)
        self.patch(sparse, "__rmul__", mul)
        self.patch(sparse, "eval_exact", self.leaf("poly.eval_exact", sparse.eval_exact))
        orig_compile = sparse.compile

        def compile_counted(p):
            fn = orig_compile(p)
            counter = [0]
            self.compiled.append((p, counter))

            def evaluate(x, y, z, w):
                counter[0] += 1
                return fn(x, y, z, w)

            return evaluate

        self.patch(sparse, "compile", compile_counted)
        self._orig_compile = orig_compile
        self._cache_info = cache_info

    def start_ops(self) -> None:
        """Mark the end of set-up: later spans and leaf totals are the ops'."""
        self.leaves = defaultdict(lambda: [0, 0.0])
        self.op = 0
        self._cache_start = self._cache_info()
        self._compiled_start = len(self.compiled)

    # -- per-layer metrics -----------------------------------------------------

    def metrics(self, n_ops: int, op_ms_p50: float) -> dict[str, float]:
        ops_spans = [s for s in self.spans if s[_OP] >= 0]
        by_name: dict[str, list[list]] = defaultdict(list)
        for s in ops_spans:
            by_name[s[_NAME]].append(s)

        def mean_ms(spans) -> float:
            return 1e3 * sum(s[_END] - s[_START] for s in spans) / len(spans) if spans else 0.0

        def self_s(spans) -> float:
            return sum(s[_END] - s[_START] - s[_CHILD] for s in spans)

        def leaf_mean(name: str, scale: float) -> float:
            count, total = self.leaves[name]
            return scale * total / count if count else 0.0

        per_op = 1.0 / n_ops
        rk45 = by_name["flow.adaptive_rk45"]
        steps = sum(s[_INFO] or 0 for s in rk45)
        rhs_evals = self.leaves["flow.rhs"][0]
        surf = by_name["flow.singular_surface"]
        samples = sum(s[_INFO] for s in surf)
        growth = by_name["distribution.growth_vector"]
        endpoint_spans = [s for s in ops_spans if s[_NAME].startswith("endpoint.")]
        bh_ms = mean_ms(by_name["endpoint.bryant_hsu_test"])
        jac_ms = mean_ms(by_name["endpoint.endpoint_jacobian"])
        cache_end = self._cache_info()
        compiled = self.compiled[self._compiled_start:]
        evals = sum(c[0] for _, c in compiled)
        all_char_field = [s for s in self.spans if s[_NAME] == "charfield.char_field"]
        setup_char_control = [s for s in self.spans if s[_NAME] == "endpoint.char_control"]
        return {
            "cli.self_ms_per_op": 1e3 * self_s(by_name["cli.main"]) * per_op,
            "endpoint.bryant_hsu_test_ms": bh_ms,
            "endpoint.adjoint_transport_ms": mean_ms(by_name["endpoint.adjoint_transport"]),
            "endpoint.endpoint_jacobian_ms": jac_ms,
            "endpoint.horizontal_integrate_ms": mean_ms(by_name["endpoint.horizontal_integrate"]),
            "endpoint.self_ms_per_op": 1e3 * self_s(endpoint_spans) * per_op,
            "endpoint.bh_over_jacobian": bh_ms / jac_ms if jac_ms else 0.0,
            "endpoint.char_control_ms": mean_ms(setup_char_control),
            "flow.rk45_calls_per_op": len(rk45) * per_op,
            "flow.accepted_steps_per_op": steps * per_op,
            "flow.rhs_evals_per_op": rhs_evals * per_op,
            "flow.rhs_evals_per_step": rhs_evals / steps if steps else 0.0,
            "flow.rk45_self_ms_per_op": 1e3 * self_s(rk45) * per_op,
            "flow.rhs_us_per_eval": leaf_mean("flow.rhs", 1e6),
            "flow.singular_surface_ms_per_sample": (
                1e3 * sum(s[_END] - s[_START] for s in surf) / samples if samples else 0.0
            ),
            "poly.compiled_evals_per_op": evals * per_op,
            "poly.compiled_eval_ns": self._compiled_eval_ns(compiled),
            "poly.exact_mul_us": leaf_mean("poly.mul", 1e6),
            "poly.eval_exact_us": leaf_mean("poly.eval_exact", 1e6),
            "distribution.growth_vector_cold_ms": mean_ms([s for s in growth if s[_INFO]]),
            "distribution.growth_vector_warm_ms": mean_ms([s for s in growth if not s[_INFO]]),
            "distribution.rational_rank_us": leaf_mean("distribution.rational_rank", 1e6),
            "distribution.bracket_cache_hits": (cache_end.hits - self._cache_start.hits) * per_op,
            "distribution.bracket_cache_misses": (
                (cache_end.misses - self._cache_start.misses) * per_op
            ),
            "charfield.cross_check_ms": mean_ms(by_name["charfield.cross_check"]),
            "charfield.char_field_ms": mean_ms(all_char_field),
            "trace.op_ms_p50": op_ms_p50,
        }

    def _compiled_eval_ns(self, compiled) -> float:
        """Mean ns per call of the closures the ops evaluated, each timed
        untraced on fixed points and weighted by its traced call count."""
        calls: dict[object, int] = defaultdict(int)
        for p, counter in compiled:
            calls[p] += counter[0]
        calls = {p: n for p, n in calls.items() if n}
        if not calls:
            return 0.0
        points = [tuple(row) for row in np.random.default_rng(0).uniform(-0.5, 0.5, (200, 4))]
        weighted = 0.0
        for p, n in calls.items():
            fn = self._orig_compile(p)
            best = float("inf")
            for _ in range(5):
                start = time.perf_counter_ns()
                for x, y, z, w in points:
                    fn(x, y, z, w)
                best = min(best, (time.perf_counter_ns() - start) / len(points))
            weighted += n * best
        return weighted / sum(calls.values())
