"""Acceptance suite: the ten verification gates of the toolkit.

Each criterion is a self-contained callable returning a CriterionResult
with per-check details.  ``run_all`` executes them in order; the CLI
``verify`` subcommand and the test suite both drive this module, so there
is a single source of truth for the gate.

All tolerances are fixed here, not configurable: exact polynomial and
rational-rank checks use zero tolerance, flow-based checks use the
integrator defaults (rtol 1e-10, atol 1e-12) with the stated bounds.
Seeded randomness uses numpy's PCG64 generator, so every criterion is
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .charfield import (
    CORRECTED,
    ORACLE,
    PRINTED,
    REFERENCE_FIELDS,
    VARIANTS,
    char_field,
    coefficients,
    horizontality_residuals,
)
from .distribution import CATALOG, DEGENERATE_MODELS, PfaffianPair, growth_vector
from .endpoint import (
    CHAR_ARC_DURATION,
    REGULAR,
    SINGULAR,
    ControlPath,
    bryant_hsu_test,
    char_control,
    endpoint_jacobian,
    sard_sample,
)
from .flow import RHO, ZW, closed_form, conserved_drift, integrate, lyapunov_report, singular_surface
from .poly import Point4, random_poly

MASTER_SEED = 20260810


@dataclass
class CriterionResult:
    number: int
    title: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks.append((label, bool(ok), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{status}] {self.title}"

    def detail_lines(self) -> list[str]:
        return [
            f"    [{'ok' if ok else 'FAIL'}] {label}: {detail}"
            for label, ok, detail in self.checks
        ]


def _rational_points(rng, count: int) -> list[Point4]:
    return [
        Point4(*(Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 9))) for _ in range(4)))
        for _ in range(count)
    ]


def criterion_1() -> CriterionResult:
    """Growth vectors at the origin and across random rational points (exact rank)."""
    ck = CriterionResult(1, "growth vectors by exact rational rank")
    expected = {"d224": (2, 2, 4), "d2334a": (2, 3, 3, 4), "d2334b": (2, 3, 3, 4)}
    for model, dims in expected.items():
        gv = growth_vector(CATALOG[model], Point4.origin())
        ck.add(f"{model} at origin", gv.dims == dims, f"got {gv}")
    rng = np.random.default_rng(MASTER_SEED)
    bad = []
    for q in _rational_points(rng, 50):
        gv = growth_vector(CATALOG["engel_std"], q)
        if gv.dims != (2, 3, 4):
            bad.append((q, gv.dims))
    ck.add("engel_std (2,3,4) at 50 rational points", not bad, f"failures: {bad!r}")
    return ck


def criterion_2() -> CriterionResult:
    """Characteristic-field identities: bracket oracle vs reference closed
    forms, and corrected vs oracle as exact polynomials."""
    ck = CriterionResult(2, "characteristic-field identities (exact)")
    for model in DEGENERATE_MODELS:
        fld = char_field(CATALOG[model], ORACLE)
        ck.add(
            f"oracle field == reference closed form ({model})",
            fld == REFERENCE_FIELDS[model],
            f"got ({fld.cx}, {fld.cy}, {fld.cz}, {fld.cw})",
        )
    for model, pair in CATALOG.items():
        co_o = coefficients(pair, ORACLE)
        co_c = coefficients(pair, CORRECTED)
        ck.add(
            f"corrected == oracle ({model})",
            co_o.c == co_c.c and co_o.e == co_c.e,
            "exact term-map comparison",
        )
    rng = np.random.default_rng(MASTER_SEED + 2)
    mismatches = 0
    for _ in range(20):
        pair = PfaffianPair(f=random_poly(rng), g=random_poly(rng))
        co_o = coefficients(pair, ORACLE)
        co_c = coefficients(pair, CORRECTED)
        if co_o.c != co_c.c or co_o.e != co_c.e:
            mismatches += 1
    ck.add("corrected == oracle on 20 random degree<=3 pairs", mismatches == 0,
           f"{mismatches} mismatches")
    return ck


def criterion_3() -> CriterionResult:
    """theta1(C) and theta2(C) vanish identically for every variant and model."""
    ck = CriterionResult(3, "horizontality of the characteristic field (exact)")
    for model, pair in CATALOG.items():
        for variant in VARIANTS:
            fld = char_field(pair, variant)
            r1, r2 = horizontality_residuals(pair, fld)
            ck.add(
                f"horizontality {model}/{variant}",
                r1.is_zero() and r2.is_zero(),
                f"theta1(C)={r1}, theta2(C)={r2}",
            )
    return ck


def criterion_4() -> CriterionResult:
    """Conserved quantities and the Lyapunov decay along characteristic flows."""
    ck = CriterionResult(4, "conservation and Lyapunov decay along flows")
    rng = np.random.default_rng(MASTER_SEED + 4)

    fld_b = char_field(CATALOG["d2334b"], ORACLE)
    worst = 0.0
    for rho0 in (1.0, 0.01):
        for _ in range(20):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            r = math.sqrt(rho0)
            traj = integrate(fld_b, (0.0, 0.0, r * math.cos(theta), r * math.sin(theta)), 10.0)
            worst = max(worst, conserved_drift(traj, RHO))
    ck.add("d2334b conserves z^2+w^2 (40 starts, t=10)", worst <= 1e-8,
           f"max drift {worst:.3e} <= 1e-8")

    fld_a = char_field(CATALOG["d2334a"], ORACLE)
    worst = 0.0
    for _ in range(20):
        z0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0)
        w0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0)
        traj = integrate(fld_a, (0.0, 0.0, z0, w0), 10.0)
        worst = max(worst, conserved_drift(traj, ZW))
    ck.add("d2334a conserves z*w (20 starts, t=10)", worst <= 1e-8,
           f"max drift {worst:.3e} <= 1e-8")

    bad_monotone = 0
    worst_final = 0.0
    for _ in range(20):
        q0 = Point4(0.0, 0.0, rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        rep = lyapunov_report(q0, t_end=10.0)
        if not rep.rho_monotone:
            bad_monotone += 1
        worst_final = max(worst_final, rep.final_rho)
    ck.add("d224 rho non-increasing (20 starts)", bad_monotone == 0,
           f"{bad_monotone} non-monotone runs")
    ck.add("d224 final rho < 1e-6 at t=10", worst_final < 1e-6,
           f"max final rho {worst_final:.3e}")
    return ck


def criterion_5() -> CriterionResult:
    """Integrating the closed-form models reproduces their explicit solutions."""
    ck = CriterionResult(5, "closed-form flow regression")
    starts = [
        Point4(0.0, 0.0, 1.0, 1.0),
        Point4(0.3, -0.2, 0.7, 0.4),
        Point4(-1.0 / 3.0, -1.0 / 3.0, 1.0, 1.0),
    ]
    for model in ("d224", "d2334a"):
        fld = char_field(CATALOG[model], PRINTED)
        worst = 0.0
        for q0 in starts:
            for t in (0.5, 1.0, 2.0):
                traj = integrate(fld, q0, t)
                ref = np.array(closed_form(model, q0, t).as_floats())
                worst = max(worst, float(np.max(np.abs(traj.endpoint - ref))))
        ck.add(f"{model} closed form at t in {{0.5, 1, 2}}", worst <= 1e-8,
               f"max |numeric - closed| = {worst:.3e} <= 1e-8")
    return ck


def _surface_grid(magnitudes: tuple[float, ...]) -> list[tuple[float, float]]:
    signs = (1.0, -1.0)
    return [(sz * mz, sw * mw)
            for mz in magnitudes for mw in magnitudes for sz in signs for sw in signs]


def criterion_6() -> CriterionResult:
    """Singular-endpoint surface of d224: graph offsets and membership."""
    ck = CriterionResult(6, "singular-endpoint surface reconstruction (d224)")
    fld = char_field(CATALOG["d224"], ORACLE)
    for magnitudes, rel_tol, label in (
        ((0.01, 0.04, 0.07, 0.1), 0.05, "0.01<=|z|,|w|<=0.1"),
        ((0.001, 0.004, 0.007, 0.01), 0.005, "0.001<=|z|,|w|<=0.01"),
    ):
        grid = _surface_grid(magnitudes)
        sample = singular_surface(CATALOG["d224"], grid)
        ck.add(f"all samples converged ({label})", all(sample.converged),
               f"{sum(sample.converged)}/{len(grid)}")
        worst_rel = 0.0
        for (z, w), (dx, dy) in zip(sample.grid, sample.offsets):
            ref_x = w * z * z / 3.0
            ref_y = z * w * w / 3.0
            worst_rel = max(
                worst_rel, abs(dx - ref_x) / abs(ref_x), abs(dy - ref_y) / abs(ref_y)
            )
        ck.add(
            f"offsets match -(1/3)(w z^2, z w^2) to {rel_tol:.1%} ({label})",
            worst_rel <= rel_tol,
            f"max relative error {worst_rel:.3e}",
        )
        worst_origin = 0.0
        worst_rho = 0.0
        for px, py, z, w in sample.surface_points():
            final = integrate(fld, (px, py, z, w), sample.t_max).endpoint
            worst_origin = max(worst_origin, abs(final[0]) + abs(final[1]))
            worst_rho = max(worst_rho, final[2] ** 2 + final[3] ** 2)
        ck.add(
            f"membership: flows from surface points end at the origin ({label})",
            worst_origin < 1e-6 and worst_rho < 2 * sample.eps_cut,
            f"max |x|+|y| = {worst_origin:.3e}, max rho = {worst_rho:.3e}",
        )
    return ck


def criterion_7() -> CriterionResult:
    """The rotational model never approaches the origin: min rho stays at rho(0)."""
    ck = CriterionResult(7, "no origin approach for the rotational model (d2334b)")
    rep = sard_sample("d2334b", 50, seed=MASTER_SEED + 7, detector_subset=0)
    # 0.0 - keeps a zero drop positive.
    worst = 0.0 - rep.min_rho_deviation
    ck.add("min rho >= rho(0) - 1e-8 over 50 starts on rho=0.01", worst <= 1e-8,
           f"max drop {worst:.3e}")
    return ck


def criterion_8() -> CriterionResult:
    """Singularity detectors: known singular curve, random-control calibration,
    and characteristic arcs of all three degenerate models."""
    ck = CriterionResult(8, "singular-curve detectors (rank and covector routes)")
    pair = CATALOG["engel_std"]
    ctrl = ControlPath.constant(0.0, 1.0, 32)
    verdict = bryant_hsu_test(pair, Point4.origin(), ctrl)
    ck.add(
        "engel_std control (0,1): both statistics below 1e-7",
        verdict.bh_smallest < 1e-7 and verdict.sigma_ratio < 1e-7,
        f"bh={verdict.bh_smallest:.3e}, score={verdict.sigma_ratio:.3e}",
    )
    ck.add(
        "engel_std control (0,1): witness pairings vanish",
        verdict.classification == SINGULAR and verdict.witness_h_max <= 1e-6,
        f"max |h1|+|h2| = {verdict.witness_h_max:.3e}",
    )

    rng = np.random.default_rng(MASTER_SEED)
    for model, catalog_pair in CATALOG.items():
        regular = 0
        disagreements = 0
        engel_scores = []
        for _ in range(100):
            rand_ctrl = ControlPath(rng.uniform(-1.0, 1.0, size=(32, 2)))
            v = bryant_hsu_test(catalog_pair, Point4.origin(), rand_ctrl)
            if v.classification == REGULAR:
                regular += 1
            jac_class = v.jacobian_classification
            if {v.classification, jac_class} == {SINGULAR, REGULAR}:
                disagreements += 1
            if model == "engel_std":
                engel_scores.append(v.sigma_ratio)
        ck.add(f"{model}: >= 95/100 random controls REGULAR", regular >= 95,
               f"{regular}/100 regular")
        ck.add(f"{model}: no detector disagreements", disagreements == 0,
               f"{disagreements} disagreements")
        if model == "engel_std":
            above = sum(s > 5e-4 for s in engel_scores)
            ck.add(
                "engel_std: frozen score regression (>= 95/100 above 5e-4)",
                above >= 95,
                f"{above}/100 above 5e-4 (calibrated floor; measured min 3.3e-4)",
            )

    arcs = {
        "d224": Point4(-0.1**2 * 0.1 / 3.0, -0.1 * 0.1**2 / 3.0, 0.1, 0.1),
        "d2334a": Point4(0.0, 0.0, 0.1, 0.1),
        "d2334b": Point4(0.0, 0.0, 0.1, 0.0),
    }
    for model, p0 in arcs.items():
        arc_pair = CATALOG[model]
        arc = char_control(arc_pair, p0, CHAR_ARC_DURATION[model], 64)
        v = bryant_hsu_test(arc_pair, p0, arc)
        ck.add(
            f"{model}: 64-segment characteristic arc is SINGULAR",
            v.classification == SINGULAR,
            f"bh={v.bh_smallest:.3e}, score={v.sigma_ratio:.3e}",
        )
    return ck


def criterion_9() -> CriterionResult:
    """Variational endpoint Jacobian agrees with central finite differences."""
    ck = CriterionResult(9, "endpoint Jacobian correctness")
    rng = np.random.default_rng(MASTER_SEED + 9)
    for model, pair in CATALOG.items():
        worst = 0.0
        for n in (4, 16, 32):
            ctrl = ControlPath(rng.uniform(-1.0, 1.0, size=(n, 2)))
            res = endpoint_jacobian(pair, Point4.origin(), ctrl, fd_check=True)
            worst = max(worst, res.fd_max_discrepancy)
        ck.add(f"{model}: Jacobian vs finite differences (n=4,16,32)", worst <= 1e-5,
               f"max entrywise discrepancy {worst:.3e} <= 1e-5")
    return ck


def criterion_10() -> CriterionResult:
    """Endpoint clouds: 2-parameter graph for d224, empty origin-reaching set
    for d2334b."""
    ck = CriterionResult(10, "singular endpoint sampling (2-disc vs single point)")
    rep = sard_sample("d224", 200, seed=MASTER_SEED, detector_subset=10)
    ck.add(
        "d224: 200 singular-curve endpoints within 1e-6 of the surface graph",
        rep.max_surface_distance <= 1e-6,
        f"max distance {rep.max_surface_distance:.3e}",
    )
    ck.add(
        "d224: sampled-arc detectors agree",
        rep.detector_agreement == 1.0,
        f"agreement {rep.detector_agreement:.2f}, ambiguous {rep.ambiguous_count}",
    )
    rep_b = sard_sample("d2334b", 50, seed=MASTER_SEED, detector_subset=5)
    ck.add(
        "d2334b: no trajectory reaches toward the origin",
        rep_b.origin_reaching_count == 0 and rep_b.min_rho_deviation >= -1e-8,
        f"origin-reaching {rep_b.origin_reaching_count}, "
        f"min rho deviation {rep_b.min_rho_deviation:.3e}",
    )
    return ck


CRITERIA = dict(enumerate((
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
), start=1))


def run_all(numbers: list[int] | None = None) -> list[CriterionResult]:
    results = []
    for number in sorted(numbers or CRITERIA):
        result = CRITERIA[number]()
        results.append(result)
        print(result.summary_line())
        if not result.passed:
            for line in result.detail_lines():
                print(line)
    return results
