"""Independent references for checking engelkit's outputs.

Nothing here imports engelkit.  Each reference is derived from the
mathematics of the models, not from a stored copy of the program's output:

* detect: every catalog f and g depends on (z, w) only, so under a
  piecewise-constant control z and w are piecewise linear in time and
  x' = -u2 f(z, w), y' = -u2 g(z, w) are polynomials of degree <= 3 in t on
  each segment.  Gauss-Legendre quadrature with 4 nodes integrates them
  exactly, which gives the endpoint; complex-step differentiation of that
  quadrature gives the endpoint Jacobian to rounding error, and so the
  singular-value ratio sigma_4 / sigma_1.
* surface: the d224 singular-endpoint surface is the graph
  (x, y) = -(1/3)(w z^2, z w^2).  The flow is cut where rho = z^2 + w^2
  falls below eps_cut; the part of the offset left beyond the cut is the
  share (eps_cut / rho0)^(3/2) of the whole (x carries exp(-6t) while rho
  carries exp(-4t)).
* algebra: exact polynomial arithmetic over Q in a few lines of its own,
  used to check properties every correct answer has: the e coefficient is
  f_z g_zz - g_z f_zz in every variant, corrected == oracle exactly, the
  certificate is g_z f_zz - f_z g_zz, dim D^2 = 2 + [(f_z, g_z)(q) != 0],
  a nonzero certificate implies growth (2,3,4), and the catalog growth
  vectors at the origin are those of the table in PAPER.md.

Run ``python3 bench/references.py`` to self-test the references against
closed forms and finite differences.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np

# Classification bands of both singularity detectors (PAPER.md).
SINGULAR_BELOW = 1e-7
REGULAR_ABOVE = 1e-4

# Catalog pairs as functions of (z, w); PAPER.md "Built-in models".
CATALOG_FG = {
    "engel_std": (lambda z, w: z, lambda z, w: z * z / 2.0),
    "d224": (lambda z, w: z * z, lambda z, w: z * w),
    "d2334a": (lambda z, w: z, lambda z, w: z * z * w),
    "d2334b": (lambda z, w: z, lambda z, w: z**3 / 3.0 + z * w * w),
}

# The same pairs as exact polynomials {(ex, ey, ez, ew): Fraction}.
CATALOG_EXACT = {
    "engel_std": ({(0, 0, 1, 0): Fraction(1)}, {(0, 0, 2, 0): Fraction(1, 2)}),
    "d224": ({(0, 0, 2, 0): Fraction(1)}, {(0, 0, 1, 1): Fraction(1)}),
    "d2334a": ({(0, 0, 1, 0): Fraction(1)}, {(0, 0, 2, 1): Fraction(1)}),
    "d2334b": (
        {(0, 0, 1, 0): Fraction(1)},
        {(0, 0, 3, 0): Fraction(1, 3), (0, 0, 1, 2): Fraction(1)},
    ),
}

# Growth vectors at the origin, from the table in PAPER.md.  Rebuild with
# ``python3 bench/references.py --growth-table PAPER.md``.
CATALOG_GROWTH_AT_ORIGIN = {
    "engel_std": (2, 3, 4),
    "d224": (2, 2, 4),
    "d2334a": (2, 3, 3, 4),
    "d2334b": (2, 3, 3, 4),
}

_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)
_COMPLEX_STEP = 1e-30


def classify(value: float) -> str:
    if value < SINGULAR_BELOW:
        return "SINGULAR"
    if value > REGULAR_ABOVE:
        return "REGULAR"
    return "AMBIGUOUS"


def near_band_edge(value: float, rel: float = 1e-6) -> bool:
    return any(abs(value - edge) <= rel * edge for edge in (SINGULAR_BELOW, REGULAR_ABOVE))


# -- detect ------------------------------------------------------------------


def control_endpoint(model: str, q0, u: np.ndarray) -> np.ndarray:
    """Endpoint of q' = u1 Z + u2 W over n equal segments of total time 1.

    ``u`` has shape (..., n, 2) and may be complex; the leading axes are a
    batch.  Returns shape (..., 4).
    """
    f, g = CATALOG_FG[model]
    x0, y0, z0, w0 = (float(c) for c in q0)
    n = u.shape[-2]
    dt = 1.0 / n
    u1, u2 = u[..., 0], u[..., 1]
    zeros = np.zeros(u1.shape[:-1] + (1,), dtype=u.dtype)
    z_start = z0 + dt * np.concatenate([zeros, np.cumsum(u1, axis=-1)[..., :-1]], axis=-1)
    w_start = w0 + dt * np.concatenate([zeros, np.cumsum(u2, axis=-1)[..., :-1]], axis=-1)
    tau = 0.5 * dt * (_GL_X + 1.0)
    weights = 0.5 * dt * _GL_W
    z = z_start[..., None] + u1[..., None] * tau
    w = w_start[..., None] + u2[..., None] * tau
    x = x0 - np.sum(u2 * (f(z, w) @ weights), axis=-1)
    y = y0 - np.sum(u2 * (g(z, w) @ weights), axis=-1)
    z_end = z0 + dt * np.sum(u1, axis=-1)
    w_end = w0 + dt * np.sum(u2, axis=-1)
    return np.stack([x, y, z_end, w_end], axis=-1)


def control_jacobian(model: str, q0, u: np.ndarray) -> np.ndarray:
    """4 x 2n endpoint Jacobian by complex-step differentiation.

    Columns are ordered (u1 of segment 0, u2 of segment 0, u1 of segment
    1, ...), as in engelkit.
    """
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    batch = np.repeat(u[None].astype(complex), 2 * n, axis=0)
    k = np.arange(2 * n)
    batch[k, k // 2, k % 2] += 1j * _COMPLEX_STEP
    return control_endpoint(model, q0, batch).imag.T / _COMPLEX_STEP


def sigma_ratio(jac: np.ndarray) -> float:
    sv = np.linalg.svd(jac, compute_uv=False)
    return float(sv[3] / sv[0])


def check_detect(model: str, q0, u: np.ndarray, result: dict) -> list[str]:
    """Compare one ``engelkit endpoint`` result row with the references.

    Along each segment the integrands are polynomials of degree <= 3 in t,
    which any Runge-Kutta method of order >= 4 integrates exactly, so the
    program agrees with the references to rounding (measured: 2e-16 on the
    endpoint, 3e-12 relative on sigma).  The tolerances leave a factor of
    about 3000 of room.
    """
    problems = []
    ref_end = control_endpoint(model, q0, np.asarray(u, dtype=float))
    got_end = np.asarray(result["endpoint"], dtype=float)
    err = np.abs(got_end - ref_end)
    if not np.all(err <= 1e-12 + 1e-10 * np.abs(ref_end)):
        problems.append(f"endpoint off by {err.max():.3e}")
    ref_sigma = sigma_ratio(control_jacobian(model, q0, u))
    got_sigma = result["sigma_ratio"]
    if got_sigma is None or not abs(got_sigma - ref_sigma) <= 1e-8 * ref_sigma + 1e-14:
        problems.append(f"sigma ratio {got_sigma!r}, reference {ref_sigma:.6e}")
    ref_class = classify(ref_sigma)
    if not near_band_edge(ref_sigma):
        if result["jacobian_classification"] != ref_class:
            problems.append(
                f"jacobian class {result['jacobian_classification']}, reference {ref_class}"
            )
        if {result["classification"], ref_class} == {"SINGULAR", "REGULAR"}:
            problems.append(f"covector class {result['classification']}, reference {ref_class}")
    return problems


# -- surface -----------------------------------------------------------------


def surface_point(z: float, w: float) -> tuple[float, float]:
    """(x, y) of the d224 singular-endpoint surface over (z, w)."""
    return (-w * z * z / 3.0, -z * w * w / 3.0)


def surface_tolerance(z: float, w: float, eps_cut: float) -> float:
    """Relative error allowed: the cut tail plus integrator error."""
    return (eps_cut / (z * z + w * w)) ** 1.5 + 1e-8


def surface_grid(lo: float, hi: float, count: int, signed: bool) -> list[tuple[float, float]]:
    mags = np.linspace(lo, hi, count)
    signs = [(1.0, 1.0)]
    if signed:
        signs = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]
    return [(sz * a, sw * b) for a in mags for b in mags for sz, sw in signs]


def check_surface(grid, rows, eps_cut: float) -> list[str]:
    """``rows`` are (z, w, x, y, converged) from the surface CSV."""
    if len(rows) != len(grid):
        return [f"{len(rows)} rows for {len(grid)} grid points"]
    problems = []
    for (z, w), (rz, rw, x, y, converged) in zip(grid, rows):
        if (rz, rw) != (z, w):
            problems.append(f"grid point ({rz}, {rw}) where ({z}, {w}) was asked")
            continue
        if not converged:
            problems.append(f"sample ({z}, {w}) did not converge")
            continue
        tol = surface_tolerance(z, w, eps_cut)
        for got, ref in zip((x, y), surface_point(z, w)):
            if not abs(got - ref) <= tol * abs(ref):
                problems.append(f"({z}, {w}): {got!r} vs {ref!r} beyond {tol:.2e} relative")
    return problems


# -- algebra: exact polynomials as {(ex, ey, ez, ew): Fraction} -------------

_VAR = {"x": 0, "y": 1, "z": 2, "w": 3}


def poly_from_json(data) -> dict:
    out: dict = {}
    for coeff, expo in data:
        key = tuple(int(e) for e in expo)
        out[key] = out.get(key, Fraction(0)) + Fraction(coeff)
    return {k: v for k, v in out.items() if v}


def poly_diff(p: dict, var: str) -> dict:
    i = _VAR[var]
    out = {}
    for expo, coeff in p.items():
        if expo[i]:
            lowered = list(expo)
            lowered[i] -= 1
            out[tuple(lowered)] = coeff * expo[i]
    return out


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def poly_sub(p: dict, q: dict) -> dict:
    out = dict(p)
    for expo, coeff in q.items():
        out[expo] = out.get(expo, Fraction(0)) - coeff
    return {k: v for k, v in out.items() if v}


def poly_at(p: dict, point) -> Fraction:
    total = Fraction(0)
    for expo, coeff in p.items():
        term = coeff
        for c, e in zip(point, expo):
            term *= c**e
        total += term
    return total


def e_coefficient(f: dict, g: dict) -> dict:
    """e = f_z g_zz - g_z f_zz; the certificate is its negative."""
    f_z, g_z = poly_diff(f, "z"), poly_diff(g, "z")
    return poly_sub(poly_mul(f_z, poly_diff(g_z, "z")), poly_mul(g_z, poly_diff(f_z, "z")))


def check_char(f: dict, g: dict, report: dict) -> list[str]:
    """Check the JSON written by ``engelkit char``."""
    problems = []
    co = {
        v: (poly_from_json(c["c"]), poly_from_json(c["e"]))
        for v, c in report["coefficients"].items()
    }
    if set(co) != {"printed", "corrected", "oracle"}:
        return [f"variants {sorted(co)}"]
    e_ref = e_coefficient(f, g)
    for variant, (_, e) in co.items():
        if e != e_ref:
            problems.append(f"{variant} e differs from f_z g_zz - g_z f_zz")
    if co["corrected"] != co["oracle"]:
        problems.append("corrected != oracle")
    for comp in report["variant_pairs"]:
        a, b = co[comp["a"]], co[comp["b"]]
        dc = poly_from_json(comp["discrepancy_c"])
        de = poly_from_json(comp["discrepancy_e"])
        if dc != poly_sub(a[0], b[0]) or de != poly_sub(a[1], b[1]):
            problems.append(f"{comp['a']} vs {comp['b']}: wrong discrepancy")
        if comp["identical"] != (a == b):
            problems.append(f"{comp['a']} vs {comp['b']}: identical={comp['identical']}")
    return problems


def check_growth_row(f: dict, g: dict, point, row: dict, catalog_id: str | None) -> list[str]:
    """Check one row of the ``engelkit analyze`` CSV at a rational point."""
    problems = []
    growth = tuple(int(d) for d in row["growth"].split("-"))
    f_z, g_z = poly_diff(f, "z"), poly_diff(g, "z")
    cert = -poly_at(e_coefficient(f, g), point)
    if float(row["certificate"]) != float(cert):
        problems.append(f"certificate {row['certificate']} vs {cert}")
    d2 = 2 + (poly_at(f_z, point) != 0 or poly_at(g_z, point) != 0)
    if growth[0] != 2 or len(growth) < 2 or growth[1] != d2:
        problems.append(f"growth {growth} but dim D^2 = {d2}")
    if any(b < a for a, b in zip(growth, growth[1:])) or max(growth) > 4:
        problems.append(f"growth {growth} not a flag")
    if cert != 0 and growth != (2, 3, 4):
        problems.append(f"nonzero certificate with growth {growth}")
    engel = growth == (2, 3, 4)
    if int(row["engel_by_growth"]) != engel:
        problems.append("engel_by_growth disagrees with growth")
    if int(row["tests_disagree"]) != ((cert != 0) != engel):
        problems.append("tests_disagree flag wrong")
    if catalog_id is not None and not any(point):
        if growth != CATALOG_GROWTH_AT_ORIGIN[catalog_id]:
            problems.append(f"{catalog_id} growth {growth} at the origin")
    return problems


# -- self-test ---------------------------------------------------------------


def self_test() -> list[str]:
    """Check the references against closed forms and finite differences."""
    problems = []
    rng = np.random.default_rng(7)
    # d224 under the constant control (a, b) from the origin: z = a t,
    # w = b t, x = -b a^2/3, y = -b a b/3 at t = 1, whatever the segmentation.
    a, b = 0.7, -0.3
    for n in (1, 5, 32):
        end = control_endpoint("d224", (0, 0, 0, 0), np.tile([a, b], (n, 1)))
        ref = np.array([-b * a * a / 3.0, -b * a * b / 3.0, a, b])
        if not np.allclose(end, ref, rtol=0, atol=1e-15):
            problems.append(f"d224 constant control, n={n}: {end} vs {ref}")
    # engel_std under (0, 1) is abnormal: the y row of the Jacobian is zero.
    jac = control_jacobian("engel_std", (0, 0, 0, 0), np.tile([0.0, 1.0], (32, 1)))
    if sigma_ratio(jac) != 0.0:
        problems.append(f"engel_std (0,1) sigma ratio {sigma_ratio(jac)}")
    # Complex step against central differences on random controls.
    for model in CATALOG_FG:
        u = rng.uniform(-1.0, 1.0, (8, 2))
        q0 = rng.uniform(-0.5, 0.5, 4)
        jac = control_jacobian(model, q0, u)
        h = 1e-6
        for k in range(16):
            du = np.zeros_like(u)
            du[k // 2, k % 2] = h
            fd = (control_endpoint(model, q0, u + du) - control_endpoint(model, q0, u - du)) / (2 * h)
            if not np.allclose(fd, jac[:, k], rtol=1e-7, atol=1e-8):
                problems.append(f"{model} column {k}: complex step {jac[:, k]} vs fd {fd}")
                break
    # Refining a control leaves its endpoint unchanged.
    u = rng.uniform(-1.0, 1.0, (6, 2))
    for model in CATALOG_FG:
        e1 = control_endpoint(model, (0, 0, 0.1, -0.2), u)
        e2 = control_endpoint(model, (0, 0, 0.1, -0.2), np.repeat(u, 2, axis=0))
        if not np.allclose(e1, e2, rtol=0, atol=1e-14):
            problems.append(f"{model}: refinement moved the endpoint")
    # Surface graph against the closed-form d224 flow at large t.
    z0, w0, t = 0.3, -0.2, 40.0
    x_inf = (z0 * z0 * w0 / 3.0) * (1.0 - math.exp(-6.0 * t))
    if abs(-x_inf - surface_point(z0, w0)[0]) > 1e-15:
        problems.append("surface graph disagrees with the d224 closed form")
    # Algebra: e and the certificate on the catalog.  d224: f = z^2,
    # g = z w gives e = 2z * 0 - w * 2 = -2w; engel_std gives e = 1.
    f224, g224 = CATALOG_EXACT["d224"]
    if e_coefficient(f224, g224) != {(0, 0, 0, 1): Fraction(-2)}:
        problems.append(f"d224 e = {e_coefficient(f224, g224)}")
    fe, ge = CATALOG_EXACT["engel_std"]
    if e_coefficient(fe, ge) != {(0, 0, 0, 0): Fraction(1)}:
        problems.append(f"engel_std e = {e_coefficient(fe, ge)}")
    if poly_at(poly_mul(f224, g224), (1, 2, Fraction(1, 2), 3)) != Fraction(3, 8):
        problems.append("poly_mul / poly_at")
    # The exact and the float catalog tables describe the same pairs.
    for model, (f, g) in CATALOG_EXACT.items():
        z, w = Fraction(2, 3), Fraction(-5, 7)
        for exact, fn in zip((f, g), CATALOG_FG[model]):
            if abs(float(poly_at(exact, (0, 0, z, w))) - fn(float(z), float(w))) > 1e-15:
                problems.append(f"{model}: exact and float catalog entries differ")
    return problems


def growth_table_from(path: str) -> dict[str, tuple[int, ...]]:
    """Parse the 'growth at the origin' column of the PAPER.md model table."""
    table = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 4 and cells[0].startswith("`") and cells[3].startswith("`("):
                dims = cells[3].split("`")[1].strip("()")
                table[cells[0].strip("`")] = tuple(int(d) for d in dims.split(","))
    return table


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--growth-table":
        print(growth_table_from(sys.argv[2]))
        sys.exit(0)
    found = self_test()
    for line in found:
        print(f"FAIL {line}")
    print("references self-test:", "FAILED" if found else "ok")
    sys.exit(1 if found else 0)
