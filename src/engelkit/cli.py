"""Command-line interface.

Subcommands: analyze, char, flow, surface, endpoint, verify.  All file
outputs are deterministic for a fixed command line (17-significant-digit
floats, sorted JSON keys, no timestamps) and start with a header recording
the tool version, model, full parameter set and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__, acceptance, flow
from .charfield import ORACLE, VARIANTS, char_field, cross_check
from .distribution import resolve_model, sigma_check
from .endpoint import ControlPath, bryant_hsu_test, sard_sample
from .endpoint import horizontal_integrate  # noqa: F401  (patched by bench/tracing.py)
from .flow import (
    DEFAULT_ATOL,
    DEFAULT_EPS_CUT,
    DEFAULT_MONITORS,
    DEFAULT_RTOL,
    DEFAULT_T_MAX,
    FLOAT_FMT,
    IntegrationError,
    integrate,
    singular_surface,
)
from .poly import Point4


class CliError(Exception):
    """Bad user input (exit code 2)."""


def _non_finite(text: str) -> bool:
    """Whether text reads as a NaN or infinite float ("nan", "-inf", "1e400")."""
    try:
        return not math.isfinite(float(text))
    except ValueError:
        return False


def _parse_point(text: str) -> Point4:
    """Exact coordinates when none is a decimal; else every coordinate as the
    float nearest its value, so "1/2" and "0.5" read alike."""
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError(f"expected 4 comma-separated coordinates, got {text!r}")
    coords = []
    rational = all(("." not in p) and ("e" not in p.lower()) for p in parts)
    for p in parts:
        p = p.strip()
        if _non_finite(p):
            raise CliError(f"bad coordinate {p!r}: coordinates must be finite")
        try:
            # float(text) and float(Fraction) both round correctly, so a
            # decimal keeps its value; a "p/q" has integer parts only.
            coords.append(Fraction(p) if rational else float(Fraction(p) if "/" in p else p))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise CliError(f"bad coordinate {p!r}: {exc}") from exc
    return Point4(*coords)


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, count = text.split(":")
        lo, hi = float(lo), float(hi)
        # NaN or infinite when either bound is, or when max - min overflows.
        if not math.isfinite(hi - lo):
            raise CliError(f"bad grid spec {text!r}: min, max and max - min must be finite")
        values = np.linspace(lo, hi, int(count))
    except ValueError as exc:
        raise CliError(f"bad grid spec {text!r}; expected min:max:count") from exc
    if len(values) == 0:
        raise CliError("grid is empty")
    return values


def _header_lines(args: argparse.Namespace, model: str, **extra) -> list[str]:
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "out", "cloud") and v is not None
    }
    params.update(extra)
    body = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    return [
        f"engelkit {__version__}",
        f"model={model}",
        f"params: {body}",
        f"seed={getattr(args, 'seed', None)}",
    ]


def _write_json(path: str, payload: dict, header: list[str]) -> None:
    payload = {"_meta": {"header": header}, **payload}
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _open_out(path: str, header: list[str]):
    """The CSV output file, opened for writing with its ``# `` header lines
    already written."""
    fh = open(path, "w", encoding="utf-8", newline="\n")
    fh.writelines(f"# {line}\n" for line in header)
    return fh


def cmd_analyze(args: argparse.Namespace) -> int:
    model, pair = resolve_model(args.model)
    points: list[Point4] = [_parse_point(p) for p in args.point or []]
    reports = []
    if args.grid is not None:
        values = _parse_grid(args.grid)
        points += [Point4(0.0, 0.0, float(z), float(w)) for z in values for w in values]
    if not points:
        raise CliError("give at least one --point or a --grid")
    # Converted first, so that a coordinate past the float range fails
    # before any row is printed or the file is opened.
    csv_coords = (
        [",".join(FLOAT_FMT % c for c in q.as_floats()) for q in points] if args.out else []
    )
    for q in points:
        rep = sigma_check(pair, q)
        reports.append(rep)
        flag = " [certificate and growth disagree]" if rep.tests_disagree else ""
        coords = ",".join(str(c) for c in q.as_tuple())
        print(
            f"point ({coords}): growth {rep.growth}, "
            f"certificate {rep.certificate_value:.17g}, "
            f"engel_by_growth={rep.is_engel_by_growth}, "
            f"on_degenerate_locus={not rep.is_engel_by_growth}{flag}"
        )
    if args.out:
        with _open_out(args.out, _header_lines(args, model)) as fh:
            fh.write("x,y,z,w,growth,certificate,engel_by_growth,tests_disagree\n")
            for coords, rep in zip(csv_coords, reports):
                growth = "-".join(str(d) for d in rep.growth.dims)
                fh.write(
                    f"{coords},{growth},{FLOAT_FMT % rep.certificate_value},"
                    f"{int(rep.is_engel_by_growth)},{int(rep.tests_disagree)}\n"
                )
    return 0


def cmd_char(args: argparse.Namespace) -> int:
    model, pair = resolve_model(args.model)
    report = cross_check(pair)
    for variant in VARIANTS:
        co = report.coefficients[variant]
        print(f"{variant:9s} c = {co.c}")
        print(f"{'':9s} e = {co.e}")
    for comp in report.comparisons:
        if comp.identical:
            print(f"{comp.a} == {comp.b} (exact)")
        else:
            print(f"{comp.a} != {comp.b}: c differs by {comp.discrepancy_c}, "
                  f"e differs by {comp.discrepancy_e}")
    if args.out:
        _write_json(args.out, report.to_json_dict(model), _header_lines(args, model))
    return 0


def _check_positive(args: argparse.Namespace, *options: str) -> None:
    """Reject a float option that is not positive and finite (NaN included),
    naming it as the user wrote it."""
    for option in options:
        value = getattr(args, option.lstrip("-").replace("-", "_"))
        if not 0.0 < value < math.inf:
            raise CliError(f"{option} must be positive and finite, got {value!r}")


def _check_steppable(option: str, value: float, span: float) -> None:
    """Reject a positive span from t = 0 that no integrator step covers."""
    if 0.0 < span < flow.H_FLOOR:
        raise CliError(f"{option} {value!r} is shorter than the smallest step the "
                       f"integrator takes, {flow.H_FLOOR!r}")


def cmd_flow(args: argparse.Namespace) -> int:
    model, pair = resolve_model(args.model)
    q0 = _parse_point(args.start)
    _check_positive(args, "--rtol", "--atol")
    if not math.isfinite(args.t):
        raise CliError(f"--t must be finite, got {args.t!r}")
    _check_steppable("--t", args.t, abs(args.t))
    fld = char_field(pair, args.variant)
    traj = integrate(fld, q0, args.t, rtol=args.rtol, atol=args.atol, monitors=DEFAULT_MONITORS)
    print(
        f"{model} ({args.variant}): {traj.times.size} samples to t={args.t}; "
        f"endpoint ({', '.join(FLOAT_FMT % v for v in traj.endpoint)})"
    )
    for name in ("rho", "zw"):
        channel = traj.monitors[name]
        print(f"monitor {name}: start {channel[0]:.17g}, "
              f"max |drift| {np.max(np.abs(channel - channel[0])):.3e}")
    if args.out:
        with _open_out(args.out, _header_lines(args, model)) as fh:
            traj.write_csv(fh)
    return 0


def cmd_surface(args: argparse.Namespace) -> int:
    model, pair = resolve_model(args.model)
    magnitudes = _parse_grid(args.grid)
    if np.any(magnitudes == 0.0):
        raise CliError("surface grid magnitudes must be nonzero")
    signs = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)] if args.signed else [(1.0, 1.0)]
    grid = [(sz * z, sw * w) for z in magnitudes for w in magnitudes for sz, sw in signs]
    _check_positive(args, "--rtol", "--atol", "--eps-cut", "--t-max")
    _check_steppable("--t-max", args.t_max, args.t_max)
    sample = singular_surface(
        pair, grid, eps_cut=args.eps_cut, t_max=args.t_max,
        rtol=args.rtol, atol=args.atol,
    )
    for i, cause in sample.failures.items():
        z, w = grid[i]
        print(f"note: surface sample (z, w) = ({FLOAT_FMT % z}, {FLOAT_FMT % w}) did not "
              f"integrate and is not converged: {cause}", file=sys.stderr)
    n_conv = sum(sample.converged)
    print(f"{model}: {n_conv}/{len(grid)} samples converged (eps_cut={args.eps_cut})")
    if args.out:
        with _open_out(args.out, _header_lines(args, model)) as fh:
            sample.write_csv(fh)
    return 0


def cmd_endpoint(args: argparse.Namespace) -> int:
    model, pair = resolve_model(args.model)
    if args.seed < 0 and (args.sard is not None or args.random is not None):
        raise CliError(f"--seed must be non-negative, got {args.seed}")
    _check_positive(args, "--rtol", "--atol")
    if args.sard is not None:
        if args.sard < 0:
            raise CliError(f"--sard must be non-negative, got {args.sard}")
        report = sard_sample(model, args.sard, seed=args.seed, rtol=args.rtol, atol=args.atol)
        print(
            f"{model}: sard sample n={args.sard} seed={args.seed}: "
            f"max_surface_distance={report.max_surface_distance}, "
            f"min_rho_deviation={report.min_rho_deviation}, "
            f"agreement={report.detector_agreement:.3f}, "
            f"ambiguous={report.ambiguous_count}"
        )
        if args.out:
            _write_json(args.out, report.to_json_dict(), _header_lines(args, model))
        if args.cloud:
            with _open_out(args.cloud, _header_lines(args, model)) as fh:
                report.write_endpoints_csv(fh)
        return 0

    q0 = _parse_point(args.q0)
    controls: list[ControlPath] = []
    if args.controls:
        data = json.loads(Path(args.controls).read_text(encoding="utf-8"))
        entries = data if isinstance(data, list) else [data]
        controls = [ControlPath.from_json_dict(entry, i) for i, entry in enumerate(entries)]
    elif args.random is not None:
        for flag, count in (("--random", args.random), ("--n-segments", args.n_segments)):
            if count < 1:
                raise CliError(f"{flag} must be at least 1, got {count}")
        rng = np.random.default_rng(args.seed)
        controls = [
            ControlPath(rng.uniform(-1.0, 1.0, size=(args.n_segments, 2)))
            for _ in range(args.random)
        ]
    else:
        raise CliError("endpoint needs --controls, --random or --sard")
    rows = []
    for i, ctrl in enumerate(controls):
        if ctrl.n_segments == 1:
            print(f"note: control {i} has one segment: its 4x2 Jacobian cannot reach rank 4, so "
                  "the Jacobian detector always reads SINGULAR and the two detectors cannot "
                  "agree on a regular curve", file=sys.stderr)
        verdict = bryant_hsu_test(pair, q0, ctrl, rtol=args.rtol, atol=args.atol)
        rows.append(
            {
                "index": i,
                "endpoint": [float(v) for v in verdict.endpoint],
                "bh_smallest": verdict.bh_smallest,
                "sigma_ratio": verdict.sigma_ratio,
                "classification": verdict.classification,
                "jacobian_classification": verdict.jacobian_classification,
            }
        )
        print(
            f"control {i}: {verdict.classification} "
            f"(bh={verdict.bh_smallest:.3e}, score={verdict.sigma_ratio:.3e})"
        )
    if args.out:
        _write_json(args.out, {"model": model, "results": rows}, _header_lines(args, model))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    numbers = None
    if args.criteria:
        try:
            numbers = [int(n) for n in args.criteria.split(",")]
        except ValueError as exc:
            raise CliError(f"bad criteria list {args.criteria!r}") from exc
        unknown = set(numbers) - set(acceptance.CRITERIA)
        if unknown:
            raise CliError(f"unknown criteria {sorted(unknown)}")
    results = acceptance.run_all(numbers)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="engelkit",
        description="Growth vectors, characteristic fields, flows and "
        "endpoint-map singularity analysis for Pfaffian pairs on R^4.",
    )
    parser.add_argument("--version", action="version", version=f"engelkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", required=True,
                       help="catalog id (engel_std, d224, d2334a, d2334b) or JSON file")
        p.add_argument("--out", help="output file")

    def tolerances(p: argparse.ArgumentParser) -> None:
        p.add_argument("--rtol", type=float, default=DEFAULT_RTOL)
        p.add_argument("--atol", type=float, default=DEFAULT_ATOL)

    p = sub.add_parser("analyze", help="growth vector, certificate and locus membership")
    common(p)
    p.add_argument("--point", action="append",
                   help="x,y,z,w as integers, p/q or decimals (all ranked exactly; 0.1 "
                   "reads as 1/10)")
    p.add_argument("--grid", help="min:max:count over z and w at x=y=0")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("char", help="characteristic coefficients, three variants")
    common(p)
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("flow", help="integrate the characteristic field with monitors")
    common(p)
    tolerances(p)
    p.add_argument("--start", required=True, help="x,y,z,w")
    p.add_argument("--t", type=float, required=True, help="integration time (negative = reversed)")
    p.add_argument("--variant", choices=VARIANTS, default=ORACLE)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("surface", help="reconstruct the singular-endpoint surface")
    common(p)
    tolerances(p)
    p.add_argument("--grid", required=True, help="min:max:count magnitudes for z and w")
    p.add_argument("--signed", action="store_true", help="include all four sign quadrants")
    p.add_argument("--eps-cut", type=float, default=DEFAULT_EPS_CUT)
    p.add_argument("--t-max", type=float, default=DEFAULT_T_MAX)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("endpoint", help="singularity analysis of control paths")
    common(p)
    tolerances(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--q0", default="0,0,0,0", help="base point x,y,z,w")
    p.add_argument("--controls", help="JSON control file: {n_segments, u} or a list of them")
    p.add_argument("--random", type=int, help="analyze N random controls")
    p.add_argument("--n-segments", type=int, default=32)
    p.add_argument("--sard", type=int, metavar="N",
                   help="sample N singular curves and test their endpoints")
    p.add_argument("--cloud", help="CSV output for the endpoint cloud (with --sard)")
    p.set_defaults(func=cmd_endpoint)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--criteria", help="comma-separated criterion numbers (default: all)")
    p.set_defaults(func=cmd_verify)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call and reused, so
    calling ``main`` in a loop does not rebuild it (about 1 ms) each time."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, KeyError, ValueError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: float overflow: a value computed from the input is past the float "
              f"range ({exc.args[-1] if exc.args else exc})", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"error: integration failed: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
