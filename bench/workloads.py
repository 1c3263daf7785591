"""The three benchmark workloads.

A workload builds its fixed inputs once (set-up), then hands out rounds of
operations.  Every round has the same make-up, so the share of each kind
of operation, and of operations that fail, is the same in every run.  An operation is
one or more ``engelkit`` command lines run through ``engelkit.cli.main``;
its check reads the files the commands wrote and compares them with the
references after the timed part of the run.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import references as ref

MODELS = ("engel_std", "d224", "d2334a", "d2334b")
DEGENERATE = ("d224", "d2334a", "d2334b")


@dataclass
class Op:
    argvs: list[list[str]]
    check: Callable[[], list[str]]


def _seeded(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def _csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data), encoding="utf-8")


class Detect:
    """``engelkit endpoint --controls`` on one control per op.

    Per round: two random 32-segment controls at the origin for each
    catalog model, one 64-segment characteristic arc of each degenerate
    model (from a pool built in set-up with ``char_control``), the abnormal
    engel_std control (0, 1), and one fixed 5-segment control.
    """

    ARCS_PER_MODEL = 8
    RANDOM_PER_MODEL = 2
    # Fixed, seed-independent; every 5-segment control currently fails
    # with StepSizeUnderflowError at t = 0.6 (see README).
    FIVE_SEGMENT = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.5, 0.5]]

    def __init__(self, ek: dict, seed: int, work: Path):
        self.seed, self.work = seed, work
        endpoint, catalog = ek["endpoint"], ek["distribution"].CATALOG
        rng = _seeded(seed, 0)
        self.arcs: dict[str, list[tuple[list[float], Path, np.ndarray]]] = {}
        for model in DEGENERATE:
            pool = []
            for i in range(self.ARCS_PER_MODEL):
                theta = rng.uniform(0.0, 2.0 * math.pi)
                radius = rng.uniform(0.05, 0.2)
                p0 = [0.0, 0.0, radius * math.cos(theta), radius * math.sin(theta)]
                arc = endpoint.char_control(
                    catalog[model], p0, endpoint.CHAR_ARC_DURATION[model], 64
                )
                path = work / f"arc-{model}-{i}.json"
                _write_json(path, arc.to_json_dict())
                pool.append((p0, path, arc.u.copy()))
            self.arcs[model] = pool
        self.abnormal = np.tile([0.0, 1.0], (32, 1))
        self.abnormal_path = work / "abnormal.json"
        _write_json(self.abnormal_path, {"n_segments": 32, "u": self.abnormal.tolist()})
        self.five = np.array(self.FIVE_SEGMENT)
        self.five_path = work / "five-segment.json"
        _write_json(self.five_path, {"n_segments": 5, "u": self.FIVE_SEGMENT})

    def _op(self, tag: str, model: str, ctrl_path: Path, u: np.ndarray, q0=None) -> Op:
        out = self.work / f"{tag}.out.json"
        argv = ["endpoint", "--model", model, "--controls", str(ctrl_path), "--out", str(out)]
        if q0 is not None:
            argv.append("--q0=" + ",".join(repr(float(c)) for c in q0))
        origin = (0.0, 0.0, 0.0, 0.0)

        def check() -> list[str]:
            report = json.loads(out.read_text(encoding="utf-8"))
            (row,) = report["results"]
            return ref.check_detect(model, origin if q0 is None else q0, u, row)

        return Op([argv], check)

    def round(self, r: int) -> list[Op]:
        rng = _seeded(self.seed, 1, r)
        ops = []
        for model in MODELS:
            for i in range(self.RANDOM_PER_MODEL):
                u = rng.uniform(-1.0, 1.0, (32, 2))
                path = self.work / f"r{r}-{model}-{i}.json"
                _write_json(path, {"n_segments": 32, "u": u.tolist()})
                ops.append(self._op(f"r{r}-{model}-{i}", model, path, u))
        for model in DEGENERATE:
            p0, path, u = self.arcs[model][r % self.ARCS_PER_MODEL]
            ops.append(self._op(f"r{r}-arc-{model}", model, path, u, q0=p0))
        ops.append(self._op(f"r{r}-abnormal", "engel_std", self.abnormal_path, self.abnormal))
        five_model = MODELS[r % len(MODELS)]
        ops.append(self._op(f"r{r}-five", five_model, self.five_path, self.five))
        return ops


class Surface:
    """``engelkit surface --model d224`` on a 4-sample grid per op.

    Per round: eight ops whose lower magnitudes step through the decades
    1e-3 to 1e-1 (one jittered position in each eighth), the upper
    magnitude 1.5 to 2.5 times the lower.  Ops alternate between a 2 x 2
    magnitude grid without --signed and one magnitude with --signed, both
    4 samples, so their costs overlap.
    """

    OPS_PER_ROUND = 8
    EPS_CUT = 1e-10

    def __init__(self, ek: dict, seed: int, work: Path):
        self.seed, self.work = seed, work

    def round(self, r: int) -> list[Op]:
        rng = _seeded(self.seed, 2, r)
        ops = []
        for i in range(self.OPS_PER_ROUND):
            lo = 10.0 ** (-3.0 + 2.0 * (i + rng.uniform()) / self.OPS_PER_ROUND)
            hi = lo * rng.uniform(1.5, 2.5)
            signed = i % 2 == 1
            count = 1 if signed else 2
            out = self.work / f"r{r}-{i}.csv"
            argv = [
                "surface", "--model", "d224", f"--grid={lo!r}:{hi!r}:{count}",
                f"--eps-cut={self.EPS_CUT!r}", "--out", str(out),
            ]
            if signed:
                argv.append("--signed")
            grid = ref.surface_grid(lo, hi, count, signed)

            def check(out=out, grid=grid) -> list[str]:
                rows = [
                    (float(row["z"]), float(row["w"]), float(row["x"]), float(row["y"]),
                     row["converged"] == "1")
                    for row in _csv_rows(out)
                ]
                return ref.check_surface(grid, rows, self.EPS_CUT)

            ops.append(Op([argv], check))
        return ops


class Algebra:
    """``engelkit char`` then ``engelkit analyze`` on one pair per op.

    Per round: twelve random user pairs (``poly.random_poly``, degree <= 3,
    up to 6 terms, coefficients p/q with |p| <= 4, q <= 3) written as model
    files, each analyzed at three random rational points (numerators
    -6..6, denominators 1..4); then the four catalog models by id, at the
    origin and two random rational points.

    The cost of a pair grows steeply with its number of terms, so each
    round draws pairs until it holds one pair of each total term count in
    TERM_MIX (close to the counts random_poly gives unconditioned).  Every
    round then has the same cost make-up and runs with different seeds
    differ less.
    """

    TERM_MIX = (1, 2, 3, 4, 4, 5, 5, 6, 6, 7, 8, 10)

    def __init__(self, ek: dict, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.random_poly = ek["poly"].random_poly
        self.pair_cls = ek["distribution"].PfaffianPair

    @staticmethod
    def _point(rng) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(4)
        )

    def _op(self, tag: str, model: str, f: dict, g: dict, points, catalog_id=None) -> Op:
        char_out = self.work / f"{tag}.char.json"
        analyze_out = self.work / f"{tag}.analyze.csv"
        point_args = ["--point=" + ",".join(str(c) for c in p) for p in points]
        argvs = [
            ["char", "--model", model, "--out", str(char_out)],
            ["analyze", "--model", model, *point_args, "--out", str(analyze_out)],
        ]

        def check() -> list[str]:
            report = json.loads(char_out.read_text(encoding="utf-8"))
            problems = ref.check_char(f, g, report)
            if catalog_id is not None and not report["variant_pairs"][0]["identical"]:
                problems.append(f"{catalog_id}: printed != oracle on a catalog model")
            rows = _csv_rows(analyze_out)
            if len(rows) != len(points):
                return problems + [f"{len(rows)} analyze rows for {len(points)} points"]
            for p, row in zip(points, rows):
                coords = tuple(float(row[k]) for k in "xyzw")
                if coords != tuple(float(c) for c in p):
                    problems.append(f"row for {coords} where {p} was asked")
                problems += ref.check_growth_row(f, g, p, row, catalog_id)
            return problems

        return Op(argvs, check)

    def round(self, r: int) -> list[Op]:
        rng = _seeded(self.seed, 3, r)
        ops = []
        for i, n_terms in enumerate(self.TERM_MIX):
            while True:
                pair = self.pair_cls(self.random_poly(rng), self.random_poly(rng))
                data = pair.to_json_dict()
                if len(data["f"]) + len(data["g"]) == n_terms:
                    break
            path = self.work / f"r{r}-{i}.model.json"
            _write_json(path, data)
            f, g = ref.poly_from_json(data["f"]), ref.poly_from_json(data["g"])
            points = [self._point(rng) for _ in range(3)]
            ops.append(self._op(f"r{r}-{i}", str(path), f, g, points))
        for model in MODELS:
            f, g = ref.CATALOG_EXACT[model]
            points = [(0, 0, 0, 0), self._point(rng), self._point(rng)]
            ops.append(self._op(f"r{r}-{model}", model, f, g, points, catalog_id=model))
        return ops


WORKLOADS = {"detect": Detect, "surface": Surface, "algebra": Algebra}
