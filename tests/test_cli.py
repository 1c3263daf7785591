import argparse
import json
import os
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import engelkit
from engelkit import cli
from engelkit.cli import main
from engelkit import charfield, distribution
from engelkit.distribution import CATALOG, PfaffianPair, resolve_model
from engelkit.endpoint import ControlPath, horizontal_integrate
from engelkit.poly import Point4, SparsePoly, random_poly
from reference_growth import eager_growth_vector
from reference_poly import (
    reference_add,
    reference_diff,
    reference_eval_exact,
    reference_mul,
    reference_neg,
    reference_rsub,
    reference_sub,
)


def test_analyze_single_point(capsys):
    assert main(["analyze", "--model", "d224", "--point", "0,0,0,0"]) == 0
    out = capsys.readouterr().out
    assert "growth (2,2,4)" in out


def test_analyze_disagreement_flag(capsys):
    assert main(["analyze", "--model", "d224", "--point", "0,0,1,0"]) == 0
    out = capsys.readouterr().out
    assert "growth (2,3,4)" in out
    assert "disagree" in out


def test_analyze_engel_std(capsys):
    assert main(["analyze", "--model", "engel_std", "--point", "0,0,0,0"]) == 0
    assert "growth (2,3,4)" in capsys.readouterr().out


def test_analyze_requires_input(capsys):
    assert main(["analyze", "--model", "d224"]) == 2


def test_unknown_model_is_usage_error(capsys):
    assert main(["analyze", "--model", "nope", "--point", "0,0,0,0"]) == 2


def test_bad_point_is_usage_error(capsys):
    assert main(["analyze", "--model", "d224", "--point", "1,2,3"]) == 2


@pytest.mark.parametrize(
    "argv,cause",
    [
        # an exact coordinate past the float range cannot be a CSV float
        (["analyze", "--model", "d2334b", "--point", f"0,0,{10**400}/3,0", "--out", os.devnull],
         "error: float overflow: a value computed from the input is past the float range"),
        (["flow", "--model", "d224", "--start", "0,0,1e200,0", "--t", "1"],
         "error: integration failed: step size underflow while rejecting non-finite trial "
         "states"),
    ],
    ids=["analyze-overflow", "flow-non-finite"],
)
def test_float_range_failures_are_reported_errors(argv, cause, capsys):
    # A power past the float range and a flow that leaves it are errors on
    # the input, reported with their cause, not internal failures.
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(cause) and "internal error" not in err


def test_analyze_out_past_the_float_range_leaves_no_partial_output(tmp_path, capsys):
    # The CSV row of the second point cannot be written: the command fails
    # before it prints the first point's row or creates the file.
    out = tmp_path / "analyze.csv"
    argv = ["analyze", "--model", "d224", "--point", "0,0,1,1", "--point", f"0,0,{10**400}/3,0",
            "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: float overflow")
    assert not out.exists()


@pytest.mark.parametrize("z, w", [(3e4, 3e4), (1e5, 1e5), (1e50, 1e50), (1e300, 0.0)])
def test_analyze_far_float_points_read_the_exact_growth(z, w, capsys):
    # An SVD rank with a relative tolerance read d224 at (0,0,3e4,3e4) and
    # engel_std at (0,0,1e10,1e10) as (2,3,3,3,3,3), and f = z^2
    # overflowed at (0,0,1e300,0).
    exact = ",".join(str(int(Fraction(c))) for c in (0.0, 0.0, z, w))
    for model in ("d224", "engel_std"):
        lines = []
        for point in (f"0,0,{z!r},{w!r}", exact):
            assert main(["analyze", "--model", model, "--point", point]) == 0
            lines.append(capsys.readouterr().out.split("): ", 1)[1])
        assert lines[0] == lines[1]
        assert lines[0].startswith("growth (2,3,4), ")
        # d224's certificate 2w vanishes on w = 0; engel_std's is -1
        assert ("disagree" in lines[0]) == (model == "d224" and w == 0.0)


P5 = {"f": [[-7, [0, 0, 0, 1]], [-3, [0, 1, 2, 0]], [-1, [2, 0, 0, 1]], ["3/2", [2, 1, 0, 0]]],
      "g": [[4, [0, 0, 0, 3]], [-3, [0, 0, 1, 1]], [-1, [0, 0, 1, 2]], ["-1/2", [0, 1, 0, 1]],
            ["3/2", [2, 0, 0, 1]]]}
P6 = {"f": [], "g": [["4/3", [0, 1, 2, 0]], [2, [2, 0, 0, 1]]]}


@pytest.mark.parametrize(
    "model,point,exact,growth",
    [
        # ranked at the binary value of 0.1 and 0.2, it would read (2,3,4)
        (P5, "0,0,0.1,0.2", "0,0,1/10,1/5", "(2,3,3,4)"),
        # its float brackets overflowed: exit 2 with "float overflow".  As
        # f = 0, every (a, b) column is (0, b) and the rank stays 3.
        (P6, "1e50,-1e50,1e50,1e50", f"{10**50},{-10**50},{10**50},{10**50}",
         "(2,3,3,3,3,3,... (not bracket generating))"),
    ],
    ids=["p5-decimal", "p6-far"],
)
def test_analyze_reads_a_float_point_at_its_decimal_value(model, point, exact, growth, tmp_path,
                                                          capsys):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(model))
    lines = []
    for p in (point, exact):
        assert main(["analyze", "--model", str(path), "--point", p]) == 0
        lines.append(capsys.readouterr().out.split("): ", 1)[1])
    assert lines[0] == lines[1]
    assert lines[0].startswith(f"growth {growth}, ")


def test_analyze_grid_csv(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main(
        ["analyze", "--model", "d224", "--grid=-0.5:0.5:3", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# engelkit ")
    assert lines[4] == "x,y,z,w,growth,certificate,engel_by_growth,tests_disagree"
    assert len(lines) == 5 + 9


def test_char_json_report(tmp_path, capsys):
    out = tmp_path / "char.json"
    assert main(["char", "--model", "d2334a", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "printed == oracle (exact)" in text
    assert "corrected == oracle (exact)" in text
    payload = json.loads(out.read_text())
    assert payload["model"] == "d2334a"
    assert all(entry["identical"] for entry in payload["variant_pairs"])


def test_flow_csv_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["flow", "--model", "d2334b", "--start", "0,0,1,0", "--t", "2.0"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    a = out1.read_text()
    assert a == out2.read_text()
    assert a.startswith("# engelkit ")
    assert "rho" in capsys.readouterr().out


def test_surface_csv(tmp_path, capsys):
    out = tmp_path / "surf.csv"
    code = main(
        ["surface", "--model", "d224", "--grid", "0.05:0.1:2", "--signed", "--out", str(out)]
    )
    assert code == 0
    assert "16/16 samples converged" in capsys.readouterr().out
    header = out.read_text().splitlines()
    assert header[4] == "z,w,x,y,converged"


def test_surface_samples_inside_the_cut_converge(tmp_path, capsys):
    # rho0 <= 8e-12 < eps_cut at every sample: each flow goes on until the
    # tail bound has four states, and converges
    out = tmp_path / "surf.csv"
    assert main(["surface", "--model", "d224", "--grid=1e-6:2e-6:2", "--out", str(out)]) == 0
    assert "4/4 samples converged" in capsys.readouterr().out
    assert all(row.endswith(",1") for row in out.read_text().splitlines()[5:])


def test_surface_rejects_zero_grid(capsys):
    assert main(["surface", "--model", "d224", "--grid", "0:0.1:2"]) == 2


def test_surface_sample_whose_flow_fails_is_reported_and_the_grid_completes(tmp_path, capsys):
    # The flow from (0, 0, 0.1, 0.01) underflows its step at t = 6.7; the
    # other three samples integrate.
    model = tmp_path / "user.json"
    model.write_text(json.dumps({
        "f": [[1, [0, 0, 2, 1]], ["1/3", [1, 0, 0, 1]], [-2, [0, 1, 1, 0]]],
        "g": [[1, [0, 0, 1, 2]], ["3/2", [0, 0, 3, 0]], [1, [1, 1, 0, 0]]],
    }))
    out = tmp_path / "surf.csv"
    assert main(["surface", "--model", str(model), "--grid=0.01:0.1:2", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "0/4 samples converged" in captured.out
    (note,) = captured.err.splitlines()
    assert note.startswith("note: surface sample (z, w) = (0.10000000000000001, 0.01) ")
    assert "step size underflow (last reachable time 6.70742" in note
    rows = out.read_text().splitlines()[5:]
    assert len(rows) == 4
    assert rows[2] == "0.10000000000000001,0.01,nan,nan,0"
    assert all("nan" not in row for i, row in enumerate(rows) if i != 2)


def test_the_reused_parser_carries_nothing_between_calls(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    assert main(["analyze", "--model", "d224", "--point", "0,0,0,0", "--point", "0,0,1,0"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert main(["analyze", "--model", "d224", "--point", "0,0,1,0"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("point (0,0,1,0): growth (2,3,4)")
    # an option given once falls back to its default on the next call
    headers = []
    for extra in (["--grid=0:1:2"], []):
        out = tmp_path / "grid.csv"
        argv = ["analyze", "--model", "d224", "--point", "0,0,0,0", "--out", str(out), *extra]
        assert main(argv) == 0
        headers.append(out.read_text().splitlines()[2])
    assert "grid=0:1:2" in headers[0] and "grid=" not in headers[1]
    assert headers[1].endswith("point=['0,0,0,0']")
    # another subcommand gets none of the previous call's values
    out = tmp_path / "char.json"
    assert main(["char", "--model", "d2334a", "--out", str(out)]) == 0
    header = json.loads(out.read_text())["_meta"]["header"]
    assert header[2] == "params: command=char model=d2334a"


def test_the_parser_works_after_a_usage_error_and_after_version(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", "--model", "d224", "--no-such-flag"])
    assert exit_info.value.code == 2
    assert main(["analyze", "--model", "d224", "--point", "0,0,0,0"]) == 0
    assert "growth (2,2,4)" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == f"engelkit {engelkit.__version__}\n"
    assert main(["analyze", "--model", "d224", "--point", "0,0,1,0"]) == 0
    assert "growth (2,3,4)" in capsys.readouterr().out


def test_importing_the_cli_builds_no_parser_and_no_kernel():
    # The parser, the generated kernels and the exact bracket algebra are
    # built on first use, so that importing engelkit stays cheap.
    probe = (
        "import engelkit.cli\n"
        "from engelkit import charfield, cli, codegen, distribution, endpoint, flow\n"
        "caches = (cli._parser, codegen.kernel, flow._rk45_loop, flow._cut_test,\n"
        "          endpoint._control_system, endpoint._default_samples,\n"
        "          distribution.bracket_levels, distribution.engel_certificate,\n"
        "          charfield.coefficients)\n"
        "print([c.cache_info().currsize for c in caches])\n"
    )
    src = str(Path(engelkit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[0, 0, 0, 0, 0, 0, 0, 0, 0]\n"


def test_endpoint_random_controls(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "endpoint", "--model", "engel_std", "--random", "2",
            "--n-segments", "6", "--seed", "5", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["results"]) == 2
    for row in payload["results"]:
        assert row["classification"] in ("SINGULAR", "REGULAR", "AMBIGUOUS")


def test_endpoint_controls_file(tmp_path, capsys):
    ctrl_file = tmp_path / "ctrl.json"
    ctrl_file.write_text(json.dumps({"n_segments": 4, "u": [[0.0, 1.0]] * 4}))
    code = main(["endpoint", "--model", "engel_std", "--controls", str(ctrl_file)])
    assert code == 0
    assert "SINGULAR" in capsys.readouterr().out


def test_endpoint_controls_output_is_deterministic(tmp_path, capsys):
    rng = np.random.default_rng(8)
    ctrls = [ControlPath(rng.uniform(-1, 1, size=(n, 2))) for n in (3, 5, 16)]
    ctrl_file = tmp_path / "ctrl.json"
    ctrl_file.write_text(json.dumps([c.to_json_dict() for c in ctrls]))
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    q0 = (0.1, 0.0, -0.2, 0.3)
    for out in outs:
        argv = ["endpoint", "--model", "d2334a", "--controls", str(ctrl_file),
                "--q0=0.1,0,-0.2,0.3", "--out", str(out)]
        assert main(argv) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    rows = json.loads(outs[0].read_text())["results"]
    for ctrl, row in zip(ctrls, rows):
        endp = horizontal_integrate(CATALOG["d2334a"], q0, ctrl).endpoint
        assert np.max(np.abs(np.array(row["endpoint"]) - endp)) <= 1e-12


def test_endpoint_needs_a_mode(capsys):
    assert main(["endpoint", "--model", "engel_std"]) == 2


def test_endpoint_sard(tmp_path, capsys):
    out = tmp_path / "sard.json"
    cloud = tmp_path / "cloud.csv"
    code = main(
        [
            "endpoint", "--model", "d2334b", "--sard", "3",
            "--seed", "1", "--out", str(out), "--cloud", str(cloud),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["origin_reaching_count"] == 0
    assert cloud.read_text().splitlines()[4] == "x,y,z,w,score"


def test_user_model_file(tmp_path, capsys):
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(CATALOG["d224"].to_json_dict()))
    assert main(["analyze", "--model", str(model_file), "--point", "0,0,0,0"]) == 0
    assert "growth (2,2,4)" in capsys.readouterr().out


def test_readme_lists_the_flags_of_every_subcommand():
    # the "Flags per subcommand" bullets, each joined with its continuation
    # lines, against the long options of each subparser (without --help)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("Flags per subcommand", 1)[1].split("\n\n", 2)[1]
    listed = {}
    for bullet in section.replace("\n  ", " ").splitlines():
        command, flags = re.fullmatch(r"\* `(\w+)`: (.*)", bullet).groups()
        listed[command] = re.findall(r"`(--[\w-]+)`", flags)
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    expected = {
        command: [opt for action in parser._actions
                  if not isinstance(action, argparse._HelpAction)
                  for opt in action.option_strings if opt.startswith("--")]
        for command, parser in subparsers.choices.items()
    }
    assert listed == expected


def test_analyze_growth_equals_the_eager_reference(tmp_path, capsys):
    # the reference brackets by its own general 4x4 lie_bracket and ranks
    # 4-vectors by elimination, sharing no code with analyze's brackets
    # (bracket_levels) or its rank on the (a, b) plane
    rng = np.random.default_rng(16)
    models = list(CATALOG)
    for i in range(8):
        path = tmp_path / f"pair{i}.json"
        path.write_text(json.dumps(PfaffianPair(random_poly(rng), random_poly(rng)).to_json_dict()))
        models.append(str(path))
    out = tmp_path / "growth.csv"
    for model in models:
        pair = resolve_model(model)[1]
        points = [Point4.origin()] + [
            Point4(*(Fraction(int(n), int(d))
                     for n, d in zip(rng.integers(-6, 7, size=4), rng.integers(1, 5, size=4))))
            for _ in range(3)
        ]
        point_args = ["--point=" + ",".join(str(c) for c in q.as_tuple()) for q in points]
        assert main(["analyze", "--model", model, *point_args, "--out", str(out)]) == 0
        expected = [eager_growth_vector(pair, q) for q in points]
        printed = [line.split(": growth ")[1].split(", certificate")[0]
                   for line in capsys.readouterr().out.splitlines()]
        assert printed == [str(gv) for gv in expected], model
        rows = [line.split(",") for line in out.read_text().splitlines()[5:]]
        assert [row[4] for row in rows] == ["-".join(map(str, gv.dims)) for gv in expected], model


def _analyze_and_char_outputs(tmp_path, capsys, models, points) -> list:
    outputs = []
    for i, model in enumerate(models):
        csv, report = tmp_path / f"m{i}.csv", tmp_path / f"m{i}.json"
        argv = ["analyze", "--model", model, *(f"--point={p}" for p in points), "--out", str(csv)]
        assert main(argv) == 0
        assert main(["char", "--model", model, "--out", str(report)]) == 0
        outputs.append((capsys.readouterr(), csv.read_bytes(), report.read_bytes()))
    return outputs


def test_analyze_and_char_outputs_equal_those_of_the_reference_evaluators(tmp_path, capsys,
                                                                          monkeypatch):
    # Run once as shipped and once with every exact value taken by the
    # Fraction term loop, every sum, product and derivative by the Fraction
    # term-map loops and every growth vector by the eager reference: stdout,
    # the analyze CSV and the char JSON must not change by a byte.
    rng = np.random.default_rng(19)
    models = list(CATALOG)
    for i in range(6):
        path = tmp_path / f"pair{i}.json"
        pair = PfaffianPair(random_poly(rng, max_degree=4), random_poly(rng))
        path.write_text(json.dumps(pair.to_json_dict()))
        models.append(str(path))
    points = ["0,0,0,0", "1/2,-3/4,5/3,-7/2", "0,0,1e50,1e50", "0,0,5e-324,5e-324",
              "5e-324,1e50,-0.0,0.1", "0.1,0.2,0.3,0.4", "123456789/1000,1,-1,1/7",
              ",".join(repr(float(c)) for c in rng.uniform(-3.0, 3.0, size=4))]
    caches = (distribution.bracket_levels, distribution.engel_certificate, charfield.coefficients)
    for cache in caches:
        cache.cache_clear()
    shipped = _analyze_and_char_outputs(tmp_path, capsys, models, points)
    for cache in caches:
        cache.cache_clear()
    called = set()

    def counted(name, fn):
        def reference(*args):
            called.add(name)
            return fn(*args)
        return reference

    references = {"__add__": reference_add, "__radd__": reference_add,
                  "__sub__": reference_sub, "__rsub__": reference_rsub,
                  "__neg__": reference_neg, "__mul__": reference_mul,
                  "__rmul__": reference_mul, "diff": reference_diff,
                  "eval_exact": reference_eval_exact}
    for name, fn in references.items():
        monkeypatch.setattr(SparsePoly, name, counted(name, fn))
    monkeypatch.setattr(distribution, "growth_vector", eager_growth_vector)
    assert _analyze_and_char_outputs(tmp_path, capsys, models, points) == shipped
    assert {"__add__", "__sub__", "__neg__", "__mul__", "diff", "eval_exact"} <= called
    for cache in caches:
        cache.cache_clear()
    assert "1e+50" in shipped[0][0].out and "5e-324" in shipped[0][0].out


# f = z^2/2, g = x z w: the certificate is x w.
XZW = {"f": [["1/2", [0, 0, 2, 0]]], "g": [[1, [1, 0, 1, 1]]]}
# f = z^2, g = z^3 w^3: the certificate is -6 z^2 w^3.
Z3W3 = {"f": [[1, [0, 0, 2, 0]]], "g": [[1, [0, 0, 3, 3]]]}


@pytest.mark.parametrize(
    "model,point,certificate",
    [
        # the exact 1e-400 is nonzero, so growth and certificate agree,
        # though the printed float is 0
        (XZW, "1e-200,0,1,1e-200", "0"),
        (XZW, "1e300,0,1,1e300", "inf"),
        (Z3W3, "0,0,1e100,1e100", "-inf"),
    ],
    ids=["rounds-to-zero", "past-the-range", "past-the-range-negative"],
)
def test_certificate_past_the_float_range_prints_as_inf(model, point, certificate, tmp_path,
                                                        capsys):
    # The certificate is exact, so its zero test never reads a rounded
    # value; it prints as its float, +-inf past the float range.
    path, out = tmp_path / "pair.json", tmp_path / "rows.csv"
    path.write_text(json.dumps(model))
    assert main(["analyze", "--model", str(path), f"--point={point}", "--out", str(out)]) == 0
    coords = [float(c) for c in point.split(",")]
    assert capsys.readouterr().out == (
        f"point ({','.join(map(str, coords))}): growth (2,3,4), certificate {certificate}, "
        "engel_by_growth=True, on_degenerate_locus=False\n"
    )
    csv_coords = ",".join("%.17g" % c for c in coords)
    assert out.read_text().splitlines()[-1] == f"{csv_coords},2-3-4,{certificate},1,0"


def test_model_file_round_trips_through_the_json_codec(tmp_path, capsys):
    for name, pair in CATALOG.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(pair.to_json_dict()))
        assert resolve_model(str(path)) == (f"user:{name}.json", pair)
        assert main(["char", "--model", name]) == 0
        catalog_out = capsys.readouterr().out
        assert main(["char", "--model", str(path)]) == 0
        assert capsys.readouterr().out == catalog_out
    assert '"1/3"' in (tmp_path / "d2334b.json").read_text()


@pytest.mark.parametrize(
    "model,message",
    [
        ({"f": [[1, [0, 0, 1.5, 0]]], "g": []},
         "f: bad term [1, [0, 0, 1.5, 0]]: exponent 1.5 is not a non-negative integer"),
        ({"f": [[True, [0, 0, 1, 0]]], "g": []},
         "f: bad term [True, [0, 0, 1, 0]]: coefficient True is not a number or a \"p/q\" string"),
        ({"f": [], "g": [[1, [0, 0, 1, True]]]},
         "g: bad term [1, [0, 0, 1, True]]: exponent True is not a non-negative integer"),
        ({"f": 3, "g": []},
         "f: expected a list of [coefficient, [ex, ey, ez, ew]] terms, got 3"),
        ({"f": [["1/0", [0, 0, 1, 0]]], "g": []},
         "f: bad term ['1/0', [0, 0, 1, 0]]: coefficient '1/0' is not a finite rational"),
    ],
    ids=["fractional-exponent", "bool-coefficient", "bool-exponent", "terms-not-a-list",
         "zero-denominator"],
)
def test_malformed_model_files_are_usage_errors_that_name_the_term(model, message, tmp_path,
                                                                    capsys):
    # each was read as another pair (int(1.5) is 1, True is 1) or crashed
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(model))
    assert main(["char", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def test_model_files_with_integral_floats_and_rational_strings_load(tmp_path, capsys):
    path = tmp_path / "engel.json"
    path.write_text(json.dumps({"f": [[1.0, [0, 0, 1.0, 0]]], "g": [["1/2", [0, 0, 2, 0.0]]]}))
    assert resolve_model(str(path)) == ("user:engel.json", CATALOG["engel_std"])


def test_unknown_model_message_is_printed_without_quotes(capsys):
    assert main(["char", "--model", "x.json"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown model 'x.json' (not in catalog, not a file)\n"
    )


def test_a_point_mixing_a_fraction_and_decimals_reads_as_floats(capsys):
    assert main(["analyze", "--model", "d224", "--point", "1/2,0.5,0,0"]) == 0
    mixed = capsys.readouterr().out
    assert main(["analyze", "--model", "d224", "--point", "0.5,0.5,0,0"]) == 0
    assert mixed == capsys.readouterr().out
    assert mixed.startswith("point (0.5,0.5,0.0,0.0): growth (2,2,4)")


FILE_OUTPUT_ARGVS = [
    ["analyze", "--model", "d224", "--grid=-0.5:0.5:3", "--point", "1/2,0,1/3,-1",
     "--out", "out.csv"],
    ["char", "--model", "d2334b", "--out", "out.json"],
    ["surface", "--model", "d224", "--grid", "0.05:0.1:2", "--signed", "--out", "out.csv"],
    ["endpoint", "--model", "d224", "--sard", "3", "--seed", "2", "--out", "out.json",
     "--cloud", "cloud.csv"],
]


@pytest.mark.parametrize("argv", FILE_OUTPUT_ARGVS, ids=lambda argv: argv[0])
def test_outputs_are_byte_identical_with_a_four_line_header(tmp_path, capsys, argv):
    # the header records the output paths, so both runs write to the same ones
    argv = [str(tmp_path / arg) if arg.endswith((".csv", ".json")) else arg for arg in argv]
    paths = [arg for arg in argv if arg.startswith(str(tmp_path))]
    runs = []
    for _ in range(2):
        assert main(argv) == 0
        runs.append([(tmp_path / path).read_bytes() for path in paths])
    assert runs[0] == runs[1]
    for path, data in zip(paths, runs[1]):
        text = data.decode()
        if path.endswith(".json"):
            header = json.loads(text)["_meta"]["header"]
        else:
            header = [line for line in text.splitlines() if line.startswith("# ")]
            assert text.splitlines()[:4] == header
        assert len(header) == 4


@pytest.mark.parametrize("argv", FILE_OUTPUT_ARGVS, ids=lambda argv: argv[0])
def test_outputs_do_not_depend_on_the_output_paths(tmp_path, capsys, argv):
    runs = []
    for run in ("a", "b"):
        moved = [str(tmp_path / f"{run}-{arg}") if arg.endswith((".csv", ".json")) else arg
                 for arg in argv]
        assert main(moved) == 0
        runs.append([Path(arg).read_bytes() for arg in moved if arg.startswith(str(tmp_path))])
    assert runs[0] == runs[1]


def test_one_segment_controls_get_a_note_on_stderr(tmp_path, capsys):
    outs = []
    for n in ("1", "2"):
        outs.append(tmp_path / f"report{n}.json")
        argv = ["endpoint", "--model", "d2334a", "--random", "3", "--n-segments", n,
                "--seed", "4", "--out", str(outs[-1])]
        assert main(argv) == 0
        captured = capsys.readouterr()
        notes = captured.err.splitlines()
        assert "note" not in captured.out
        if n == "1":
            assert len(notes) == 3
            assert all(line.startswith(f"note: control {i} has one segment")
                       and "cannot agree" in line for i, line in enumerate(notes))
        else:
            assert notes == []
    assert "note" not in outs[0].read_text()
    rows = json.loads(outs[0].read_text())["results"]
    assert {row["jacobian_classification"] for row in rows} == {"SINGULAR"}


@pytest.mark.parametrize(
    "argv",
    [
        *(["analyze", "--model", "d224", "--point", "0,0,0,0", flag, "1"]
          for flag in ("--seed", "--rtol", "--atol")),
        *(["char", "--model", "d224", flag, "1"] for flag in ("--seed", "--rtol", "--atol")),
        ["flow", "--model", "d224", "--start", "0,0,1,0", "--t", "1", "--seed", "1"],
        ["surface", "--model", "d224", "--grid", "0.05:0.1:2", "--seed", "1"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_flags_that_reach_no_computation_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2


def test_verify_subset(capsys):
    assert main(["verify", "--criteria", "3"]) == 0
    out = capsys.readouterr().out
    assert "criterion  3 [PASS]" in out
    assert "1/1 criteria passed" in out


def test_verify_rejects_unknown_criteria(capsys):
    assert main(["verify", "--criteria", "99"]) == 2


@pytest.mark.parametrize(
    "argv,option",
    [
        (["flow", "--model", "d224", "--start", "0,0,0.1,0.1", "--t", "1e-300"], "--t 1e-300"),
        (["flow", "--model", "d224", "--start", "0,0,0.1,0.1", "--t=-1e-300"], "--t -1e-300"),
        (["surface", "--model", "d224", "--grid=0.01:0.1:2", "--t-max=1e-300"],
         "--t-max 1e-300"),
    ],
    ids=["flow", "flow-backward", "surface"],
)
def test_a_time_shorter_than_the_step_floor_names_its_option(argv, option, capsys):
    # the error named the integrator's t_span and H_FLOOR, not the option
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {option} is shorter than the smallest step the integrator takes, 1e-15\n"
    )


def test_control_file_whose_n_segments_disagrees_with_u_is_a_usage_error(tmp_path, capsys):
    ctrl_file = tmp_path / "ctrl.json"
    ctrl_file.write_text(json.dumps({"n_segments": 5, "u": [[1, 0], [0, 1], [1, 1]]}))
    assert main(["endpoint", "--model", "d224", "--controls", str(ctrl_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: control 0: n_segments=5 but 3 rows in u\n"
    # without n_segments the rows are the segments; an integral float
    # counts as its integer, as model-file exponents do
    rows = [[1, 0], [0, 1], [1, 1]]
    for data in ({"u": rows}, {"n_segments": 3.0, "u": rows}):
        ctrl_file.write_text(json.dumps(data))
        assert main(["endpoint", "--model", "d224", "--controls", str(ctrl_file)]) == 0


@pytest.mark.parametrize(
    "data,message",
    [
        (5, "control 0: expected an object {n_segments, u}, got 5"),
        ([[1, 2], [3, 4]], "control 0: expected an object {n_segments, u}, got [1, 2]"),
        ({"n_segments": 1}, "control 0: missing 'u'"),
        ([{"u": [[1, 0]]}, {"u": [[1, 0], [0, True]]}], "control 1: u[1][1] is True, not a number"),
        ({"u": [["1", 0]]}, "control 0: u[0][0] is '1', not a number"),
        ({"u": [[0, None]]}, "control 0: u[0][1] is None, not a number"),
        ({"u": [[1, 0], [1]]}, "control 0: u must be a list of [u1, u2] rows"),
        ({"n_segments": True, "u": [[1, 2]]}, "control 0: n_segments is True, not a number"),
        ({"n_segments": "3", "u": [[1, 2]] * 3}, "control 0: n_segments is '3', not a number"),
        ([{"u": [[1, 0]]}, {"n_segments": None, "u": [[1, 2]]}],
         "control 1: n_segments is None, not a number"),
        ([{"u": [[1, 0]]}, {"n_segments": 2, "u": [[1, 2]]}],
         "control 1: n_segments=2 but 1 rows in u"),
        ([{"u": [[1, 0]]}, {"u": []}], "control 1: controls must be an (n_segments, 2) array"),
        ([{"u": [[1, 0]]}, {"u": [[1e400, 0]]}], "control 1: controls must be finite"),
    ],
    ids=["number", "list-of-lists", "no-u", "bool", "string", "null", "short-row",
         "bool-n-segments", "string-n-segments", "null-n-segments", "n-segments-mismatch",
         "empty-u", "infinite-cell"],
)
def test_malformed_control_files_are_usage_errors_that_name_the_entry(data, message, tmp_path,
                                                                      capsys):
    # the first three exited 1 or printed a bare "error: u"; a bool or a
    # numeric string was read as a number
    ctrl_file = tmp_path / "ctrl.json"
    ctrl_file.write_text(json.dumps(data))
    assert main(["endpoint", "--model", "d224", "--controls", str(ctrl_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["surface", "--model", "d224", "--grid=nan:0.1:2"],
         "error: bad grid spec 'nan:0.1:2': min, max and max - min must be finite"),
        (["surface", "--model", "d224", "--grid=0.01:inf:2"],
         "error: bad grid spec '0.01:inf:2': min, max and max - min must be finite"),
        (["analyze", "--model", "d224", "--grid=-inf:0.1:2"],
         "error: bad grid spec '-inf:0.1:2': min, max and max - min must be finite"),
        (["surface", "--model", "d224", "--grid=-1e308:1e308:3"],
         "error: bad grid spec '-1e308:1e308:3': min, max and max - min must be finite"),
        (["endpoint", "--model", "d224", "--random", "1", "--q0=nan,0,0,0"],
         "error: bad coordinate 'nan': coordinates must be finite"),
        (["endpoint", "--model", "d224", "--random", "1", "--q0=0.5,0,1e400,0"],
         "error: bad coordinate '1e400': coordinates must be finite"),
        (["analyze", "--model", "d224", "--point", "0,-inf,0,0"],
         "error: bad coordinate '-inf': coordinates must be finite"),
    ],
    ids=["grid-nan", "grid-inf", "analyze-grid", "grid-span", "q0-nan", "q0-overflow", "point-inf"],
)
def test_non_finite_numbers_on_the_command_line_are_usage_errors(argv, message, capsys):
    # rejected before numpy sees them: a RuntimeWarning would fail the call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


GOLDEN_PAIR = str(Path(__file__).resolve().parent / "data" / "golden" / "pair.json")


@pytest.mark.parametrize(
    "model,message",
    [
        ("engel_std", "sard_sample needs the origin to be a node, saddle or center of the "
         "characteristic field C, but C(0) != 0, so the origin has no kind"),
        (GOLDEN_PAIR, "sard_sample needs a skew product: this pair's characteristic field "
         "depends on x or y, so its singular surface is not a graph over (z, w)"),
    ],
    ids=["no-kind", "not-skew"],
)
def test_sard_on_a_pair_it_cannot_sample_is_a_usage_error_that_names_the_cause(
        model, message, capsys):
    # engel_std's field does not vanish at the origin; the golden pair's
    # depends on x and y.  Both used to read "expects a degenerate catalog
    # model", which named no cause.
    start = time.perf_counter()
    assert main(["endpoint", "--model", model, "--sard", "4"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_sard_runs_on_a_user_pair_with_a_repelling_node(capsys):
    # OUTWARD's origin is a repelling star node: its curves run back under +C.
    # A curve whose surface sample did not converge reads as an infinite
    # distance; measured 2.1e-11.
    model = str(Path(GOLDEN_PAIR).with_name("outward.json"))
    assert main(["endpoint", "--model", model, "--sard", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("user:outward.json: sard sample n=4 seed=0: ")
    assert float(re.search(r"max_surface_distance=(\S+),", out).group(1)) < 1e-9


FLOW = ["flow", "--model", "d224", "--start", "0,0,0.1,0.1"]
SURFACE = ["surface", "--model", "d224", "--grid", "0.01:0.1:2"]


@pytest.mark.parametrize(
    "argv,message",
    [
        ([*FLOW, "--t", "1", "--rtol=nan"], "--rtol must be positive and finite, got nan"),
        ([*FLOW, "--t", "1", "--atol=inf"], "--atol must be positive and finite, got inf"),
        ([*FLOW, "--t", "inf"], "--t must be finite, got inf"),
        ([*FLOW, "--t", "nan"], "--t must be finite, got nan"),
        ([*FLOW, "--t=-inf"], "--t must be finite, got -inf"),
        ([*SURFACE, "--t-max=inf"], "--t-max must be positive and finite, got inf"),
        ([*SURFACE, "--t-max=nan"], "--t-max must be positive and finite, got nan"),
        ([*SURFACE, "--t-max=-1"], "--t-max must be positive and finite, got -1.0"),
        ([*SURFACE, "--eps-cut=nan"], "--eps-cut must be positive and finite, got nan"),
        ([*SURFACE, "--eps-cut=0"], "--eps-cut must be positive and finite, got 0.0"),
        ([*SURFACE, "--atol=-1"], "--atol must be positive and finite, got -1.0"),
        (["endpoint", "--model", "d224", "--random", "1", "--rtol=0"],
         "--rtol must be positive and finite, got 0.0"),
        (["endpoint", "--model", "d224", "--sard", "-5"], "--sard must be non-negative, got -5"),
        (["endpoint", "--model", "d224", "--random", "-1"], "--random must be at least 1, got -1"),
        (["endpoint", "--model", "d224", "--random", "0"], "--random must be at least 1, got 0"),
        (["endpoint", "--model", "d224", "--random", "2", "--n-segments", "-2"],
         "--n-segments must be at least 1, got -2"),
        (["endpoint", "--model", "d224", "--random", "1", "--seed", "-1"],
         "--seed must be non-negative, got -1"),
        (["endpoint", "--model", "d224", "--sard", "2", "--seed=-3"],
         "--seed must be non-negative, got -3"),
    ],
    ids=["rtol-nan", "atol-inf", "t-inf", "t-nan", "t-minus-inf", "t-max-inf", "t-max-nan",
         "t-max-negative", "eps-cut-nan", "eps-cut-zero", "surface-atol-negative",
         "endpoint-rtol-zero", "sard-negative", "random-negative", "random-zero",
         "n-segments-negative", "random-seed-negative", "sard-seed-negative"],
)
def test_out_of_range_numbers_are_usage_errors_that_name_the_value(argv, message, capsys):
    # Each used to run on: to a misleading step underflow, a trajectory or
    # a 0/N surface that exit 0, or seconds of steps up to the step budget.
    # A non-finite --t and a negative --seed were named by the integrator's
    # t_span and by numpy ("expected non-negative integer"), the tolerances,
    # --eps-cut, --t-max and --sard by the library's parameter names.
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
