import json
from pathlib import Path

import numpy as np
import pytest

from engelkit.cli import main
from engelkit.distribution import CATALOG, resolve_model
from engelkit.endpoint import ControlPath, horizontal_integrate


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
        (["analyze", "--model", "d224", "--point", "0,0,1e300,0"],
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


def test_surface_rejects_zero_grid(capsys):
    assert main(["surface", "--model", "d224", "--grid", "0:0.1:2"]) == 2


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
