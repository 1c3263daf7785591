"""Golden CLI outputs, compared byte for byte.

Each case runs ``engelkit.cli.main`` in a scratch directory and compares
every file it writes with the one stored under ``tests/data/golden``.
A change to the integrator, the generated kernels or the writers that
moves any output by one bit fails here.

The stored files were written with ``python tests/test_golden.py`` on
x86-64 Linux with glibc 2.36's libm (``exp``, ``log`` and ``pow``
round there as they do).  Another libm may round those differently in
the last place, and then these files must be rewritten on it and the
outputs compared by hand.  Run the script only to record a change that
is meant to move outputs, and say which in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

from engelkit.cli import main
from engelkit.distribution import CATALOG

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

# name -> (argv, inputs read from GOLDEN, outputs written); paths are
# relative, since the headers record them.
CASES = {
    "surface-unsigned": (
        ["surface", "--model", "d224", "--grid", "0.001:0.1:5", "--out", "surface.csv"],
        [], ["surface.csv"],
    ),
    "surface-signed": (
        ["surface", "--model", "d224", "--grid", "0.01:0.1:3", "--signed",
         "--out", "surface_signed.csv"],
        [], ["surface_signed.csv"],
    ),
    **{
        f"controls-{name}": (
            ["endpoint", "--model", name, "--controls", f"controls_{name}.json",
             "--out", f"endpoint_{name}.json"],
            [f"controls_{name}.json"], [f"endpoint_{name}.json"],
        )
        for name in CATALOG
    },
    "sard": (
        ["endpoint", "--model", "d224", "--sard", "5", "--seed", "3", "--out", "sard.json",
         "--cloud", "cloud.csv"],
        [], ["sard.json", "cloud.csv"],
    ),
    # The saddle model's curves come back along w = 0 and are measured
    # against the surface; the rotational model's stay on the rho-sphere.
    **{
        f"sard-{name}": (
            ["endpoint", "--model", name, "--sard", "3", "--seed", "3",
             "--out", f"sard_{name}.json", "--cloud", f"cloud_{name}.csv"],
            [], [f"sard_{name}.json", f"cloud_{name}.csv"],
        )
        for name in ("d2334a", "d2334b")
    },
    "flow": (
        ["flow", "--model", "d2334b", "--start", "0,0,1,0", "--t", "2", "--out", "flow.csv"],
        [], ["flow.csv"],
    ),
    "surface-d2334a-signed": (
        ["surface", "--model", "d2334a", "--grid", "0.01:0.1:2", "--signed",
         "--out", "surface_d2334a.csv"],
        [], ["surface_d2334a.csv"],
    ),
    # The seeded pair has x and y terms, so its variational pass moves 18
    # entries, more than any catalog model's (12 or 13).
    "random-pair": (
        ["endpoint", "--model", "pair.json", "--random", "2", "--seed", "7",
         "--out", "endpoint_pair.json"],
        ["pair.json"], ["endpoint_pair.json"],
    ),
    "flow-pair": (
        ["flow", "--model", "pair.json", "--start", "0.1,0.2,0.3,0.4", "--t", "1",
         "--out", "flow_pair.csv"],
        ["pair.json"], ["flow_pair.csv"],
    ),
    "char-pair": (
        ["char", "--model", "pair.json", "--out", "char_pair.json"],
        ["pair.json"], ["char_pair.json"],
    ),
    "analyze-pair": (
        ["analyze", "--model", "pair.json", "--point", "1,2,3,4", "--point", "1/2,0,-1,1/3",
         "--grid=-1:1:3", "--out", "analyze_pair.csv"],
        ["pair.json"], ["analyze_pair.csv"],
    ),
}


def _run(name: str, directory: Path) -> None:
    argv, inputs, _ = CASES[name]
    for file in inputs:
        shutil.copyfile(GOLDEN / file, directory / file)
    assert main(argv) == 0, name


@pytest.mark.parametrize("name", CASES)
def test_cli_output_is_byte_identical_to_the_golden_file(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _run(name, tmp_path)
    for file in CASES[name][2]:
        assert (tmp_path / file).read_bytes() == (GOLDEN / file).read_bytes(), file


def _write_controls() -> None:
    """One seeded 32-segment control per catalog model, rounded to 6 digits."""
    import numpy as np

    rng = np.random.default_rng(2027)
    for name in CATALOG:
        u = rng.uniform(-1.0, 1.0, (32, 2)).round(6).tolist()
        (GOLDEN / f"controls_{name}.json").write_text(json.dumps({"n_segments": 32, "u": u}))


def _write_pair() -> None:
    """The model file of a seeded ``random_poly`` pair with x and y terms."""
    import numpy as np

    from engelkit.distribution import PfaffianPair
    from engelkit.poly import random_poly

    rng = np.random.default_rng(9)
    pair = PfaffianPair(random_poly(rng), random_poly(rng))
    (GOLDEN / "pair.json").write_text(json.dumps(pair.to_json_dict()))


if __name__ == "__main__":
    # Rewrite every golden file from the code on the path.
    import os

    GOLDEN.mkdir(parents=True, exist_ok=True)
    _write_controls()
    _write_pair()
    os.chdir(GOLDEN)
    for case, (argv, _, _) in CASES.items():
        if main(argv) != 0:
            sys.exit(f"{case} failed")
