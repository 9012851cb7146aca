"""Byte-for-byte golden outputs of every CLI command.

Each case runs ``tasksim.cli.main`` inside a temporary directory that
holds a copy of ``tests/golden/inputs`` and compares every file written to
``out/``, plus stdout, with ``tests/golden/<case>/``.  All paths on the
command lines are relative, so outputs that embed paths (and the config
hashes built from them) do not depend on where the tests run.

To regenerate the goldens after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from tasksim.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
STDOUT = "stdout.txt"


# case name -> argv lists run in order; every file they write to out/ and
# their concatenated stdout form the case's golden set.
CASES = {
    "analytic-matrix": [[
        "analytic-matrix", "--dists", "xor", "quads", "rxor", "fxor", "grid(6)", "rxor(30)",
        "--format", "csv,json,svg", "--out-dir", "out",
    ]],
    # A JSON partition whose cells need every normalisation step.
    "analytic-matrix-json": [[
        "analytic-matrix", "--dists", "inputs/messy_cells.json", "xor", "rxor(30)", "fxor",
        "--format", "csv,json", "--out-dir", "out",
    ]],
    # R = 9 >= 8, where numpy's pairwise summation no longer matches a
    # sequential mean, so a change in how the mean is reduced shows here.
    "empirical-matrix": [[
        "empirical-matrix", "--seed", "3", "--replications", "9", "--n-train", "300",
        "--n-eval", "200", "--workers", "1", "--format", "csv,json,svg", "--out-dir", "out",
    ]],
    "convergence": [[
        "convergence", "--target", "xor", "--grids", "1", "2", "3", "5", "--seed", "5",
        "--replications", "3", "--n-train", "400", "--n-eval", "200", "--workers", "1",
        "--out-dir", "out",
    ]],
    "transfer-efficiency": [[
        "transfer-efficiency", "--source", "rxor(30)", "--target", "xor", "--n-target", "50", "200",
        "--n-source", "1000", "--n-eval", "400", "--replications", "4", "--seed", "5",
        "--depth", "2", "--workers", "1", "--out-dir", "out",
    ]],
    "ets-csv": [[
        "ets-csv", "--target-csv", "inputs/target.csv",
        "--source-csv", "inputs/copy.csv", "inputs/perm.csv", "inputs/shuffled.csv",
        "--seed", "11", "--depth", "6", "--out-dir", "out",
    ]],
    "validate": [
        ["validate", "inputs/distribution.json"],
        ["validate", "inputs/partition.json"],
    ],
}


def _run_case(argvs, workdir: Path) -> tuple[dict[str, bytes], bytes]:
    """Run a case in workdir; return {file name: bytes} under out/ and stdout."""
    shutil.copytree(INPUTS, workdir / "inputs")
    old, stdout = os.getcwd(), io.StringIO()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            for argv in argvs:
                assert main(argv) == 0, argv
    finally:
        os.chdir(old)
    out = workdir / "out"
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    return files, stdout.getvalue().encode("utf-8")


def _first_difference(got: bytes, want: bytes) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return f"line {i}: got {g[:120]!r}, golden {w[:120]!r}"
    return f"got {len(got_lines)} lines, golden {len(want_lines)}"


def _assert_matches_golden(case: str, files: dict[str, bytes], stdout: bytes) -> None:
    golden_dir = GOLDEN / case
    want = {p.name: p.read_bytes() for p in golden_dir.iterdir()}
    got = dict(files, **{STDOUT: stdout})
    assert sorted(got) == sorted(want)
    for name in sorted(want):
        assert got[name] == want[name], f"{case}/{name}: {_first_difference(got[name], want[name])}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outputs_match_golden(case, tmp_path):
    files, stdout = _run_case(CASES[case], tmp_path)
    _assert_matches_golden(case, files, stdout)


@pytest.mark.parametrize("case", ["convergence", "empirical-matrix", "transfer-efficiency"])
def test_two_workers_match_golden(case, tmp_path):
    # --workers is not part of the recorded config, so every byte matches.
    [argv] = CASES[case]
    at = argv.index("--workers") + 1
    files, stdout = _run_case([[*argv[:at], "2", *argv[at + 1:]]], tmp_path)
    _assert_matches_golden(case, files, stdout)


# ---------------------------------------------------------------------------
# regeneration


def _write_csv(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    lines = [",".join([f"f{i}" for i in range(X.shape[1])] + ["y", "t"])]
    lines += [",".join([*(repr(float(v)) for v in x), str(int(c)), "1"]) for x, c in zip(X, y)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _blobs(seed: int, perm=None, shuffle=False):
    """Three Gaussian classes in 3-d; optionally permuted or shuffled labels."""
    r = np.random.default_rng(seed)
    centers = np.array([[0, 0, 0], [3, 0, 1], [0, 3, -1]], float)
    y = r.integers(0, 3, 400)
    X = centers[y] + r.normal(0, 0.7, size=(400, 3))
    if perm is not None:
        y = np.asarray(perm)[y]
    if shuffle:
        y = r.permutation(y)
    return X, y


def write_inputs(directory: Path) -> None:
    """Sample CSVs for ets-csv and JSON files for validate."""
    directory.mkdir(parents=True, exist_ok=True)
    target = _blobs(1)
    _write_csv(directory / "target.csv", *target)
    _write_csv(directory / "copy.csv", *target)
    _write_csv(directory / "perm.csv", *_blobs(2, perm=[2, 0, 1]))
    _write_csv(directory / "shuffled.csv", *_blobs(3, shuffle=True))
    # A 2x2 grid whose two left cells share a class: valid, with a
    # minimality warning.
    left, right = [[0, 0], [0.5, 0], [0.5, 0.5], [0, 0.5]], [[0.5, 0], [1, 0], [1, 0.5], [0.5, 0.5]]
    dist = {
        "domain": [0, 1, 0, 1],
        "cells": [left, right, [[x, y + 0.5] for x, y in left], [[x, y + 0.5] for x, y in right]],
        "labels": [[0.9, 0.1], [0.2, 0.8], [0.7, 0.3], [0.4, 0.6]],
        "mass": [0.1, 0.2, 0.3, 0.4],
        "name": "grid2-warn",
    }
    # The unit square cut by the line from (0, 1/3) to (1, 2/3), so the
    # diagnostics carry round-off digits.
    lo, hi = 1 / 3, 2 / 3
    part = {
        "domain": [0, 1, 0, 1],
        "cells": [[[0, 0], [1, 0], [1, hi], [0, lo]], [[0, lo], [1, hi], [1, 1], [0, 1]]],
    }
    # (-1, 1)^2 in five cells, each given as the normaliser must fix it: a
    # clockwise quadrant, a collinear midpoint, a repeated closing vertex,
    # a vertex 4e-13 from its neighbour and a collinear point on a diagonal.
    messy = {
        "domain": [-1, 1, -1, 1],
        "cells": [
            [[-1, -1], [-1, 0], [0, 0], [0, -1]],
            [[0, -1], [0.5, -1], [1, -1], [1, 0], [0, 0]],
            [[-1, 0], [0, 0], [0, 1], [-1, 1], [-1, 0]],
            [[0, 0], [1, 0], [1, 4e-13], [1, 1]],
            [[0, 0], [0.5, 0.5], [1, 1], [0, 1]],
        ],
        "labels": [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.2, 0.3, 0.5], [0.5, 0.25, 0.25],
                   [0.1, 0.1, 0.8]],
        "mass": [0.3, 0.2, 0.25, 0.15, 0.1],
        "name": "messy-cells",
    }
    docs = (("distribution.json", dist), ("partition.json", part), ("messy_cells.json", messy))
    for name, doc in docs:
        (directory / name).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def regenerate() -> None:
    write_inputs(INPUTS)
    for case, argvs in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            files, stdout = _run_case(argvs, Path(tmp))
        target = GOLDEN / case
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for name, data in dict(files, **{STDOUT: stdout}).items():
            (target / name).write_bytes(data)
        print(f"{case}: {len(files)} files")


if __name__ == "__main__":
    regenerate()
