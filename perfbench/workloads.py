"""The benchmark's workloads: seeded inputs, CLI ops and output checks.

An op is a list of ``tasksim.cli.main`` argv lists run back to back in
this process; its outputs go into the op's own directory.  Every
workload generates its inputs from the workload seed alone, and the
shape of the work (grid sizes, sample sizes, replications) is fixed, so
seeds change the data but not how much work an op does.

``check_op`` returns the problems found in one op's outputs and
``check_run`` those found across all ops of a run; an empty list means
the outputs are correct.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

import reference


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv_matrix(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return [[float(v) for v in row[1:]] for row in rows[1:]]


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol


class Workload:
    """Seeded inputs, the CLI calls of op i and the checks of one workload."""

    name = ""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed

    def op_argvs(self, i: int, out_dir: str) -> list[list[str]]:
        raise NotImplementedError

    def warmup_argvs(self, out_dir: str) -> list[list[str]]:
        return self.op_argvs(0, out_dir)

    def check_op(self, i: int, out_dir: str, stdouts) -> list[str]:
        raise NotImplementedError

    def check_run(self, results) -> list[str]:
        return []


class AnalyticGrid(Workload):
    """validate, then analytic-matrix of a seeded grid task against the builtins.

    Grid sizes are fixed; labels, masses, the order of the files and the
    rotation angle of each op come from the seed.  Op 0, the one rerun
    for determinism, always uses theta = 45, where ats(rxor45 <- fxor) =
    1/2 is checked.  Angles vary per op rather than per file, so every
    grid size meets many angles and the cost of a size's ops does not
    hinge on the one angle a seed gave its file.
    """

    name = "analytic-grid"
    # Stopping at n = 7 keeps the mean op near 0.2 s, so a 35 s run holds
    # over 100 ops (for a p90 with ten samples beyond it) even when the
    # host runs 1.5x slow.  An odd number of equally frequent sizes puts
    # the median inside the middle size's cluster and the p90 inside the
    # largest one's, rather than in a gap between clusters where one op
    # more or less moves them.
    grid_sizes = (3, 4, 5, 6, 7)
    num_classes = 3

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        rng = np.random.default_rng(seed)
        self.files = []
        for n in self.grid_sizes:
            path = os.path.join(work_dir, f"grid{n}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(self._grid_task(n, rng), fh)
            self.files.append((path, n))
        self.order = [int(k) for k in rng.permutation(len(self.files))]
        # 64 is coprime to the number of files: every file meets every angle.
        self.thetas = [45] + [int(t) for t in rng.integers(5, 86, size=63)]
        self._reference: dict[int, tuple] = {}

    def _grid_task(self, n: int, rng) -> dict:
        edges = np.linspace(-1.0, 1.0, n + 1)
        k = self.num_classes
        cells, labels = [], []
        for j in range(n):
            for i in range(n):
                x0, x1, y0, y1 = edges[i], edges[i + 1], edges[j], edges[j + 1]
                cells.append([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
                p = 0.5 * rng.random(k)
                p[rng.integers(k)] += 1.0  # a clear, unique majority class
                labels.append((p / p.sum()).tolist())
        w = rng.uniform(0.5, 1.5, n * n)
        return {
            "domain": [-1.0, 1.0, -1.0, 1.0],
            "cells": cells,
            "labels": labels,
            "mass": (w / w.sum()).tolist(),
            "name": f"grid{n}",
        }

    def _argvs(self, inp, out_dir):
        path, _, theta = inp
        return [
            ["validate", path],
            ["analytic-matrix", "--dists", path, f"rxor({theta})", "fxor", "xor",
             "--format", "csv,json", "--out-dir", out_dir],
        ]

    def _input(self, i: int):
        """(grid file, n, theta) of op i."""
        path, n = self.files[self.order[i % len(self.order)]]
        return path, n, self.thetas[i % len(self.thetas)]

    def op_argvs(self, i: int, out_dir: str):
        return self._argvs(self._input(i), out_dir)

    def warmup_argvs(self, out_dir: str):
        return self._argvs((*self.files[0], 45), out_dir)

    def check_op(self, i: int, out_dir: str, stdouts) -> list[str]:
        _, n, theta = self._input(i)
        bad = []
        ok_line = f"OK: distribution with {n * n} cells, {self.num_classes} classes"
        if stdouts[0].rstrip().splitlines()[-1:] != [ok_line]:
            bad.append("validate did not report OK")
        res = _load_json(os.path.join(out_dir, "analytic.json"))
        names = [f"grid{n}", f"rxor{theta}", "fxor", "xor"]
        if res["names"] != names:
            return bad + [f"names {res['names']} != {names}"]
        ts, ats = res["ts"], res["ats"]
        for stat, values in (("ts", ts), ("ats", ats)):
            if _read_csv_matrix(os.path.join(out_dir, f"{stat}.csv")) != values:
                bad.append(f"{stat}.csv disagrees with analytic.json")
        for a in range(4):
            if not (_close(ts[a][a], 1.0, 1e-9) and _close(ats[a][a], 1.0, 1e-9)):
                bad.append(f"self-similarity of {names[a]} is ts={ts[a][a]!r} ats={ats[a][a]!r}")
            for b in range(4):
                if not (-1e-9 <= ats[a][b] <= ts[a][b] + 1e-9 and ts[a][b] <= 1.0 + 1e-9):
                    bad.append(f"not 0 <= ats <= ts <= 1 at ({names[a]}, {names[b]})")
        if theta not in self._reference:
            self._reference[theta] = reference.builtin_block(theta)
        ref_ts, ref_ats = self._reference[theta]
        for a in range(3):
            for b in range(3):
                if not (_close(ts[a + 1][b + 1], ref_ts[a][b], 1e-9)
                        and _close(ats[a + 1][b + 1], ref_ats[a][b], 1e-9)):
                    bad.append(f"builtin block ({names[a + 1]} <- {names[b + 1]}) is "
                               f"ts={ts[a + 1][b + 1]!r} ats={ats[a + 1][b + 1]!r}, exact "
                               f"ts={ref_ts[a][b]!r} ats={ref_ats[a][b]!r}")
        return bad


class EtsMatrix(Workload):
    """empirical-matrix over the four builtins; op i uses seed + i.

    README learner settings (tree, depth 8) with the training split cut
    from 5000/2000 to 3000/1000 so a 35 s run holds well over 100 ops.
    """

    name = "ets-matrix"
    diagonal_floor = 0.9

    def op_argvs(self, i: int, out_dir: str):
        return [[
            "empirical-matrix", "--dists", "xor", "quads", "rxor", "fxor",
            "--learner", "tree", "--depth", "8", "--n-train", "3000", "--n-eval", "1000",
            "--replications", "2", "--workers", "1", "--seed", str(self.seed + i),
            "--out-dir", out_dir,
        ]]

    def check_op(self, i: int, out_dir: str, stdouts) -> list[str]:
        summary = _load_json(os.path.join(out_dir, "ets_summary.json"))
        values = np.asarray(summary["ets_mean"], dtype=float).ravel().tolist()
        with open(os.path.join(out_dir, "ets_replications.csv"), encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        values += [float(v) for row in rows for v in row[2:]]
        if len(rows) != 2 or len(values) != 16 * 3:
            return [f"expected 2 replications of a 4x4 matrix, got {len(rows)} rows"]
        return [f"ETS value {v!r} outside [0, 1]" for v in values if not 0.0 <= v <= 1.0]

    def diagonal(self, out_dir: str) -> list[float]:
        m = _load_json(os.path.join(out_dir, "ets_summary.json"))["ets_mean"]
        return [m[a][a] for a in range(len(m))]

    def check_run(self, results) -> list[str]:
        diags = [self.diagonal(r["out"]) for r in results if r["ok"]]
        if not diags:
            return []
        mean = np.mean(diags, axis=0)
        if (mean < self.diagonal_floor).any():
            return [f"run-mean ETS diagonal {mean.tolist()} has an entry below {self.diagonal_floor}"]
        return []


class Convergence(Workload):
    """convergence of xor along odd grids with the histogram learners; op i uses seed + i."""

    name = "convergence"
    grids = (1, 3, 5, 7, 9, 11)

    def op_argvs(self, i: int, out_dir: str):
        return [[
            "convergence", "--target", "xor", "--grids", *map(str, self.grids),
            "--replications", "2", "--workers", "1", "--seed", str(self.seed + i),
            "--out-dir", out_dir,
        ]]

    @staticmethod
    def exact_ts(n: int) -> float:
        """ts(xor <- grid(n)) for odd n: the middle row and column split evenly."""
        return ((n - 1) ** 2 + (2 * n - 1) / 2) / n**2

    def check_op(self, i: int, out_dir: str, stdouts) -> list[str]:
        points = _load_json(os.path.join(out_dir, "convergence.json"))["points"]
        if [p["n"] for p in points] != list(self.grids):
            return [f"grids {[p['n'] for p in points]} != {list(self.grids)}"]
        bad = []
        for p in points:
            want = self.exact_ts(p["n"])
            if not _close(p["analytic_ts"], want, 1e-12):
                bad.append(f"analytic_ts at n={p['n']} is {p['analytic_ts']!r}, exact {want!r}")
            if not all(0.0 <= v <= 1.0 for v in p["ets"]["values"]):
                bad.append(f"ETS at n={p['n']} outside [0, 1]")
        return bad


WORKLOADS = {w.name: w for w in (AnalyticGrid, EtsMatrix, Convergence)}


def same_files(a: str, b: str) -> list[str]:
    """Differences between two output directories, compared byte for byte."""
    names_a, names_b = sorted(os.listdir(a)), sorted(os.listdir(b))
    if names_a != names_b:
        return [f"rerun wrote {names_b}, first run {names_a}"]
    bad = []
    for f in names_a:
        with open(os.path.join(a, f), "rb") as fa, open(os.path.join(b, f), "rb") as fb:
            if fa.read() != fb.read():
                bad.append(f"rerun changed {f}")
    return bad


def output_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))

