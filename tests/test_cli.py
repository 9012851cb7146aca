import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

import tasksim as T
from oracles import write_samples_csv
from tasksim import cli, learners
from tasksim.cli import build_parser, main, resolve_distribution

INPUTS = Path(__file__).parent / "golden" / "inputs"


def run(args):
    return main(args)


def exit_code(args):
    """main's return value, or the code argparse exits with."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_analytic_matrix_matches_expected_values(tmp_path):
    out = tmp_path / "a"
    assert run(["analytic-matrix", "--out-dir", str(out)]) == 0
    lines = read(out / "ats.csv").strip().splitlines()
    header = lines[0].split(",")
    assert header == ["target\\source", "xor", "quads", "rxor45", "fxor"]
    grid = {row.split(",")[0]: [float(v) for v in row.split(",")[1:]] for row in lines[1:]}
    assert grid["xor"] == pytest.approx([1, 1, 0, 1], abs=1e-9)
    assert grid["quads"] == pytest.approx([1, 1, 0, 1], abs=1e-9)
    assert grid["rxor45"] == pytest.approx([0, 0, 1, 0.5], abs=1e-9)
    assert grid["fxor"] == pytest.approx([0, 0, 0, 1], abs=1e-9)
    meta = json.loads(read(out / "ats.csv.meta.json"))
    assert meta["command"] == "analytic-matrix"
    assert meta["version"].startswith("tasksim-v")
    payload = json.loads(read(out / "analytic.json"))
    assert payload["per_cell_profiles"]


def test_analytic_matrix_single_distribution(tmp_path):
    out = tmp_path / "single"
    assert run(["analytic-matrix", "--dists", "xor", "--out-dir", str(out)]) == 0
    lines = read(out / "ats.csv").strip().splitlines()
    assert lines[1].split(",") == ["xor", "1"]


def test_analytic_matrix_svg(tmp_path):
    out = tmp_path / "svg"
    assert run(["analytic-matrix", "--format", "svg", "--out-dir", str(out)]) == 0
    body = read(out / "ats_heatmap.svg")
    assert body.startswith("<svg") and "rect" in body


def test_analytic_matrix_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["analytic-matrix", "--dists", str(bad), "--out-dir", str(tmp_path / "o")]) == 2


def test_analytic_matrix_mismatched_domains_exit_2(tmp_path, capsys):
    unit = INPUTS / "distribution.json"  # 'grid2-warn' on [0, 1]^2
    assert run(["analytic-matrix", "--dists", "xor", str(unit), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: target 'xor' on domain (-1.0, 1.0, -1.0, 1.0) and source 'grid2-warn' "
        "on domain (0.0, 1.0, 0.0, 1.0) live on different domains\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["empirical-matrix", "--dists", "xor", str(INPUTS / "distribution.json")],
    ["transfer-efficiency", "--source", str(INPUTS / "distribution.json"), "--target", "xor"],
], ids=["empirical-matrix", "transfer-efficiency"])
def test_sampled_harnesses_refuse_mismatched_domains_exit_2(tmp_path, capsys, argv):
    assert run([*argv, "--seed", "1", "--replications", "2", "--n-eval", "50", "--workers", "1",
                "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: target 'xor' on domain (-1.0, 1.0, -1.0, 1.0) and source 'grid2-warn' "
        "on domain (0.0, 1.0, 0.0, 1.0) live on different domains\n")
    assert not (tmp_path / "o").exists()


def test_analytic_matrix_domains_apart_by_9e_6_relative_exit_2(tmp_path, capsys):
    paths = []
    for name, xmax in (("square", 1000.0), ("wider", 1000.009)):
        paths.append(tmp_path / f"{name}.json")
        dist = T.grid_distribution(2, domain=(0.0, xmax, 0.0, 1000.0), name=name)
        paths[-1].write_text(json.dumps(dist.to_json_dict()))
    assert run(["analytic-matrix", "--dists", *map(str, paths),
                "--out-dir", str(tmp_path / "o")]) == 2
    assert "'wider' on domain (0.0, 1000.009, 0.0, 1000.0)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_distribution_exit_2(tmp_path):
    assert run(["analytic-matrix", "--dists", "mystery", "--out-dir", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("spec", ["rxor(1.2.3)", "rxor(.)", "rxor(95)"])
def test_malformed_rxor_angle_exit_2(tmp_path, capsys, spec):
    assert run(["analytic-matrix", "--dists", spec, "--out-dir", str(tmp_path / "o")]) == 2
    assert spec in capsys.readouterr().err


def test_huge_grid_exit_2_before_allocating(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("grid cells allocated before the size check")

    monkeypatch.setattr(np, "linspace", refuse)
    assert run(["analytic-matrix", "--dists", "grid(1000000000)",
                "--out-dir", str(tmp_path / "o")]) == 2
    assert "limit of 256" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["convergence", "--target-bins", "100000"],
    ["empirical-matrix", "--learner", "histogram", "--bins", "100000"],
], ids=lambda c: c[0])
def test_huge_histogram_exit_2_before_allocating(command, tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("histogram cells allocated before the size check")

    monkeypatch.setattr(learners, "GridTransformer", refuse)
    assert run([*command, "--seed", "1", "--replications", "2", "--n-train", "50",
                "--n-eval", "50", "--workers", "1", "--out-dir", str(tmp_path / "o")]) == 2
    assert "histogram of 100000 bins" in capsys.readouterr().err


def test_resolve_distribution_specs(tmp_path):
    assert resolve_distribution("rxor(30)").name == "rxor30"
    assert resolve_distribution("rxor").name == "rxor45"
    assert resolve_distribution("grid(3)").name == "grid3"
    path = tmp_path / "d.json"
    path.write_text(json.dumps(T.fxor().to_json_dict()))
    assert resolve_distribution(str(path)).name == "fxor"


def test_empirical_matrix_deterministic_outputs(tmp_path):
    args = [
        "empirical-matrix", "--seed", "7", "--replications", "3",
        "--n-train", "600", "--n-eval", "300", "--depth", "2",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(args + ["--out-dir", str(out1)]) == 0
    assert run(args + ["--out-dir", str(out2)]) == 0
    for name in ("ets_mean.csv", "ets_ci90.csv", "ets_replications.csv"):
        assert read(out1 / name) == read(out2 / name), name
    summary = json.loads(read(out1 / "ets_summary.json"))
    assert summary["seeds"] == [7, 8, 9]
    assert "config_hash" in json.loads(read(out1 / "ets_summary.json.meta.json"))


def test_empirical_matrix_requires_seed():
    with pytest.raises(SystemExit):  # argparse enforces --seed
        run(["empirical-matrix"])


@pytest.mark.parametrize("command", [
    ["empirical-matrix", "--n-train", "50"],
    ["convergence", "--n-train", "50"],
    ["transfer-efficiency", "--source", "quads", "--target", "xor"],
], ids=lambda c: c[0])
def test_empirical_matrix_rejects_bad_counts(command, tmp_path):
    # One replication leaves no confidence interval, so every harness
    # rejects it just as it rejects zero.
    for replications in ("0", "1"):
        assert run([
            *command, "--seed", "1", "--replications", replications,
            "--n-eval", "50", "--workers", "1", "--out-dir", str(tmp_path / "o"),
        ]) == 2


# A fast run of every command that writes files, without --seed.
FAST_RUNS = {
    "analytic-matrix": ["analytic-matrix", "--dists", "xor", "quads"],
    "empirical-matrix": ["empirical-matrix", "--dists", "xor", "--replications", "2",
                         "--n-train", "50", "--n-eval", "50", "--depth", "2", "--workers", "1"],
    "convergence": ["convergence", "--grids", "1", "2", "--replications", "2",
                    "--n-train", "50", "--n-eval", "50", "--workers", "1"],
    "transfer-efficiency": ["transfer-efficiency", "--source", "quads", "--target", "xor",
                            "--n-target", "50", "--n-source", "100", "--n-eval", "50",
                            "--replications", "2", "--depth", "2", "--workers", "1"],
    "ets-csv": ["ets-csv", "--target-csv", str(INPUTS / "target.csv"),
                "--source-csv", str(INPUTS / "copy.csv"), "--depth", "2"],
}
SEEDED = [c for c in FAST_RUNS if c != "analytic-matrix"]


def _defaults(parser):
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return {(c, a.dest): a.default for c, p in commands.items() for a in p._actions}


def test_main_builds_one_parser_and_leaves_its_list_defaults_alone(tmp_path, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    quick = ["--replications", "2", "--n-eval", "50", "--workers", "1", "--seed", "1"]
    try:
        # Every list default in use: --dists, --grids and --n-target.
        for argv in (["analytic-matrix"],
                     ["empirical-matrix", *quick, "--n-train", "50", "--depth", "2"],
                     ["convergence", *quick, "--n-train", "50"],
                     ["transfer-efficiency", "--source", "quads", "--target", "xor",
                      "--n-source", "100", *quick, "--depth", "2"]):
            assert main([*argv, "--out-dir", str(tmp_path / argv[0])]) == 0
        assert exit_code(["validate", "--tol", "nan", str(INPUTS / "distribution.json")]) == 2
        parser = cli._parser()
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert _defaults(parser) == _defaults(real())


@pytest.mark.parametrize("command", SEEDED)
def test_negative_seed_exit_2(command, tmp_path, capsys):
    assert run([*FAST_RUNS[command], "--seed", "-1", "--out-dir", str(tmp_path / "o")]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("workers", ["0", "-3", "1.5"])
@pytest.mark.parametrize("command", [c for c in SEEDED if c != "ets-csv"])
def test_workers_below_one_exit_2(command, workers, tmp_path, capsys):
    argv = [*FAST_RUNS[command], "--seed", "1", "--workers", workers]
    assert exit_code([*argv, "--out-dir", str(tmp_path / "o")]) == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


COUNT_FLAGS = [
    ("empirical-matrix", "--n-train", "0"), ("convergence", "--n-train", "0"),
    ("empirical-matrix", "--n-eval", "0"), ("transfer-efficiency", "--n-source", "0"),
    ("transfer-efficiency", "--n-target", "0"), ("convergence", "--grids", "0"),
    ("empirical-matrix", "--bins", "0"), ("convergence", "--target-bins", "0"),
    ("empirical-matrix", "--min-leaf", "0"), ("convergence", "--replications", "1"),
    ("empirical-matrix", "--depth", "-1"),
]


@pytest.mark.parametrize("command,flag,value", COUNT_FLAGS)
def test_count_option_below_its_least_value_names_its_flag(command, flag, value, tmp_path,
                                                           capsys):
    argv = [*FAST_RUNS[command], "--seed", "1", flag, value, "--out-dir", str(tmp_path / "o")]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} must be an integer of at least")
    assert not (tmp_path / "o").exists()


REMOVED_FLAGS = [
    *((c, ["--tie-tol", "0.1"]) for c in SEEDED),
    *(("convergence", flag) for flag in (
        ["--learner", "tree"], ["--depth", "2"], ["--bins", "3"], ["--min-leaf", "2"],
        ["--min-gain", "0.1"], ["--in-sample"])),
    ("transfer-efficiency", ["--n-train", "50"]),
    ("transfer-efficiency", ["--in-sample"]),
    *(("ets-csv", flag) for flag in (
        ["--n-train", "50"], ["--n-eval", "50"], ["--replications", "2"], ["--workers", "1"])),
]


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS,
                         ids=[f"{command}{flag[0]}" for command, flag in REMOVED_FLAGS])
def test_option_the_command_does_not_read_exits_2(command, flag, tmp_path):
    argv = [*FAST_RUNS[command], "--seed", "1", *flag, "--out-dir", str(tmp_path / "o")]
    assert exit_code(argv) == 2
    assert not (tmp_path / "o").exists()


def _option_dests(command: str) -> set[str]:
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return {a.dest for a in commands[command]._actions if a.dest != "help"}


@pytest.mark.parametrize("command", sorted(FAST_RUNS))
def test_sidecar_records_every_option_but_output_and_workers(command, tmp_path):
    argv = [*FAST_RUNS[command], "--out-dir", str(tmp_path)]
    assert run(argv if command == "analytic-matrix" else [*argv, "--seed", "1"]) == 0
    sidecars = sorted(tmp_path.glob("*.meta.json"))
    assert sidecars
    config = json.loads(sidecars[0].read_text())["config"]
    assert set(config) == _option_dests(command) - {"out_dir", "format", "workers"}


def test_convergence_outputs(tmp_path):
    out = tmp_path / "c"
    assert run([
        "convergence", "--target", "xor", "--grids", "1", "2", "3",
        "--seed", "3", "--replications", "3", "--n-train", "1500",
        "--n-eval", "400", "--out-dir", str(out),
    ]) == 0
    lines = read(out / "convergence.csv").strip().splitlines()
    assert lines[0] == "n,analytic_ts,ets_mean,ets_ci90_halfwidth"
    rows = {int(r.split(",")[0]): [float(v) for v in r.split(",")[1:]] for r in lines[1:]}
    assert rows[1][0] == pytest.approx(0.5, abs=1e-12)
    assert rows[2][0] == pytest.approx(1.0, abs=1e-12)  # even grid refines xor
    assert rows[3][0] == pytest.approx(13 / 18, abs=1e-12)


def test_convergence_runs_grids_up_to_the_grid_limit(tmp_path, capsys):
    # A grid source is its partition alone: no grid task, and so no
    # cells x classes label table, is built for it.
    out = tmp_path / "c"
    argv = ["convergence", "--target", "xor", "--seed", "1", "--replications", "2",
            "--n-train", "200", "--n-eval", "100", "--workers", "1", "--out-dir", str(out)]
    assert run([*argv, "--grids", "91", "256"]) == 0
    points = json.loads(read(out / "convergence.json"))["points"]
    assert [p["n"] for p in points] == [91, 256]
    assert points[1]["analytic_ts"] == 1.0  # an even grid refines xor
    assert run([*argv, "--grids", "257"]) == 2
    assert "grid resolution 257 exceeds the limit of 256" in capsys.readouterr().err


def test_transfer_efficiency_outputs(tmp_path):
    out = tmp_path / "t"
    assert run([
        "transfer-efficiency", "--source", "quads", "--target", "xor",
        "--seed", "5", "--replications", "5", "--n-target", "100",
        "--n-source", "2000", "--n-eval", "800", "--depth", "2",
        "--out-dir", str(out),
    ]) == 0
    lines = read(out / "transfer_efficiency.csv").strip().splitlines()
    header = lines[0].split(",")
    assert "scratch_risk_mean" in header and "te_adapted_over_scratch" in header
    row = dict(zip(header, lines[1].split(",")))
    # baseline scratch risks are part of the report
    assert float(row["scratch_risk_mean"]) > 0
    assert float(row["te_adapted_over_scratch"]) < 1
    payload = json.loads(read(out / "transfer_efficiency.json"))
    assert payload["experiments"][0]["te_adapted_over_scratch"] < 1


def test_transfer_efficiency_zero_adapted_risk(tmp_path):
    # A quads-trained tree refit on xor targets can make no errors at all;
    # the report must still be written, not fail on a division by zero.
    # The zero risk holds by construction, not by a lucky seed.  No Gini
    # gain exceeds --min-gain 1, so every source split is the midpoint
    # fallback, and on the domain (-1, 1, -1, 1) the depth-2 source tree
    # cuts exactly on the axes: each of its regions holds one xor class.
    # --min-leaf 60 keeps the 100-row scratch tree at one leaf, whose
    # posterior cannot outvote a pure region in the summed posteriors.
    out = tmp_path / "t"
    assert run([
        "transfer-efficiency", "--source", "quads", "--target", "xor",
        "--n-target", "100", "--n-eval", "500", "--depth", "2", "--min-leaf", "60",
        "--min-gain", "1", "--replications", "4", "--seed", "5", "--workers", "1",
        "--out-dir", str(out),
    ]) == 0
    experiment = json.loads(read(out / "transfer_efficiency.json"))["experiments"][0]
    assert experiment["adapted_risk"]["mean"] == 0.0
    assert experiment["scratch_risk"]["mean"] > 0.0
    assert experiment["te_adapted_over_scratch"] == 0.0


def test_transfer_efficiency_zero_scratch_risk(tmp_path):
    # With --min-gain 1 every split is the midpoint fallback, so the
    # depth-2 scratch tree also cuts on the axes and makes no error on
    # xor: with a scratch risk of 0 there is no ratio to report.
    out = tmp_path / "t"
    assert run([
        "transfer-efficiency", "--source", "quads", "--target", "xor",
        "--n-target", "100", "--n-eval", "500", "--depth", "2", "--min-gain", "1",
        "--replications", "2", "--seed", "5", "--out-dir", str(out),
    ]) == 0
    experiment = json.loads(read(out / "transfer_efficiency.json"))["experiments"][0]
    assert experiment["scratch_risk"]["mean"] == 0.0
    assert experiment["te_adapted_over_scratch"] is None
    header, row = read(out / "transfer_efficiency.csv").strip().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["te_adapted_over_scratch"] == ""


def test_ets_csv_ranking(tmp_path):
    rng = np.random.default_rng(0)

    def blobs(seed, perm=None, shuffle=False):
        r = np.random.default_rng(seed)
        centers = np.array([[0, 0, 0], [3, 0, 1], [0, 3, -1]], float)
        y = r.integers(0, 3, 600)
        X = centers[y] + r.normal(0, 0.7, size=(600, 3))
        if perm is not None:
            y = np.asarray(perm)[y]
        if shuffle:
            y = r.permutation(y)
        return T.SampleSet(X, y)

    tgt = tmp_path / "target.csv"
    write_samples_csv(blobs(1), str(tgt))
    copy = tmp_path / "copy.csv"
    shutil.copy(tgt, copy)
    perm = tmp_path / "perm.csv"
    write_samples_csv(blobs(2, perm=[2, 0, 1]), str(perm))
    shuf = tmp_path / "shuffled.csv"
    write_samples_csv(blobs(3, shuffle=True), str(shuf))
    out = tmp_path / "rank"
    assert run([
        "ets-csv", "--target-csv", str(tgt),
        "--source-csv", str(copy), str(perm), str(shuf),
        "--seed", "11", "--depth", "6", "--out-dir", str(out),
    ]) == 0
    lines = read(out / "ets_ranking.csv").strip().splitlines()
    ranked = [r.split(",")[1] for r in lines[1:]]
    ets_vals = [float(r.split(",")[2]) for r in lines[1:]]
    assert ranked[0] == str(copy)
    assert ets_vals[0] >= 0.9
    # permuted labels of the target outrank randomized labels
    assert ranked.index(str(perm)) < ranked.index(str(shuf))


def test_ets_csv_dimension_mismatch(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    rng = np.random.default_rng(1)
    write_samples_csv(T.SampleSet(rng.normal(size=(50, 3)), rng.integers(0, 2, 50)), str(a))
    write_samples_csv(T.SampleSet(rng.normal(size=(50, 2)), rng.integers(0, 2, 50)), str(b))
    assert run(["ets-csv", "--target-csv", str(a), "--source-csv", str(b),
                "--seed", "1", "--out-dir", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("row", ["nan,0.2,1,1", "0.1,inf,1,1", "0.1,0.2,1.7,1", "0.1,0.2,1,0.5",
                                 "foo,0.3,1,1"])
def test_ets_csv_rejects_bad_sample_values(tmp_path, capsys, row):
    good = tmp_path / "good.csv"
    rng = np.random.default_rng(3)
    write_samples_csv(T.SampleSet(rng.normal(size=(40, 2)), np.arange(40) % 2), str(good))
    bad = tmp_path / "bad.csv"
    bad.write_text(good.read_text() + row + "\n")
    for target, source in ((bad, good), (good, bad)):
        assert run(["ets-csv", "--target-csv", str(target), "--source-csv", str(source),
                    "--seed", "1", "--out-dir", str(tmp_path / "o")]) == 2
        assert f"{bad}:42:" in capsys.readouterr().err


@pytest.mark.parametrize("split", ["0", "1", "1.5", "nan"])
def test_ets_csv_split_outside_0_1_exits_2(tmp_path, capsys, split):
    assert run([*FAST_RUNS["ets-csv"], "--seed", "1", "--split", split,
                "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: train split fraction must lie in (0, 1)\n"
    assert not (tmp_path / "o").exists()


def test_ets_csv_empty_and_single_class(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("f0,f1,y,t\n")
    assert run(["ets-csv", "--target-csv", str(empty), "--source-csv", str(empty),
                "--seed", "1", "--out-dir", str(tmp_path / "o")]) == 2
    single = tmp_path / "single.csv"
    rng = np.random.default_rng(2)
    write_samples_csv(T.SampleSet(rng.normal(size=(40, 2)), np.zeros(40, dtype=int)),
                      str(single))
    assert run(["ets-csv", "--target-csv", str(single), "--source-csv", str(single),
                "--seed", "1", "--out-dir", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("learner", [["--learner", "histogram", "--bins", "2"], []])
def test_ets_csv_refuses_features_whose_range_overflows(tmp_path, capsys, learner):
    # Features uniform in +-1e308 span more than the largest float: the
    # histogram's bounds became +-inf and put every row in one bin.
    paths = []
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        X = np.column_stack([rng.uniform(-1, 1, 300), rng.uniform(-1, 1, 300) * 1e308])
        paths.append(tmp_path / f"{seed}.csv")
        write_samples_csv(T.SampleSet(X, (X[:, 1] > 0).astype(int)), str(paths[-1]))
    assert run(["ets-csv", "--target-csv", str(paths[0]), "--source-csv", str(paths[1]),
                *learner, "--seed", "1", "--out-dir", str(tmp_path / "o")]) == 2
    assert "dimension 1" in capsys.readouterr().err


def test_validate_command(tmp_path):
    good = tmp_path / "xor.json"
    good.write_text(json.dumps(T.xor().to_json_dict()))
    assert run(["validate", str(good)]) == 0
    part = tmp_path / "grid.json"
    with open(part, "w", encoding="utf-8") as fh:
        json.dump(T.make_grid_partition(3, (-1, 1, -1, 1)).to_json_dict(), fh, indent=2)
    assert run(["validate", str(part)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"domain": [0, 1, 0, 1], "cells": "oops"}))
    assert run(["validate", str(bad)]) == 2
    assert run(["validate", str(tmp_path / "missing.json")]) == 2
    overlapping = tmp_path / "overlap.json"
    overlapping.write_text(json.dumps({
        "domain": [0, 1, 0, 1],
        "cells": [
            [[0, 0], [0.6, 0], [0.6, 1], [0, 1]],
            [[0.4, 0], [1, 0], [1, 1], [0.4, 1]],
        ],
    }))
    assert run(["validate", str(overlapping)]) == 2


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_analytic_matrix_rejects_bad_tie_tol(tmp_path, capsys, tol):
    code = run(["analytic-matrix", "--dists", "xor", "quads", f"--tie-tol={tol}",
                "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "tie_tol" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_validate_partition_far_from_the_origin(tmp_path, capsys):
    part = tmp_path / "far.json"
    domain = (1e8, 1e8 + 2, 1e8, 1e8 + 2)
    part.write_text(json.dumps(T.make_grid_partition(2, domain).to_json_dict()))
    assert run(["validate", str(part)]) == 0
    assert capsys.readouterr().out == (
        "coverage_gap=0 max_overlap=0 max_outside=0\nOK: partition with 4 cells\n")


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_validate_rejects_bad_tol(tmp_path, capsys, tol):
    dist = tmp_path / "xor.json"
    dist.write_text(json.dumps(T.xor().to_json_dict()))
    part = tmp_path / "grid.json"
    with open(part, "w", encoding="utf-8") as fh:
        json.dump(T.make_grid_partition(3, (-1, 1, -1, 1)).to_json_dict(), fh, indent=2)
    for path in (dist, part):
        assert run(["validate", str(path), f"--tol={tol}"]) == 2
        err = capsys.readouterr().err
        assert "--tol" in err and "failed validation" not in err


@pytest.mark.parametrize("labels", [False, True])
def test_validate_honours_tol_for_both_file_shapes(tmp_path, capsys, labels):
    # Two cells of the unit square with a coverage gap of 2e-10 between them.
    data = {"domain": [0, 1, 0, 1],
            "cells": [[[0, 0], [0.5, 0], [0.5, 1], [0, 1]],
                      [[0.5 + 2e-10, 0], [1, 0], [1, 1], [0.5 + 2e-10, 1]]]}
    if labels:
        data.update(labels=[[1.0, 0.0], [0.0, 1.0]], mass=[0.5, 0.5])
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(data))
    assert run(["validate", str(path)]) == 0
    assert run(["validate", str(path), "--tol", "1e-12"]) == 2
    shape = "distribution" if labels else "partition"
    assert capsys.readouterr().err == f"error: {path}: {shape} failed validation\n"


@pytest.mark.parametrize("flag,name",
                         [("--min-leaf=0", "--min-leaf"), ("--min-gain=nan", "min_gain")])
def test_bad_tree_settings_exit_2(tmp_path, capsys, flag, name):
    assert run(["empirical-matrix", "--dists", "xor", "--seed", "1", "--replications", "2",
                "--n-train", "50", "--n-eval", "50", "--workers", "1", flag,
                "--out-dir", str(tmp_path / "o")]) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("learner", ["tree", "histogram"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_min_gain_exit_2_for_either_learner(tmp_path, capsys, learner, value):
    assert run(["empirical-matrix", "--dists", "xor", "--seed", "1", "--replications", "2",
                "--n-train", "50", "--n-eval", "50", "--workers", "1", "--learner", learner,
                f"--min-gain={value}", "--out-dir", str(tmp_path / "o")]) == 2
    assert "--min-gain" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_format_rejected(tmp_path):
    assert run(["analytic-matrix", "--format", "pdf", "--out-dir", str(tmp_path)]) == 2


def test_sidecars_written_for_all_outputs(tmp_path):
    out = tmp_path / "all"
    assert run([
        "empirical-matrix", "--seed", "2", "--replications", "2", "--n-train", "400",
        "--n-eval", "200", "--depth", "2", "--format", "csv,json,svg",
        "--out-dir", str(out),
    ]) == 0
    produced = sorted(os.listdir(out))
    data_files = [f for f in produced if not f.endswith(".meta.json")]
    for f in data_files:
        assert f + ".meta.json" in produced, f


@pytest.mark.parametrize("command", ["analytic-matrix", "validate"])
@pytest.mark.parametrize("field,patch", [
    ("domain", {"domain": [-1, 1, -1]}),
    ("labels", {"labels": "ab"}),
    ("labels", {"labels": [[1.0, 0.0], [0.0], [1.0, 0.0], [0.0, 1.0]]}),
    ("mass", {"mass": ["x"]}),
], ids=["short-domain", "string-labels", "ragged-labels", "string-mass"])
def test_malformed_distribution_json_exits_2_naming_file_and_field(tmp_path, capsys, command,
                                                                    field, patch):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**T.xor().to_json_dict(), **patch}))
    argv = (["analytic-matrix", "--dists", str(bad), "xor", "--out-dir", str(tmp_path / "o")]
            if command == "analytic-matrix" else ["validate", str(bad)])
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and f"JSON field {field!r}" in err


@pytest.mark.parametrize("field", ["mass", "labels"])
def test_tolerated_negative_probabilities_run_in_every_command(tmp_path, capsys, field):
    """Values in [-PROB_TOL, 0) pass ``validate``; the sampled commands must
    run them too (Generator.choice refused them before they were stored as 0)."""
    doc = json.loads((INPUTS / "distribution.json").read_text())
    if field == "mass":
        doc["mass"] = [0.1, 0.2, 0.7 + 5e-10, -5e-10]
    else:
        doc["labels"][0] = [1.0 + 5e-10, -5e-10]
    path = tmp_path / "it.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 0
    assert "OK" in capsys.readouterr().out
    assert run(["empirical-matrix", "--dists", str(path), "--learner", "histogram", "--bins", "2",
                "--n-train", "50", "--n-eval", "50", "--replications", "2", "--seed", "1",
                "--out-dir", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "ets_mean.csv").exists()


@pytest.mark.parametrize("command", ["analytic-matrix", "validate"])
@pytest.mark.parametrize("field,index,value", [
    ("labels", (0, 1), float("nan")),
    ("mass", (2,), float("nan")),
    ("mass", (2,), float("inf")),
    ("mass", (2,), float("-inf")),
], ids=["nan-label", "nan-mass", "inf-mass", "minus-inf-mass"])
def test_non_finite_probabilities_exit_2_naming_the_file(tmp_path, capsys, command, field,
                                                         index, value):
    doc = json.loads((INPUTS / "distribution.json").read_text())
    row = doc[field][index[0]] if len(index) == 2 else doc[field]
    row[index[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = (["analytic-matrix", "--dists", str(bad), "--out-dir", str(tmp_path / "o")]
            if command == "analytic-matrix" else ["validate", str(bad)])
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "must be finite" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["analytic-matrix", "validate"])
@pytest.mark.parametrize("field,value,message", [
    ("labels", [[1.0, 0.0]] * 3, "need one class-probability vector per cell"),
    ("mass", [0.5, 0.5], "need one marginal mass per cell"),
    ("labels", [[0.5, 0.4], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]],
     "each class-probability vector must sum to 1"),
], ids=["label-rows", "mass-count", "row-sum"])
def test_a_table_that_does_not_fit_its_cells_exits_2_naming_the_file(tmp_path, capsys, command,
                                                                     field, value, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**T.xor().to_json_dict(), field: value}))
    argv = (["analytic-matrix", "--dists", str(bad), "--out-dir", str(tmp_path / "o")]
            if command == "analytic-matrix" else ["validate", str(bad)])
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not (tmp_path / "o").exists()


def test_a_name_that_is_not_a_string_exits_2_naming_the_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**T.xor().to_json_dict(), "name": 5}))
    assert run(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "JSON field 'name'" in err


@pytest.mark.parametrize("command", ["analytic-matrix", "validate"])
@pytest.mark.parametrize("name,code", [("a\u0001b", "0001"), ("a\ud800b", "D800"),
                                       ("\uffff", "FFFF")], ids=["control", "surrogate", "ffff"])
def test_a_name_xml_cannot_carry_exits_2_naming_the_field(tmp_path, capsys, command, name, code):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**T.xor().to_json_dict(), "name": name}))
    argv = (["analytic-matrix", "--dists", str(bad), "--format", "svg",
             "--out-dir", str(tmp_path / "o")] if command == "analytic-matrix"
            else ["validate", str(bad)])
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and f"JSON field 'name' holds U+{code}" in err
    assert not (tmp_path / "o").exists()


def test_grid_with_an_absurd_label_table_exits_2_before_allocating(tmp_path, capsys):
    assert run(["analytic-matrix", "--dists", "grid(256)", "xor",
                "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "'grid(256)'" in err and "exceeds the limit" in err
    assert not (tmp_path / "o").exists()


_QUICK = ["--seed", "1", "--replications", "2", "--n-eval", "50", "--workers", "1"]
# command -> its argv with the input under test as {bad}, a good sample CSV as
# {good} and the output directory as {out}
_READERS = {
    "validate": ["validate", "{bad}"],
    "analytic-matrix": ["analytic-matrix", "--dists", "{bad}", "--out-dir", "{out}"],
    "empirical-matrix": ["empirical-matrix", "--dists", "xor", "{bad}", "--n-train", "50",
                         *_QUICK, "--out-dir", "{out}"],
    "convergence": ["convergence", "--target", "{bad}", "--grids", "1", "--n-train", "50",
                    *_QUICK, "--out-dir", "{out}"],
    "transfer-efficiency-source": ["transfer-efficiency", "--source", "{bad}", "--target", "xor",
                                   "--n-source", "50", *_QUICK, "--out-dir", "{out}"],
    "transfer-efficiency-target": ["transfer-efficiency", "--source", "xor", "--target", "{bad}",
                                   "--n-source", "50", *_QUICK, "--out-dir", "{out}"],
    "ets-csv": ["ets-csv", "--target-csv", "{bad}", "--source-csv", "{good}", "--seed", "1",
                "--out-dir", "{out}"],
    "ets-csv-source": ["ets-csv", "--target-csv", "{good}", "--source-csv", "{good}", "{bad}",
                       "--seed", "1", "--out-dir", "{out}"],
}
# fault -> the bytes of a bad JSON file and of a bad sample CSV (None: no file;
# a directory for "directory"); a CSV has no top level to get wrong
_FAULTS = {
    "missing": (None, None),
    "directory": (None, None),
    "not-utf-8": (b"\xff{}\n", b"\xff{}\n"),
    "not-parsable": (b"{not json", b"hello, world\n"),
    "not-an-object": (b"[1, 2]", None),
    "bad-field": (json.dumps({**T.xor().to_json_dict(), "mass": ["x"]}).encode(),
                  b"f0,f1,y,t\n0.5,0.5,-1,1\n"),
    "missing-field": (json.dumps({k: v for k, v in T.xor().to_json_dict().items()
                                  if k != "cells"}).encode(), b"1,1\n0,1\n"),
}
# fault -> what the message says of a JSON file and of a sample CSV
_FAULT_MESSAGES = {
    "not-an-object": ("must be a JSON object, not list", None),
    "missing-field": ("JSON field 'cells' is missing",
                      "sample CSV needs at least one feature, y and t columns"),
}


@pytest.mark.parametrize("command,kind", [
    (command, kind) for command in _READERS for kind in _FAULTS
    if not (command.startswith("ets-csv") and kind == "not-an-object")
], ids=lambda v: v)
def test_unreadable_input_exits_2_naming_the_file(tmp_path, capsys, command, kind):
    is_csv = command.startswith("ets-csv")
    bad = tmp_path / ("t.csv" if is_csv else "d.json")
    if kind == "directory":
        bad.mkdir()
    elif kind != "missing":
        bad.write_bytes(_FAULTS[kind][is_csv])
    good = tmp_path / "s.csv"
    write_samples_csv(T.SampleSet(np.zeros((4, 2)), np.arange(4) % 2), good)
    out = tmp_path / "o"
    argv = [a.format(bad=bad, good=good, out=out) for a in _READERS[command]]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:")  # a CSV line adds ":<line>"
    assert _FAULT_MESSAGES.get(kind, ("", ""))[is_csv] in err
    assert not out.exists()


# Two half cells of a domain whose x extent, 2e308, is past the largest float.
_HUGE_DOMAIN = {"domain": [-1e308, 1e308, -1, 1],
                "cells": [[[-1e308, -1], [0, -1], [0, 1], [-1e308, 1]],
                          [[0, -1], [1e308, -1], [1e308, 1], [0, 1]]],
                "labels": [[1.0, 0.0], [0.0, 1.0]], "mass": [0.5, 0.5], "name": "huge"}


@pytest.mark.parametrize("argv", [
    ["analytic-matrix"],
    ["empirical-matrix", "--learner", "histogram", "--bins", "2", "--n-train", "50", *_QUICK],
], ids=lambda a: a[0])
def test_a_domain_whose_extent_overflows_exits_2_naming_the_field(tmp_path, capsys, argv):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_HUGE_DOMAIN))
    out = tmp_path / "o"
    assert run([argv[0], "--dists", str(path), *argv[1:], "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: JSON field 'domain': domain box extent and area must be finite\n")
    assert not out.exists()


def test_a_cell_whose_area_overflows_exits_2_naming_the_field(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({**_HUGE_DOMAIN, "domain": [-1, 1, -1, 1], "cells": [
        [[-1, -1], [0, -1], [0, 1], [-1, 1]], [[0, -1], [1e308, -1], [1e308, 1], [0, 1]]]}))
    out = tmp_path / "o"
    assert run(["analytic-matrix", "--dists", str(path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: JSON field 'cells': polygon extent and area must be finite\n")
    assert not out.exists()


def test_validate_checks_tol_before_opening_the_file(tmp_path, capsys):
    assert run(["validate", str(tmp_path / "missing.json"), "--tol", "nan"]) == 2
    assert capsys.readouterr().err.startswith("error: --tol must be finite")


def _write_task(path, X, y):
    write_samples_csv(T.SampleSet(np.asarray(X, dtype=float), np.asarray(y)), path)
    return str(path)


@pytest.mark.parametrize("fault", ["one-class-source", "too-few-rows", "three-features"])
def test_ets_csv_content_refusals_name_the_file(tmp_path, capsys, fault):
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, (40, 2))
    target = _write_task(tmp_path / "target.csv", X, (X[:, 0] > 0).astype(int))
    sources = [_write_task(tmp_path / f"s{i}.csv", X, (X[:, i % 2] > 0).astype(int))
               for i in range(3)]
    if fault == "one-class-source":
        bad = sources[1] = _write_task(tmp_path / "one-class.csv", X, np.zeros(40, dtype=int))
    elif fault == "too-few-rows":
        bad = target = _write_task(tmp_path / "tiny.csv", X[:2], [0, 1])
    else:
        bad = sources[2] = _write_task(tmp_path / "wide.csv", np.hstack([X, X[:, :1]]),
                                       (X[:, 0] > 0).astype(int))
    out = tmp_path / "o"
    split = ["--split", "0.9"] if fault == "too-few-rows" else []
    assert run(["ets-csv", "--target-csv", target, "--source-csv", *sources, *split,
                "--seed", "1", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--target-csv", "--source-csv"])
def test_ets_csv_path_that_is_not_utf8_exits_2_naming_the_argument(tmp_path, capsys, flag):
    # argv decodes the byte 0xff to a lone surrogate, which no output can hold
    bad = os.fsdecode(os.fsencode(tmp_path) + b"/src\xff.csv")
    good = tmp_path / "good.csv"
    write_samples_csv(T.SampleSet(np.zeros((40, 2)), np.arange(40) % 2), good)
    shutil.copy(good, bad)
    paths = {"--target-csv": str(good), "--source-csv": str(good), flag: bad}
    out = tmp_path / "o"
    assert run(["ets-csv", "--target-csv", paths["--target-csv"],
                "--source-csv", paths["--source-csv"], "--seed", "1", "--out-dir", str(out)]) == 2
    assert f"{flag}: path " in capsys.readouterr().err
    assert not out.exists()


def test_distribution_names_are_quoted_in_csv_and_escaped_in_svg(tmp_path, capsys):
    names = ["a,b", 'x<y&z "q"']
    paths = []
    for i, name in enumerate(names):
        paths.append(tmp_path / f"d{i}.json")
        paths[-1].write_text(json.dumps({**T.xor().to_json_dict(), "name": name}))
    out = tmp_path / "o"
    assert run(["analytic-matrix", "--dists", *map(str, paths), "--format", "csv,svg",
                "--out-dir", str(out)]) == 0
    text = read(out / "ts.csv")
    rows = list(csv.reader(text.splitlines()))
    assert rows == [["target\\source", *names], [names[0], "1", "1"], [names[1], "1", "1"]]
    stdout = capsys.readouterr().out.splitlines()
    assert stdout[1:4] == ["  " + line for line in text.splitlines()]
    svg = minidom.parse(str(out / "ts_heatmap.svg"))
    labels = [t.firstChild.data for t in svg.getElementsByTagName("text")]
    assert labels[:4] == ["ts (rows: target)", *names, names[0]]


def _on_glibc():
    try:
        return sys.platform.startswith("linux") and bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError):
        return False


# Runs one CLI command, then prints the minor page faults of 20 large draws.
_DRAW_FAULTS = """
import resource, sys
import numpy as np
from tasksim import cli
from tasksim.distributions import sample, xor
assert cli.main(["validate", sys.argv[1]]) == 0
dist, rng = xor(), np.random.default_rng(0)
sample(dist, 7000, rng)  # builds the sampling tables
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    sample(dist, 7000, rng)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _on_glibc(), reason="the heap setting is made on glibc only")
def test_cli_process_draws_without_refaulting_freed_memory():
    # glibc's default trimming hands each 7,000-row draw's ~1 MB of freed
    # temporaries back to the kernel: over 2,000 faults in 20 draws.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", _DRAW_FAULTS, str(INPUTS / "distribution.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) < 100


def test_cli_runs_when_mallopt_cannot_be_found(tmp_path, monkeypatch):
    def no_libc(name):
        raise OSError("no C library")

    monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
    cli._keep_freed_heap.cache_clear()
    try:
        assert run(["analytic-matrix", "--dists", "xor", "fxor", "--out-dir", str(tmp_path)]) == 0
    finally:
        cli._keep_freed_heap.cache_clear()
    assert (tmp_path / "ts.csv").exists()
