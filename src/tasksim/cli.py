"""Command-line harness for analytic and empirical task-similarity studies.

Subcommands
-----------
analytic-matrix      exact directed TS/ATS matrices over distributions
empirical-matrix     ETS mean/CI matrix from seeded replications
convergence          analytic TS and histogram-learner ETS along grid refinements
transfer-efficiency  adapted vs from-scratch risk ratios
ets-csv              rank source CSV datasets by ETS against a target CSV
validate             lint a partition/distribution JSON file

Every command writes CSV and/or JSON into --out-dir, plus a .meta.json
sidecar carrying the full configuration and a version string.  Outputs
are byte-identical across runs for a fixed --seed: there is no wall-clock
seeding and numbers are printed with 17 significant digits.

Exit codes: 0 success, 1 runtime failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .distributions import (
    BUILTIN_NAMES,
    DistributionError,
    PartitionDistribution,
    SampleSet,
    builtin,
    grid_distribution,
    load_distribution,
    read_samples_csv,
    validate_distribution,
)
from .empirical import (
    EmpiricalError,
    LearnerConfig,
    convergence_study,
    empirical_matrix,
    ets,
    transfer_experiment,
)
from .geometry import GeometryError, Partition, check_tolerance, validate_partition
from .learners import LearnerError, adapt_to_target
from .similarity import analytic_matrix, near_best

FLOAT_FMT = "%.17g"

# Deep enough that independently trained models of the same task agree on
# >= 90% of fresh patterns for every builtin; shallow trees represent the
# rotated task too ambiguously for that.
DEFAULT_TREE_DEPTH = 8


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


def version_string() -> str:
    return f"tasksim-v{__version__}"


# ---------------------------------------------------------------------------
# config


@dataclass
class ExperimentConfig:
    distributions: tuple[str, ...] = ("xor", "quads", "rxor", "fxor")
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    n_train: int = 5000
    n_eval: int = 2000
    replications: int = 30
    seed: Optional[int] = None
    tie_tol: float = 1e-9
    out_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json")
    workers: int = 1
    in_sample: bool = False

    def validate_counts(self) -> None:
        for name in ("n_train", "n_eval", "replications"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be positive")


_RXOR_RE = re.compile(r"^rxor[(:]?\s*([0-9.]+)\s*\)?$")


def resolve_distribution(spec: str) -> PartitionDistribution:
    """Builtin name ('xor', 'rxor(30)', 'grid(4)') or a JSON file path."""
    s = spec.strip()
    low = s.lower()
    if low.endswith(".json") or os.path.sep in s:
        if not os.path.exists(s):
            raise InputError(f"distribution file not found: {s}")
        try:
            return load_distribution(s)
        except (json.JSONDecodeError, GeometryError, DistributionError, KeyError) as exc:
            raise InputError(f"malformed distribution JSON {s}: {exc}") from exc
    m = _RXOR_RE.match(low)
    if m:
        try:
            return builtin("rxor", theta_deg=float(m.group(1)))
        except ValueError as exc:  # a malformed angle or one out of range
            raise InputError(f"bad rotation angle in {spec!r}: {exc}") from exc
    gm = re.match(r"^grid[(:]?\s*(\d+)\s*\)?$", low)
    if gm:
        return grid_distribution(int(gm.group(1)))
    if low in BUILTIN_NAMES:
        return builtin(low)
    raise InputError(
        f"unknown distribution {spec!r}; expected one of {BUILTIN_NAMES}, "
        "'rxor(<degrees>)', 'grid(<n>)' or a JSON path"
    )


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return FLOAT_FMT % float(x)
    return str(x)


def _csv_line(row: Sequence) -> str:
    return ",".join(_fmt(v) for v in row)


def csv_text(rows: Sequence[Sequence]) -> str:
    return "".join(_csv_line(row) + "\n" for row in rows)


def json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_sidecar(path: str, command: str, config: dict) -> None:
    _write(path + ".meta.json", json_text({
        "command": command,
        "version": version_string(),
        "config": config,
        "config_hash": config_hash(config),
    }))


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def matrix_rows(names: Sequence[str], values: np.ndarray) -> list[list]:
    rows: list[list] = [["target\\source", *names]]
    for i, name in enumerate(names):
        rows.append([name, *values[i].tolist()])
    return rows


def _heat_color(v: float) -> str:
    """Fixed [0, 1] color scale from dark blue to warm yellow."""
    v = min(1.0, max(0.0, v))
    stops = [(0.0, (25, 35, 90)), (0.5, (45, 115, 140)), (1.0, (250, 220, 80))]
    for (a, ca), (b, cb) in zip(stops, stops[1:]):
        if v <= b:
            t = (v - a) / (b - a)
            rgb = tuple(round(x + t * (y2 - x)) for x, y2 in zip(ca, cb))
            return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"
    return "rgb(250,220,80)"


def heatmap_svg(names: Sequence[str], values: np.ndarray, title: str) -> str:
    m = len(names)
    cell, margin = 70, 90
    width = margin + m * cell + 20
    height = margin + m * cell + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{margin}" y="24" font-size="16" font-family="sans-serif">{title}</text>',
    ]
    for j, name in enumerate(names):
        x = margin + j * cell + cell / 2
        parts.append(
            f'<text x="{x:g}" y="{margin - 8}" font-size="11" text-anchor="middle" '
            f'font-family="sans-serif">{name}</text>'
        )
    for i, name in enumerate(names):
        y = margin + i * cell + cell / 2
        parts.append(
            f'<text x="{margin - 8}" y="{y:g}" font-size="11" text-anchor="end" '
            f'font-family="sans-serif">{name}</text>'
        )
        for j in range(m):
            v = float(values[i, j])
            x0, y0 = margin + j * cell, margin + i * cell
            parts.append(
                f'<rect x="{x0}" y="{y0}" width="{cell}" height="{cell}" '
                f'fill="{_heat_color(v)}" stroke="white"/>'
            )
            tcol = "white" if v < 0.6 else "black"
            parts.append(
                f'<text x="{x0 + cell / 2:g}" y="{y0 + cell / 2 + 4:g}" font-size="13" '
                f'text-anchor="middle" fill="{tcol}" font-family="sans-serif">{v:.3f}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit(cfg: ExperimentConfig, command: str, config: dict, outputs: dict,
         stdout: Sequence[str]) -> int:
    """Write the outputs whose extension is in --format, then print stdout.

    outputs maps a file name in --out-dir to its content: CSV rows for
    ``.csv``, a JSON payload for ``.json`` and ``(names, values, title)``
    for an ``.svg`` heatmap.  Every file written gets its sidecar.
    """
    render = {"csv": csv_text, "json": json_text, "svg": lambda c: heatmap_svg(*c)}
    os.makedirs(cfg.out_dir, exist_ok=True)
    for name, content in outputs.items():
        ext = os.path.splitext(name)[1][1:]
        if ext in cfg.formats:
            path = os.path.join(cfg.out_dir, name)
            _write(path, render[ext](content))
            write_sidecar(path, command, config)
    for line in stdout:
        print(line)
    return 0


def _with_hash(payload: dict, config: dict) -> dict:
    return dict(payload, config=config, config_hash=config_hash(config))


# ---------------------------------------------------------------------------
# commands


def cmd_analytic_matrix(cfg: ExperimentConfig) -> int:
    dists = [resolve_distribution(s) for s in cfg.distributions]
    result = analytic_matrix(dists, tie_tol=cfg.tie_tol)
    names = result.names
    outputs: dict = {}
    stdout: list[str] = []
    for stat, values in (("ts", result.ts_values), ("ats", result.ats_values)):
        rows = matrix_rows(names, values)
        outputs[f"{stat}.csv"] = rows
        outputs[f"{stat}_heatmap.svg"] = (names, values, f"{stat} (rows: target)")
        stdout += [f"{stat}:", *("  " + _csv_line(row) for row in rows)]
    outputs["analytic.json"] = {
        "names": list(names),
        "ts": result.ts_values.tolist(),
        "ats": result.ats_values.tolist(),
        "ats_excluded_mass": result.excluded_mass.tolist(),
        "per_cell_profiles": [
            {"target": names[i], "source": names[j], "cells": _cells_payload(m, cfg.tie_tol)}
            for i, row in enumerate(result.masses)
            for j, m in enumerate(row)
        ],
    }
    return emit(cfg, "analytic-matrix", asdict(cfg), outputs, stdout)


def _cells_payload(masses: np.ndarray, tie_tol: float) -> list[dict]:
    rows = zip(masses.tolist(), near_best(masses, tie_tol), masses.sum(axis=1).tolist())
    return [
        {
            "source_cell": c,
            "mass_by_target_label": by_label,
            "argmax_labels": np.flatnonzero(ties).tolist(),
            "cell_total_mass": total,
        }
        for c, (by_label, ties, total) in enumerate(rows)
    ]


def cmd_empirical_matrix(cfg: ExperimentConfig) -> int:
    cfg.validate_counts()
    dists = [resolve_distribution(s) for s in cfg.distributions]
    report = empirical_matrix(
        dists,
        cfg.learner,
        n_train=cfg.n_train,
        n_eval=cfg.n_eval,
        replications=cfg.replications,
        base_seed=cfg.seed,
        in_sample=cfg.in_sample,
        workers=cfg.workers,
    )
    config = asdict(cfg)
    names = report.names
    pair_cols = [f"{t};{s}" for t in names for s in names]
    replication_rows: list[list] = [["replication", "seed", *pair_cols]]
    for r, seed_r in enumerate(report.seeds):
        replication_rows.append([r, seed_r, *report.per_replication[r].ravel().tolist()])
    mean_rows = matrix_rows(names, report.means)
    outputs = {
        "ets_mean.csv": mean_rows,
        "ets_ci90.csv": matrix_rows(names, report.ci_halfwidth),
        "ets_replications.csv": replication_rows,
        "ets_summary.json": _with_hash({
            "names": list(names),
            "ets_mean": report.means.tolist(),
            "ets_ci90_halfwidth": report.ci_halfwidth.tolist(),
            "seeds": list(report.seeds),
        }, config),
        "ets_heatmap.svg": (names, report.means, "ETS mean (rows: target)"),
    }
    stdout = ["ets mean:", *("  " + _csv_line(row) for row in mean_rows)]
    return emit(cfg, "empirical-matrix", config, outputs, stdout)


def cmd_convergence(cfg: ExperimentConfig, target_spec: str, grids: Sequence[int],
                    target_bins: int) -> int:
    cfg.validate_counts()
    if any(g < 1 for g in grids):
        raise InputError("grid sizes must be positive")
    target = resolve_distribution(target_spec)
    target_learner = LearnerConfig(kind="histogram", bins=target_bins)
    points = convergence_study(
        target,
        grids,
        target_learner,
        n_train=cfg.n_train,
        n_eval=cfg.n_eval,
        replications=cfg.replications,
        base_seed=cfg.seed,
        workers=cfg.workers,
    )
    config = dict(asdict(cfg), target=target_spec, grids=list(grids),
                  target_bins=target_bins)
    rows: list[list] = [["n", "analytic_ts", "ets_mean", "ets_ci90_halfwidth"]]
    for p in points:
        rows.append([p.n_bins, p.analytic_ts, p.ets_report.mean, p.ets_report.ci_halfwidth])
    payload = {
        "target": target.name,
        "points": [
            {"n": p.n_bins, "analytic_ts": p.analytic_ts, "ets": p.ets_report.to_dict()}
            for p in points
        ],
    }
    outputs = {"convergence.csv": rows, "convergence.json": _with_hash(payload, config)}
    return emit(cfg, "convergence", config, outputs, [_csv_line(row) for row in rows])


def cmd_transfer_efficiency(cfg: ExperimentConfig, source_spec: str, target_spec: str,
                            n_targets: Sequence[int], n_source: int) -> int:
    cfg.validate_counts()
    if n_source < 1 or any(n < 1 for n in n_targets):
        raise InputError("sample counts must be positive")
    source = resolve_distribution(source_spec)
    target = resolve_distribution(target_spec)
    reports = []
    for idx, n_t in enumerate(n_targets):
        reports.append(
            transfer_experiment(
                source,
                target,
                cfg.learner,
                n_target=n_t,
                n_source=n_source,
                n_eval=cfg.n_eval,
                replications=cfg.replications,
                base_seed=cfg.seed + 10000 * idx,
                workers=cfg.workers,
            )
        )
    config = dict(asdict(cfg), source=source_spec, target=target_spec,
                  n_targets=list(n_targets), n_source=n_source)
    rows: list[list] = [[
        "n_target", "n_source",
        "scratch_risk_mean", "scratch_risk_ci90",
        "adapted_risk_mean", "adapted_risk_ci90",
        "te_adapted_over_scratch",
    ]]
    for rep in reports:
        rows.append([
            rep.n_target, rep.n_source,
            rep.scratch.mean, rep.scratch.ci_halfwidth,
            rep.adapted.mean, rep.adapted.ci_halfwidth,
            rep.te_ratio,
        ])
    outputs = {
        "transfer_efficiency.csv": rows,
        "transfer_efficiency.json": _with_hash(
            {"experiments": [r.to_dict() for r in reports]}, config
        ),
    }
    return emit(cfg, "transfer-efficiency", config, outputs, [_csv_line(row) for row in rows])


def _load_task_csv(path: str) -> SampleSet:
    if not os.path.exists(path):
        raise InputError(f"sample CSV not found: {path}")
    try:
        data = read_samples_csv(path)
    except DistributionError as exc:
        raise InputError(str(exc)) from exc  # names the path (and line)
    return data


def _dense_code(samples: SampleSet) -> SampleSet:
    classes = np.unique(samples.y)
    if classes.size < 2:
        raise InputError("each task needs at least 2 classes")
    y = np.searchsorted(classes, samples.y)
    return SampleSet(samples.X, y, np.ones(len(samples), dtype=int))


def cmd_ets_csv(cfg: ExperimentConfig, target_csv: str, source_csvs: Sequence[str],
                split: float) -> int:
    if not 0.0 < split < 1.0:
        raise InputError("train split fraction must lie in (0, 1)")
    target = _dense_code(_load_task_csv(target_csv))
    sources = []
    for p in source_csvs:
        s = _dense_code(_load_task_csv(p))
        if s.dim != target.dim:
            raise InputError(
                f"dimension mismatch: {p} has {s.dim} features, target has {target.dim}"
            )
        sources.append((p, s))
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(target))
    n_train = max(1, int(round(split * len(target))))
    if n_train >= len(target) and not cfg.in_sample:
        raise InputError("target CSV too small for a held-out split")
    train = target[order[:n_train]]
    evalset = train if cfg.in_sample else target[order[n_train:]]
    k_t = int(target.y.max()) + 1
    target_model = cfg.learner.fit(train, num_classes=k_t)
    ranking = []
    for path, src in sources:
        k_s = int(src.y.max()) + 1
        model = cfg.learner.fit(src, num_classes=k_s)
        adapted = adapt_to_target(model, train, num_classes=k_t)
        est = ets(target_model, adapted, evalset)
        ranking.append((path, est.value, est.n_target_eval))
    ranking.sort(key=lambda r: (-r[1], r[0]))
    config = dict(asdict(cfg), target_csv=target_csv, source_csvs=list(source_csvs),
                  split=split)
    rows: list[list] = [["rank", "source", "ets", "n_eval"]]
    for rank, (path, value, n_eval) in enumerate(ranking, start=1):
        rows.append([rank, path, value, n_eval])
    payload = {
        "ranking": [
            {"rank": rank, "source": p, "ets": v, "n_eval": n} for rank, p, v, n in rows[1:]
        ],
    }
    outputs = {"ets_ranking.csv": rows, "ets_ranking.json": _with_hash(payload, config)}
    return emit(cfg, "ets-csv", config, outputs, [_csv_line(row) for row in rows])


def cmd_validate(path: str, tol: float) -> int:
    if not os.path.exists(path):
        raise InputError(f"file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from exc
    try:
        check_tolerance("--tol", tol)
        if "labels" in data:
            dist = PartitionDistribution.from_json_dict(data)
            issues = validate_distribution(dist, tol=tol)
            hard = [m for m in issues if m.startswith("partition fails")]
            for msg in issues:
                print(("ERROR: " if msg in hard else "WARNING: ") + msg)
            if hard:
                raise InputError("distribution failed validation")
            print(f"OK: distribution with {len(dist.partition.cells)} cells, "
                  f"{dist.num_classes} classes")
        else:
            part = Partition.from_json_dict(data)
            diag = validate_partition(part, tol=tol)
            print(
                f"coverage_gap={_fmt(diag.coverage_gap)} max_overlap={_fmt(diag.max_overlap)} "
                f"max_outside={_fmt(diag.max_outside)}"
            )
            if not diag.ok:
                raise InputError("partition failed validation")
            print(f"OK: partition with {len(part.cells)} cells")
    except (GeometryError, DistributionError, TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, empirical: bool) -> None:
    p.add_argument("--out-dir", default="out", help="output directory")
    p.add_argument("--format", default="csv,json",
                   help="comma-separated subset of csv,json,svg")
    p.add_argument("--tie-tol", type=float, default=1e-9,
                   help="absolute mass tolerance for argmax ties")
    if empirical:
        p.add_argument("--seed", type=int, required=True,
                       help="base seed; replication i uses seed+i")
        p.add_argument("--learner", choices=("tree", "histogram"), default="tree")
        p.add_argument("--depth", type=int, default=DEFAULT_TREE_DEPTH, help="tree depth")
        p.add_argument("--bins", type=int, default=2, help="histogram bins per dimension")
        p.add_argument("--min-leaf", type=int, default=1)
        p.add_argument("--min-gain", type=float, default=LearnerConfig().min_gain,
                       help="Gini gain below which the midpoint fallback split fires")
        p.add_argument("--n-train", type=int, default=5000)
        p.add_argument("--n-eval", type=int, default=2000)
        p.add_argument("--replications", type=int, default=30)
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                       help="parallel replication workers")
        p.add_argument("--in-sample", action="store_true",
                       help="score agreement on the training split (the literal "
                            "in-sample estimator) instead of a held-out split")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    formats = tuple(f.strip() for f in args.format.split(",") if f.strip())
    for f in formats:
        if f not in ("csv", "json", "svg"):
            raise InputError(f"unknown output format {f!r}")
    cfg = ExperimentConfig(out_dir=args.out_dir, formats=formats, tie_tol=args.tie_tol)
    if hasattr(args, "seed"):
        cfg.seed = args.seed
        cfg.learner = LearnerConfig(
            kind=args.learner,
            depth=args.depth,
            bins=args.bins,
            min_leaf=args.min_leaf,
            min_gain=args.min_gain,
        )
        cfg.n_train = args.n_train
        cfg.n_eval = args.n_eval
        cfg.replications = args.replications
        cfg.workers = args.workers
        cfg.in_sample = args.in_sample
    if hasattr(args, "dists"):
        cfg.distributions = tuple(args.dists)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tasksim",
        description="Task similarity between partition-defined classification tasks.",
    )
    parser.add_argument("--version", action="version", version=version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic-matrix", help="exact TS/ATS matrices")
    p.add_argument("--dists", nargs="+", default=["xor", "quads", "rxor", "fxor"],
                   help="builtin names, rxor(<deg>), grid(<n>) or JSON paths")
    _add_common(p, empirical=False)

    p = sub.add_parser("empirical-matrix", help="ETS matrix over replications")
    p.add_argument("--dists", nargs="+", default=["xor", "quads", "rxor", "fxor"])
    _add_common(p, empirical=True)

    p = sub.add_parser("convergence", help="TS and ETS along grid refinements")
    p.add_argument("--target", default="xor")
    p.add_argument("--grids", type=int, nargs="+", default=[1, 3, 5, 7, 9, 11],
                   help="grid resolutions for the source partitions")
    p.add_argument("--target-bins", type=int, default=2,
                   help="histogram bins for the fixed target model")
    _add_common(p, empirical=True)

    p = sub.add_parser("transfer-efficiency", help="adapted vs scratch risk ratios")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--n-target", type=int, nargs="+", default=[100],
                   help="target training sizes to sweep")
    p.add_argument("--n-source", type=int, default=5000)
    _add_common(p, empirical=True)

    p = sub.add_parser("ets-csv", help="rank source CSV datasets by ETS")
    p.add_argument("--target-csv", required=True)
    p.add_argument("--source-csv", dest="source_csvs", nargs="+", required=True)
    p.add_argument("--split", type=float, default=0.7,
                   help="target train fraction; the rest scores agreement")
    _add_common(p, empirical=True)

    p = sub.add_parser("validate", help="lint a partition/distribution JSON file")
    p.add_argument("path")
    p.add_argument("--tol", type=float, default=1e-9)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analytic-matrix":
            return cmd_analytic_matrix(_config_from_args(args))
        if args.command == "empirical-matrix":
            return cmd_empirical_matrix(_config_from_args(args))
        if args.command == "convergence":
            return cmd_convergence(_config_from_args(args), args.target, args.grids,
                                   args.target_bins)
        if args.command == "transfer-efficiency":
            return cmd_transfer_efficiency(_config_from_args(args), args.source,
                                           args.target, args.n_target, args.n_source)
        if args.command == "ets-csv":
            return cmd_ets_csv(_config_from_args(args), args.target_csv,
                               args.source_csvs, args.split)
        if args.command == "validate":
            return cmd_validate(args.path, args.tol)
        raise InputError(f"unknown command {args.command!r}")
    except (InputError, DistributionError, GeometryError, LearnerError, EmpiricalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - unexpected runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
