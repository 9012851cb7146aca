"""Command-line harness for analytic and empirical task-similarity studies.

Subcommands
-----------
analytic-matrix      exact directed TS/ATS matrices over distributions
empirical-matrix     ETS mean/CI matrix from seeded replications
convergence          analytic TS and histogram-learner ETS along grid refinements
transfer-efficiency  adapted vs from-scratch risk ratios
ets-csv              rank source CSV datasets by ETS against a target CSV
validate             lint a partition/distribution JSON file

Each command accepts only the options it reads.  It writes CSV and/or
JSON into --out-dir, plus a .meta.json sidecar per file holding the
version, the options that define the experiment and their hash: every
option except --out-dir, --format and --workers, which choose where a run
writes and how fast it runs, not its numbers.  Outputs are byte-identical
across runs for a fixed --seed and any --workers: there is no wall-clock
seeding and numbers are printed with 17 significant digits.

Exit codes: 0 success, 1 runtime failure, 2 invalid input.  Every input
file is read under one rule: a file that is missing, unreadable, not
UTF-8, not JSON (or not the sample CSV format) or holds a bad field exits
2 with a message that starts with its path.

On glibc the CLI keeps up to 64 MiB of freed heap for reuse instead of
returning it to the kernel after every array pass, so a draw does not
page-fault its temporaries back in; forked pool workers inherit this.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import os
import re
import sys
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

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
    read_json_object,
    read_samples_csv,
    validate_distribution,
)
from .empirical import (
    EmpiricalError,
    LearnerConfig,
    convergence_study,
    empirical_matrix,
    ets_table,
    transfer_experiment,
)
from .geometry import MAX_GRID, GeometryError, Partition, check_tolerance, validate_partition
from .learners import LearnerError
from .similarity import AnalyticMatrices, analytic_matrix, near_best

FLOAT_FMT = "%.17g"

# Deep enough that independently trained models of the same task agree on
# >= 90% of fresh patterns for every builtin; shallow trees represent the
# rotated task too ambiguously for that.
DEFAULT_TREE_DEPTH = 8


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


def version_string() -> str:
    return f"tasksim-v{__version__}"


_T = TypeVar("_T")
_RXOR_RE = re.compile(r"^rxor[(:]?\s*([0-9.]+)\s*\)?$")
_GRID_RE = re.compile(r"^grid[(:]?\s*(\d+)\s*\)?$")


def _read(path: str, load: Callable[[str], _T]) -> _T:
    """``load(path)`` under the one rule for input files: an OSError or
    ValueError from opening, decoding, parsing or checking the file becomes
    an InputError whose message starts with the path."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise InputError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


def resolve_distribution(spec: str) -> PartitionDistribution:
    """Builtin name ('xor', 'rxor(30)', 'grid(4)') or a JSON file path."""
    s = spec.strip()
    low = s.lower()
    if low.endswith(".json") or os.path.sep in s:
        return _read(s, load_distribution)
    rxor, grid = _RXOR_RE.match(low), _GRID_RE.match(low)
    try:
        if rxor:
            return builtin("rxor", theta_deg=float(rxor.group(1)))
        if grid:
            return grid_distribution(int(grid.group(1)))
    except ValueError as exc:  # a malformed or out-of-range angle, or grid size
        raise InputError(f"{spec!r}: {exc}") from exc
    if low in BUILTIN_NAMES:
        return builtin(low)
    raise InputError(
        f"unknown distribution {spec!r}; expected one of {BUILTIN_NAMES}, "
        "'rxor(<degrees>)', 'grid(<n>)' or a JSON path"
    )


# ---------------------------------------------------------------------------
# output helpers


_CSV_QUOTED = re.compile(r'[,"\r\n]')


def _fmt(x) -> str:
    """One CSV field: floats to 17 digits, None empty, a string holding ,
    " or a line break quoted as RFC 4180 writes it."""
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        return FLOAT_FMT % float(x)
    if isinstance(x, str) and _CSV_QUOTED.search(x):
        return '"' + x.replace('"', '""') + '"'
    return str(x)


def _csv_line(row: Sequence) -> str:
    return ",".join(_fmt(v) for v in row)


def csv_text(rows: Sequence[Sequence]) -> str:
    return "".join(_csv_line(row) + "\n" for row in rows)


def json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# analytic.json's text, written by hand: json.dumps(indent=2) runs the
# pure-Python encoder, which costs more than computing the matrices.  Each
# per-cell record comes from one format string per pair, its floats as
# float.__repr__ (%r), which is how json writes a finite float.  A pair
# with a non-finite mass or row total goes through json.dumps value by
# value, so that NaN and Infinity are spelled as json spells them; no CLI
# input gives one, since the loaders refuse non-finite values and
# overflowing geometry.  Records are rendered and written a block of rows
# at a time, so a large pair is never held whole as Python lists or text.
_BLOCK_VALUES = 1 << 16
_ITEM_SEP = ",\n            "


def _cell_record(num_classes: int, conv: str) -> str:
    """Format string of one per-cell record, its floats as %<conv>."""
    masses = "[\n            " + _ITEM_SEP.join([f"%{conv}"] * num_classes) + "\n          ]"
    return ("        {\n"
            '          "argmax_labels": %s,\n'
            f'          "cell_total_mass": %{conv},\n'
            f'          "mass_by_target_label": {masses},\n'
            '          "source_cell": %d\n'
            "        }")


def _cells_chunks(masses: np.ndarray, tie_tol: float) -> Iterator[str]:
    """The ``cells`` list of one pair, as json_text would write it."""
    n, k = masses.shape
    # Every row total first: a non-finite mass makes its row total
    # non-finite, and the pair's float spelling is chosen before any block.
    totals = masses.sum(axis=1)
    finite = bool(np.isfinite(totals).all())
    record = _cell_record(k, "r" if finite else "s")
    step = max(1, _BLOCK_VALUES // k)
    yield "[\n"
    for a in range(0, n, step):
        block = masses[a : a + step]
        ties = near_best(block, tie_tol)
        labels = list(map(str, np.nonzero(ties)[1].tolist()))
        ends = np.cumsum(ties.sum(axis=1)).tolist()
        rows, block_totals = block.tolist(), totals[a : a + step].tolist()
        if not finite:
            rows = [[json.dumps(v) for v in row] for row in rows]
            block_totals = [json.dumps(v) for v in block_totals]
        argmax = [
            "[\n            " + _ITEM_SEP.join(labels[s:e]) + "\n          ]" if e > s else "[]"
            for s, e in zip([0, *ends], ends)
        ]
        yield (",\n" if a else "") + ",\n".join([
            record % (best, total, *row, c)
            for c, (best, total, row) in enumerate(zip(argmax, block_totals, rows), start=a)
        ])
    yield "\n      ]"


def analytic_json(result: AnalyticMatrices, tie_tol: float) -> Iterator[str]:
    """analytic.json in chunks: the bytes json_text writes for its payload
    (the schema is in the README), rendered as they are written.  Every
    distribution has a cell, and the CLI passes at least one."""
    names = result.names
    head = json_text({
        "ats": result.ats_values.tolist(),
        "ats_excluded_mass": result.excluded_mass.tolist(),
        "names": list(names),
    })
    yield head[: -len("\n}\n")] + ',\n  "per_cell_profiles": [\n'
    for i, row in enumerate(result.masses):
        for j, masses in enumerate(row):
            yield (",\n" if i or j else "") + '    {\n      "cells": '
            yield from _cells_chunks(masses, tie_tol)
            yield (f',\n      "source": {json.dumps(names[j])},'
                   f'\n      "target": {json.dumps(names[i])}\n    }}')
    tail = json_text({"ts": result.ts_values.tolist()})
    yield "\n  ],\n" + tail[len("{\n"):]


def _write(path: str, text: str | Iterable[str]) -> None:
    """Write ``text``, or each chunk of an iterable as it comes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


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


# A table, not html.escape: importing html loads its entity dict, which
# every CLI process would pay for in memory and start-up time.
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


def heatmap_svg(names: Sequence[str], values: np.ndarray, title: str) -> str:
    names, title = [n.translate(_XML_ESCAPES) for n in names], title.translate(_XML_ESCAPES)
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


# Options that choose where a run writes and how fast it runs, not its
# numbers, plus the parser's own bookkeeping; emit leaves them out of the
# recorded config.
_NOT_CONFIG = ("command", "run", "out_dir", "format", "workers")


def emit(args: argparse.Namespace, outputs: dict, stdout: Sequence[str]) -> int:
    """Write the outputs whose extension is in --format, then print stdout.

    outputs maps a file name in --out-dir to its content: CSV rows for
    ``.csv``, a JSON payload for ``.json`` and ``(names, values, title)``
    for an ``.svg`` heatmap.  A ``.json`` content may instead be a
    zero-argument callable returning the file's text in chunks; it is
    called only when json is in --format.  Every file written gets a
    sidecar recording the command's options except those in _NOT_CONFIG,
    and their hash.
    """
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    blob = json.dumps(config, sort_keys=True).encode()
    sidecar = json_text({
        "command": args.command,
        "version": version_string(),
        "config": config,
        "config_hash": hashlib.sha256(blob).hexdigest()[:12],
    })
    render = {"csv": csv_text, "json": lambda c: c() if callable(c) else json_text(c),
              "svg": lambda c: heatmap_svg(*c)}
    os.makedirs(args.out_dir, exist_ok=True)
    for name, content in outputs.items():
        ext = os.path.splitext(name)[1][1:]
        if ext in args.format:
            path = os.path.join(args.out_dir, name)
            _write(path, render[ext](content))
            _write(path + ".meta.json", sidecar)
    for line in stdout:
        print(line)
    return 0


# ---------------------------------------------------------------------------
# commands


def cmd_analytic_matrix(args: argparse.Namespace) -> int:
    dists = [resolve_distribution(s) for s in args.dists]
    result = analytic_matrix(dists, tie_tol=args.tie_tol)
    names = result.names
    outputs: dict = {}
    stdout: list[str] = []
    for stat, values in (("ts", result.ts_values), ("ats", result.ats_values)):
        rows = matrix_rows(names, values)
        outputs[f"{stat}.csv"] = rows
        outputs[f"{stat}_heatmap.svg"] = (names, values, f"{stat} (rows: target)")
        stdout += [f"{stat}:", *("  " + _csv_line(row) for row in rows)]
    outputs["analytic.json"] = lambda: analytic_json(result, args.tie_tol)
    return emit(args, outputs, stdout)


def _learner(args: argparse.Namespace) -> LearnerConfig:
    try:
        return LearnerConfig(kind=args.learner, depth=args.depth, bins=args.bins,
                             min_leaf=args.min_leaf, min_gain=args.min_gain)
    except EmpiricalError as exc:  # --learner's choices leave --min-gain as the cause
        raise InputError(f"--min-gain: {exc}") from exc


def cmd_empirical_matrix(args: argparse.Namespace) -> int:
    dists = [resolve_distribution(s) for s in args.dists]
    report = empirical_matrix(
        dists,
        _learner(args),
        n_train=args.n_train,
        n_eval=args.n_eval,
        replications=args.replications,
        base_seed=args.seed,
        in_sample=args.in_sample,
        workers=args.workers,
    )
    names = [d.name for d in dists]
    mean, ci = report.mean, report.ci_halfwidth
    pair_cols = [f"{t};{s}" for t in names for s in names]
    replication_rows: list[list] = [["replication", "seed", *pair_cols]]
    for r, (seed_r, values) in enumerate(zip(report.seeds, report.values)):
        replication_rows.append([r, seed_r, *values.ravel().tolist()])
    mean_rows = matrix_rows(names, mean)
    outputs = {
        "ets_mean.csv": mean_rows,
        "ets_ci90.csv": matrix_rows(names, ci),
        "ets_replications.csv": replication_rows,
        "ets_summary.json": {
            "names": names,
            "ets_mean": mean.tolist(),
            "ets_ci90_halfwidth": ci.tolist(),
            "seeds": list(report.seeds),
        },
        "ets_heatmap.svg": (names, mean, "ETS mean (rows: target)"),
    }
    stdout = ["ets mean:", *("  " + _csv_line(row) for row in mean_rows)]
    return emit(args, outputs, stdout)


def cmd_convergence(args: argparse.Namespace) -> int:
    target = resolve_distribution(args.target)
    points = convergence_study(
        target,
        args.grids,
        LearnerConfig(kind="histogram", bins=args.target_bins),
        n_train=args.n_train,
        n_eval=args.n_eval,
        replications=args.replications,
        base_seed=args.seed,
        workers=args.workers,
    )
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
    outputs = {"convergence.csv": rows, "convergence.json": payload}
    return emit(args, outputs, [_csv_line(row) for row in rows])


def cmd_transfer_efficiency(args: argparse.Namespace) -> int:
    reports = transfer_experiment(
        resolve_distribution(args.source),
        resolve_distribution(args.target),
        _learner(args),
        n_targets=args.n_target,
        n_source=args.n_source,
        n_eval=args.n_eval,
        replications=args.replications,
        base_seed=args.seed,
        workers=args.workers,
    )
    rows: list[list] = [["n_target", "n_source", "scratch_risk_mean", "scratch_risk_ci90",
                         "adapted_risk_mean", "adapted_risk_ci90", "te_adapted_over_scratch"]]
    rows += [[r.n_target, r.n_source, r.scratch.mean, r.scratch.ci_halfwidth,
              r.adapted.mean, r.adapted.ci_halfwidth, r.te_ratio] for r in reports]
    outputs = {
        "transfer_efficiency.csv": rows,
        "transfer_efficiency.json": {"experiments": [r.to_dict() for r in reports]},
    }
    return emit(args, outputs, [_csv_line(row) for row in rows])


def _read_task(path: str) -> SampleSet:
    """A sample CSV with labels coded 0..k-1; each refusal starts with the path."""
    samples = read_samples_csv(path)
    classes = np.unique(samples.y)
    if classes.size < 2:
        raise InputError(f"{path}: each task needs at least 2 classes")
    return SampleSet(samples.X, np.searchsorted(classes, samples.y))


def cmd_ets_csv(args: argparse.Namespace) -> int:
    if not 0.0 < args.split < 1.0:
        raise InputError("train split fraction must lie in (0, 1)")
    target = _read_task(args.target_csv)
    sources = []
    for p in args.source_csvs:
        s = _read_task(p)
        if s.dim != target.dim:
            raise InputError(f"{p}: {s.dim} features, but the target CSV has {target.dim}")
        sources.append(s)
    rng = np.random.default_rng(args.seed)
    order = rng.permutation(len(target))
    n_train = max(1, int(round(args.split * len(target))))
    if n_train >= len(target) and not args.in_sample:
        raise InputError(f"{args.target_csv}: too few samples for a held-out split")
    train = target[order[:n_train]]
    evalset = train if args.in_sample else target[order[n_train:]]
    learner = _learner(args)
    # The target's classes come from all of its rows, not from its split's.
    scores = ets_table([(train, evalset, None, int(target.y.max()) + 1)],
                       (learner.fit(s).fn.transformer for s in sources), learner)[0]
    ranking = sorted(zip(args.source_csvs, scores.tolist()), key=lambda r: (-r[1], r[0]))
    header = ["rank", "source", "ets", "n_eval"]
    rows = [[rank, path, value, len(evalset)] for rank, (path, value) in enumerate(ranking, 1)]
    outputs = {"ets_ranking.csv": [header, *rows],
               "ets_ranking.json": {"ranking": [dict(zip(header, row)) for row in rows]}}
    return emit(args, outputs, [_csv_line(row) for row in [header, *rows]])


def _validate(path: str, tol: float) -> int:
    data = read_json_object(path)
    if "labels" in data:
        dist = PartitionDistribution.from_json_dict(data)
        issues = validate_distribution(dist, tol=tol)
        hard = [m for m in issues if m.startswith("partition fails")]
        for msg in issues:
            print(("ERROR: " if msg in hard else "WARNING: ") + msg)
        if hard:
            raise DistributionError("distribution failed validation")
        print(f"OK: distribution with {len(dist.cell_mass)} cells, {dist.num_classes} classes")
    else:
        part = Partition.from_json_dict(data)
        diag = validate_partition(part, tol=tol)
        print(f"coverage_gap={_fmt(diag.coverage_gap)} max_overlap={_fmt(diag.max_overlap)} "
              f"max_outside={_fmt(diag.max_outside)}")
        if not diag.ok:
            raise GeometryError("partition failed validation")
        print(f"OK: partition with {len(part.vertex_counts)} cells")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    check_tolerance("--tol", args.tol)
    return _read(args.path, lambda path: _validate(path, args.tol))


# ---------------------------------------------------------------------------
# argument parsing


# The --format, integer and CSV path types raise InputError, which argparse
# does not catch, so main reports these bad values with exit code 2 like
# any other.
def _formats(text: str) -> tuple[str, ...]:
    formats = tuple(f.strip() for f in text.split(",") if f.strip())
    for f in formats:
        if f not in ("csv", "json", "svg"):
            raise InputError(f"unknown output format {f!r}")
    return formats


def _integer(flag: str, least: int) -> Callable[[str], int]:
    """An integer type for ``flag`` that refuses values below ``least``."""
    def check(text: str) -> int:
        if not text.isdecimal() or int(text) < least:
            raise InputError(f"{flag} must be an integer of at least {least}, got {text!r}")
        return int(text)
    return check


def _utf8_path(flag: str) -> Callable[[str], str]:
    """A path type for ``flag`` that refuses paths whose bytes are not
    UTF-8 (argv decodes them to lone surrogates): outputs record the path."""
    def check(text: str) -> str:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise InputError(f"{flag}: path {text!r} is not valid UTF-8") from None
        return text
    return check


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", default="out", help="output directory")
    p.add_argument("--format", type=_formats, default="csv,json",
                   help="comma-separated subset of csv,json,svg")


def _add_seed(p: argparse.ArgumentParser, rule: str) -> None:
    p.add_argument("--seed", type=_integer("--seed", 0), required=True, help="random seed; " + rule)


def _add_replications(p: argparse.ArgumentParser, seed_rule: str) -> None:
    _add_seed(p, seed_rule)
    p.add_argument("--n-eval", type=_integer("--n-eval", 1), default=2000)
    p.add_argument("--replications", type=_integer("--replications", 2), default=30)
    p.add_argument("--workers", type=_integer("--workers", 1), default=os.cpu_count() or 1,
                   help="processes in the command's one replication pool; 1 runs serially")


def _add_learner(p: argparse.ArgumentParser) -> None:
    p.add_argument("--learner", choices=("tree", "histogram"), default="tree")
    p.add_argument("--depth", type=_integer("--depth", 0), default=DEFAULT_TREE_DEPTH,
                   help="tree depth")
    p.add_argument("--bins", type=_integer("--bins", 1), default=2,
                   help="histogram bins per dimension")
    p.add_argument("--min-leaf", type=_integer("--min-leaf", 1), default=1)
    p.add_argument("--min-gain", type=float, default=LearnerConfig().min_gain,
                   help="Gini gain below which the midpoint fallback split fires")


def _add_in_sample(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in-sample", action="store_true",
                   help="score agreement on the training split (the literal "
                        "in-sample estimator) instead of a held-out split")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tasksim",
        description="Task similarity between partition-defined classification tasks.",
    )
    parser.add_argument("--version", action="version", version=version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic-matrix", help="exact TS/ATS matrices")
    p.set_defaults(run=cmd_analytic_matrix)
    p.add_argument("--dists", nargs="+", default=["xor", "quads", "rxor", "fxor"],
                   help="builtin names, rxor(<deg>), grid(<n>) or JSON paths")
    p.add_argument("--tie-tol", type=float, default=1e-9,
                   help="absolute mass tolerance for argmax ties")
    _add_output(p)

    p = sub.add_parser("empirical-matrix", help="ETS matrix over replications")
    p.set_defaults(run=cmd_empirical_matrix)
    p.add_argument("--dists", nargs="+", default=["xor", "quads", "rxor", "fxor"])
    p.add_argument("--n-train", type=_integer("--n-train", 1), default=5000)
    _add_in_sample(p)
    _add_replications(p, "replication r uses seed+r")
    _add_learner(p)
    _add_output(p)

    p = sub.add_parser("convergence", help="TS and ETS along grid refinements")
    p.set_defaults(run=cmd_convergence)
    p.add_argument("--target", default="xor")
    p.add_argument("--grids", type=_integer("--grids", 1), nargs="+", default=[1, 3, 5, 7, 9, 11],
                   help=f"grid resolutions (1..{MAX_GRID}) for the source partitions")
    p.add_argument("--target-bins", type=_integer("--target-bins", 1), default=2,
                   help="histogram bins for the fixed target model")
    p.add_argument("--n-train", type=_integer("--n-train", 1), default=5000,
                   help="the target's training rows; no source rows are drawn")
    _add_replications(p, "replication r uses seed+r at every grid, and the grids share "
                      "replication r's target draw")
    _add_output(p)

    p = sub.add_parser("transfer-efficiency", help="adapted vs scratch risk ratios")
    p.set_defaults(run=cmd_transfer_efficiency)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--n-target", type=_integer("--n-target", 1), nargs="+", default=[100],
                   help="target training sizes to sweep")
    p.add_argument("--n-source", type=_integer("--n-source", 1), default=5000)
    _add_replications(p, "replication r uses seed+r at every size, and the sizes train on "
                      "nested prefixes of replication r's target draw")
    _add_learner(p)
    _add_output(p)

    p = sub.add_parser("ets-csv", help="rank source CSV datasets by ETS")
    p.set_defaults(run=cmd_ets_csv)
    p.add_argument("--target-csv", type=_utf8_path("--target-csv"), required=True)
    p.add_argument("--source-csv", dest="source_csvs", type=_utf8_path("--source-csv"),
                   nargs="+", required=True)
    p.add_argument("--split", type=float, default=0.7,
                   help="target train fraction; the rest scores agreement")
    _add_in_sample(p)
    _add_seed(p, "it draws the target's train/eval split")
    _add_learner(p)
    _add_output(p)

    p = sub.add_parser("validate", help="lint a partition/distribution JSON file")
    p.set_defaults(run=cmd_validate)
    p.add_argument("path")
    p.add_argument("--tol", type=float, default=1e-9)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process; no command mutates its list defaults."""
    return build_parser()


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters (malloc.h)


@functools.lru_cache(maxsize=None)
def _keep_freed_heap() -> None:
    """Once per process, on glibc: serve arrays up to 32 MiB from the heap
    and trim it only past 64 MiB free at its top.  glibc's defaults hand a
    draw's freed row-length temporaries back to the kernel, and the next
    draw page-faults them in again.  Elsewhere, or when ``mallopt`` cannot
    be found, the allocator is left alone."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    # The ceiling glibc's own dynamic mmap threshold climbs to on 64-bit,
    # and the trim threshold its rule sets at twice that.
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        _keep_freed_heap()
        args = _parser().parse_args(argv)
        return args.run(args)
    except (InputError, DistributionError, GeometryError, LearnerError, EmpiricalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - unexpected runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
