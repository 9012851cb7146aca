"""Exact task similarity between partition-defined distributions.

The directed similarity of a source task to a target task is the target
mass on which an optimally relabeled source optimal partition agrees with
the target's Bayes rule.  With piecewise-uniform marginals every term is
an exact polygon-intersection area, so values here are closed form up to
double precision.

Everything is derived from one label-mass matrix per (target, source)
pair: ``masses[s, y]`` is the target-marginal mass of the part of source
cell s where the target Bayes rule outputs y (rows in source-cell order,
one column per target class).  ``ts`` sums each row's maximum.  A row is
tied when more than one label lies within ``tie_tol`` of that maximum
(``near_best``); ``ats`` drops tied rows and reports their total mass as
excluded.

``analytic_matrix`` computes the matrices of all its pairs at once: one
bounding-box broad phase over every source cell against every target
cell, one batched clipping pass, and one accumulation into a buffer
that holds every pair's matrix as a block.  ``label_mass_profiles`` is
the one-pair case of the same pass.  Every sum is taken in the order a
pair on its own would take it, so a pair's values do not depend on the
company it is computed in.

Conventions: the first argument is always the target, the second the
source; the measure is the target's marginal; the relabeling maximum
ranges over target classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import PartitionDistribution, check_table_size
from .geometry import (
    GeometryError,
    check_tolerance,
    overlapping_pairs,
    padded_areas,
    pair_intersection_areas,
    same_domain,
    stacked_cells,
)

TIE_TOL = 1e-9


@dataclass(frozen=True)
class SimilarityResult:
    value: float
    masses: np.ndarray
    excluded_mass: float = 0.0


def check_domains(targets: Sequence[PartitionDistribution],
                  sources: Sequence[PartitionDistribution]) -> None:
    """Refuse the first (target, source) pair, in row-major order, whose
    distributions live on different domains."""
    t_dom = np.array([t.partition.domain for t in targets])[:, None]
    s_dom = np.array([s.partition.domain for s in sources])[None]
    apart = np.argwhere(~same_domain(t_dom, s_dom))
    if len(apart):
        tgt, src = targets[apart[0, 0]], sources[apart[0, 1]]
        raise GeometryError(
            f"target {tgt.name!r} on domain {tgt.partition.domain} and source "
            f"{src.name!r} on domain {src.partition.domain} live on different domains")


def _label_masses(
    targets: Sequence[PartitionDistribution], sources: Sequence[PartitionDistribution]
) -> tuple[list[np.ndarray], list[int]]:
    """Label-mass matrices of every (target, source) pair, from one broad
    phase, one clipping pass and one accumulation over all their cells.

    Returns one (all source cells x classes) array per target and the
    index of each source's first cell, with the total last: the matrix of
    targets[i] against sources[j] is ``rows[i][first[j]:first[j + 1]]``.
    Pairs on different domains, or whose matrix ``check_table_size``
    refuses, are refused before any work.
    """
    check_domains(targets, sources)
    for tgt in targets:
        for src in sources:
            check_table_size(len(src.partition.vertex_counts), tgt.num_classes,
                             f"label-mass matrix of {tgt.name!r} <- {src.name!r}")
    s_verts, s_counts, s_bounds = stacked_cells([s.partition for s in sources])
    t_verts, t_counts, t_bounds = stacked_cells([t.partition for t in targets])
    s_idx, t_idx = overlapping_pairs(s_bounds, t_bounds)
    inter = pair_intersection_areas(s_verts, s_counts, t_verts, t_counts, s_idx, t_idx)
    t_mass = np.concatenate([t.cell_mass for t in targets])
    mass = inter / padded_areas(t_verts)[t_idx] * t_mass[t_idx]
    # Target i's rows, one per source cell, take size[i] entries from start[i] on.
    k = np.array([t.num_classes for t in targets])
    size = len(s_counts) * k
    start = np.cumsum(size) - size
    n_t = [len(t.partition.vertex_counts) for t in targets]
    tgt = np.repeat(np.arange(len(targets)), n_t)[t_idx]
    label = np.concatenate([t.cell_labels for t in targets])[t_idx]
    flat = np.zeros(size.sum())
    # Unbuffered, in ascending (source cell, target cell) order: each entry
    # adds its terms in the order a pair on its own would.
    np.add.at(flat, start[tgt] + s_idx * k[tgt] + label, mass)
    rows = [flat[a : a + n].reshape(-1, c) for a, n, c in zip(start, size, k)]
    first = np.cumsum([0, *(len(s.partition.vertex_counts) for s in sources)]).tolist()
    return rows, first


def label_mass_profiles(
    target: PartitionDistribution, source: PartitionDistribution
) -> np.ndarray:
    """The (source cells x target classes) label-mass matrix.

    The contribution of target cell T to source cell S is
    area(S ∩ T) / area(T) * mass(T), credited to T's Bayes class.
    """
    return _label_masses([target], [source])[0][0]


def near_best(masses: np.ndarray, tie_tol: float = TIE_TOL) -> np.ndarray:
    """Mask of the labels whose mass is within tie_tol of their row's best."""
    check_tolerance("tie_tol", tie_tol)
    return masses >= masses.max(axis=1, keepdims=True) - tie_tol


def _source_sums(values: np.ndarray, first: Sequence[int]) -> np.ndarray:
    """(targets, sources) sums of (targets, source cells) values over each
    source's cells, added one after another in cell order, as a Python
    ``sum`` of floats adds them: np.sum adds pairwise and would round
    differently."""
    return np.stack([np.cumsum(values[:, a:b], axis=1)[:, -1]
                     for a, b in zip(first[:-1], first[1:])], axis=1)


def _similarities(
    rows: list[np.ndarray], first: Sequence[int], tie_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ts, ats and excluded mass of every block of ``_label_masses``."""
    best = np.array([r.max(axis=1) for r in rows])
    tied = np.array([near_best(r, tie_tol).sum(axis=1) > 1 for r in rows])
    total = np.array([r.sum(axis=1) for r in rows])
    return (_source_sums(best, first), _source_sums(np.where(tied, 0.0, best), first),
            _source_sums(np.where(tied, total, 0.0), first))


def ts(target: PartitionDistribution, source: PartitionDistribution) -> SimilarityResult:
    """Directed task similarity: sum over source cells of the best label mass."""
    masses = label_mass_profiles(target, source)
    # _source_sums over one source, without its per-source loop.
    return SimilarityResult(float(np.cumsum(masses.max(axis=1))[-1]), masses)


def ats(
    target: PartitionDistribution,
    source: PartitionDistribution,
    tie_tol: float = TIE_TOL,
) -> SimilarityResult:
    """Adjusted task similarity: tied source cells contribute nothing.

    A cell is tied when more than one label mass lies within tie_tol of
    its best; its whole mass is reported as excluded instead.
    """
    masses = label_mass_profiles(target, source)
    _, value, excluded = _similarities([masses], [0, len(masses)], tie_tol)
    return SimilarityResult(float(value[0, 0]), masses, float(excluded[0, 0]))


def is_adversarial(
    target: PartitionDistribution,
    source: PartitionDistribution,
    tie_tol: float = TIE_TOL,
) -> bool:
    """True when the source is worthless for the target: adjusted similarity 0."""
    return ats(target, source, tie_tol).value <= tie_tol


def are_orthogonal(
    a: PartitionDistribution, b: PartitionDistribution, tie_tol: float = TIE_TOL
) -> bool:
    """Mutually adversarial pair."""
    return is_adversarial(a, b, tie_tol) and is_adversarial(b, a, tie_tol)


@dataclass(frozen=True)
class AnalyticMatrices:
    """Directed similarity matrices; rows are targets, columns sources.

    masses[i][j] is the label-mass matrix of target i against source j
    that all three matrices were computed from.
    """

    names: tuple[str, ...]
    ts_values: np.ndarray
    ats_values: np.ndarray
    excluded_mass: np.ndarray
    masses: tuple[tuple[np.ndarray, ...], ...]


def analytic_matrix(
    distributions: Sequence[PartitionDistribution],
    tie_tol: float = TIE_TOL,
) -> AnalyticMatrices:
    """Every (target, source) pair of ``distributions``, from one
    ``_label_masses`` pass over all their cells."""
    m = len(distributions)
    names = tuple(d.name for d in distributions)
    if m == 0:
        empty = np.zeros((0, 0))
        return AnalyticMatrices(names, empty, empty.copy(), empty.copy(), ())
    rows, first = _label_masses(distributions, distributions)
    ts_m, ats_m, exc_m = _similarities(rows, first, tie_tol)
    masses = tuple(tuple(r[a:b] for a, b in zip(first[:-1], first[1:])) for r in rows)
    return AnalyticMatrices(names, ts_m, ats_m, exc_m, masses)
