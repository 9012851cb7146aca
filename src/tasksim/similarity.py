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
    pair_intersection_areas,
)

TIE_TOL = 1e-9


@dataclass(frozen=True)
class SimilarityResult:
    value: float
    masses: np.ndarray
    excluded_mass: float = 0.0


def label_mass_profiles(
    target: PartitionDistribution, source: PartitionDistribution
) -> np.ndarray:
    """The (source cells x target classes) label-mass matrix.

    The contribution of target cell T to source cell S is
    area(S ∩ T) / area(T) * mass(T), credited to T's Bayes class.
    """
    if not np.allclose(target.partition.domain, source.partition.domain, atol=1e-12):
        raise GeometryError("target and source distributions live on different domains")
    s_part, t_part = source.partition, target.partition
    n_s = len(s_part.vertex_counts)
    check_table_size(n_s, target.num_classes,
                     f"label-mass matrix of {target.name!r} <- {source.name!r}")
    s_idx, t_idx = overlapping_pairs(s_part.cell_bounds, t_part.cell_bounds)
    inter = pair_intersection_areas(s_part.cell_vertices, s_part.vertex_counts,
                                    t_part.cell_vertices, t_part.vertex_counts, s_idx, t_idx)
    mass = inter / t_part.cell_areas()[t_idx] * target.cell_mass[t_idx]
    masses = np.zeros((n_s, target.num_classes))
    # Unbuffered, in (source, target) order: each entry sums as the loop did.
    np.add.at(masses, (s_idx, target.cell_labels[t_idx]), mass)
    return masses


def near_best(masses: np.ndarray, tie_tol: float = TIE_TOL) -> np.ndarray:
    """Mask of the labels whose mass is within tie_tol of their row's best."""
    check_tolerance("tie_tol", tie_tol)
    return masses >= masses.max(axis=1, keepdims=True) - tie_tol


# Sequential Python sums: np.sum adds pairwise and would round differently.


def _ts_value(masses: np.ndarray) -> float:
    return float(sum(masses.max(axis=1).tolist()))


def _ats_value_and_excluded(masses: np.ndarray, tie_tol: float) -> tuple[float, float]:
    tied = near_best(masses, tie_tol).sum(axis=1) > 1
    value = sum(masses.max(axis=1)[~tied].tolist())
    excluded = sum(masses.sum(axis=1)[tied].tolist())
    return float(value), float(excluded)


def ts(target: PartitionDistribution, source: PartitionDistribution) -> SimilarityResult:
    """Directed task similarity: sum over source cells of the best label mass."""
    masses = label_mass_profiles(target, source)
    return SimilarityResult(_ts_value(masses), masses)


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
    value, excluded = _ats_value_and_excluded(masses, tie_tol)
    return SimilarityResult(value, masses, excluded)


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
    m = len(distributions)
    ts_m = np.zeros((m, m))
    ats_m = np.zeros((m, m))
    exc_m = np.zeros((m, m))
    all_masses = []
    for i, tgt in enumerate(distributions):
        row = []
        for j, src in enumerate(distributions):
            masses = label_mass_profiles(tgt, src)
            ts_m[i, j] = _ts_value(masses)
            ats_m[i, j], exc_m[i, j] = _ats_value_and_excluded(masses, tie_tol)
            row.append(masses)
        all_masses.append(tuple(row))
    names = tuple(d.name for d in distributions)
    return AnalyticMatrices(names, ts_m, ats_m, exc_m, tuple(all_masses))
