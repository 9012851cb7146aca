"""Exact task similarity between partition-defined distributions.

The directed similarity of a source task to a target task is the target
mass on which an optimally relabeled source optimal partition agrees with
the target's Bayes rule.  With piecewise-uniform marginals every term is
an exact polygon-intersection area, so values here are closed form up to
double precision.

Conventions: the first argument is always the target, the second the
source; the measure is the target's marginal; the relabeling maximum
ranges over target classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .distributions import PartitionDistribution
from .geometry import GeometryError, intersection_area

TIE_TOL = 1e-9


@dataclass(frozen=True)
class LabelMassProfile:
    """Target-label mass decomposition of one source cell.

    mass_by_target_label[y] is the target-marginal mass of the part of
    this source cell where the target Bayes rule outputs y.  argmax_labels
    collects the labels within tie tolerance of the best entry.
    """

    source_cell_index: int
    mass_by_target_label: np.ndarray
    argmax_labels: tuple[int, ...]
    cell_total_mass: float

    @property
    def best_mass(self) -> float:
        return float(self.mass_by_target_label.max())

    @property
    def is_tied(self) -> bool:
        return len(self.argmax_labels) != 1


@dataclass(frozen=True)
class SimilarityResult:
    value: float
    per_cell: tuple[LabelMassProfile, ...]
    excluded_mass: float = 0.0


def label_mass_profiles(
    target: PartitionDistribution,
    source: PartitionDistribution,
    tie_tol: float = TIE_TOL,
) -> list[LabelMassProfile]:
    """Per source cell, the vector of target-label masses it covers.

    The contribution of target cell T to source cell S is
    area(S ∩ T) / area(T) * mass(T), credited to T's Bayes class.
    """
    if not np.allclose(target.partition.domain, source.partition.domain, atol=1e-12):
        raise GeometryError("target and source distributions live on different domains")
    k_t = target.num_classes
    t_cells = target.partition.cells
    t_labels = target.cell_labels
    t_mass = target.cell_mass
    t_areas = target.partition.cell_areas()
    profiles = []
    s_part = source.partition
    for s_idx, (s_cell, box) in enumerate(zip(s_part.cells, s_part.cell_bounds)):
        masses = np.zeros(k_t)
        for t_idx in target.partition.cells_overlapping(box):
            inter = intersection_area(s_cell, t_cells[t_idx])
            if inter > 0.0:
                masses[t_labels[t_idx]] += inter / t_areas[t_idx] * t_mass[t_idx]
        best = masses.max()
        ties = tuple(int(y) for y in np.nonzero(masses >= best - tie_tol)[0])
        profiles.append(
            LabelMassProfile(s_idx, masses, ties, float(masses.sum()))
        )
    return profiles


def ts(
    target: PartitionDistribution,
    source: PartitionDistribution,
    profiles: Optional[Sequence[LabelMassProfile]] = None,
) -> SimilarityResult:
    """Directed task similarity: sum over source cells of the best label mass."""
    if profiles is None:
        profiles = label_mass_profiles(target, source)
    value = float(sum(p.best_mass for p in profiles))
    return SimilarityResult(value, tuple(profiles))


def ats(
    target: PartitionDistribution,
    source: PartitionDistribution,
    tie_tol: float = TIE_TOL,
    profiles: Optional[Sequence[LabelMassProfile]] = None,
) -> SimilarityResult:
    """Adjusted task similarity: tied source cells contribute nothing.

    A cell is tied when its top two label masses differ by at most
    tie_tol; its whole mass is reported as excluded instead.
    """
    if profiles is None:
        profiles = label_mass_profiles(target, source, tie_tol=tie_tol)
    value = 0.0
    excluded = 0.0
    for p in profiles:
        if p.is_tied:
            excluded += p.cell_total_mass
        else:
            value += p.best_mass
    return SimilarityResult(float(value), tuple(profiles), float(excluded))


def symmetric_ts(a: PartitionDistribution, b: PartitionDistribution) -> float:
    return 0.5 * (ts(a, b).value + ts(b, a).value)


def symmetric_ats(
    a: PartitionDistribution, b: PartitionDistribution, tie_tol: float = TIE_TOL
) -> float:
    return 0.5 * (ats(a, b, tie_tol).value + ats(b, a, tie_tol).value)


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

    profiles[i][j] holds the per-source-cell label-mass profiles of target
    i against source j that both matrices were computed from.
    """

    names: tuple[str, ...]
    ts_values: np.ndarray
    ats_values: np.ndarray
    excluded_mass: np.ndarray
    profiles: tuple[tuple[tuple[LabelMassProfile, ...], ...], ...]


def analytic_matrix(
    distributions: Sequence[PartitionDistribution],
    tie_tol: float = TIE_TOL,
) -> AnalyticMatrices:
    m = len(distributions)
    ts_m = np.zeros((m, m))
    ats_m = np.zeros((m, m))
    exc_m = np.zeros((m, m))
    all_profiles = []
    for i, tgt in enumerate(distributions):
        row = []
        for j, src in enumerate(distributions):
            profiles = label_mass_profiles(tgt, src, tie_tol=tie_tol)
            ts_m[i, j] = ts(tgt, src, profiles=profiles).value
            a = ats(tgt, src, tie_tol=tie_tol, profiles=profiles)
            ats_m[i, j] = a.value
            exc_m[i, j] = a.excluded_mass
            row.append(a.per_cell)
        all_profiles.append(tuple(row))
    names = tuple(d.name for d in distributions)
    return AnalyticMatrices(names, ts_m, ats_m, exc_m, tuple(all_profiles))
