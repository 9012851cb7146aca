"""Differential tests for the bounding-box candidate filter.

Every cell-pair scan (label-mass profiles, partition diagnostics,
sub-partition checks and the minimality warnings) asks
``Partition.cells_overlapping`` for its candidate cells.  The all-pairs
loops it replaced live in ``tests/oracles.py``; both must agree exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tasksim as T
from oracles import (
    reference_is_subpartition,
    reference_label_mass_profiles,
    reference_similarity,
    reference_validate_distribution,
    reference_validate_partition,
)
from tasksim.distributions import PartitionDistribution, validate_distribution
from tasksim.geometry import ConvexPolygon, Partition, is_subpartition, validate_partition
from tasksim.similarity import TIE_TOL, analytic_matrix, near_best


def assert_same_scans(dists):
    """Label masses, ties, matrices, diagnostics, sub-partition results and warnings."""
    got = analytic_matrix(dists)
    for i, tgt in enumerate(dists):
        assert validate_partition(tgt.partition) == reference_validate_partition(tgt.partition)
        assert validate_distribution(tgt) == reference_validate_distribution(tgt)
        for j, src in enumerate(dists):
            want = reference_label_mass_profiles(tgt, src)
            assert np.array_equal(got.masses[i][j], want)
            assert np.array_equal(near_best(got.masses[i][j]),
                                  want >= want.max(axis=1, keepdims=True) - TIE_TOL)
            ts_want, ats_want, excluded_want = reference_similarity(want)
            assert got.ts_values[i, j] == ts_want
            assert got.ats_values[i, j] == ats_want
            assert got.excluded_mass[i, j] == excluded_want
            b, c = src.partition, tgt.partition
            assert is_subpartition(b, c) == reference_is_subpartition(b, c)


def one_hot(labels, k):
    return np.eye(k)[np.asarray(labels)]


@st.composite
def grid_pairs(draw):
    """Two grids of 1..8 cells a side with random labels and masses on a
    scaled and translated domain."""
    scale = 10.0 ** draw(st.integers(-3, 3))
    dx, dy = draw(st.floats(-100, 100)), draw(st.floats(-100, 100))
    domain = (dx - scale, dx + scale, dy - scale, dy + scale)
    dists = []
    for name in ("a", "b"):
        n = draw(st.integers(1, 8))
        k = draw(st.integers(1, 3))
        labels = draw(st.lists(st.integers(0, k - 1), min_size=n * n, max_size=n * n))
        weights = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=n * n, max_size=n * n)))
        part = T.make_grid_partition(n, domain)
        dists.append(PartitionDistribution(part, one_hot(labels, k), weights / weights.sum(),
                                           k, name=name))
    return dists


@given(grid_pairs())
@settings(max_examples=30, deadline=None)
def test_filter_matches_all_pairs_scans_on_grids(dists):
    assert_same_scans(dists)


@given(st.floats(0.0, 89.9), st.integers(1, 8))
@settings(max_examples=15, deadline=None)
def test_filter_matches_all_pairs_scans_on_builtins(theta, n):
    assert_same_scans([T.rxor(theta), T.fxor(), T.xor(), T.grid_distribution(n)])


def jittered_grid(nx, ny, jitter, labels):
    """An nx x ny grid on the unit square whose cell sides move by jitter."""
    xs, ys = np.linspace(0, 1, nx + 1), np.linspace(0, 1, ny + 1)
    cells = []
    for j in range(ny):
        for i in range(nx):
            e = jitter[4 * (j * nx + i): 4 * (j * nx + i) + 4]
            cells.append(ConvexPolygon.from_box(
                (xs[i] + e[0], xs[i + 1] + e[1], ys[j] + e[2], ys[j + 1] + e[3])))
    part = Partition(cells, (0.0, 1.0, 0.0, 1.0))
    return PartitionDistribution(part, one_hot(labels, 2), np.full(nx * ny, 1.0 / (nx * ny)), 2)


@st.composite
def jittered_dists(draw):
    """Same-class neighbours whose shared edges are moved apart or together
    by up to just under the 1e-9 collinearity tolerance."""
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    size = draw(st.sampled_from([1e-12, 1e-10, 4.5e-10]))
    jitter = [size * draw(st.floats(-1, 1)) for _ in range(4 * nx * ny)]
    labels = draw(st.lists(st.integers(0, 1), min_size=nx * ny, max_size=nx * ny))
    return jittered_grid(nx, ny, jitter, labels)


@given(jittered_dists())
@settings(max_examples=40, deadline=None)
def test_filter_keeps_every_boundary_the_minimality_check_accepts(dist):
    assert_same_scans([dist])


@pytest.mark.parametrize("gap", [1e-12, 1e-10, 5e-10, 9e-10])
def test_minimality_warning_across_a_gap_below_tolerance(gap):
    # Two same-class cells side by side, the right one moved right by gap.
    dist = jittered_grid(2, 1, [0, 0, 0, 0, gap, 0, 0, 0], [0, 0])
    warnings = validate_distribution(dist)
    assert warnings == reference_validate_distribution(dist)
    assert any("cells 0 and 1 are adjacent" in w for w in warnings)
