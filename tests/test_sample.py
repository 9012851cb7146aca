"""``distributions.sample`` draws every row in one pass over the random
stream that the per-cell loop (``oracles.reference_sample``) consumed.
The points, the labels and the generator state after the call must equal
the loop's with ``==``.
"""

import math
import tracemalloc

import numpy as np
import pytest

import tasksim as T
from oracles import locate_cells, reference_sample
from tasksim.distributions import (
    DOMAIN,
    MAX_GUIDE_BUCKETS,
    DistributionError,
    PartitionDistribution,
    grid_distribution,
    sample,
    with_label_noise,
)

SEEDS = (0, 1, 7, 2024)


def mixed_polygons() -> PartitionDistribution:
    """[-1, 1]^2 cut at x = 0, with one corner cut off each half: two
    pentagons and two triangles (padded rows of unequal length), three
    classes, noisy and one-hot cells, and a triangle of zero mass."""
    return PartitionDistribution.from_json_dict({
        "domain": [-1, 1, -1, 1],
        "cells": [
            [[-1, -1], [0, -1], [0, 0.5], [-0.5, 1], [-1, 1]],
            [[0, 1], [-0.5, 1], [0, 0.5]],
            [[0, -1], [0.5, -1], [1, -0.5], [1, 1], [0, 1]],
            [[1, -1], [1, -0.5], [0.5, -1]],
        ],
        "labels": [[0.7, 0.2, 0.1], [0, 1, 0], [0.1, 0.05, 0.85], [0, 0, 1]],
        "mass": [0.45, 0.0, 0.5, 0.05],
        "name": "mixed",
    })


def twelve_gon_fan() -> PartitionDistribution:
    """A convex 12-gon of radius 0.3 at the centre of [-1, 1]^2, and the
    rays through its vertices cutting the rest into 7 quadrilaterals, 2
    pentagons and a hexagon.  The 12-gon's 10 fan triangles pad every row
    to 10 columns; numpy sums 8 or more terms pairwise, so summing a padded
    row would round the hexagon's triangle CDF otherwise than the loop."""
    angles = [math.radians(d) for d in (0, 30, 150, 180, 200, 220, 240, 260, 280, 300, 320, 340)]
    inner = [(0.3 * math.cos(a), 0.3 * math.sin(a)) for a in angles]
    rim = [(math.cos(a) / max(abs(math.cos(a)), abs(math.sin(a))),
            math.sin(a) / max(abs(math.cos(a)), abs(math.sin(a)))) for a in angles]
    corners = {1: [(1, 1), (-1, 1)], 5: [(-1, -1)], 9: [(1, -1)]}
    cells = [inner]
    for i in range(12):
        j = (i + 1) % 12
        cells.append([inner[i], rim[i], *corners.get(i, []), rim[j], inner[j]])
    part = T.Partition(cells, (-1.0, 1.0, -1.0, 1.0))
    mass = part.cell_areas() / part.domain_area
    labels = [[0.7, 0.2, 0.1]] + [[float(i % 2), float(1 - i % 2), 0.0] for i in range(12)]
    return PartitionDistribution.from_json_dict({**part.to_json_dict(), "labels": labels,
                                                 "mass": (mass / mass.sum()).tolist()})


def strips(mass) -> PartitionDistribution:
    """Vertical strips of [-1, 1]^2, one per mass, with one-hot classes
    alternating 0, 1 and every third cell noisy."""
    edges = np.linspace(-1.0, 1.0, len(mass) + 1)
    boxes = [(a, b, -1.0, 1.0) for a, b in zip(edges[:-1], edges[1:])]
    labels = [[0.8, 0.2] if i % 3 == 2 else [1.0 - i % 2, float(i % 2)] for i in range(len(mass))]
    return PartitionDistribution(T.Partition.from_boxes(boxes, DOMAIN), labels, mass)


def guide_buckets(dist) -> int:
    """The cell draw's bucket count: the least power of two >= 16 per cell, capped."""
    return min(MAX_GUIDE_BUCKETS, 1 << (16 * len(dist.cell_mass) - 1).bit_length())


SMALL = [0.01 / 300] * 300


class BoundaryStream:
    """Stands in for a Generator whose every uniform is one of ``values``;
    ``choice`` draws as ``Generator.choice`` does (see the stream pin)."""

    def __init__(self, values: np.ndarray, seed: int):
        self.values, self.picks = values, np.random.default_rng(seed)

    def random(self, size=None):
        return self.values[self.picks.integers(self.values.size, size=size)]

    def choice(self, k, size, p):
        cdf = np.cumsum(p)
        return np.searchsorted(cdf / cdf[-1], self.random(size), side="right")


def boundary_values(dist) -> np.ndarray:
    """Every CDF entry that the loop compares a uniform with (cells, each
    cell's fan triangles, each cell's classes), every edge b/B of the cell
    draw's guide buckets, and the doubles on either side of each, within
    [0, 1)."""
    probabilities = [dist.cell_mass, *dist.labels_per_cell]
    for verts, count in zip(dist.partition.cell_vertices, dist.partition.vertex_counts):
        ab, ac = verts[1 : count - 1] - verts[0], verts[2:count] - verts[0]
        areas = 0.5 * np.abs(ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0])
        probabilities.append(areas / areas.sum())
    cdfs = np.concatenate([np.cumsum(p) / np.cumsum(p)[-1] for p in probabilities]
                          + [np.arange(guide_buckets(dist)) / guide_buckets(dist)])
    values = np.concatenate([[0.0], cdfs, np.nextafter(cdfs, 0), np.nextafter(cdfs, 1)])
    return np.unique(values[(values >= 0) & (values < 1)])


CASES = {
    **{name: lambda name=name: T.builtin(name) for name in T.distributions.BUILTIN_NAMES},
    "noisy rxor45": lambda: with_label_noise(T.rxor(45), 0.2),
    "noisy fxor": lambda: with_label_noise(T.fxor(), 0.1),
    **{f"grid{g}": lambda g=g: grid_distribution(g) for g in range(1, 17)},
    "mixed polygons": mixed_polygons,
    "12-gon fan": twelve_gon_fan,
    # Many CDF entries share a guide bucket; zero-mass cells at both ends.
    "skewed 0.99 first": lambda: strips([0.0, 0.99, *SMALL, 0.0]),
    "skewed 0.99 last": lambda: strips([0.0, *SMALL, 0.99, 0.0]),
}


@pytest.mark.parametrize("n", [0, 1, 2, 7, 5000])
@pytest.mark.parametrize("case", list(CASES))
def test_sample_equals_the_per_cell_loop(case, n):
    dist = CASES[case]()
    for seed in SEEDS:
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = sample(dist, n, rng), reference_sample(dist, n, ref_rng)
        assert got.X.shape == want.X.shape and got.y.dtype == want.y.dtype
        assert (got.X == want.X).all(), f"{case} seed {seed}"
        assert (got.y == want.y).all(), f"{case} seed {seed}"
        assert rng.random() == ref_rng.random(), f"{case} seed {seed}"


@pytest.mark.parametrize("case", ["mixed polygons", "12-gon fan", "noisy fxor", "quads", "grid11",
                                  "grid16", "skewed 0.99 first", "skewed 0.99 last"])
def test_draws_on_cdf_boundaries_match_the_loop(case):
    """Uniforms equal to a CDF entry or one double from it: a CDF rounded
    otherwise than the loop's picks another triangle or class."""
    dist = CASES[case]()
    values = boundary_values(dist)
    stream, ref_stream = BoundaryStream(values, 0), BoundaryStream(values, 0)
    got, want = sample(dist, 5000, stream), reference_sample(dist, 5000, ref_stream)
    assert (got.X == want.X).all()
    assert (got.y == want.y).all()
    assert stream.random() == ref_stream.random()


@pytest.mark.parametrize("case", ["xor", "grid11", "mixed polygons", "skewed 0.99 first",
                                  "skewed 0.99 last"])
def test_guide_buckets_hold_the_cell_of_every_uniform_in_them(case):
    """A bucket [b/B, (b + 1)/B) holds the count of cell-CDF entries <= b/B,
    or -1 when an entry lies strictly inside it; at most one bucket per cell
    is -1."""
    dist = CASES[case]()
    sample(dist, 1, np.random.default_rng(0))
    tables = dist._sampling_tables
    cdf = np.cumsum(dist.cell_mass) / np.cumsum(dist.cell_mass)[-1]
    buckets = guide_buckets(dist)
    assert np.array_equal(tables.cdf, cdf)
    assert tables.guide.size == buckets >= min(MAX_GUIDE_BUCKETS, 16 * cdf.size)
    for b, cell in enumerate(tables.guide.tolist()):
        lo, hi = b / buckets, (b + 1) / buckets
        if cell < 0:
            assert ((cdf > lo) & (cdf < hi)).any()
        else:
            assert cell == (cdf <= lo).sum() and not ((cdf > lo) & (cdf < hi)).any()
    assert (tables.guide < 0).sum() <= cdf.size


def test_tables_are_built_at_the_first_draw_and_kept():
    dist = T.xor()
    assert "_sampling_tables" not in vars(dist)
    sample(dist, 0, np.random.default_rng(0))
    assert "_sampling_tables" not in vars(dist)
    sample(dist, 3, np.random.default_rng(0))
    tables = dist._sampling_tables
    sample(dist, 3, np.random.default_rng(1))
    assert dist._sampling_tables is tables
    assert not any(a.flags.writeable for a in (tables.cdf, tables.guide, *tables.planes))


def test_the_json_partitions_are_valid_and_reach_their_edge_cases():
    mixed, fan = mixed_polygons(), twelve_gon_fan()
    for dist in (mixed, fan):
        assert T.validate_partition(dist.partition).ok
    assert sorted(mixed.partition.vertex_counts.tolist()) == [3, 3, 5, 5]
    assert (mixed.cell_mass == 0).sum() == 1
    assert sorted(set(fan.partition.vertex_counts.tolist())) == [4, 5, 6, 12]
    # the zero-mass cell is never drawn
    s = sample(mixed, 5000, np.random.default_rng(0))
    assert (locate_cells(s.X, mixed) != 1).all()


@pytest.mark.parametrize("p", [
    np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
    np.random.default_rng(5).dirichlet(np.ones(9)),
    np.array([1.0]),
], ids=["one-hot", "dense", "k=1"])
@pytest.mark.parametrize("size", [1, 3, 1000])
def test_numpy_choice_is_a_right_search_of_one_uniform_per_draw(p, size):
    """``sample`` relies on this stream layout of ``Generator.choice``."""
    rng, ref_rng = np.random.default_rng(99), np.random.default_rng(99)
    drawn = rng.choice(p.size, size=size, p=p)
    cdf = np.cumsum(p)
    expected = np.searchsorted(cdf / cdf[-1], ref_rng.random(size), side="right")
    assert (drawn == expected).all()
    assert rng.random() == ref_rng.random()


def test_noisy_labels_need_no_rows_by_classes_table():
    dist = with_label_noise(grid_distribution(30), 0.1)
    n, k = 20_000, dist.num_classes
    dense_table = n * k * 8
    tracemalloc.start()
    try:
        s = sample(dist, n, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert k == 900 and dense_table == 144_000_000
    assert peak < dense_table / 10
    # grid30's cells are row-major on [-1, 1]^2, so each point's cell follows from its coordinates
    ix, iy = np.minimum(((s.X + 1.0) * 15.0).astype(int), 29).T
    flipped = s.y != dist.cell_labels[iy * 30 + ix]
    assert 0.08 < flipped.mean() < 0.12


@pytest.mark.parametrize("bad", [2.0, True, False, "3", None, -1, np.float64(2), np.bool_(True)])
def test_sample_rejects_a_count_that_is_not_a_non_negative_integer(dist_xor, bad):
    with pytest.raises(DistributionError, match="non-negative integer"):
        sample(dist_xor, bad, np.random.default_rng(0))


@pytest.mark.parametrize("count", [np.int64(5), np.int32(5), np.uint8(5), np.uint8(200)])
def test_sample_accepts_numpy_integer_counts(dist_xor, count):
    got = sample(dist_xor, count, np.random.default_rng(3))
    want = sample(dist_xor, int(count), np.random.default_rng(3))
    assert len(got) == int(count)
    assert (got.X == want.X).all() and (got.y == want.y).all()
