"""Partitions written from boxes against the per-cell polygon construction.

``Partition.from_boxes`` writes every grid, quadrant and induced
partition straight into the padded arrays.  ``oracles.box_polygon`` and
``oracles.reference_grid_partition`` build the same cells one normalised
(reference) ``ConvexPolygon`` at a time, as the library once did.  Both must give
the very same arrays and cell masses, bit for bit.
"""

import numpy as np
import pytest

import tasksim as T
from oracles import (
    box_polygon,
    reference_fit_tree,
    reference_grid_partition,
    uniform_mass,
)
from tasksim import distributions, geometry
from tasksim.distributions import DOMAIN, PROB_TOL, SampleSet
from tasksim.geometry import GeometryError, Partition
from tasksim.learners import DEFAULT_MIN_GAIN

DOMAINS = [(-1.0, 1.0, -1.0, 1.0), (0.3, 7.1, -2.2, 11.9), (1e3, 1e3 + 3.7, -5e2, -5e2 + 1.1)]
QUADRANTS = [(0.0, 1.0, 0.0, 1.0), (-1.0, 0.0, 0.0, 1.0),
             (-1.0, 0.0, -1.0, 0.0), (0.0, 1.0, -1.0, 0.0)]


def assert_same_partition(got: Partition, want: Partition):
    assert got.domain == want.domain
    for name in ("cell_vertices", "vertex_counts", "cell_bounds"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("n", [*range(1, 17), 33, 64, 128])
def test_grids_match_the_polygon_construction(n, domain):
    want, want_mass = reference_grid_partition(n, domain)
    part = T.make_grid_partition(n, domain)
    assert_same_partition(part, want)
    assert np.array_equal(distributions._uniform_mass(part), want_mass)
    dist = T.grid_distribution(n, labels=np.arange(n * n) % 2, num_classes=2, domain=domain)
    assert_same_partition(dist.partition, want)
    assert np.array_equal(dist.cell_mass, want_mass)
    assert abs(dist.cell_mass.sum() - 1.0) <= PROB_TOL


def test_quads_and_fxor_match_the_polygon_construction():
    cells = [box_polygon(b) for b in QUADRANTS]
    quads = T.quads()
    assert_same_partition(quads.partition, Partition([c.vertices for c in cells], DOMAIN))
    assert np.array_equal(quads.cell_mass, uniform_mass(cells, 4.0))
    fxor = T.fxor()
    want, want_mass = reference_grid_partition(4, DOMAIN)
    assert_same_partition(fxor.partition, want)
    assert np.array_equal(fxor.cell_mass, want_mass)


def leaf_boxes(node, out):
    """(xmin, xmax, ymin, ymax) of every leaf of a reference tree, by leaf id."""
    if node.is_leaf:
        out[node.leaf_id] = (node.lo[0], node.hi[0], node.lo[1], node.hi[1])
    else:
        leaf_boxes(node.left, out)
        leaf_boxes(node.right, out)
    return out


@pytest.mark.parametrize("depth", [1, 3, 5])
def test_tree_induced_partition_matches_the_polygon_construction(dist_rxor45, depth):
    s = T.sample(dist_rxor45, 2000, np.random.default_rng(3))
    m = T.fit_tree(s, max_depth=depth, domain=DOMAIN)
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    root, _ = reference_fit_tree(s.X, s.y, 2, lo, hi, depth, 1, DEFAULT_MIN_GAIN)
    boxes = leaf_boxes(root, {})
    want = Partition([box_polygon(boxes[i]).vertices for i in range(len(boxes))], DOMAIN)
    assert_same_partition(T.induced_partition(m), want)


@pytest.mark.parametrize("bins", range(1, 9))
def test_histogram_induced_partition_matches_the_polygon_construction(bins):
    domain = (-3.0, 5.0, 0.5, 2.0)
    rng = np.random.default_rng(bins)
    X = np.column_stack([rng.uniform(-3, 5, 50), rng.uniform(0.5, 2, 50)])
    m = T.fit_histogram(SampleSet(X, rng.integers(0, 2, 50)), bins, domain)
    # Region i0 * bins + i1 is the box of bin i0 along x and bin i1 along y.
    e0, e1 = np.linspace(-3.0, 5.0, bins + 1), np.linspace(0.5, 2.0, bins + 1)
    want = Partition([box_polygon((e0[i0], e0[i0 + 1], e1[i1], e1[i1 + 1])).vertices
                      for i0 in range(bins) for i1 in range(bins)], domain)
    assert_same_partition(T.induced_partition(m), want)


@pytest.mark.parametrize("box", [
    (0.0, 1e-13, 0.0, 1.0),  # a side of 1e-13
    (0.0, 1e-6, 0.0, 1e-7),  # an area of 1e-13
    (0.0, np.nan, 0.0, 1.0),
    (0.0, 1.0, 0.0, np.inf),
    (1.0, 0.0, 0.0, 1.0),  # xmax < xmin
])
def test_from_boxes_rejects_degenerate_and_non_finite_boxes(box):
    with pytest.raises(GeometryError):
        Partition.from_boxes([(0.0, 1.0, 0.0, 1.0), box], (0.0, 1.0, 0.0, 1.0))


def test_from_boxes_rejects_no_boxes_and_a_bad_domain():
    with pytest.raises(GeometryError, match="at least one cell"):
        Partition.from_boxes(np.zeros((0, 4)), (0.0, 1.0, 0.0, 1.0))
    with pytest.raises(GeometryError, match="positive extent"):
        Partition.from_boxes([(0.0, 1.0, 0.0, 1.0)], (0.0, 1.0, 0.0))


def test_partition_arrays_are_read_only_and_cells_derive_from_them():
    part = T.make_grid_partition(2, (0.0, 2.0, 0.0, 2.0))
    for arr in (part.cell_vertices, part.vertex_counts, part.cell_bounds, *part.cells):
        assert not arr.flags.writeable
    assert [c.tolist() for c in part.cells] == part.to_json_dict()["cells"]
    assert_same_partition(Partition(part.cells, part.domain), part)


def test_box_built_partitions_construct_no_polygon(monkeypatch, dist_rxor45):
    tree = T.fit_tree(T.sample(dist_rxor45, 500, np.random.default_rng(0)), max_depth=3,
                      domain=DOMAIN)
    hist = T.fit_histogram(T.sample(dist_rxor45, 500, np.random.default_rng(1)), 4, DOMAIN)

    def refuse(cells, counts=None):
        raise AssertionError("convex_cells constructed a cell")

    monkeypatch.setattr(geometry, "convex_cells", refuse)
    monkeypatch.setattr(distributions, "convex_cells", refuse)
    assert len(T.grid_distribution(11).cell_mass) == 121
    assert len(T.quads().cell_mass) == 4
    assert len(T.fxor().cell_mass) == 16
    assert len(T.induced_partition(tree).vertex_counts) <= 8
    assert len(T.induced_partition(hist).vertex_counts) == 16
    with pytest.raises(AssertionError, match="constructed"):
        T.rxor(30)
