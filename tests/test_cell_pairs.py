"""Differential tests for the batched cell-pair engine.

Every cell-pair scan (label-mass profiles, partition diagnostics,
sub-partition checks and the minimality warnings) takes its candidate
pairs from the bounding-box broad phase, and the first three clip them in
``geometry.pair_intersection_areas``.  The per-pair loops the engine
replaced live in ``tests/oracles.py``: discrete results (tie masks,
``ok`` flags, sub-partition answers, warnings) must equal theirs, and
area-derived numbers must agree within 1e-12, since batched sums round
differently.  The exact rational oracle bounds the engine's own error.
Point location over the padded ``cell_vertices`` rows must name the very
cells the per-cell scan in ``oracles.locate_cells`` names.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tasksim as T
from oracles import (
    ConvexPolygon,
    box_polygon,
    exact_intersection_area,
    exact_partition_diagnostics,
    exact_label_mass_profiles,
    locate_cells,
    reference_clip,
    reference_intersection_area,
    reference_is_subpartition,
    reference_label_mass_profiles,
    reference_rxor_cells,
    reference_similarity,
    reference_validate_distribution,
    reference_validate_partition,
)
from test_sample import mixed_polygons, twelve_gon_fan
from tasksim import distributions, geometry
from tasksim.distributions import PartitionDistribution, validate_distribution
from tasksim.geometry import (
    GeometryError,
    Partition,
    clip_lanes,
    convex_cells,
    intersection_area,
    is_subpartition,
    overlapping_pairs,
    pair_intersection_areas,
    validate_partition,
)
from tasksim.similarity import TIE_TOL, analytic_matrix, label_mass_profiles, near_best

TOL = 1e-12


def assert_same_diagnostics(partition, exact):
    """Diagnostics are areas of up to the domain's size, so besides 1e-12
    they may round by a few ulps of the domain area (about 1e-12 again on
    a unit domain, 6e-8 on a 2000-wide one)."""
    got = validate_partition(partition)
    loops = reference_validate_partition(partition)
    assert got.ok == loops.ok
    want = exact_partition_diagnostics(partition) if exact else (
        loops.coverage_gap, loops.max_overlap, loops.max_outside)
    assert np.abs(np.subtract([got.coverage_gap, got.max_overlap, got.max_outside], want)).max() \
        <= TOL + 64 * np.finfo(float).eps * partition.domain_area


def assert_same_scans(dists, exact=False):
    """Label masses, ties, matrices, diagnostics, sub-partition results and warnings.

    Discrete results must equal the per-pair loops'.  Float results are
    held within 1e-12 to the loops, or with ``exact`` to the rational
    oracle: the loops round in absolute coordinates, so on a domain far
    from the origin relative to its size they drift by more than that.
    (Exact arithmetic does not snap slivers thinner than EPS_SNAP away, as
    the engine and the loops both do.)
    """
    got = analytic_matrix(dists)
    for i, tgt in enumerate(dists):
        assert_same_diagnostics(tgt.partition, exact)
        assert validate_distribution(tgt) == reference_validate_distribution(tgt)
        for j, src in enumerate(dists):
            loops = reference_label_mass_profiles(tgt, src)
            want = exact_label_mass_profiles(tgt, src) if exact else loops
            assert np.abs(got.masses[i][j] - want).max() <= TOL
            assert np.array_equal(near_best(got.masses[i][j]),
                                  loops >= loops.max(axis=1, keepdims=True) - TIE_TOL)
            ts_want, ats_want, excluded_want = reference_similarity(want)
            assert abs(got.ts_values[i, j] - ts_want) <= TOL
            assert abs(got.ats_values[i, j] - ats_want) <= TOL
            assert abs(got.excluded_mass[i, j] - excluded_want) <= TOL
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
    assert_same_scans(dists, exact=True)


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
            cells.append(box_polygon(
                (xs[i] + e[0], xs[i + 1] + e[1], ys[j] + e[2], ys[j + 1] + e[3])).vertices)
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


def test_minimality_scan_does_not_depend_on_block_sizes(monkeypatch):
    dists = [T.rxor(30), T.fxor(), T.grid_distribution(7, labels=[i // 2 % 3 for i in range(49)])]
    want = [validate_distribution(d) for d in dists]
    assert want[2]  # the 3-class grid has same-class neighbours
    monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", 7)
    monkeypatch.setattr(distributions, "_BLOCK_ENTRIES", 7)
    assert [validate_distribution(d) for d in dists] == want


# ---------------------------------------------------------------------------
# the engine against exact arithmetic and against the scalar clipper


@given(st.floats(0.0, 89.9), st.integers(1, 8))
@settings(max_examples=8, deadline=None)
def test_masses_match_the_rational_oracle(theta, n):
    dists = [T.rxor(theta), T.fxor(), T.xor(), T.grid_distribution(n)]
    for tgt in dists:
        for src in dists:
            want = exact_label_mass_profiles(tgt, src)
            assert np.abs(label_mass_profiles(tgt, src) - want).max() <= TOL


def engine_areas(ps, qs):
    """pair_intersection_areas of ps[k] and qs[k] for every k."""
    pv, pc = convex_cells([p.vertices for p in ps])
    qv, qc = convex_cells([q.vertices for q in qs])
    idx = np.arange(len(ps))
    return pair_intersection_areas(pv, pc, qv, qc, idx, idx)


def box(x0, x1, y0, y1):
    return box_polygon((x0, x1, y0, y1))


UNIT = box(0, 1, 0, 1)
DIAMOND = ConvexPolygon([(0.5, -0.2), (1.2, 0.5), (0.5, 1.2), (-0.2, 0.5)])
EDGE_CASES = {
    "disjoint": (UNIT, box(2, 3, 0, 1), 0.0),
    "nested": (UNIT, box(0.25, 0.5, 0.25, 0.75), 0.125),
    "identical": (UNIT, box(0, 1, 0, 1), 1.0),
    "shared edge": (UNIT, box(1, 2, 0, 1), 0.0),
    "shared vertex": (UNIT, box(1, 2, 1, 2), 0.0),
    "vertex touching an edge": (UNIT, ConvexPolygon([(1, 0.5), (2, 0), (2, 1)]), 0.0),
    "sub-EPS_SNAP sliver": (UNIT, box(1 - 1e-13, 2, 0, 1), 0.0),
    "sliver above EPS_SNAP": (UNIT, box(1 - 1e-11, 2, 0, 1), 1e-11),
    "crossing": (UNIT, DIAMOND, None),
    "pentagon in a triangle": (ConvexPolygon([(0, 0), (4, 0), (0, 4)]),
                               ConvexPolygon([(0.5, 0.5), (1, 0.4), (1.3, 1), (1, 1.5), (0.4, 1)]),
                               None),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_engine_edge_cases(case):
    p, q, area = EDGE_CASES[case]
    got = engine_areas([p, q], [q, p])
    want = [reference_intersection_area(p, q), reference_intersection_area(q, p)]
    assert np.abs(got - want).max() <= TOL
    exact = float(exact_intersection_area(p.vertices, q.vertices))
    assert abs(got[0] - exact) <= TOL
    if area is not None:
        assert abs(got[0] - area) <= TOL


@st.composite
def convex_polygons(draw):
    """3..8 vertices on a circle of radius 0.1..1 around a point near the origin."""
    k = draw(st.integers(3, 8))
    gaps = np.asarray(draw(st.lists(st.floats(0.2, 1.0), min_size=k, max_size=k)))
    angles = draw(st.floats(0, 2 * np.pi)) + 2 * np.pi * np.cumsum(gaps) / gaps.sum()
    r = draw(st.floats(0.1, 1.0))
    cx, cy = draw(st.floats(-1, 1)), draw(st.floats(-1, 1))
    return ConvexPolygon(np.column_stack([cx + r * np.cos(angles), cy + r * np.sin(angles)]))


@given(st.lists(st.tuples(convex_polygons(), convex_polygons()), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_engine_matches_scalar_clipper_on_random_convex_pairs(pairs):
    ps, qs = zip(*pairs)
    got = engine_areas(ps, qs)
    want = [reference_intersection_area(p, q) for p, q in pairs]
    exact = [float(exact_intersection_area(p.vertices, q.vertices)) for p, q in pairs]
    assert np.abs(got - want).max() <= TOL
    assert np.abs(got - exact).max() <= TOL


halfplanes = st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-3, 3)).filter(
    lambda t: abs(t[0]) + abs(t[1]) > 1e-3)


@given(st.lists(st.tuples(convex_polygons(), halfplanes), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_clip_lanes_matches_scalar_clipper_on_random_half_planes(cases):
    polys, planes = zip(*cases)
    poly, counts = convex_cells([p.vertices for p in polys])
    poly = np.concatenate((poly, poly[:, :1]), axis=1)
    a, b, c = (np.array(col)[:, None] for col in zip(*planes))
    poly, counts, empty = clip_lanes(poly, counts, poly[..., 0] * a + poly[..., 1] * b - c)
    for k, (p, hp) in enumerate(cases):
        want = reference_clip(p, *hp)
        try:
            got = None if empty[k] else ConvexPolygon(poly[k, : counts[k]])
        except GeometryError:
            got = None
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got.vertices, want.vertices)


def test_rxor_cells_match_the_scalar_two_clip_construction():
    for theta in [*range(90), 1e-9, 89.999999]:
        got = T.rxor(theta).partition.cells
        want = reference_rxor_cells(theta)
        assert all(np.array_equal(c, w) for c, w in zip(got, want, strict=True))


@st.composite
def boxes(draw):
    """Up to 30 boxes on a quarter-unit lattice, so many of them touch."""
    coord = st.integers(-4, 4).map(lambda v: v / 4)
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        x0, x1 = sorted(draw(st.tuples(coord, coord)))
        y0, y1 = sorted(draw(st.tuples(coord, coord)))
        rows.append((x0, x1, y0, y1))
    return np.array(rows, dtype=float).reshape(-1, 4)


@given(boxes(), boxes(), st.sampled_from([1, 7, 1 << 16]))
@settings(max_examples=100, deadline=None)
def test_broad_phase_matches_a_dense_mask(a, b, block):
    full = a[:, None, :]
    hit = (b[:, 1] > full[..., 0]) & (full[..., 1] > b[:, 0])
    hit &= (b[:, 3] > full[..., 2]) & (full[..., 3] > b[:, 2])
    saved, geometry._BLOCK_ENTRIES = geometry._BLOCK_ENTRIES, block
    try:
        got = overlapping_pairs(a, b)
    finally:
        geometry._BLOCK_ENTRIES = saved
    want = np.nonzero(hit)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_chunk_and_block_sizes_do_not_change_results(monkeypatch):
    dists = [T.rxor(30), T.fxor(), T.grid_distribution(5)]
    want = [label_mass_profiles(t, s) for t in dists for s in dists]
    monkeypatch.setattr(geometry, "_PAIR_CHUNK", 3)
    monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", 7)
    got = [label_mass_profiles(t, s) for t in dists for s in dists]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# domain scale and memory


def moved(dist, scale, dx, dy):
    """dist with its domain and every cell mapped by x -> scale * x + (dx, dy)."""
    cells = [c * scale + (dx, dy) for c in dist.partition.cells]
    xmin, xmax, ymin, ymax = dist.partition.domain
    domain = (xmin * scale + dx, xmax * scale + dx, ymin * scale + dy, ymax * scale + dy)
    return PartitionDistribution(Partition(cells, domain), dist.labels_per_cell,
                                 dist.cell_mass, dist.num_classes, name=dist.name)


UNIT_BUILTINS = [T.xor(), T.quads(), T.rxor(45), T.rxor(30), T.fxor(), T.grid_distribution(3)]
UNIT_MATRIX = analytic_matrix(UNIT_BUILTINS)


@given(st.integers(-3, 3), st.floats(-100, 100), st.floats(-100, 100))
@settings(max_examples=20, deadline=None)
def test_similarity_does_not_change_with_domain_scale_and_offset(k, dx, dy):
    scale = 10.0 ** k
    got = analytic_matrix([moved(d, scale, dx, dy) for d in UNIT_BUILTINS])
    # Rounding the moved vertices moves the task itself by up to one ulp of
    # the offset, relative to the domain's size.
    tol = TOL + np.finfo(float).eps * (abs(dx) + abs(dy)) / scale
    assert np.abs(got.ts_values - UNIT_MATRIX.ts_values).max() <= tol
    assert np.abs(got.ats_values - UNIT_MATRIX.ats_values).max() <= tol


def test_xor_scaled_up_still_validates():
    # xor's quadrants are exact boxes: no sliver overlaps grow with the
    # domain (as rxor(0)'s 1e-16 vertex offsets did, to 9.1e-9 at 1e4).
    big = moved(T.xor(), 1e4, 0.0, 0.0)
    assert validate_distribution(big) == []
    assert validate_partition(big.partition).max_overlap == 0.0


def test_masses_far_from_the_origin_match_the_rational_oracle():
    # The smallest domain furthest out: every coordinate's low bits are lost
    # to the offset, yet the clips themselves add no error.
    dists = [moved(d, 1e-3, 100.0, -100.0) for d in UNIT_BUILTINS]
    for tgt in dists:
        for src in dists:
            want = exact_label_mass_profiles(tgt, src)
            assert np.abs(label_mass_profiles(tgt, src) - want).max() <= TOL


def test_intersection_area_far_from_the_origin_matches_the_rational_oracle():
    # Cells of area at most 1e-6 around (100, -100): a clipper working in
    # absolute coordinates is off by up to 7.9e-7 here.
    cells = [c for d in UNIT_BUILTINS for c in moved(d, 1e-3, 100.0, -100.0).partition.cells]
    for p in cells:
        for q in cells:
            want = exact_intersection_area(p, q)
            assert abs(intersection_area(p, q) - float(want)) <= 1e-18


def test_profiles_of_large_grids_build_no_dense_pair_arrays():
    n = 128
    g = T.grid_distribution(n, labels=[(i + j) % 2 for j in range(n) for i in range(n)],
                            num_classes=2)
    tracemalloc.start()
    try:
        masses = label_mass_profiles(g, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.allclose(masses.sum(axis=1), g.cell_mass)
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# point location


def probe_points(partition, rng):
    """Random points over the domain and a margin around it, every vertex
    and edge midpoint, and each midpoint nudged across its edge by 1e-9
    and by the location tolerance's own width (1e-9 / edge length)."""
    xmin, xmax, ymin, ymax = partition.domain
    wx, wy = 0.1 * (xmax - xmin), 0.1 * (ymax - ymin)
    pts = [np.column_stack([rng.uniform(xmin - wx, xmax + wx, 2000),
                            rng.uniform(ymin - wy, ymax + wy, 2000)])]
    for v in partition.cells:
        e = np.roll(v, -1, axis=0) - v
        length = np.hypot(e[:, 0], e[:, 1])[:, None]
        outward = np.column_stack([e[:, 1], -e[:, 0]]) / length
        mid = v + 0.5 * e
        pts.append(v)
        for step in (1e-9, 1e-9 / length):
            pts += [mid, mid + step * outward, mid - step * outward]
    return np.concatenate(pts)


def locate_in_padded_rows(pts, partition, eps=1e-9):
    """Lowest-index cell holding each point, tested against every padded
    row of ``cell_vertices`` at once; padding edges are null and pass."""
    v = partition.cell_vertices
    e = np.roll(v, -1, axis=1) - v
    d = pts[:, None, None, :] - v[None]
    hit = (e[None, ..., 0] * d[..., 1] - e[None, ..., 1] * d[..., 0] >= -eps).all(axis=2)
    return np.where(hit.any(axis=1), hit.argmax(axis=1), -1)


LOCATE_CASES = (
    [T.xor(), T.quads(), T.rxor(45), T.fxor()]
    + [T.rxor(theta) for theta in [*range(90), 1e-9, 89.999999]]
    + [T.grid_distribution(n, labels=[0] * n * n, num_classes=1) for n in range(1, 17)]
    + [moved(d, scale, dx, dy) for d in UNIT_BUILTINS
       for scale, dx, dy in [(1e-3, 100.0, -100.0), (1e3, -7.5, 3.25), (3.0, 0.1, 0.2)]]
    + [mixed_polygons(), twelve_gon_fan()]  # rows of unequal length, so padded
)


@pytest.mark.parametrize("dist", LOCATE_CASES, ids=lambda d: d.name)
def test_locate_matches_the_per_cell_scan(dist):
    """The padded ``cell_vertices`` rows the engine reads name the very
    cells that the per-cell scan over ``partition.cells`` names, and the
    cells leave no point of the domain unlocated."""
    partition = dist.partition
    pts = probe_points(partition, np.random.default_rng(len(partition.cells)))
    got = locate_cells(pts, dist)
    assert np.array_equal(locate_in_padded_rows(pts, partition), got)
    xmin, xmax, ymin, ymax = partition.domain
    in_domain = ((xmin <= pts[:, 0]) & (pts[:, 0] <= xmax)
                 & (ymin <= pts[:, 1]) & (pts[:, 1] <= ymax))
    assert (got[in_domain] >= 0).all()
