import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ConvexPolygon, _exact_points, box_polygon, diameter, exact_area
from tasksim.geometry import (
    MAX_GRID,
    GeometryError,
    Partition,
    clip_lanes,
    convex_cells,
    intersection_area,
    is_subpartition,
    make_grid_partition,
    overlapping_pairs,
    padded_areas,
    pair_intersection_areas,
    validate_partition,
)

UNIT_SQUARE = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
BIG_SQUARE = ConvexPolygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])


def cell(vertices) -> np.ndarray:
    """One cell's vertices as ``convex_cells`` normalises them."""
    verts, counts = convex_cells([vertices])
    return verts[0, : counts[0]]


def cell_area(vertices) -> float:
    return float(padded_areas(cell(vertices)[None])[0])


def test_polygon_rejects_degenerate():
    with pytest.raises(GeometryError):
        cell([(0, 0), (1, 0)])
    with pytest.raises(GeometryError):
        cell([(0, 0), (1, 0), (2, 0)])  # collinear, zero area
    with pytest.raises(GeometryError):
        cell([(0, 0), (2, 0), (1, 1), (1, -1)])  # not convex as ordered


def test_polygon_normalizes_winding():
    assert cell_area([(0, 1), (1, 1), (1, 0), (0, 0)]) == pytest.approx(1.0)


def test_polygon_keeps_a_corner_beside_a_stripped_vertex():
    # (5e-10, 4e-9) lies on the line from (1, 0) to (0, 4e-9) to within 2e-18
    # and goes; (0, 4e-9) only looks collinear through its 5e-10 edge to it.
    assert cell_area([(0, 0), (1, 0), (5e-10, 4e-9), (0, 4e-9)]) == pytest.approx(2e-9, rel=1e-6)


def test_area_examples():
    assert cell_area(UNIT_SQUARE.vertices) == pytest.approx(1.0)
    assert cell_area([(0, 0), (1, 0), (0, 1)]) == pytest.approx(0.5)
    assert cell_area(BIG_SQUARE.vertices) == pytest.approx(4.0)


@pytest.mark.parametrize("k", range(2, 9))
def test_polygon_area_far_from_the_origin_matches_the_rational_area(k):
    quad = np.array([(0.0, 0.0), (1.3, 0.1), (1.1, 0.9), (0.2, 0.7)]) + 10.0**k
    area = cell_area(quad)
    exact = exact_area(_exact_points(cell(quad)))
    assert abs(area - exact) <= 1e-15 * exact
    # A clockwise copy is reversed and measured again from its new vertex 0.
    assert cell_area(quad[::-1]) == pytest.approx(area, rel=1e-15)
    assert cell_area(UNIT_SQUARE.vertices + 10.0**k) == 1.0


def clip(polygon, a, b, c):
    """polygon ∩ {a*x + b*y <= c} by the engine's per-edge rule, or None when
    it has (numerically) no area."""
    v = np.concatenate((polygon.vertices, polygon.vertices[:1]))[None]
    out, counts, empty = clip_lanes(v, np.array([len(polygon.vertices)]),
                                    v[..., 0] * a + v[..., 1] * b - c)
    try:
        return None if empty[0] else ConvexPolygon(out[0, : counts[0]])
    except GeometryError:
        return None


def test_clip_half_of_square():
    out = clip(UNIT_SQUARE, 1, 0, 0.5)
    assert out is not None
    assert out.area == pytest.approx(0.5)


def test_clip_identity_when_containing():
    out = clip(UNIT_SQUARE, 1, 0, 5.0)
    assert np.array_equal(out.vertices, UNIT_SQUARE.vertices)


def test_clip_to_empty():
    assert clip(UNIT_SQUARE, 1, 0, -1.0) is None


def test_clip_diagonal_wedge():
    # {x1 >= x0} is -x0 + x1 >= 0, i.e. x0 - x1 <= 0
    out = clip(BIG_SQUARE, 1, -1, 0)
    assert out is not None
    assert out.area == pytest.approx(2.0)
    # The expected triangle, in the same cyclic order up to a rotation.
    expected = ConvexPolygon([(-1, -1), (1, 1), (-1, 1)]).vertices
    assert out.vertices.shape == expected.shape
    assert any(np.allclose(np.roll(out.vertices, k, axis=0), expected, atol=1e-9)
               for k in range(len(expected)))


def test_intersect_overlapping_squares():
    other = ConvexPolygon([(0.5, 0), (1.5, 0), (1.5, 1), (0.5, 1)])
    assert intersection_area(UNIT_SQUARE.vertices, other.vertices) == pytest.approx(0.5)


def test_intersect_disjoint():
    other = ConvexPolygon([(2, 2), (3, 2), (3, 3), (2, 3)])
    assert intersection_area(UNIT_SQUARE.vertices, other.vertices) == 0.0


def test_intersect_quadrant_with_wedge():
    # wedge {x1 >= |x0|} inside [-1,1]^2 is the triangle (0,0),(1,1),(-1,1)
    wedge = ConvexPolygon([(0, 0), (1, 1), (-1, 1)])
    # shoelace by hand on (0,0),(1,1),(0,1) gives 0.5
    assert intersection_area(UNIT_SQUARE.vertices, wedge.vertices) == pytest.approx(0.5, abs=1e-12)


def test_diameter_examples():
    assert diameter(UNIT_SQUARE.vertices) == pytest.approx(math.sqrt(2))
    for n in (2, 4, 5):
        grid = make_grid_partition(n, (-1, 1, -1, 1))
        assert diameter(grid.cells[0]) == pytest.approx(2 * math.sqrt(2) / n)


def test_grid_partition_basics():
    grid = make_grid_partition(2, (-1, 1, -1, 1))
    assert len(grid.cells) == 4
    assert all(a == pytest.approx(1.0) for a in grid.cell_areas())
    whole = make_grid_partition(1, (-1, 1, -1, 1))
    assert len(whole.cells) == 1
    assert whole.cell_areas()[0] == pytest.approx(4.0)
    with pytest.raises(GeometryError):
        make_grid_partition(0)


def test_grid_size_capped_before_allocating(monkeypatch):
    assert len(make_grid_partition(MAX_GRID // 16).cells) == (MAX_GRID // 16) ** 2
    monkeypatch.setattr(np, "linspace", None)  # any allocation attempt would raise
    with pytest.raises(GeometryError, match=f"limit of {MAX_GRID}"):
        make_grid_partition(MAX_GRID + 1)
    with pytest.raises(GeometryError, match=f"limit of {MAX_GRID}"):
        make_grid_partition(10**9)


def test_cell_bounds_and_overlap_candidates():
    grid = make_grid_partition(2, (0, 2, 0, 2))  # row-major: cells 0, 1 on the bottom row
    assert grid.cell_bounds.tolist() == [[0, 1, 0, 1], [1, 2, 0, 1], [0, 1, 1, 2], [1, 2, 1, 2]]
    assert not grid.cell_bounds.flags.writeable
    def overlapping(box, pad=0.0):
        padded = np.asarray(box, dtype=float) + (-pad, pad, -pad, pad)
        return overlapping_pairs(padded[None], grid.cell_bounds)[1].tolist()

    # Boxes that only touch are not candidates unless padded.
    assert overlapping((0, 1, 0, 1)) == [0]
    assert overlapping((0, 1, 0, 1), pad=1e-9) == [0, 1, 2, 3]
    assert overlapping((0.5, 1.5, -5, 0.5)) == [0, 1]
    assert overlapping((3, 4, 0, 2), pad=0.5) == []


def test_grid_16_cells_max_diameter():
    grid = make_grid_partition(4, (-1, 1, -1, 1))
    assert len(grid.cells) == 16
    assert max(diameter(c) for c in grid.cells) == pytest.approx(2 * math.sqrt(2) / 4)


def test_validate_partition_passes_grid():
    diag = validate_partition(make_grid_partition(3, (-1, 1, -1, 1)))
    assert diag.ok
    assert diag.coverage_gap <= 1e-9
    assert diag.max_overlap <= 1e-9


def test_validate_partition_catches_overlap():
    cells = [
        box_polygon((0, 0.6, 0, 1)).vertices,
        box_polygon((0.4, 1, 0, 1)).vertices,
    ]
    diag = validate_partition(Partition(cells, (0, 1, 0, 1)))
    assert not diag.ok
    assert diag.max_overlap == pytest.approx(0.2)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_validate_partition_rejects_bad_tol(tol):
    with pytest.raises(GeometryError, match="tol must be finite and non-negative"):
        validate_partition(make_grid_partition(2), tol=tol)


def test_validate_partition_quadrants(dist_xor):
    assert validate_partition(dist_xor.partition).ok


def test_subpartition_grids():
    g2 = make_grid_partition(2, (-1, 1, -1, 1))
    g3 = make_grid_partition(3, (-1, 1, -1, 1))
    g4 = make_grid_partition(4, (-1, 1, -1, 1))
    assert is_subpartition(g4, g2)
    assert not is_subpartition(g3, g2)
    with pytest.raises(GeometryError):
        is_subpartition(g2, make_grid_partition(2, (0, 1, 0, 1)))


def test_subpartition_domains_agree_to_1e_12_absolute():
    g2 = make_grid_partition(2, (0.0, 1000.0, 0.0, 1000.0))
    # 9e-6 of the coordinate: inside numpy's default rtol, still refused.
    with pytest.raises(GeometryError, match="different domains"):
        is_subpartition(g2, make_grid_partition(2, (0.0, 1000.009, 0.0, 1000.0)))
    for xmax in (1000.0, 1000.0 + 5e-13):
        assert is_subpartition(make_grid_partition(4, (0.0, xmax, 0.0, 1000.0)), g2)


def test_fxor_grid_refines_quadrants(dist_xor, dist_fxor):
    assert is_subpartition(dist_fxor.partition, dist_xor.partition)


def test_partition_json_roundtrip(tmp_path):
    grid = make_grid_partition(3, (-1, 1, -1, 1))
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid.to_json_dict(), indent=2))
    loaded = Partition.from_json_dict(json.loads(path.read_text()))
    assert len(loaded.cells) == 9
    assert validate_partition(loaded).ok
    assert is_subpartition(loaded, grid) and is_subpartition(grid, loaded)


# ---------------------------------------------------------------------------
# properties

boxes = st.tuples(
    st.floats(-5, 5), st.floats(-5, 5), st.floats(0.1, 4), st.floats(0.1, 4)
).map(lambda t: (t[0], t[0] + t[2], t[1], t[1] + t[3]))

halfplanes = st.tuples(
    st.floats(-2, 2), st.floats(-2, 2), st.floats(-3, 3)
).filter(lambda t: abs(t[0]) + abs(t[1]) > 1e-3)


@given(boxes, halfplanes, halfplanes)
@settings(max_examples=60, deadline=None)
def test_clip_order_independent_in_area(box, hp1, hp2):
    poly = box_polygon(box)
    a = clip(poly, *hp1)
    a = clip(a, *hp2) if a else None
    b = clip(poly, *hp2)
    b = clip(b, *hp1) if b else None
    area_a = a.area if a else 0.0
    area_b = b.area if b else 0.0
    assert area_a == pytest.approx(area_b, abs=1e-9)


@given(boxes, boxes)
@settings(max_examples=60, deadline=None)
def test_intersection_area_bounded_and_commutative(b1, b2):
    p = box_polygon(b1)
    q = box_polygon(b2)
    apq = intersection_area(p.vertices, q.vertices)
    aqp = intersection_area(q.vertices, p.vertices)
    assert apq == pytest.approx(aqp, abs=1e-9)
    assert apq <= min(p.area, q.area) + 1e-9


@given(st.integers(1, 16), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_grid_partition_valid_and_nested(n, k):
    if k * n > 64:
        return
    g = make_grid_partition(n, (-1, 1, -1, 1))
    diag = validate_partition(g)
    assert diag.ok
    assert abs(sum(g.cell_areas()) - 4.0) <= 1e-9
    assert is_subpartition(make_grid_partition(k * n, (-1, 1, -1, 1)), g)


def random_convex_polygon(rng) -> ConvexPolygon:
    """3 to 10 vertices on an ellipse around a point near the origin, at
    sorted random angles."""
    k = int(rng.integers(3, 11))
    angles = np.sort(rng.uniform(0.0, 2 * np.pi, k))
    radii = rng.uniform(0.3, 1.2, 2)
    centre = rng.uniform(-0.4, 0.4, 2)
    return ConvexPolygon(centre + radii * np.column_stack((np.cos(angles), np.sin(angles))))


def test_intersection_area_does_not_depend_on_its_company():
    # A 12-gon pair in the same clipping pass widens every padded lane to
    # 13 columns; numpy sums a row of 8 or more terms pairwise, so an area
    # summed over the padded row would round otherwise than the pair alone.
    angles = np.arange(12) * np.pi / 6 + 0.1
    twelve = ConvexPolygon(0.8 * np.column_stack((np.cos(angles), np.sin(angles))))
    rng = np.random.default_rng(2024)
    for _ in range(300):
        p, q = random_convex_polygon(rng), random_convex_polygon(rng)
        pv, pc = convex_cells([p.vertices, twelve.vertices])
        qv, qc = convex_cells([q.vertices, twelve.vertices])
        together = pair_intersection_areas(pv, pc, qv, qc, np.arange(2), np.arange(2))
        assert together[0] == intersection_area(p.vertices, q.vertices)


def test_grid_diameter_decreases_monotonically():
    diams = [
        max(diameter(c) for c in make_grid_partition(n, (-1, 1, -1, 1)).cells)
        for n in range(1, 13)
    ]
    assert all(a > b for a, b in zip(diams, diams[1:]))
