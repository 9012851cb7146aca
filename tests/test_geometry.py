import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasksim.geometry import (
    MAX_GRID,
    ConvexPolygon,
    GeometryError,
    HalfPlane,
    Partition,
    clip_convex_polygon,
    diameter,
    intersect,
    intersection_area,
    is_subpartition,
    make_grid_partition,
    overlapping_pairs,
    validate_partition,
)

UNIT_SQUARE = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
BIG_SQUARE = ConvexPolygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])


def test_polygon_rejects_degenerate():
    with pytest.raises(GeometryError):
        ConvexPolygon([(0, 0), (1, 0)])
    with pytest.raises(GeometryError):
        ConvexPolygon([(0, 0), (1, 0), (2, 0)])  # collinear, zero area
    with pytest.raises(GeometryError):
        ConvexPolygon([(0, 0), (2, 0), (1, 1), (1, -1)])  # not convex as ordered


def test_polygon_normalizes_winding():
    cw = ConvexPolygon([(0, 1), (1, 1), (1, 0), (0, 0)])
    assert cw.area == pytest.approx(1.0)


def test_area_examples():
    assert UNIT_SQUARE.area == pytest.approx(1.0)
    assert ConvexPolygon([(0, 0), (1, 0), (0, 1)]).area == pytest.approx(0.5)
    assert BIG_SQUARE.area == pytest.approx(4.0)


def test_clip_half_of_square():
    out = clip_convex_polygon(UNIT_SQUARE, HalfPlane(1, 0, 0.5))
    assert out is not None
    assert out.area == pytest.approx(0.5)


def test_clip_identity_when_containing():
    out = clip_convex_polygon(UNIT_SQUARE, HalfPlane(1, 0, 5.0))
    assert out is UNIT_SQUARE


def test_clip_to_empty():
    assert clip_convex_polygon(UNIT_SQUARE, HalfPlane(1, 0, -1.0)) is None


def test_clip_diagonal_wedge():
    # {x1 >= x0} is -x0 + x1 >= 0, i.e. x0 - x1 <= 0
    out = clip_convex_polygon(BIG_SQUARE, HalfPlane(1, -1, 0))
    assert out is not None
    assert out.area == pytest.approx(2.0)
    expected = ConvexPolygon([(-1, -1), (1, 1), (-1, 1)])
    assert out == expected


def test_intersect_overlapping_squares():
    other = ConvexPolygon([(0.5, 0), (1.5, 0), (1.5, 1), (0.5, 1)])
    out = intersect(UNIT_SQUARE, other)
    assert out is not None
    assert out.area == pytest.approx(0.5)


def test_intersect_disjoint():
    other = ConvexPolygon([(2, 2), (3, 2), (3, 3), (2, 3)])
    assert intersect(UNIT_SQUARE, other) is None


def test_intersect_quadrant_with_wedge():
    # wedge {x1 >= |x0|} inside [-1,1]^2 is the triangle (0,0),(1,1),(-1,1)
    wedge = ConvexPolygon([(0, 0), (1, 1), (-1, 1)])
    out = intersect(UNIT_SQUARE, wedge)
    assert out is not None
    # shoelace by hand on (0,0),(1,1),(0,1) gives 0.5
    assert out.area == pytest.approx(0.5, abs=1e-12)


def test_diameter_examples():
    assert diameter(UNIT_SQUARE) == pytest.approx(math.sqrt(2))
    for n in (2, 4, 5):
        grid = make_grid_partition(n, (-1, 1, -1, 1))
        assert diameter(grid.cells[0]) == pytest.approx(2 * math.sqrt(2) / n)


def test_grid_partition_basics():
    grid = make_grid_partition(2, (-1, 1, -1, 1))
    assert len(grid.cells) == 4
    assert all(c.area == pytest.approx(1.0) for c in grid.cells)
    whole = make_grid_partition(1, (-1, 1, -1, 1))
    assert len(whole.cells) == 1
    assert whole.cells[0].area == pytest.approx(4.0)
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
        ConvexPolygon.from_box((0, 0.6, 0, 1)),
        ConvexPolygon.from_box((0.4, 1, 0, 1)),
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


def test_fxor_grid_refines_quadrants(dist_xor, dist_fxor):
    assert is_subpartition(dist_fxor.partition, dist_xor.partition)


def test_locate_boundary_goes_to_lowest_index():
    grid = make_grid_partition(2, (-1, 1, -1, 1))
    idx = grid.locate(np.array([[0.0, 0.0], [2.0, 2.0]]))
    assert idx[0] == 0  # on the shared corner: lowest-index cell wins
    assert idx[1] == -1


def test_partition_json_roundtrip(tmp_path):
    from tasksim.geometry import load_partition, save_partition

    grid = make_grid_partition(3, (-1, 1, -1, 1))
    path = tmp_path / "grid.json"
    save_partition(grid, str(path))
    loaded = load_partition(str(path))
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
).filter(lambda t: abs(t[0]) + abs(t[1]) > 1e-3).map(lambda t: HalfPlane(*t))


@given(boxes, halfplanes, halfplanes)
@settings(max_examples=60, deadline=None)
def test_clip_order_independent_in_area(box, hp1, hp2):
    poly = ConvexPolygon.from_box(box)
    a = clip_convex_polygon(poly, hp1)
    a = clip_convex_polygon(a, hp2) if a else None
    b = clip_convex_polygon(poly, hp2)
    b = clip_convex_polygon(b, hp1) if b else None
    area_a = a.area if a else 0.0
    area_b = b.area if b else 0.0
    assert area_a == pytest.approx(area_b, abs=1e-9)


@given(boxes, boxes)
@settings(max_examples=60, deadline=None)
def test_intersection_area_bounded_and_commutative(b1, b2):
    p = ConvexPolygon.from_box(b1)
    q = ConvexPolygon.from_box(b2)
    apq = intersection_area(p, q)
    aqp = intersection_area(q, p)
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
    assert abs(sum(c.area for c in g.cells) - 4.0) <= 1e-9
    assert is_subpartition(make_grid_partition(k * n, (-1, 1, -1, 1)), g)


def test_grid_diameter_decreases_monotonically():
    diams = [
        max(diameter(c) for c in make_grid_partition(n, (-1, 1, -1, 1)).cells)
        for n in range(1, 13)
    ]
    assert all(a > b for a, b in zip(diams, diams[1:]))
