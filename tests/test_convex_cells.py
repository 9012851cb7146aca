"""``geometry.convex_cells`` against the per-cell loop it replaced.

``oracles.ConvexPolygon`` normalises one cell at a time: it snaps
near-duplicate vertices, strips collinear ones one at a time, orders the
rest counter-clockwise and checks the result.  ``convex_cells`` does each
step over all cells at once and must give the very same vertex bits and
counts for every cell the loop accepts, and the very same GeometryError
message, the lowest-index bad cell's, for every list the loop refuses.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tasksim as T
from oracles import ConvexPolygon
from tasksim.cli import main
from tasksim.geometry import EPS_SNAP, GeometryError, Partition, convex_cells

# Offsets around EPS_SNAP = 1e-12, both sides of it and on it.
NEAR = [0.0, 1e-13, 4e-13, 7e-13, 1e-12, 1.0000001e-12, 3e-12]


def reference(cells):
    """The loop's padded arrays, or the message of the first bad cell."""
    try:
        polys = [ConvexPolygon(c) for c in cells]
    except GeometryError as exc:
        return str(exc)
    counts = np.array([len(p.vertices) for p in polys])
    width = counts.max(initial=0)
    return np.array([np.concatenate((p.vertices, np.repeat(p.vertices[:1], width - len(p.vertices),
                                                           axis=0))) for p in polys]), counts


def normalised(cells, counts=None):
    try:
        return convex_cells(cells, counts)
    except GeometryError as exc:
        return str(exc)


def assert_same(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@st.composite
def convex_polygon(draw):
    """3..9 vertices on an ellipse around a point, at sorted angles."""
    k = draw(st.integers(3, 9))
    gaps = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    angles = draw(st.floats(0, 2 * np.pi)) + 2 * np.pi * np.cumsum(gaps) / gaps.sum()
    rx, ry = draw(st.floats(0.01, 2.0)), draw(st.floats(0.01, 2.0))
    cx, cy = draw(st.floats(-5, 5)), draw(st.floats(-5, 5))
    return np.column_stack([cx + rx * np.cos(angles), cy + ry * np.sin(angles)])


def _nudge(draw, v):
    d = np.array([draw(st.sampled_from(NEAR)), draw(st.sampled_from(NEAR))])
    return v + d * draw(st.sampled_from([1.0, -1.0]))


@st.composite
def messy_cell(draw):
    """A convex polygon with near-duplicates (also chained), collinear
    points (also adjacent pairs), a repeated closing vertex and clockwise
    order mixed in, or a cell the loop refuses."""
    v = list(draw(convex_polygon()))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(v) - 1))
        a, b = v[i], v[(i + 1) % len(v)]
        kind = draw(st.sampled_from(["near", "chain", "mid", "pair", "close"]))
        if kind == "near":
            v.insert(i + 1, _nudge(draw, a))
        elif kind == "chain":
            # b within 1e-12 of a and c of b, but c farther from a.
            d = (b - a) / np.abs(b - a).max() * draw(st.sampled_from([6e-13, 9e-13, 1e-12]))
            v[i + 1 : i + 1] = [a + d, a + 2 * d]
        elif kind == "mid":
            v.insert(i + 1, a + (b - a) * draw(st.floats(0.01, 0.99)))
        elif kind == "pair":
            t = sorted(draw(st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99))))
            v[i + 1 : i + 1] = [a + (b - a) * t[0], a + (b - a) * t[1]]
        else:
            v.append(_nudge(draw, v[0]))
    bad = draw(st.sampled_from([None] * 6 + ["few", "line", "concave", "sliver", "nan", "inf"]))
    if bad == "few":
        v = v[: draw(st.integers(0, 2))]
    elif bad == "line":
        a, b = v[0], v[1]
        v = [a + (b - a) * t for t in draw(st.lists(st.floats(-2, 2), min_size=3, max_size=6))]
    elif bad == "concave":
        v.insert(draw(st.integers(1, len(v))), np.mean(v, axis=0))
    elif bad == "sliver":
        length, h = draw(st.floats(0.5, 3.0)), draw(st.floats(0.2, 2.0)) * EPS_SNAP
        v = [np.array((0.0, 0.0)), np.array((length, 0.0)), np.array((length / 2, h / length))]
    elif bad in ("nan", "inf"):
        value = np.nan if bad == "nan" else draw(st.sampled_from([np.inf, -np.inf]))
        v = [np.array(p) for p in v]
        v[draw(st.integers(0, len(v) - 1))][draw(st.integers(0, 1))] = value
    if draw(st.booleans()):
        v = v[::-1]
    return [list(map(float, p)) for p in v]


@given(st.lists(messy_cell(), min_size=1, max_size=6))
@settings(max_examples=400)
def test_convex_cells_matches_the_polygon_loop(cells):
    want = reference(cells)
    assert_same(normalised(cells), want)
    # The same cells padded with junk past each count, as rxor passes its lanes.
    counts = np.array([len(c) for c in cells])
    padded = np.full((len(cells), counts.max() + 2, 2), np.nan)
    for i, c in enumerate(cells):
        padded[i, : len(c)] = np.reshape(c, (-1, 2))
    assert_same(normalised(padded, counts), want)


@pytest.mark.parametrize("first,second", [("few", "concave"), ("concave", "nan"),
                                          ("sliver", "few"), ("nan", "line")])
def test_a_list_with_two_bad_cells_names_the_first(first, second):
    bad = {
        "few": [[0, 0], [1, 0]],
        "line": [[0, 0], [1, 1], [2, 2]],
        "concave": [[0, 0], [2, 0], [1, 1], [1, -1]],
        "sliver": [[0, 0], [1, 0], [0.5, 1.5e-12]],
        "nan": [[0, 0], [1, np.nan], [0, 1]],
    }
    good = [[0, 0], [1, 0], [1, 1]]
    for cells in ([good, bad[first], bad[second]], [bad[first], good, bad[second]]):
        want = reference(cells)
        assert isinstance(want, str)
        assert normalised(cells) == want
        assert want == reference([bad[first]])


def test_a_chain_of_near_duplicates_keeps_its_far_end():
    # b is within 1e-12 of a, c within 1e-12 of b but not of a: the loop
    # compares c with a, the last vertex it kept, and keeps c.
    a, b, c = [1, 0], [1 + 6e-13, 6e-13], [1 + 1.2e-12, 1.2e-12]
    cells = [[[0, 0], a, b, c, [1, 1], [0, 1]]]
    verts, counts = convex_cells(cells)
    assert counts.tolist() == [5]
    assert verts[0, 2].tolist() == c
    assert_same((verts, counts), reference(cells))


def test_vertices_exactly_eps_snap_apart_count_as_one():
    # Offsets from 0 are exact, so these sit at exactly EPS_SNAP.
    cells = [[[0, 0], [10, 0], [10, EPS_SNAP], [10, 10], [0, 10], [EPS_SNAP, EPS_SNAP]],
             [[0, 0], [10, 0], [10, 10], [EPS_SNAP, 10], [0, 10], [0, 0]]]
    verts, counts = convex_cells(cells)
    assert counts.tolist() == [4, 4]
    assert_same((verts, counts), reference(cells))


@pytest.mark.parametrize("cells", [
    [[[0, 0], [1, 0], [0, 1, 2]]],  # a ragged row
    ["abc"],
    [[[0, 0, 0], [1, 0, 0], [0, 1, 0]]],  # 3-d points
    [[[[0, 0]], [[1, 0]], [[0, 1]]]],
])
def test_non_array_cells_raise_a_value_error(cells):
    with pytest.raises(ValueError):
        convex_cells(cells)


@pytest.mark.parametrize("cells", [[[[0, 0], [1, 0], [0, 1, 2]]], "abc",
                                   [[[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]], [5], 5],
                         ids=["ragged", "string", "3-d", "number-cell", "number"])
def test_non_array_cells_in_a_file_exit_2_naming_the_field(tmp_path, capsys, cells):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**T.xor().to_json_dict(), "cells": cells}))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "JSON field 'cells'" in err


def test_an_empty_list_has_no_cells():
    verts, counts = convex_cells([])
    assert len(verts) == 0 and counts.shape == (0,)
    with pytest.raises(GeometryError, match="at least one cell"):
        Partition([], (0, 1, 0, 1))
