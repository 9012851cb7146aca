"""Exact planar geometry for partition-defined classification tasks.

Partitions of an axis-aligned box domain into convex cells, and exact
areas of their intersections.  Everything here is pure and immutable, so
values can be shared freely across threads.  A ``Partition`` stores its
cells once, as the padded arrays every computation reads:
``Partition(cells, domain)`` normalises input cells with ``convex_cells``
and ``Partition.from_boxes`` writes boxes straight in (boxes are 4-tuples
``(xmin, xmax, ymin, ymax)``, as in the CLI's JSON).  All clipping,
``rxor``'s construction included, is one per-edge rule in one engine:

- ``cell_vertices``: cells padded to ``v_max`` vertices with copies of
  each one's vertex 0, plus ``vertex_counts`` and ``cell_bounds``
- ``convex_cells``: snapping, collinear stripping, CCW order and checks
- ``overlapping_pairs``: the bounding-box broad phase, over row blocks
- ``clip_lanes``: the per-edge rule, one half-plane per polygon (lane)
- ``pair_intersection_areas``: one ``clip_lanes`` step per clip edge
  across all candidate pairs, in coordinates local to each pair;
  ``intersection_area`` is its single-pair form
- ``padded_areas``: the one area rule, a shoelace relative to each
  polygon's vertex 0, so it does not change under translation; for a box
  it is exactly ``width * height``
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Absolute area tolerance for disjointness/coverage checks; vertex snap
# distance used during clipping.  Doubles on O(1)-size domains keep ~1e-15
# relative error, so these are generous.
EPS_AREA = 1e-9
EPS_SNAP = 1e-12
# Largest grid resolution: a 256 x 256 grid builds in tens of milliseconds,
# but one pair's profiles take about a minute, nearly all in the broad phase.
MAX_GRID = 256

Box = tuple[float, float, float, float]


class GeometryError(ValueError):
    """Raised for degenerate polygons or mismatched domains."""


def _drop_while(verts: np.ndarray, counts: np.ndarray, marks) -> tuple[np.ndarray, np.ndarray]:
    """Drop each row's first flagged vertex, in place, until ``marks`` flags none."""
    col, active = np.arange(verts.shape[1]), np.arange(len(verts))
    while active.size:
        flagged = marks(verts[active], counts[active])
        active, flagged = active[flagged.any(axis=1)], flagged[flagged.any(axis=1)]
        shift = col >= flagged.argmax(axis=1)[:, None]
        verts[active] = verts[active[:, None], np.minimum(col + shift, col.size - 1)]
        counts[active] -= 1
    return verts, counts


def convex_cells(cells, counts=None) -> tuple[np.ndarray, np.ndarray]:
    """(n, v_max, 2) CCW vertices, padded with each row's vertex 0, and (n,)
    counts of (k, 2) vertex lists, or of rows holding cell i in their first
    counts[i] columns.  Passes over all rows drop a vertex within EPS_SNAP of
    the last kept one, then a closing one within EPS_SNAP of vertex 0, then
    each row's first with |cross| <= EPS_SNAP against the neighbours left;
    clockwise rows are reversed.  The first bad cell's first failed check raises."""
    if counts is None:
        counts = np.fromiter(map(len, cells), dtype=np.intp)
        flat = np.array(list(itertools.chain.from_iterable(cells)), dtype=float)
        if flat.size and (flat.ndim != 2 or flat.shape[1] != 2):
            raise ValueError("cell vertices must be (x, y) pairs")
        verts = np.zeros((counts.size, max(2, counts.max(initial=0)), 2))
        verts[np.arange(verts.shape[1]) < counts[:, None]] = flat.reshape(-1, 2)
    else:
        verts, counts = np.asarray(cells, dtype=float), np.array(counts, dtype=np.intp)
    rows, col = np.arange(counts.size)[:, None], np.arange(verts.shape[1])
    finite = (np.isfinite(verts).all(axis=2) | (col >= counts[:, None])).all(axis=1)
    verts = np.where(np.isfinite(verts), verts, 0.0)
    verts, counts = _drop_while(verts, counts, lambda v, c: (0 < col) & (col < c[:, None]) & ~(
        np.abs(v - np.roll(v, 1, axis=1)).max(axis=2) > EPS_SNAP))
    last = verts[rows[:, 0], counts - 1]
    counts = counts - ((counts > 1) & (np.abs(verts[:, 0] - last).max(axis=1) <= EPS_SNAP))

    def collinear(v, c):
        r, k = np.arange(len(v))[:, None], np.maximum(c, 1)[:, None]
        prev = v[r, (col - 1) % k]
        a, b = v - prev, v[r, (col + 1) % k] - prev
        cross = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
        return (k >= 3) & (col < c[:, None]) & ~(np.abs(cross) > EPS_SNAP)

    verts, counts = _drop_while(verts, counts, collinear)
    col = col[: max(2, counts.max(initial=0))]
    real = col < counts[:, None]
    verts = np.where(real[..., None], verts[:, : col.size], verts[:, :1])
    flip = padded_areas(verts)[:, None] < 0
    verts = verts[rows, np.where(flip, counts[:, None] - 1 - col * real, col)]
    area = padded_areas(verts)
    nxt = (col + 1) % np.maximum(counts, 1)[:, None]
    e1 = verts[rows, nxt] - verts
    e2 = e1[rows, nxt]
    concave = ((e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0] <= 0) & real).any(axis=1)
    checks = {"polygon vertices must be finite": ~finite,
              "polygon needs at least 3 non-collinear vertices": counts < 3,
              "polygon is not strictly convex and counter-clockwise": concave,
              "polygon area must be positive": area <= EPS_SNAP}
    failed = np.column_stack(list(checks.values()))
    if failed.any():  # the first failed check of the first bad cell
        raise GeometryError(list(checks)[failed[failed.any(axis=1).argmax()].argmax()])
    return verts, counts


# Candidate pairs clipped per engine pass and broad-phase mask entries per
# row block: both bound the size of the working arrays, not of the result.
_PAIR_CHUNK = 4096
_BLOCK_ENTRIES = 1 << 16


def box_vertices(boxes: np.ndarray) -> np.ndarray:
    """(n, 4, 2) CCW vertex rows of (n, 4) boxes (xmin, xmax, ymin, ymax),
    from (xmin, ymin): the order ``Partition(cells, domain)`` keeps."""
    x0, x1, y0, y1 = np.asarray(boxes, dtype=float).T
    return np.stack((x0, y0, x1, y0, x1, y1, x0, y1), axis=1).reshape(-1, 4, 2)


def padded_areas(poly: np.ndarray) -> np.ndarray:
    """Shoelace areas of padded polygons, positive for CCW ones.  The sum
    is taken relative to each polygon's vertex 0, so it stays accurate far
    from the origin, and padding columns contribute 0.  Its terms are
    added left to right, so a polygon's area does not depend on how wide
    its padded array is: ``sum`` would add a row of 8 or more terms
    pairwise."""
    d = poly - poly[:, :1]
    cross = d[:, :-1, 0] * d[:, 1:, 1] - d[:, :-1, 1] * d[:, 1:, 0]
    area = cross[:, 0]
    for column in cross.T[1:]:
        area = area + column
    return 0.5 * area


def _pad_to(poly: np.ndarray, width: int) -> np.ndarray:
    """Widen padded polygons to ``width`` columns with copies of vertex 0."""
    extra = width - poly.shape[1]
    if extra <= 0:
        return poly
    return np.concatenate((poly, np.repeat(poly[:, :1], extra, axis=1)), axis=1)


def stacked_cells(parts: Sequence["Partition"]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells of every partition in ``parts``, in order, as one set of
    (vertices, counts, bounds) arrays, the vertex rows padded to one width."""
    if len(parts) == 1:
        return parts[0].cell_vertices, parts[0].vertex_counts, parts[0].cell_bounds
    width = max(p.cell_vertices.shape[1] for p in parts)
    return (np.concatenate([_pad_to(p.cell_vertices, width) for p in parts]),
            np.concatenate([p.vertex_counts for p in parts]),
            np.concatenate([p.cell_bounds for p in parts]))


def overlapping_pairs(a_bounds: np.ndarray, b_bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index vectors (i, j) of every pair of boxes a[i], b[j] that overlap
    by a positive amount on both axes, ascending by i, then j.  Boxes that
    only touch are not a pair.  The broad phase (Cohen et al., I-COLLIDE
    1995) in front of every cell-pair scan.

    Rows of ``a`` are tested against all of ``b`` in blocks of rows, so no
    mask larger than one block is built.
    """
    b = b_bounds
    rows = max(1, _BLOCK_ENTRIES // max(1, len(b)))
    found_i, found_j = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for start in range(0, len(a_bounds), rows):
        a = a_bounds[start : start + rows, :, None]
        hit = (b[:, 1] > a[:, 0]) & (a[:, 1] > b[:, 0])
        hit &= (b[:, 3] > a[:, 2]) & (a[:, 3] > b[:, 2])
        i, j = np.nonzero(hit)
        found_i.append(start + i)
        found_j.append(j)
    return np.concatenate(found_i), np.concatenate(found_j)


def pair_intersection_areas(
    p_vertices: np.ndarray,
    p_counts: np.ndarray,
    q_vertices: np.ndarray,
    q_counts: np.ndarray,
    pi: np.ndarray,
    qi: np.ndarray,
) -> np.ndarray:
    """area(P[pi[k]] ∩ Q[qi[k]]) for every k, from padded vertex arrays.

    Sutherland-Hodgman clipping (Sutherland & Hodgman 1974) of each P
    polygon by the edges of its Q polygon, one edge of every pair per
    step.  Areas of at most EPS_SNAP count as 0.
    """
    pi, qi = np.asarray(pi, dtype=np.intp), np.asarray(qi, dtype=np.intp)
    areas = np.zeros(pi.size)
    for lo in range(0, pi.size, _PAIR_CHUNK):
        p, q = pi[lo : lo + _PAIR_CHUNK], qi[lo : lo + _PAIR_CHUNK]
        areas[lo : lo + p.size] = _clip_chunk(
            p_vertices[p], p_counts[p], q_vertices[q], int(q_counts[q].max())
        )
    return areas


def intersection_area(p, q) -> float:
    """area(p ∩ q) of (k, 2) vertex arrays: ``convex_cells``, then the engine."""
    verts, counts = convex_cells([p, q])
    return float(pair_intersection_areas(verts, counts, verts, counts, [0], [1])[0])


def clip_lanes(
    poly: np.ndarray, counts: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clip each padded CCW polygon (lane) by its own half-plane {s <= 0}.

    ``s`` holds each vertex's signed distance, padding columns included;
    every lane needs at least one padding column.  The one set of clipping
    rules: a lane with every s <= EPS_SNAP is kept whole, one with every
    s >= -EPS_SNAP is empty, any other is cut by ``_clip_step`` and is
    empty when fewer than 3 vertices remain.  Returns the clipped
    (poly, counts), which may reuse the arrays passed in, and the mask of
    empty lanes.
    """
    inside = (s <= EPS_SNAP).all(axis=1)
    empty = ~inside & (s >= -EPS_SNAP).all(axis=1)
    cut = np.flatnonzero(~(inside | empty))
    if cut.size:
        out, out_counts = _clip_step(poly[cut], counts[cut], s[cut])
        poly = _pad_to(poly, out.shape[1])
        poly[cut] = _pad_to(out, poly.shape[1])
        counts[cut] = out_counts
        empty[cut] = out_counts < 3
    return poly, counts, empty


def _clip_chunk(poly: np.ndarray, counts: np.ndarray, clip: np.ndarray, steps: int) -> np.ndarray:
    """Areas of poly[k] ∩ clip[k]; both are CCW, padded with their vertex 0.

    Step k clips every lane by edge k of its clip polygon, under
    ``clip_lanes``' rules.  Edge j of a polygon runs from column j to
    column j + 1; edges past a polygon's count join vertex 0 to itself.
    Clip edges past the clip polygon's count are such null edges too:
    they give s == 0 everywhere, so they keep every polygon whole.
    """
    areas = np.zeros(poly.shape[0])
    lane = np.arange(poly.shape[0])
    # Clip in coordinates local to each pair, with poly's vertex 0 as the
    # origin: nearby coordinates subtract exactly (Sterbenz), so a domain
    # far from the origin loses no precision to the clip arithmetic.
    origin = poly[:, :1]
    poly = _pad_to(poly - origin, int(counts.max()) + 1)
    clip = _pad_to(clip - origin, steps + 1)
    for k in range(steps):
        a, b = clip[:, k], clip[:, k + 1]
        # s <= 0 on the inner side of the CCW edge (a, b).
        hp_a, hp_b = b[:, 1] - a[:, 1], a[:, 0] - b[:, 0]
        hp_c = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        s = poly[..., 0] * hp_a[:, None] + poly[..., 1] * hp_b[:, None] - hp_c[:, None]
        poly, counts, empty = clip_lanes(poly, counts, s)
        if empty.any():
            keep = ~empty
            poly, counts, clip, lane = poly[keep], counts[keep], clip[keep], lane[keep]
            if lane.size == 0:
                return areas
    area = padded_areas(poly)
    areas[lane] = np.where(area > EPS_SNAP, area, 0.0)
    return areas


def _clip_step(poly: np.ndarray, counts: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Sutherland-Hodgman pass over polygons that straddle their edge.

    Vertex j emits itself when s <= 0, then the crossing point of edge j
    when s changes sign strictly along it; a cumulative sum of the
    emissions gives each output vertex its column.
    """
    m = poly.shape[0]
    sp, sq = s[:, :-1], s[:, 1:]
    keep = (sp <= 0) & (np.arange(sp.shape[1]) < counts[:, None])
    cross = ((sp < 0) & (0 < sq)) | ((sq < 0) & (0 < sp))
    emit = np.empty(keep.shape + (2,), dtype=bool)
    emit[..., 0], emit[..., 1] = keep, cross
    col = (np.cumsum(emit.reshape(m, -1), axis=1) - 1).reshape(emit.shape)
    out_counts = col[:, -1, 1] + 1
    out = np.zeros((m, int(out_counts.max()) + 1, 2))
    r, j = np.nonzero(keep)
    out[r, col[r, j, 0]] = poly[r, j]
    r, j = np.nonzero(cross)
    p, q = poly[r, j], poly[r, j + 1]
    t = sp[r, j] / (sp[r, j] - sq[r, j])
    out[r, col[r, j, 1]] = p + t[:, None] * (q - p)
    pad = np.arange(out.shape[1]) >= out_counts[:, None]
    return np.where(pad[..., None], out[:, :1], out), out_counts


@dataclass(frozen=True)
class PartitionDiagnostics:
    coverage_gap: float
    max_overlap: float
    max_outside: float
    ok: bool


@dataclass(frozen=True, eq=False)
class Partition:
    """Cells covering a box domain with pairwise interior-disjoint interiors.

    Stored once, as read-only arrays that every computation reads:

    - ``domain``: the box ``(xmin, xmax, ymin, ymax)``
    - ``cell_vertices``: ``(n, v_max, 2)``, each cell's CCW vertices with
      the row padded by copies of its vertex 0
    - ``vertex_counts``: ``(n,)`` real vertices per row
    - ``cell_bounds``: ``(n, 4)`` bounding boxes ``(xmin, xmax, ymin, ymax)``

    ``Partition(cells, domain)`` normalises each cell's vertices with ``convex_cells``.
    """

    domain: Box
    cell_vertices: np.ndarray
    vertex_counts: np.ndarray
    cell_bounds: np.ndarray

    def __init__(self, cells: Sequence, domain: Box):
        self._store(domain, *convex_cells(cells))

    @classmethod
    def from_boxes(cls, boxes: np.ndarray, domain: Box) -> "Partition":
        """Cells from (n, 4) boxes (xmin, xmax, ymin, ymax), in row order.

        Each box's vertices are written from (xmin, ymin) counter-clockwise,
        as ``Partition(cells, domain)`` keeps them.  A box that is not
        finite, or whose side or area is at most EPS_SNAP, is rejected.
        """
        boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
        if not np.isfinite(boxes).all():
            raise GeometryError("box corners must be finite")
        sides = np.minimum(boxes[:, 1] - boxes[:, 0], boxes[:, 3] - boxes[:, 2])
        verts = box_vertices(boxes)
        if (sides <= EPS_SNAP).any() or (padded_areas(verts) <= EPS_SNAP).any():
            raise GeometryError(f"box sides and areas must exceed {EPS_SNAP:g}")
        return cls.__new__(cls)._store(domain, verts, np.full(len(boxes), 4))

    def _store(self, domain: Box, verts: np.ndarray, counts: np.ndarray) -> "Partition":
        object.__setattr__(self, "domain", _domain_box(domain))
        if counts.size == 0:
            raise GeometryError("partition needs at least one cell")
        bounds = np.stack([verts.min(axis=1), verts.max(axis=1)], axis=2).reshape(-1, 4)
        for name, arr in (("cell_vertices", verts), ("vertex_counts", counts),
                          ("cell_bounds", bounds)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        return self

    @property
    def cells(self) -> tuple[np.ndarray, ...]:
        """Each cell's ``(count, 2)`` vertex rows: read-only views of ``cell_vertices``."""
        return tuple(v[:c] for v, c in zip(self.cell_vertices, self.vertex_counts.tolist()))

    @property
    def domain_area(self) -> float:
        xmin, xmax, ymin, ymax = self.domain
        return (xmax - xmin) * (ymax - ymin)

    def cell_areas(self) -> np.ndarray:
        """Cell areas as the cell-pair engine computes them (``padded_areas``)."""
        return padded_areas(self.cell_vertices)

    def to_json_dict(self) -> dict:
        return {
            "domain": list(self.domain),
            "cells": [c.tolist() for c in self.cells],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Partition":
        """The partition of ``{"domain": [xmin, xmax, ymin, ymax], "cells":
        [[[x, y], ...], ...]}``; a bad field raises a GeometryError naming it."""
        domain = json_field(data, "domain", _domain_box, GeometryError)
        return json_field(data, "cells", lambda cells: cls(cells, domain), GeometryError)


def _domain_box(value) -> Box:
    box = tuple(float(v) for v in value)
    if len(box) != 4 or not (box[0] < box[1] and box[2] < box[3]):
        raise GeometryError("domain box must be (xmin, xmax, ymin, ymax) with positive extent")
    return box  # type: ignore[return-value]


def same_domain(a, b) -> np.ndarray:
    """Whether boxes ``a`` and ``b`` (broadcast over leading axes) agree in
    every coordinate to within EPS_SNAP, with no relative slack."""
    return (np.abs(np.subtract(a, b)) <= EPS_SNAP).all(axis=-1)


def json_field(data, name: str, parse, error: type):
    """``parse(data[name])``.  A missing field, or one ``parse`` rejects with
    a TypeError or ValueError, raises ``error`` with a message naming it."""
    if not isinstance(data, dict) or name not in data:
        raise error(f"JSON field {name!r} is missing")
    try:
        return parse(data[name])
    except (TypeError, ValueError) as exc:
        raise error(f"JSON field {name!r}: {exc}") from exc


def check_tolerance(name: str, value: float) -> None:
    """Reject a tolerance that is NaN, infinite or negative."""
    if not (np.isfinite(value) and value >= 0):
        raise GeometryError(f"{name} must be finite and non-negative, got {value}")


def validate_partition(partition: Partition, tol: float = EPS_AREA) -> PartitionDiagnostics:
    """Coverage and disjointness diagnostics.

    Passes iff the coverage gap (domain area minus total cell area), the
    largest pairwise overlap area and the largest area poking outside the
    domain are all <= tol.
    """
    check_tolerance("tol", tol)
    verts, counts = partition.cell_vertices, partition.vertex_counts
    areas = partition.cell_areas()
    n = len(areas)
    inside = pair_intersection_areas(verts, counts, box_vertices([partition.domain]),
                                     np.full(1, 4), np.arange(n), np.zeros(n, dtype=np.intp))
    max_outside = max(0.0, float((areas - inside).max()))
    coverage_gap = abs(partition.domain_area - sum(areas.tolist()))
    i, j = overlapping_pairs(partition.cell_bounds, partition.cell_bounds)
    i, j = i[i < j], j[i < j]
    overlaps = pair_intersection_areas(verts, counts, verts, counts, i, j)
    max_overlap = max(0.0, float(overlaps.max(initial=0.0)))
    ok = coverage_gap <= tol and max_overlap <= tol and max_outside <= tol
    return PartitionDiagnostics(coverage_gap, max_overlap, max_outside, ok)


def make_grid_partition(n: int, domain: Box = (-1.0, 1.0, -1.0, 1.0)) -> Partition:
    """n x n axis-aligned congruent cells tiling the domain, row-major."""
    if n < 1:
        raise GeometryError("grid resolution must be a positive integer")
    if n > MAX_GRID:
        raise GeometryError(f"grid resolution {n} exceeds the limit of {MAX_GRID}")
    xmin, xmax, ymin, ymax = domain
    xs = np.linspace(xmin, xmax, n + 1)
    ys = np.linspace(ymin, ymax, n + 1)
    boxes = np.column_stack((np.tile(xs[:-1], n), np.tile(xs[1:], n),
                             np.repeat(ys[:-1], n), np.repeat(ys[1:], n)))
    return Partition.from_boxes(boxes, domain)


def is_subpartition(b: Partition, a: Partition, tol: float = EPS_AREA) -> bool:
    """True iff every cell of `a` is a union of cells of `b`.

    Checked by requiring each b-cell to sit inside exactly one a-cell and
    each a-cell's area to be fully accounted for by its b-cells.
    """
    if not same_domain(b.domain, a.domain):
        raise GeometryError("partitions live on different domains")
    bi, aj = overlapping_pairs(b.cell_bounds, a.cell_bounds)
    inter = pair_intersection_areas(b.cell_vertices, b.vertex_counts,
                                    a.cell_vertices, a.vertex_counts, bi, aj)
    owned = inter > tol
    if (np.bincount(bi[owned], minlength=len(b.vertex_counts)) != 1).any():
        return False
    inter = inter[owned]  # one owner per b-cell, in b-cell order
    if (np.abs(inter - b.cell_areas()) > tol).any():
        return False
    claimed = np.zeros(len(a.vertex_counts))
    np.add.at(claimed, aj[owned], inter)
    return bool(np.all(np.abs(claimed - a.cell_areas()) <= max(tol, 1e-9) * 10))

