"""Exact planar geometry for partition-defined classification tasks.

Convex polygons with half-plane clipping, shoelace areas, and partitions
of an axis-aligned box domain.  Everything here is pure and immutable, so
values can be shared freely across threads.

Two clipping paths share one set of rules.  The scalar API
(``ConvexPolygon``, ``clip_convex_polygon``, ``intersect``,
``intersection_area``) builds and inspects single cells.  Every cell-pair
scan instead runs the batched engine on the arrays a ``Partition`` keeps:

- ``cell_vertices``: cells padded to ``v_max`` vertices with copies of
  each one's vertex 0, plus ``vertex_counts`` and ``cell_bounds``
- ``overlapping_pairs``: the bounding-box broad phase, over row blocks,
  never an n x m mask
- ``pair_intersection_areas``: one Sutherland-Hodgman step per clip edge
  across all candidate pairs, in coordinates local to each pair, with
  areas from a shoelace relative to vertex 0

Boxes are 4-tuples ``(xmin, xmax, ymin, ymax)``, matching the JSON layout
used by the CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# Absolute area tolerance for disjointness/coverage checks; vertex snap
# distance used during clipping.  Doubles on O(1)-size domains keep ~1e-15
# relative error, so these are generous.
EPS_AREA = 1e-9
EPS_SNAP = 1e-12
MAX_GRID = 256  # largest grid resolution; 256**2 cells take minutes per pair

Box = tuple[float, float, float, float]


class GeometryError(ValueError):
    """Raised for degenerate polygons or mismatched domains."""


@dataclass(frozen=True)
class HalfPlane:
    """Closed half-plane ``{x : a*x0 + b*x1 <= c}``."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if self.a == 0.0 and self.b == 0.0:
            raise GeometryError("half-plane normal must be nonzero")
        if not np.isfinite([self.a, self.b, self.c]).all():
            raise GeometryError("half-plane coefficients must be finite")

    def signed(self, pts: np.ndarray) -> np.ndarray:
        """a*x0 + b*x1 - c; negative means strictly inside."""
        pts = np.asarray(pts, dtype=float)
        return pts[..., 0] * self.a + pts[..., 1] * self.b - self.c


def _next(a: np.ndarray) -> np.ndarray:
    """a shifted one place cyclically: row i holds a[i + 1], the last row a[0]."""
    return np.concatenate((a[1:], a[:1]))


def _shoelace(vertices: np.ndarray) -> float:
    x = vertices[:, 0]
    y = vertices[:, 1]
    return 0.5 * float(np.dot(x, _next(y)) - np.dot(y, _next(x)))


def _dedupe_and_strip_collinear(vertices: np.ndarray) -> np.ndarray:
    """Drop repeated vertices and collinear interior vertices."""
    kept = []
    for v in vertices:
        if not kept or np.abs(v - kept[-1]).max() > EPS_SNAP:
            kept.append(v)
    if len(kept) > 1 and np.abs(kept[0] - kept[-1]).max() <= EPS_SNAP:
        kept.pop()
    if len(kept) < 3:
        return np.asarray(kept, dtype=float).reshape(-1, 2)
    out = []
    n = len(kept)
    for i in range(n):
        prev, cur, nxt = kept[i - 1], kept[i], kept[(i + 1) % n]
        cross = (cur[0] - prev[0]) * (nxt[1] - prev[1]) - (cur[1] - prev[1]) * (nxt[0] - prev[0])
        if abs(cross) > EPS_SNAP:
            out.append(cur)
    return np.asarray(out, dtype=float).reshape(-1, 2)


class ConvexPolygon:
    """Strictly convex polygon with counter-clockwise vertices.

    The constructor snaps near-duplicate vertices, removes collinear ones,
    normalizes orientation to CCW and rejects anything that is not a valid
    convex polygon with positive area.
    """

    __slots__ = ("vertices", "_area")

    def __init__(self, vertices: Sequence[Sequence[float]]):
        arr = np.asarray(vertices, dtype=float).reshape(-1, 2)
        if not np.isfinite(arr).all():
            raise GeometryError("polygon vertices must be finite")
        arr = _dedupe_and_strip_collinear(arr)
        if arr.shape[0] < 3:
            raise GeometryError("polygon needs at least 3 non-collinear vertices")
        if _shoelace(arr) < 0:
            arr = arr[::-1].copy()
        # Strict convexity: every consecutive cross product positive.
        e1 = _next(arr) - arr
        e2 = _next(e1)
        cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if (cross <= 0).any():
            raise GeometryError("polygon is not strictly convex and counter-clockwise")
        area = _shoelace(arr)
        if area <= EPS_SNAP:
            raise GeometryError("polygon area must be positive")
        self.vertices = arr
        self.vertices.setflags(write=False)
        self._area = area

    @classmethod
    def from_box(cls, box: Box) -> "ConvexPolygon":
        xmin, xmax, ymin, ymax = box
        return cls([(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)])

    @property
    def area(self) -> float:
        return self._area

    def contains(self, pts: np.ndarray, eps: float = EPS_SNAP) -> np.ndarray:
        """Vectorized closed-membership test (boundary counts as inside)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        v = self.vertices
        e = np.roll(v, -1, axis=0) - v
        # cross(edge, point - vertex) >= -eps for all edges of a CCW polygon
        d = pts[:, None, :] - v[None, :, :]
        cross = e[None, :, 0] * d[:, :, 1] - e[None, :, 1] * d[:, :, 0]
        return (cross >= -eps).all(axis=1)

    def triangles(self) -> np.ndarray:
        """Fan triangulation from vertex 0, shape (m-2, 3, 2)."""
        v = self.vertices
        m = v.shape[0]
        tri = np.empty((m - 2, 3, 2))
        tri[:, 0] = v[0]
        tri[:, 1] = v[1 : m - 1]
        tri[:, 2] = v[2:m]
        return tri

    def __repr__(self) -> str:
        return f"ConvexPolygon({self.vertices.tolist()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConvexPolygon):
            return NotImplemented
        if self.vertices.shape != other.vertices.shape:
            return False
        # Same cyclic order up to rotation.
        a, b = self.vertices, other.vertices
        for shift in range(a.shape[0]):
            if np.allclose(np.roll(a, shift, axis=0), b, atol=1e-9):
                return True
        return False


def diameter(polygon: ConvexPolygon) -> float:
    """Max pairwise vertex distance; equals the true diameter for convex polygons."""
    v = polygon.vertices
    d = v[:, None, :] - v[None, :, :]
    return float(np.sqrt((d**2).sum(axis=2)).max())


def clip_convex_polygon(polygon: ConvexPolygon, hp: HalfPlane) -> Optional[ConvexPolygon]:
    """Intersect a convex polygon with a closed half-plane.

    Returns None when the intersection has (numerically) zero area; an
    empty result is a value, not an error.
    """
    v = polygon.vertices
    s = hp.signed(v)
    if (s <= EPS_SNAP).all():
        return polygon
    if (s >= -EPS_SNAP).all():
        return None
    out: list[np.ndarray] = []
    n = v.shape[0]
    for i in range(n):
        p, q = v[i], v[(i + 1) % n]
        sp, sq = s[i], s[(i + 1) % n]
        if sp <= 0:
            out.append(p)
        if (sp < 0 < sq) or (sq < 0 < sp):
            t = sp / (sp - sq)
            out.append(p + t * (q - p))
    try:
        return ConvexPolygon(out)
    except GeometryError:
        return None


def intersect(p: ConvexPolygon, q: ConvexPolygon) -> Optional[ConvexPolygon]:
    """Convex intersection via successive clips by q's edges."""
    result: Optional[ConvexPolygon] = p
    v = q.vertices
    n = v.shape[0]
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        # CCW edge (a, b): interior satisfies cross(b-a, x-a) >= 0, i.e.
        # -(b1-a1)*x0 + (b0-a0)*x1 <= a0*b1 - a1*b0... expressed as HalfPlane.
        hp = HalfPlane(b[1] - a[1], a[0] - b[0], a[0] * b[1] - a[1] * b[0])
        result = clip_convex_polygon(result, hp)
        if result is None:
            return None
    return result


def intersection_area(p: ConvexPolygon, q: ConvexPolygon) -> float:
    r = intersect(p, q)
    return 0.0 if r is None else r.area


# Candidate pairs clipped per engine pass and broad-phase mask entries per
# row block: both bound the size of the working arrays, not of the result.
_PAIR_CHUNK = 4096
_BLOCK_ENTRIES = 1 << 16


def padded_vertices(cells: Sequence[ConvexPolygon]) -> tuple[np.ndarray, np.ndarray]:
    """(n, v_max, 2) vertices, each row padded with its own vertex 0, and
    the (n,) vertex counts."""
    counts = np.array([c.vertices.shape[0] for c in cells])
    flat = np.concatenate([c.vertices for c in cells])
    col = np.arange(counts.max())
    rows = np.where(col < counts[:, None], col, 0) + (np.cumsum(counts) - counts)[:, None]
    return flat[rows], counts


def padded_areas(poly: np.ndarray) -> np.ndarray:
    """Shoelace areas of padded CCW polygons.  The sum is taken relative to
    each polygon's vertex 0, so it stays accurate far from the origin, and
    padding columns contribute 0."""
    d = poly - poly[:, :1]
    cross = d[:, :-1, 0] * d[:, 1:, 1] - d[:, :-1, 1] * d[:, 1:, 0]
    return 0.5 * cross.sum(axis=1)


def _pad_to(poly: np.ndarray, width: int) -> np.ndarray:
    """Widen padded polygons to ``width`` columns with copies of vertex 0."""
    extra = width - poly.shape[1]
    if extra <= 0:
        return poly
    return np.concatenate((poly, np.repeat(poly[:, :1], extra, axis=1)), axis=1)


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

    The batched form of ``intersection_area``: Sutherland-Hodgman clipping
    (Sutherland & Hodgman 1974) of each P polygon by the edges of its Q
    polygon, one edge of every pair per step.  Areas of at most EPS_SNAP
    count as 0.
    """
    pi, qi = np.asarray(pi, dtype=np.intp), np.asarray(qi, dtype=np.intp)
    areas = np.zeros(pi.size)
    for lo in range(0, pi.size, _PAIR_CHUNK):
        p, q = pi[lo : lo + _PAIR_CHUNK], qi[lo : lo + _PAIR_CHUNK]
        areas[lo : lo + p.size] = _clip_chunk(
            p_vertices[p], p_counts[p], q_vertices[q], int(q_counts[q].max())
        )
    return areas


def _clip_chunk(poly: np.ndarray, counts: np.ndarray, clip: np.ndarray, steps: int) -> np.ndarray:
    """Areas of poly[k] ∩ clip[k]; both are CCW, padded with their vertex 0.

    Follows ``clip_convex_polygon``'s rules for each edge: a polygon with
    every signed distance s <= EPS_SNAP is kept whole, one with every
    s >= -EPS_SNAP is empty, otherwise vertices with s <= 0 are kept and a
    strict sign change along an edge emits the crossing point.  Polygons
    always carry at least one padding column, so edge j runs from column j
    to column j + 1; edges past a polygon's count join vertex 0 to itself.
    Clip edges past the clip polygon's count are such null edges too: they
    give s == 0 everywhere, so they keep every polygon whole.
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
        # s <= 0 on the inner side of the CCW edge (a, b), as in intersect.
        hp_a, hp_b = b[:, 1] - a[:, 1], a[:, 0] - b[:, 0]
        hp_c = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        s = poly[..., 0] * hp_a[:, None] + poly[..., 1] * hp_b[:, None] - hp_c[:, None]
        inside = (s <= EPS_SNAP).all(axis=1)
        dead = ~inside & (s >= -EPS_SNAP).all(axis=1)
        cut = np.flatnonzero(~(inside | dead))
        if cut.size:
            out, out_counts = _clip_step(poly[cut], counts[cut], s[cut])
            poly = _pad_to(poly, out.shape[1])
            poly[cut] = _pad_to(out, poly.shape[1])
            counts[cut] = out_counts
            dead[cut] = out_counts < 3
        if dead.any():
            keep = ~dead
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
    emit = np.stack((keep, cross), axis=2)
    out_counts = emit.sum(axis=(1, 2))
    col = (np.cumsum(emit.reshape(m, -1), axis=1) - 1).reshape(emit.shape)
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


@dataclass(frozen=True)
class Partition:
    """Cells covering a box domain with pairwise interior-disjoint interiors.

    Built once with the cells, as read-only arrays:

    - ``cell_vertices``: ``(n, v_max, 2)``, each cell's CCW vertices with
      the row padded by copies of its vertex 0
    - ``vertex_counts``: ``(n,)`` real vertices per row
    - ``cell_bounds``: ``(n, 4)`` bounding boxes ``(xmin, xmax, ymin, ymax)``
    """

    cells: tuple[ConvexPolygon, ...]
    domain: Box

    def __init__(self, cells: Sequence[ConvexPolygon], domain: Box):
        object.__setattr__(self, "cells", tuple(cells))
        object.__setattr__(self, "domain", tuple(float(x) for x in domain))
        xmin, xmax, ymin, ymax = self.domain
        if not (xmin < xmax and ymin < ymax):
            raise GeometryError("domain box must have positive extent")
        if not self.cells:
            raise GeometryError("partition needs at least one cell")
        verts, counts = padded_vertices(self.cells)
        bounds = np.stack([verts.min(axis=1), verts.max(axis=1)], axis=2).reshape(-1, 4)
        for name, arr in (("cell_vertices", verts), ("vertex_counts", counts),
                          ("cell_bounds", bounds)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def domain_polygon(self) -> ConvexPolygon:
        return ConvexPolygon.from_box(self.domain)

    @property
    def domain_area(self) -> float:
        xmin, xmax, ymin, ymax = self.domain
        return (xmax - xmin) * (ymax - ymin)

    def cell_areas(self) -> np.ndarray:
        """Cell areas as the cell-pair engine computes them (``padded_areas``)."""
        return padded_areas(self.cell_vertices)

    def locate(self, pts: np.ndarray, eps: float = 1e-9) -> np.ndarray:
        """Index of the containing cell for each point.

        Boundary points (measure zero) go to the lowest-index containing
        cell.  Points outside every cell get -1.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.full(pts.shape[0], -1, dtype=int)
        pending = np.arange(pts.shape[0])
        for i, cell in enumerate(self.cells):
            if pending.size == 0:
                break
            hit = cell.contains(pts[pending], eps=eps)
            out[pending[hit]] = i
            pending = pending[~hit]
        return out

    def to_json_dict(self) -> dict:
        return {
            "domain": list(self.domain),
            "cells": [c.vertices.tolist() for c in self.cells],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Partition":
        try:
            domain = tuple(float(v) for v in data["domain"])
            cells = [ConvexPolygon(c) for c in data["cells"]]
        except GeometryError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise GeometryError(f"invalid partition JSON: {exc}") from exc
        return cls(cells, domain)  # type: ignore[arg-type]


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
    dom_verts, dom_counts = padded_vertices([partition.domain_polygon])
    inside = pair_intersection_areas(verts, counts, dom_verts, dom_counts,
                                     np.arange(n), np.zeros(n, dtype=np.intp))
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
    cells = []
    for j in range(n):
        for i in range(n):
            cells.append(ConvexPolygon.from_box((xs[i], xs[i + 1], ys[j], ys[j + 1])))
    return Partition(cells, domain)


def is_subpartition(b: Partition, a: Partition, tol: float = EPS_AREA) -> bool:
    """True iff every cell of `a` is a union of cells of `b`.

    Checked by requiring each b-cell to sit inside exactly one a-cell and
    each a-cell's area to be fully accounted for by its b-cells.
    """
    if not np.allclose(b.domain, a.domain, atol=1e-12):
        raise GeometryError("partitions live on different domains")
    bi, aj = overlapping_pairs(b.cell_bounds, a.cell_bounds)
    inter = pair_intersection_areas(b.cell_vertices, b.vertex_counts,
                                    a.cell_vertices, a.vertex_counts, bi, aj)
    owned = inter > tol
    if (np.bincount(bi[owned], minlength=len(b.cells)) != 1).any():
        return False
    inter = inter[owned]  # one owner per b-cell, in b-cell order
    if (np.abs(inter - b.cell_areas()) > tol).any():
        return False
    claimed = np.zeros(len(a.cells))
    np.add.at(claimed, aj[owned], inter)
    return bool(np.all(np.abs(claimed - a.cell_areas()) <= max(tol, 1e-9) * 10))


def save_partition(partition: Partition, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(partition.to_json_dict(), fh, indent=2)


def load_partition(path: str) -> Partition:
    with open(path, "r", encoding="utf-8") as fh:
        return Partition.from_json_dict(json.load(fh))
