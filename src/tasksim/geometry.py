"""Exact planar geometry for partition-defined classification tasks.

Convex polygons with half-plane clipping, shoelace areas, and partitions
of an axis-aligned box domain.  Everything here is pure and immutable, so
values can be shared freely across threads.

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


def _shoelace(vertices: np.ndarray) -> float:
    x = vertices[:, 0]
    y = vertices[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


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
        nxt = np.roll(arr, -1, axis=0)
        nxt2 = np.roll(arr, -2, axis=0)
        e1 = nxt - arr
        e2 = nxt2 - nxt
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


@dataclass(frozen=True)
class PartitionDiagnostics:
    coverage_gap: float
    max_overlap: float
    max_outside: float
    ok: bool


@dataclass(frozen=True)
class Partition:
    """Cells covering a box domain with pairwise interior-disjoint interiors.

    ``cell_bounds`` holds each cell's bounding box as a read-only
    ``(n, 4)`` array of ``(xmin, xmax, ymin, ymax)`` rows.
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
        verts = np.concatenate([c.vertices for c in self.cells])
        starts = np.cumsum([0] + [c.vertices.shape[0] for c in self.cells[:-1]])
        lo, hi = np.minimum.reduceat(verts, starts), np.maximum.reduceat(verts, starts)
        bounds = np.stack([lo, hi], axis=2).reshape(-1, 4)
        bounds.setflags(write=False)
        object.__setattr__(self, "cell_bounds", bounds)

    def cells_overlapping(self, box: Box, pad: float = 0.0) -> np.ndarray:
        """Ascending indices of the cells whose bounding box overlaps ``box``
        widened by ``pad``: a positive overlap on both axes, so with no pad
        boxes that only touch are not candidates.  The broad phase (Cohen et
        al., I-COLLIDE 1995) in front of every cell-pair scan.
        """
        xmin, xmax, ymin, ymax = box
        b = self.cell_bounds
        hit = (b[:, 1] > xmin - pad) & (xmax + pad > b[:, 0])
        hit &= (b[:, 3] > ymin - pad) & (ymax + pad > b[:, 2])
        return np.flatnonzero(hit)

    @property
    def domain_polygon(self) -> ConvexPolygon:
        return ConvexPolygon.from_box(self.domain)

    @property
    def domain_area(self) -> float:
        xmin, xmax, ymin, ymax = self.domain
        return (xmax - xmin) * (ymax - ymin)

    def cell_areas(self) -> np.ndarray:
        return np.array([c.area for c in self.cells])

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
    dom = partition.domain_polygon
    total = 0.0
    max_outside = 0.0
    for cell in partition.cells:
        a = cell.area
        total += a
        a_in = intersection_area(cell, dom)
        max_outside = max(max_outside, a - a_in)
    coverage_gap = abs(partition.domain_area - total)
    max_overlap = 0.0
    cells = partition.cells
    for i, box in enumerate(partition.cell_bounds):
        cand = partition.cells_overlapping(box)
        for j in cand[cand > i]:
            max_overlap = max(max_overlap, intersection_area(cells[i], cells[j]))
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
    claimed = np.zeros(len(a.cells))
    for cell_b, box in zip(b.cells, b.cell_bounds):
        owners = []
        for j in a.cells_overlapping(box):
            inter = intersection_area(cell_b, a.cells[j])
            if inter > tol:
                owners.append((j, inter))
        if len(owners) != 1:
            return False
        j, inter = owners[0]
        if abs(inter - cell_b.area) > tol:
            return False
        claimed[j] += inter
    return bool(np.all(np.abs(claimed - a.cell_areas()) <= max(tol, 1e-9) * 10))


def save_partition(partition: Partition, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(partition.to_json_dict(), fh, indent=2)


def load_partition(path: str) -> Partition:
    with open(path, "r", encoding="utf-8") as fh:
        return Partition.from_json_dict(json.load(fh))
