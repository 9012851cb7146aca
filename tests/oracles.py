"""Independent oracles for the analytic similarity engine.

The similarity oracles avoid the polygon-clipping code path entirely:
cells are queried through raw cross-product membership tests and integrals
are approximated by dense pixel grids or Monte Carlo draws.  Agreement
between these estimates and the exact engine is what the tests assert.

``reference_fit_tree`` is the recursive CART builder that the level-wise
one in ``tasksim.learners`` replaced: one stable argsort and one-hot
cumsum per node and feature.  The learner must grow the very same trees.

``reference_clip`` is the scalar float clipper that the batched engine
(``geometry.clip_lanes`` and ``pair_intersection_areas``) replaced: one
half-plane, one vertex at a time, in absolute coordinates.
``reference_intersection_area`` clips by each edge in turn, and
``reference_rxor_cells`` builds rxor's cells by two clips of the box.
The ``reference_*`` cell-pair scans are the per-pair loops the engine
replaced, each with its own bounding-box rejection (or none), and one
``reference_intersection_area`` per pair; the minimality warnings test
each same-class pair edge by edge with ``reference_share_boundary``.  So
they do not depend on the engine they check.  The engine must agree with
them within 1e-12 on every area-derived number and exactly on every
discrete result.

``ConvexPolygon`` is the per-cell normaliser that ``geometry.convex_cells``
replaced: a Python loop that snaps near-duplicate vertices, strips
collinear ones one at a time, orders the rest counter-clockwise and checks
the result.  ``convex_cells`` must give the very same vertices, counts and
``GeometryError`` messages.

``box_polygon`` and ``reference_grid_partition`` are the per-cell
construction that ``Partition.from_boxes`` replaced: one normalised
``ConvexPolygon`` per box, its vertices padded into the arrays afterwards.

``reference_sample`` is the per-cell sampling loop that the one-pass
``distributions.sample`` replaced: one ``rng.choice`` for the triangles,
two ``rng.random`` and one ``rng.choice`` for the labels per drawn cell.
``sample`` must return the same points, labels and generator state.

``reference_grid_ids`` is ``GridTransformer.__call__`` as it was before
it worked column by column in place: one broadcast pass over every
dimension, ``np.clip`` and ``np.ravel_multi_index``.  The transformer
must return the same ids with the same dtype.

``reference_convergence_replication`` is one replication of the
convergence study written out without ``ets_table``: one target pool and
one target model, then each grid's source rows drawn in grid order, fit
with an n-bin histogram, adapted and scored.  The study draws and fits no
source rows, scoring each grid's regions directly; those draws come after
the pool, so each convergence point must still hold its values bit for
bit.

``reference_analytic_payload`` is the dict that ``analytic.json`` was
written from with ``json.dumps`` before ``cli.analytic_json`` rendered
the file by hand: every pair's label masses turned into Python lists, one
dict per source cell.  ``json_text`` of it must give the writer's bytes.

``locate_cells`` is point location by a per-cell membership scan, so
``dist.cell_labels[locate_cells(pts, dist)]`` is the Bayes rule at each
point; ``bayes_risk`` and the fixture writer ``write_samples_csv`` are the
other helpers that only the tests need.

``exact_*`` is a clipper and shoelace over ``fractions.Fraction``.  Every
float vertex converts exactly, so it gives the true areas of the cells as
their floats specify them, with no rounding at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from tasksim.distributions import (
    _COLLINEAR_TOL,
    DOMAIN,
    DistributionError,
    PartitionDistribution,
    SampleSet,
    sample,
)
from tasksim.empirical import LearnerConfig, ets
from tasksim.geometry import (
    EPS_AREA,
    EPS_SNAP,
    GeometryError,
    Partition,
    PartitionDiagnostics,
    padded_areas,
)
from tasksim.learners import adapt_to_target, fit_histogram
from tasksim.similarity import TIE_TOL, near_best


# ---------------------------------------------------------------------------
# the reference polygon


def _next(a: np.ndarray) -> np.ndarray:
    """a shifted one place cyclically: row i holds a[i + 1], the last row a[0]."""
    return np.concatenate((a[1:], a[:1]))


def _dedupe_and_strip_collinear(vertices: np.ndarray) -> np.ndarray:
    """Drop repeated vertices and collinear interior vertices."""
    kept = []
    for v in vertices:
        if not kept or np.abs(v - kept[-1]).max() > EPS_SNAP:
            kept.append(v)
    if len(kept) > 1 and np.abs(kept[0] - kept[-1]).max() <= EPS_SNAP:
        kept.pop()
    # Strip one vertex at a time and start over, so every vertex is judged
    # against the neighbours that remain: two adjacent vertices that each
    # look collinear with their original neighbours may not both go.
    i = 0
    while len(kept) >= 3 and i < len(kept):
        prev, cur, nxt = kept[i - 1], kept[i], kept[(i + 1) % len(kept)]
        cross = (cur[0] - prev[0]) * (nxt[1] - prev[1]) - (cur[1] - prev[1]) * (nxt[0] - prev[0])
        if abs(cross) > EPS_SNAP:
            i += 1
        else:
            del kept[i]
            i = 0
    return np.asarray(kept, dtype=float).reshape(-1, 2)


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
        area = float(padded_areas(arr[None])[0])
        if area < 0:
            arr = arr[::-1].copy()
            area = float(padded_areas(arr[None])[0])
        # Strict convexity: every consecutive cross product positive.
        e1 = _next(arr) - arr
        e2 = _next(e1)
        cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if (cross <= 0).any():
            raise GeometryError("polygon is not strictly convex and counter-clockwise")
        if area <= EPS_SNAP:
            raise GeometryError("polygon area must be positive")
        self.vertices = arr
        self.vertices.setflags(write=False)
        self._area = area

    @property
    def area(self) -> float:
        return self._area

    def __repr__(self) -> str:
        return f"ConvexPolygon({self.vertices.tolist()!r})"


def box_polygon(box) -> ConvexPolygon:
    """The box (xmin, xmax, ymin, ymax) as a polygon from (xmin, ymin), CCW."""
    xmin, xmax, ymin, ymax = box
    return ConvexPolygon([(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)])


def polygons(partition) -> list[ConvexPolygon]:
    """A partition's cells as ``ConvexPolygon``s."""
    return [ConvexPolygon(c) for c in partition.cells]


def reference_grid_partition(n: int, domain) -> tuple[Partition, np.ndarray]:
    """The n x n grid built one box polygon per cell, row-major, and its
    cells' uniform masses from ``ConvexPolygon.area``."""
    xmin, xmax, ymin, ymax = domain
    xs = np.linspace(xmin, xmax, n + 1)
    ys = np.linspace(ymin, ymax, n + 1)
    cells = [box_polygon((xs[i], xs[i + 1], ys[j], ys[j + 1])) for j in range(n) for i in range(n)]
    part = Partition([c.vertices for c in cells], domain)
    return part, uniform_mass(cells, (xmax - xmin) * (ymax - ymin))


def uniform_mass(cells, domain_area: float) -> np.ndarray:
    return np.array([c.area for c in cells]) / domain_area


def diameter(vertices: np.ndarray) -> float:
    """Max pairwise vertex distance; the true diameter of a convex polygon."""
    d = vertices[:, None, :] - vertices[None, :, :]
    return float(np.sqrt((d**2).sum(axis=2)).max())


def inside_polygon(pts: np.ndarray, vertices: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Closed membership for a CCW convex polygon via edge cross products."""
    v = np.asarray(vertices, dtype=float)
    e = np.roll(v, -1, axis=0) - v
    d = pts[:, None, :] - v[None, :, :]
    cross = e[None, :, 0] * d[:, :, 1] - e[None, :, 1] * d[:, :, 0]
    return (cross >= -eps).all(axis=1)


def locate_cells(pts: np.ndarray, dist) -> np.ndarray:
    """Lowest-index containing cell for each point (-1 when none)."""
    out = np.full(pts.shape[0], -1, dtype=int)
    pending = np.arange(pts.shape[0])
    for i, cell in enumerate(dist.partition.cells):
        if pending.size == 0:
            break
        hit = inside_polygon(pts[pending], cell, eps=1e-9)
        out[pending[hit]] = i
        pending = pending[~hit]
    return out


def bayes_risk(dist) -> float:
    """Sum over cells of mass * (1 - max class probability)."""
    return float(np.dot(dist.cell_mass, 1.0 - dist.labels_per_cell.max(axis=1)))


def write_samples_csv(samples: SampleSet, path) -> None:
    """The f0..fd-1,y,t format ``read_samples_csv`` parses, floats by repr."""
    header = ",".join([f"f{i}" for i in range(samples.dim)] + ["y", "t"])
    rows = [",".join([*(repr(float(v)) for v in x), str(y), "1"])
            for x, y in zip(samples.X, samples.y)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header, *rows]) + "\n")


def reference_sample(dist, n: int, rng: np.random.Generator) -> SampleSet:
    """Draw n iid samples: cell by marginal mass, point uniform in the cell,
    label by the cell's class probabilities.  Task flag defaults to 1."""
    if n < 0:
        raise DistributionError("sample count must be nonnegative")
    if n == 0:
        return SampleSet(np.empty((0, 2)), np.empty(0, dtype=int))
    part = dist.partition
    cell_idx = rng.choice(len(part.vertex_counts), size=n, p=dist.cell_mass)
    # Fan triangles (v0, v[t + 1], v[t + 2]) of every cell's padded row;
    # those past a cell's vertex count - 2 are degenerate and never drawn.
    v = part.cell_vertices
    ab, ac = v[:, 1:-1] - v[:, :1], v[:, 2:] - v[:, :1]
    tri_areas = 0.5 * np.abs(ab[..., 0] * ac[..., 1] - ab[..., 1] * ac[..., 0])
    X = np.empty((n, 2))
    y = np.empty(n, dtype=int)
    for cell in np.unique(cell_idx):
        where = np.nonzero(cell_idx == cell)[0]
        areas = tri_areas[cell, : part.vertex_counts[cell] - 2]
        # Area-weighted triangle, then a uniform barycentric point in it.
        which = rng.choice(areas.size, size=where.size, p=areas / areas.sum())
        r1 = np.sqrt(rng.random(where.size))[:, None]
        r2 = rng.random(where.size)[:, None]
        X[where] = ((1 - r1) * v[cell, 0] + r1 * (1 - r2) * v[cell, 1 + which]
                    + r1 * r2 * v[cell, 2 + which])
        y[where] = rng.choice(dist.num_classes, size=where.size, p=dist.labels_per_cell[cell])
    return SampleSet(X, y)


def reference_grid_ids(u, X: np.ndarray) -> np.ndarray:
    frac = (np.ascontiguousarray(np.atleast_2d(X), dtype=float) - u.lo) / (u.hi - u.lo)
    idx = np.clip((frac * u.bins).astype(int), 0, u.bins - 1)
    return np.ravel_multi_index(tuple(idx.T), (u.bins,) * u.dim)


def reference_convergence_replication(
    seed: int,
    target: PartitionDistribution,
    sources: Sequence[PartitionDistribution],
    target_learner: LearnerConfig,
    grids: Sequence[int],
    n_train: int,
    n_eval: int,
) -> list[float]:
    rng = np.random.default_rng(seed)
    pool = sample(target, n_train + n_eval, rng)
    train, evalset = pool[:n_train], pool[n_train:]
    dom = target.partition.domain
    target_model = target_learner.fit(train, domain=dom, num_classes=target.num_classes)
    values = []
    for source, bins in zip(sources, grids):
        source_model = fit_histogram(sample(source, n_train, rng), bins, domain=dom,
                                     num_classes=source.num_classes)
        adapted = adapt_to_target(source_model.fn.transformer, train,
                                  num_classes=target.num_classes)
        values.append(ets(target_model, adapted, evalset))
    return values


def _pixel_grid(domain, resolution: int) -> tuple[np.ndarray, float]:
    xmin, xmax, ymin, ymax = domain
    xs = xmin + (xmax - xmin) * (np.arange(resolution) + 0.5) / resolution
    ys = ymin + (ymax - ymin) * (np.arange(resolution) + 0.5) / resolution
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    pixel_area = (xmax - xmin) * (ymax - ymin) / resolution**2
    return pts, pixel_area


def mass_table(target, source, pts: np.ndarray, weights: np.ndarray,
               t_idx: np.ndarray, s_idx: np.ndarray) -> np.ndarray:
    """Approximate per-source-cell target-label masses from located points."""
    k_t = target.num_classes
    labels = np.asarray(target.cell_labels)[t_idx]
    n_s = len(source.partition.cells)
    flat = s_idx * k_t + labels
    table = np.bincount(flat, weights=weights, minlength=n_s * k_t)
    return table.reshape(n_s, k_t)


def brute_force_similarity(target, source, resolution: int = 2000,
                           tie_tol: float = 5e-3) -> tuple[float, float]:
    """(ts, ats) by dense pixel integration over the shared domain.

    tie_tol is deliberately coarse: pixelization perturbs exactly tied
    masses by O(boundary length / resolution).
    """
    pts, pixel_area = _pixel_grid(target.partition.domain, resolution)
    t_idx = locate_cells(pts, target)
    s_idx = locate_cells(pts, source)
    keep = (t_idx >= 0) & (s_idx >= 0)
    dens = np.asarray(target.cell_mass) / np.asarray(target.partition.cell_areas())
    weights = dens[t_idx[keep]] * pixel_area
    table = mass_table(target, source, pts[keep], weights, t_idx[keep], s_idx[keep])
    return _ts_ats_from_table(table, tie_tol)


def monte_carlo_similarity(target, source, n_points: int, rng,
                           tie_tol: float = 5e-3) -> tuple[float, float]:
    """(ts, ats) by uniform Monte Carlo under a uniform target marginal."""
    xmin, xmax, ymin, ymax = target.partition.domain
    pts = np.column_stack([
        rng.uniform(xmin, xmax, n_points),
        rng.uniform(ymin, ymax, n_points),
    ])
    t_idx = locate_cells(pts, target)
    s_idx = locate_cells(pts, source)
    keep = (t_idx >= 0) & (s_idx >= 0)
    dens = np.asarray(target.cell_mass) / np.asarray(target.partition.cell_areas())
    domain_area = (xmax - xmin) * (ymax - ymin)
    weights = dens[t_idx[keep]] * domain_area / n_points
    table = mass_table(target, source, pts[keep], weights, t_idx[keep], s_idx[keep])
    return _ts_ats_from_table(table, tie_tol)


def _ts_ats_from_table(table: np.ndarray, tie_tol: float) -> tuple[float, float]:
    best = table.max(axis=1)
    ts_val = float(best.sum())
    if table.shape[1] > 1:
        top2 = np.sort(table, axis=1)[:, -2]
    else:
        top2 = np.full(table.shape[0], -np.inf)
    tied = best - top2 <= tie_tol
    ats_val = float(best[~tied].sum())
    return ts_val, ats_val


# ---------------------------------------------------------------------------
# recursive CART, one node at a time


@dataclass
class TreeNode:
    """Internal node (split_dim/split_threshold/left/right) or leaf (leaf_id)."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    split_dim: Optional[int] = None
    split_threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    leaf_id: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf_id is not None


def reference_best_split(
    X: np.ndarray, y: np.ndarray, k: int, min_leaf: int
) -> tuple[float, Optional[int], Optional[float]]:
    """Best (gain, dim, threshold) over midpoints of consecutive unique values.

    A cut's Gini gain is S_L/(n n_L) + S_R/(n n_R) - S_T/n**2, where S_L,
    S_R and S_T are the integer sums of squared class counts on its left,
    on its right and over all n rows; the gain returned is that sum of
    floats.  The cut is picked by the exact gain, as a ``Fraction``: ties
    go to the lowest dimension, then the smallest threshold.
    """
    n = X.shape[0]
    tot = np.bincount(y, minlength=k).astype(np.int64)
    s_t = int(np.sum(tot * tot))
    best, best_gain, best_dim, best_thr = None, -np.inf, None, None
    for dim in range(X.shape[1]):
        order = np.argsort(X[:, dim], kind="stable")
        xs = X[order, dim]
        onehot = np.zeros((n, k), dtype=np.int64)
        onehot[np.arange(n), y[order]] = 1
        left = np.cumsum(onehot, axis=0)
        right = tot - left
        n_left = np.arange(1, n + 1)
        n_right = n - n_left
        s_l, s_r = np.sum(left * left, axis=1), np.sum(right * right, axis=1)
        for i in np.nonzero(xs[:-1] != xs[1:])[0]:  # ascending thresholds
            if n_left[i] < min_leaf or n_right[i] < min_leaf:
                continue
            nl, nr = int(n_left[i]), int(n_right[i])
            exact = (Fraction(int(s_l[i]), n * nl) + Fraction(int(s_r[i]), n * nr)
                     - Fraction(s_t, n * n))
            if best is None or exact > best:  # strict: ties keep the earlier cut
                best, best_dim = exact, dim
                best_gain = float(s_l[i] / (n * nl) + s_r[i] / (n * nr) - s_t / (n * n))
                best_thr = 0.5 * (xs[i] + xs[i + 1])
    return best_gain, best_dim, best_thr


def reference_fit_tree(X: np.ndarray, y: np.ndarray, k: int, lo: np.ndarray,
                       hi: np.ndarray, max_depth: int, min_leaf: int,
                       min_gain: float) -> tuple[TreeNode, np.ndarray]:
    """(root, per-leaf class counts in leaf-id order) of the greedy Gini CART.

    Leaf ids are numbered breadth-first, left child first: level by level,
    the order of fit_tree's node arrays.
    """
    leaves_counts: list[np.ndarray] = []

    def make_leaf(node: TreeNode, idx: np.ndarray) -> None:
        node.leaf_id = len(leaves_counts)
        leaves_counts.append(np.bincount(y[idx], minlength=k))

    def build(idx: np.ndarray, box_lo: np.ndarray, box_hi: np.ndarray, depth: int) -> TreeNode:
        node = TreeNode(lo=tuple(box_lo), hi=tuple(box_hi))
        classes_here = np.unique(y[idx])
        if depth >= max_depth or idx.size < 2 * min_leaf or classes_here.size <= 1:
            make_leaf(node, idx)
            return node
        gain, dim, thr = reference_best_split(X[idx], y[idx], k, min_leaf)
        if not (gain > min_gain):
            # No split distinguishable from noise: halve the widest side so
            # depth alone can realize balanced checkerboard structure.
            dim = int(np.argmax(box_hi - box_lo))
            thr = 0.5 * (box_lo[dim] + box_hi[dim])
            n_l = int(np.sum(X[idx, dim] <= thr))
            if n_l < min_leaf or idx.size - n_l < min_leaf:
                make_leaf(node, idx)
                return node
        mask = X[idx, dim] <= thr
        node.split_dim = int(dim)
        node.split_threshold = float(thr)
        left_hi = box_hi.copy()
        left_hi[dim] = thr
        right_lo = box_lo.copy()
        right_lo[dim] = thr
        node.left = build(idx[mask], box_lo, left_hi, depth + 1)
        node.right = build(idx[~mask], right_lo, box_hi, depth + 1)
        return node

    root = build(np.arange(X.shape[0]), lo.copy(), hi.copy(), 0)
    # build numbers the leaves in depth-first preorder; renumber them breadth-first.
    order, level = [], [root]
    while level:
        order += [node for node in level if node.is_leaf]
        level = [child for node in level if not node.is_leaf for child in (node.left, node.right)]
    counts = np.vstack([leaves_counts[node.leaf_id] for node in order])
    for i, node in enumerate(order):
        node.leaf_id = i
    return root, counts


def reference_leaf_ids(root: TreeNode, X: np.ndarray) -> np.ndarray:
    """Leaf id of each row of X, descending the node objects."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.empty(X.shape[0], dtype=int)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.leaf_id
            continue
        m = X[idx, node.split_dim] <= node.split_threshold
        stack.append((node.left, idx[m]))
        stack.append((node.right, idx[~m]))
    return out


# ---------------------------------------------------------------------------
# the scalar float clipper


def reference_clip(polygon: ConvexPolygon, a: float, b: float, c: float) -> Optional[ConvexPolygon]:
    """polygon ∩ {a*x + b*y <= c}, or None when it has (numerically) no area."""
    v = polygon.vertices
    s = v[..., 0] * a + v[..., 1] * b - c
    if (s <= EPS_SNAP).all():
        return polygon
    if (s >= -EPS_SNAP).all():
        return None
    out = []
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


def reference_intersection_area(p: ConvexPolygon, q: ConvexPolygon) -> float:
    """area(p ∩ q) by clipping p by each CCW edge (a, b) of q in turn."""
    result: Optional[ConvexPolygon] = p
    v = q.vertices
    n = v.shape[0]
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        result = reference_clip(result, b[1] - a[1], a[0] - b[0], a[0] * b[1] - a[1] * b[0])
        if result is None:
            return 0.0
    return result.area


def reference_rxor_cells(theta_deg: float) -> list[np.ndarray]:
    """Vertices of rxor(theta)'s cells: each rotated quadrant is the box
    clipped by its two inward normals' half-planes, one after the other."""
    theta = math.radians(theta_deg)
    box = box_polygon(DOMAIN)
    cells = []
    for quadrant in range(4):
        lo = quadrant * math.pi / 2.0 + theta
        n1 = (math.cos(lo), math.sin(lo))
        n2 = (-math.sin(lo), math.cos(lo))
        cell = reference_clip(box, -n1[0], -n1[1], 0.0)
        cell = reference_clip(cell, -n2[0], -n2[1], 0.0)
        cells.append(cell.vertices)
    return cells


# ---------------------------------------------------------------------------
# all-pairs cell scans, one hand-written bounding-box rejection each


def reference_label_mass_profiles(target, source):
    if np.abs(np.subtract(target.partition.domain, source.partition.domain)).max() > 1e-12:
        raise GeometryError("target and source distributions live on different domains")
    k_t = target.num_classes
    t_cells = polygons(target.partition)
    t_labels = target.cell_labels
    t_mass = target.cell_mass
    t_areas = target.partition.cell_areas()
    profiles = []
    for s_cell in polygons(source.partition):
        masses = np.zeros(k_t)
        sv = s_cell.vertices
        for t_idx, t_cell in enumerate(t_cells):
            tv = t_cell.vertices
            if (
                sv[:, 0].max() <= tv[:, 0].min()
                or tv[:, 0].max() <= sv[:, 0].min()
                or sv[:, 1].max() <= tv[:, 1].min()
                or tv[:, 1].max() <= sv[:, 1].min()
            ):
                continue
            inter = reference_intersection_area(s_cell, t_cell)
            if inter > 0.0:
                masses[t_labels[t_idx]] += inter / t_areas[t_idx] * t_mass[t_idx]
        profiles.append(masses)
    return np.array(profiles)


def reference_similarity(masses: np.ndarray, tie_tol: float = TIE_TOL):
    """(ts, ats, excluded mass) of a label-mass matrix, summed one source
    cell at a time with the tie rule spelled out per row."""
    ts_val = ats_val = excluded = 0.0
    for row in masses:
        best = float(row.max())
        ts_val += best
        if np.count_nonzero(row >= best - tie_tol) > 1:
            excluded += float(row.sum())
        else:
            ats_val += best
    return ts_val, ats_val, excluded


def reference_validate_partition(partition, tol: float = EPS_AREA) -> PartitionDiagnostics:
    dom = box_polygon(partition.domain)
    cells = polygons(partition)
    total = 0.0
    max_outside = 0.0
    inside_areas = []
    for cell in cells:
        a = cell.area
        total += a
        a_in = reference_intersection_area(cell, dom)
        inside_areas.append(a_in)
        max_outside = max(max_outside, a - a_in)
    coverage_gap = abs(partition.domain_area - total)
    max_overlap = 0.0
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            bi = cells[i].vertices
            bj = cells[j].vertices
            # Quick bounding-box rejection keeps the n^2 loop cheap.
            if (
                bi[:, 0].max() < bj[:, 0].min() - 1e-12
                or bj[:, 0].max() < bi[:, 0].min() - 1e-12
                or bi[:, 1].max() < bj[:, 1].min() - 1e-12
                or bj[:, 1].max() < bi[:, 1].min() - 1e-12
            ):
                continue
            max_overlap = max(max_overlap, reference_intersection_area(cells[i], cells[j]))
    ok = coverage_gap <= tol and max_overlap <= tol and max_outside <= tol
    return PartitionDiagnostics(coverage_gap, max_overlap, max_outside, ok)


def reference_is_subpartition(b, a, tol: float = EPS_AREA) -> bool:
    if np.abs(np.subtract(b.domain, a.domain)).max() > 1e-12:
        raise GeometryError("partitions live on different domains")
    a_cells = polygons(a)
    claimed = np.zeros(len(a_cells))
    a_bounds = [
        (c.vertices[:, 0].min(), c.vertices[:, 0].max(),
         c.vertices[:, 1].min(), c.vertices[:, 1].max())
        for c in a_cells
    ]
    for cell_b in polygons(b):
        bv = cell_b.vertices
        bx0, bx1 = bv[:, 0].min(), bv[:, 0].max()
        by0, by1 = bv[:, 1].min(), bv[:, 1].max()
        owners = []
        for j, cell_a in enumerate(a_cells):
            ax0, ax1, ay0, ay1 = a_bounds[j]
            if bx1 <= ax0 or ax1 <= bx0 or by1 <= ay0 or ay1 <= by0:
                continue
            inter = reference_intersection_area(cell_b, cell_a)
            if inter > tol:
                owners.append((j, inter))
        if len(owners) != 1:
            return False
        j, inter = owners[0]
        if abs(inter - cell_b.area) > tol:
            return False
        claimed[j] += inter
    return bool(np.all(np.abs(claimed - a.cell_areas()) <= max(tol, 1e-9) * 10))


def reference_validate_distribution(dist, tol: float = 1e-9) -> list[str]:
    issues: list[str] = []
    diag = reference_validate_partition(dist.partition, tol=tol)
    if not diag.ok:
        issues.append(
            f"partition fails: coverage_gap={diag.coverage_gap:.3g} "
            f"max_overlap={diag.max_overlap:.3g} max_outside={diag.max_outside:.3g}"
        )
    labels = dist.cell_labels
    cells = polygons(dist.partition)
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            if labels[i] == labels[j] and reference_share_boundary(cells[i], cells[j]):
                issues.append(
                    f"cells {i} and {j} are adjacent with the same majority class "
                    f"{labels[i]}; stored partition may not be minimal"
                )
    return issues


def reference_share_boundary(p: ConvexPolygon, q: ConvexPolygon) -> bool:
    """True when two disjoint-interior polygons share a positive-length edge piece."""
    for a, b in _edges(p):
        for c, d in _edges(q):
            if _collinear_overlap(a, b, c, d) > _COLLINEAR_TOL:
                return True
    return False


def _edges(poly: ConvexPolygon):
    v = poly.vertices
    for i in range(v.shape[0]):
        yield v[i], v[(i + 1) % v.shape[0]]


def _collinear_overlap(a, b, c, d) -> float:
    u = b - a
    ln = np.hypot(*u)
    if ln < 1e-15:
        return 0.0
    un = u / ln
    # Both endpoints of (c, d) must lie on the line through (a, b).
    for p in (c, d):
        if abs(un[0] * (p[1] - a[1]) - un[1] * (p[0] - a[0])) > _COLLINEAR_TOL:
            return 0.0
    t1, t2 = np.dot(c - a, un), np.dot(d - a, un)
    lo, hi = min(t1, t2), max(t1, t2)
    return max(0.0, min(hi, ln) - max(lo, 0.0))


# ---------------------------------------------------------------------------
# exact rational clipping


def _exact_points(vertices) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(float(x)), Fraction(float(y))) for x, y in vertices]


def exact_clip(poly, a, b):
    """The part of a CCW polygon on the left of, or on, the line a -> b."""
    (ax, ay), (bx, by) = a, b
    s = [(bx - ax) * (y - ay) - (by - ay) * (x - ax) for x, y in poly]
    out = []
    n = len(poly)
    for i in range(n):
        p, q, sp, sq = poly[i], poly[(i + 1) % n], s[i], s[(i + 1) % n]
        if sp >= 0:
            out.append(p)
        if (sp > 0 > sq) or (sq > 0 > sp):
            t = sp / (sp - sq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def exact_area(poly) -> Fraction:
    n = len(poly)
    return sum((poly[i][0] * poly[(i + 1) % n][1] - poly[(i + 1) % n][0] * poly[i][1]
                for i in range(n)), Fraction(0)) / 2


def exact_intersection_area(p_vertices, q_vertices) -> Fraction:
    """area(P ∩ Q) of two CCW convex polygons given by float vertices."""
    poly, q = _exact_points(p_vertices), _exact_points(q_vertices)
    for i in range(len(q)):
        poly = exact_clip(poly, q[i], q[(i + 1) % len(q)])
    return exact_area(poly) if len(poly) >= 3 else Fraction(0)


def _boxes_overlap(p_vertices, q_vertices) -> bool:
    return bool((p_vertices.max(axis=0) > q_vertices.min(axis=0)).all()
                and (q_vertices.max(axis=0) > p_vertices.min(axis=0)).all())


def exact_label_mass_profiles(target, source) -> np.ndarray:
    """The label-mass matrix in exact arithmetic, rounded once at the end."""
    t_cells = target.partition.cells
    t_areas = [exact_area(_exact_points(v)) for v in t_cells]
    t_labels = target.cell_labels
    t_mass = [Fraction(float(m)) for m in target.cell_mass]
    masses = []
    for s_cell in source.partition.cells:
        row = [Fraction(0)] * target.num_classes
        for t_idx, tv in enumerate(t_cells):
            if _boxes_overlap(s_cell, tv):  # touching boxes share no area
                inter = exact_intersection_area(s_cell, tv)
                row[t_labels[t_idx]] += inter / t_areas[t_idx] * t_mass[t_idx]
        masses.append([float(m) for m in row])
    return np.array(masses)


def exact_partition_diagnostics(partition) -> tuple[float, float, float]:
    """(coverage_gap, max_overlap, max_outside) in exact arithmetic."""
    cells = partition.cells
    areas = [exact_area(_exact_points(v)) for v in cells]
    xmin, xmax, ymin, ymax = partition.domain
    dom = np.array([(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)])
    gap = abs(exact_area(_exact_points(dom)) - sum(areas, Fraction(0)))
    overlap = max((exact_intersection_area(cells[i], cells[j])
                   for i in range(len(cells)) for j in range(i + 1, len(cells))
                   if _boxes_overlap(cells[i], cells[j])), default=Fraction(0))
    outside = max(a - exact_intersection_area(v, dom) for a, v in zip(areas, cells))
    return float(gap), float(overlap), float(outside)


# ---------------------------------------------------------------------------
# the analytic.json payload as Python objects


def _cells_payload(masses: np.ndarray, tie_tol: float) -> list[dict]:
    ties = near_best(masses, tie_tol)
    labels = np.nonzero(ties)[1].tolist()  # row by row, ascending within a row
    ends = np.cumsum(ties.sum(axis=1)).tolist()
    rows = zip(masses.tolist(), [0, *ends], ends, masses.sum(axis=1).tolist())
    return [
        {
            "source_cell": c,
            "mass_by_target_label": by_label,
            "argmax_labels": labels[start:end],
            "cell_total_mass": total,
        }
        for c, (by_label, start, end, total) in enumerate(rows)
    ]


def reference_analytic_payload(result, tie_tol: float) -> dict:
    """analytic.json of an ``AnalyticMatrices`` as one dict for ``json_text``."""
    names = result.names
    return {
        "names": list(names),
        "ts": result.ts_values.tolist(),
        "ats": result.ats_values.tolist(),
        "ats_excluded_mass": result.excluded_mass.tolist(),
        "per_cell_profiles": [
            {"target": names[i], "source": names[j], "cells": _cells_payload(m, tie_tol)}
            for i, row in enumerate(result.masses)
            for j, m in enumerate(row)
        ],
    }
