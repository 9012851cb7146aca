"""Independent oracles for the analytic similarity engine.

The similarity oracles avoid the polygon-clipping code path entirely:
cells are queried through raw cross-product membership tests and integrals
are approximated by dense pixel grids or Monte Carlo draws.  Agreement
between these estimates and the exact engine is what the tests assert.

``reference_fit_tree`` is the recursive CART builder that the level-wise
one in ``tasksim.learners`` replaced: one stable argsort and one-hot
cumsum per node and feature.  The learner must grow the very same trees.

The ``reference_*`` cell-pair scans are the per-pair loops that the
batched clipping engine (``geometry.pair_intersection_areas``) replaced,
each with its own bounding-box rejection (or none).  They run the scalar
clipper, one ``intersection_area`` per pair.  The engine must agree with
them within 1e-12 on every area-derived number and exactly on every
discrete result.

``exact_*`` is a clipper and shoelace over ``fractions.Fraction``.  Every
float vertex converts exactly, so it gives the true areas of the cells as
their floats specify them, with no rounding at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from tasksim.distributions import _share_boundary
from tasksim.geometry import EPS_AREA, GeometryError, PartitionDiagnostics, intersection_area
from tasksim.similarity import TIE_TOL


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
        hit = inside_polygon(pts[pending], cell.vertices, eps=1e-9)
        out[pending[hit]] = i
        pending = pending[~hit]
    return out


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

    Ties in gain go to the lowest dimension, then the smallest threshold.
    """
    n = X.shape[0]
    tot = np.bincount(y, minlength=k).astype(float)
    parent = 1.0 - float(np.sum((tot / n) ** 2))
    best_gain, best_dim, best_thr = -np.inf, None, None
    for dim in range(X.shape[1]):
        order = np.argsort(X[:, dim], kind="stable")
        xs = X[order, dim]
        ys = y[order]
        cut = np.nonzero(xs[:-1] != xs[1:])[0]
        if cut.size == 0:
            continue
        onehot = np.zeros((n, k))
        onehot[np.arange(n), ys] = 1.0
        cum = np.cumsum(onehot, axis=0)
        n_left = (cut + 1).astype(float)
        n_right = n - n_left
        keep = (n_left >= min_leaf) & (n_right >= min_leaf)
        if not keep.any():
            continue
        cut, n_left, n_right = cut[keep], n_left[keep], n_right[keep]
        left = cum[cut]
        right = tot - left
        gini_l = 1.0 - np.sum((left / n_left[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum((right / n_right[:, None]) ** 2, axis=1)
        gain = parent - (n_left / n) * gini_l - (n_right / n) * gini_r
        i = int(np.argmax(gain))  # first max = smallest threshold in this dim
        if gain[i] > best_gain:  # exact: ties keep the lower dimension
            best_gain = float(gain[i])
            best_dim = dim
            best_thr = 0.5 * (xs[cut[i]] + xs[cut[i] + 1])
    return best_gain, best_dim, best_thr


def reference_fit_tree(X: np.ndarray, y: np.ndarray, k: int, lo: np.ndarray,
                       hi: np.ndarray, max_depth: int, min_leaf: int,
                       min_gain: float) -> tuple[TreeNode, np.ndarray]:
    """(root, per-leaf class counts in leaf-id order) of the greedy Gini CART.

    Leaf ids are numbered in depth-first preorder, left child first.
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
    return root, np.vstack(leaves_counts)


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
# all-pairs cell scans, one hand-written bounding-box rejection each


def reference_label_mass_profiles(target, source):
    if not np.allclose(target.partition.domain, source.partition.domain, atol=1e-12):
        raise GeometryError("target and source distributions live on different domains")
    k_t = target.num_classes
    t_cells = target.partition.cells
    t_labels = target.cell_labels
    t_mass = target.cell_mass
    t_areas = target.partition.cell_areas()
    profiles = []
    for s_cell in source.partition.cells:
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
            inter = intersection_area(s_cell, t_cell)
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
    dom = partition.domain_polygon
    total = 0.0
    max_outside = 0.0
    inside_areas = []
    for cell in partition.cells:
        a = cell.area
        total += a
        a_in = intersection_area(cell, dom)
        inside_areas.append(a_in)
        max_outside = max(max_outside, a - a_in)
    coverage_gap = abs(partition.domain_area - total)
    max_overlap = 0.0
    cells = partition.cells
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
            max_overlap = max(max_overlap, intersection_area(cells[i], cells[j]))
    ok = coverage_gap <= tol and max_overlap <= tol and max_outside <= tol
    return PartitionDiagnostics(coverage_gap, max_overlap, max_outside, ok)


def reference_is_subpartition(b, a, tol: float = EPS_AREA) -> bool:
    if not np.allclose(b.domain, a.domain, atol=1e-12):
        raise GeometryError("partitions live on different domains")
    claimed = np.zeros(len(a.cells))
    a_bounds = [
        (c.vertices[:, 0].min(), c.vertices[:, 0].max(),
         c.vertices[:, 1].min(), c.vertices[:, 1].max())
        for c in a.cells
    ]
    for cell_b in b.cells:
        bv = cell_b.vertices
        bx0, bx1 = bv[:, 0].min(), bv[:, 0].max()
        by0, by1 = bv[:, 1].min(), bv[:, 1].max()
        owners = []
        for j, cell_a in enumerate(a.cells):
            ax0, ax1, ay0, ay1 = a_bounds[j]
            if bx1 <= ax0 or ax1 <= bx0 or by1 <= ay0 or ay1 <= by0:
                continue
            inter = intersection_area(cell_b, cell_a)
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
    diag = reference_validate_partition(dist.partition, tol=max(tol, 1e-9))
    if not diag.ok:
        issues.append(
            f"partition fails: coverage_gap={diag.coverage_gap:.3g} "
            f"max_overlap={diag.max_overlap:.3g} max_outside={diag.max_outside:.3g}"
        )
    labels = dist.cell_labels
    cells = dist.partition.cells
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            if labels[i] == labels[j] and _share_boundary(cells[i], cells[j]):
                issues.append(
                    f"cells {i} and {j} are adjacent with the same majority class "
                    f"{labels[i]}; stored partition may not be minimal"
                )
    return issues


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
    t_cells = [c.vertices for c in target.partition.cells]
    t_areas = [exact_area(_exact_points(v)) for v in t_cells]
    t_labels = target.cell_labels
    t_mass = [Fraction(float(m)) for m in target.cell_mass]
    masses = []
    for s_cell in source.partition.cells:
        row = [Fraction(0)] * target.num_classes
        for t_idx, tv in enumerate(t_cells):
            if _boxes_overlap(s_cell.vertices, tv):  # touching boxes share no area
                inter = exact_intersection_area(s_cell.vertices, tv)
                row[t_labels[t_idx]] += inter / t_areas[t_idx] * t_mass[t_idx]
        masses.append([float(m) for m in row])
    return np.array(masses)


def exact_partition_diagnostics(partition) -> tuple[float, float, float]:
    """(coverage_gap, max_overlap, max_outside) in exact arithmetic."""
    cells = [c.vertices for c in partition.cells]
    areas = [exact_area(_exact_points(v)) for v in cells]
    xmin, xmax, ymin, ymax = partition.domain
    dom = np.array([(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)])
    gap = abs(exact_area(_exact_points(dom)) - sum(areas, Fraction(0)))
    overlap = max((exact_intersection_area(cells[i], cells[j])
                   for i in range(len(cells)) for j in range(i + 1, len(cells))
                   if _boxes_overlap(cells[i], cells[j])), default=Fraction(0))
    outside = max(a - exact_intersection_area(v, dom) for a, v in zip(areas, cells))
    return float(gap), float(overlap), float(outside)
