"""From-scratch partition-inducing learners.

Both learners expose the same three-piece decision function: a
transformer u mapping a pattern to a region id, a voter v mapping a
region id to a class-probability vector, and a decider w taking the
argmax (lowest index on ties).  Keeping u separate is what makes
representation transfer possible: adaptation refits v and w on target
data while freezing u.

The tree is greedy binary CART on Gini impurity with one twist: when no
candidate split beats the impurity noise floor (``min_gain``), the node
is split at the midpoint of its widest box side instead of stopping.
Balanced checkerboard-style classes (xor and friends) have no axis-aligned
first split with real gain, and the midpoint fallback is what lets a
depth-2 tree recover their quadrant structure.  The default noise floor
was calibrated against the empirical distribution of best-split Gini
gains under label-independent data (~2e-3 at n=5000, ~4e-4 at n=20000,
versus >=0.045 for genuinely informative splits on the benchmark tasks).

The tree grows one level at a time over presorted rows, as in SLIQ
(Mehta, Agrawal & Rissanen 1996).  Each feature is argsorted once at the
root.  From then on the rows of every feature stay grouped by node and
sorted by value within a node: after each level, a stable sort on the
small child ids moves a split node's rows to its children without
sorting by value again.  A level's split search is one set of array
passes over all its nodes.  Every feature lists the same nodes' rows in
the same groups, so the arrays indexed by a row's place are built once
per level and shared: its node, the side sizes and weights of a cut
after it, the ``min_leaf`` room and its node's class totals.  Each
feature then scores a cut after every listed row, from integer running
class counts that restart at each node, masks the cuts that are not
candidates to -inf and takes each node's first maximum.  The tie rules
are unchanged from the node-at-a-time search: the smallest threshold
within a feature, then the lowest feature, and the midpoint fallback
unless the best gain exceeds ``min_gain``.  The tree is stored as flat
node arrays, as in scikit-learn, in the breadth-first order its levels
produce: (feature, threshold, left) and every node's box (node_lo,
node_hi).  It predicts by one vectorised step per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import SampleSet
from .geometry import MAX_GRID, Partition

# Best-split Gini gains at or below this level are indistinguishable from
# sampling noise for n >= ~2000; see module docstring.
DEFAULT_MIN_GAIN = 1e-2


class LearnerError(ValueError):
    pass


def _as_bounds(domain, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) arrays of the 2-d box tuple (xmin, xmax, ymin, ymax)."""
    arr = np.asarray(domain, dtype=float)
    if arr.shape != (4,) or d != 2:
        raise LearnerError(f"cannot interpret domain {domain!r} for {d}-dimensional data")
    lo, hi = arr[[0, 2]], arr[[1, 3]]
    with np.errstate(over="ignore"):
        extent = hi - lo
    if not ((lo < hi) & np.isfinite(extent)).all():
        raise LearnerError("domain bounds must have positive, finite extent")
    return lo, hi


def _bounds_from_data(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    with np.errstate(over="ignore"):
        span = np.where(hi - lo > 0, hi - lo, 1.0)
        lo, hi = lo - 1e-9 * span, hi + 1e-9 * span
        extent = hi - lo
    wide = np.flatnonzero(~np.isfinite(extent))
    if wide.size:
        raise LearnerError(f"features in dimension {wide[0]} span more than the largest "
                           "float; rescale them")
    return lo, hi


def _patterns(X, dim: int) -> np.ndarray:
    """X as a C-contiguous (n, dim) float array; any other shape is refused."""
    X = np.ascontiguousarray(np.atleast_2d(X), dtype=float)
    if X.ndim != 2 or X.shape[1] != dim:
        raise LearnerError(f"expected patterns of shape (n, {dim}), got {X.shape}")
    return X


class GridTransformer:
    """u for histogram rules: index of the containing grid cell."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray, bins: int):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.bins = int(bins)
        self.dim = self.lo.shape[0]
        self.n_regions = self.bins**self.dim

    def __call__(self, X: np.ndarray) -> np.ndarray:
        frac = (_patterns(X, self.dim) - self.lo) / (self.hi - self.lo)
        idx = np.clip((frac * self.bins).astype(int), 0, self.bins - 1)
        return np.ravel_multi_index(tuple(idx.T), (self.bins,) * self.dim)

    def boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) of every cell's box, each (regions, dim), in region-id order."""
        edges = np.linspace(self.lo, self.hi, self.bins + 1)  # (bins + 1, dim)
        idx = np.column_stack(np.unravel_index(np.arange(self.n_regions), (self.bins,) * self.dim))
        return np.take_along_axis(edges, idx, 0), np.take_along_axis(edges, idx + 1, 0)


class TreeTransformer:
    """u for tree rules: id of the containing leaf, by descent over flat node arrays.

    Nodes are numbered breadth-first, left child first, so node 0 is the
    root and an internal node i's children are ``left[i]`` and
    ``left[i] + 1``.  It sends x to the left one when
    ``x[feature[i]] <= threshold[i]``.  A leaf has feature and left -1 and
    threshold 0; ``leaf_id`` numbers the leaves in node order and is -1 on
    internal nodes.  ``node_lo`` and ``node_hi`` hold every node's box,
    each (nodes, dim), so ``lo`` and ``hi`` are the root's; ``depth`` is
    the number of levels below the root.
    """

    def __init__(self, feature, threshold, left, node_lo, node_hi, depth: int):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.node_lo = node_lo
        self.node_hi = node_hi
        self.lo, self.hi = node_lo[0], node_hi[0]
        self.dim = self.lo.shape[0]
        self.depth = depth
        leaves = feature < 0
        self.leaf_id = np.where(leaves, np.cumsum(leaves) - 1, -1)
        self.n_regions = int(leaves.sum())
        # Descent tables in which a leaf leads back to itself, so every row
        # can take the same number of steps.
        self._split_on = np.where(leaves, 0, feature)
        ids = np.arange(feature.size)
        self._child = np.column_stack([np.where(leaves, ids, left),
                                       np.where(leaves, ids, left + 1)]).reshape(-1)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = _patterns(X, self.dim)
        flat = X.reshape(-1)
        offset = np.arange(X.shape[0]) * self.dim
        node = np.zeros(X.shape[0], dtype=np.intp)
        for _ in range(self.depth):
            go_left = flat[offset + self._split_on[node]] <= self.threshold[node]
            node = self._child[2 * node + ~go_left]
        return self.leaf_id[node]

    def boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) of every leaf's box, each (regions, dim), in leaf-id order."""
        leaves = self.leaf_id >= 0
        return self.node_lo[leaves], self.node_hi[leaves]


@dataclass
class ComposeableDecisionFunction:
    """w ∘ v ∘ u with a table-backed voter and deterministic argmax decider."""

    transformer: Callable[[np.ndarray], np.ndarray]
    voter_table: np.ndarray
    num_classes: int

    def u(self, X: np.ndarray) -> np.ndarray:
        return self.transformer(X)

    def v(self, region_ids: np.ndarray) -> np.ndarray:
        return np.take(self.voter_table, np.asarray(region_ids, dtype=int), axis=0)

    @staticmethod
    def w(probs: np.ndarray) -> np.ndarray:
        return np.argmax(probs, axis=-1)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.w(self.v(self.u(X)))


@dataclass
class FittedModel:
    fn: ComposeableDecisionFunction

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.fn.predict(X)


def _voter_from_counts(counts: np.ndarray) -> np.ndarray:
    """Normalize region label counts; empty regions vote uniformly."""
    counts = counts.astype(float)
    totals = counts.sum(axis=1, keepdims=True)
    k = counts.shape[1]
    with np.errstate(invalid="ignore", divide="ignore"):
        table = np.where(totals > 0, counts / np.where(totals > 0, totals, 1.0), 1.0 / k)
    return table


def _label_counts(ids: np.ndarray, y: np.ndarray, n_regions: int, k: int) -> np.ndarray:
    """Integer count of each label in each region, shape (n_regions, k)."""
    return np.bincount(ids * k + y, minlength=n_regions * k).reshape(n_regions, k)


def _num_classes(samples: SampleSet, num_classes: Optional[int]) -> int:
    if len(samples) and samples.y.min() < 0:
        raise LearnerError(f"labels must be non-negative, got {samples.y.min()}")
    k = int(samples.y.max()) + 1 if len(samples) else 0
    if num_classes is not None:
        if num_classes < k:
            raise LearnerError("num_classes smaller than observed labels")
        return int(num_classes)
    return k


def _check_finite(X: np.ndarray) -> None:
    if not np.isfinite(X).all():
        raise LearnerError("training features must be finite")


def fit_histogram(
    samples: SampleSet,
    n_bins_per_dim: int,
    domain=None,
    num_classes: Optional[int] = None,
) -> FittedModel:
    """Histogram rule: grid-cell transformer + per-cell label frequencies."""
    if len(samples) == 0:
        raise LearnerError("cannot fit a histogram on an empty training set")
    if n_bins_per_dim < 1:
        raise LearnerError("bin count must be positive")
    d = samples.dim
    if int(n_bins_per_dim) ** d > MAX_GRID**2:  # Python ints: no overflow
        raise LearnerError(f"histogram of {n_bins_per_dim} bins in each of {d} dimensions "
                           f"exceeds the limit of {MAX_GRID**2} cells")
    _check_finite(samples.X)
    lo, hi = _bounds_from_data(samples.X) if domain is None else _as_bounds(domain, d)
    u = GridTransformer(lo, hi, n_bins_per_dim)
    k = _num_classes(samples, num_classes)
    counts = _label_counts(u(samples.X), samples.y, u.n_regions, k)
    return FittedModel(ComposeableDecisionFunction(u, _voter_from_counts(counts), k))


def _class_sum(p: np.ndarray) -> np.ndarray:
    """Column sums of a (k, n) array, bit-identical to ``np.sum(p.T, axis=1)``.

    numpy adds a row of fewer than 8 terms one term after another, so for
    small k adding whole rows of p gives the same bits, far faster than
    reducing n short rows.  From 8 terms numpy sums pairwise, and its own
    reduction is used.
    """
    if p.shape[0] >= 8:
        return np.sum(np.ascontiguousarray(p.T), axis=1)
    out = p[0]
    for row in p[1:]:
        out = out + row
    return out


def _level_splits(cols: np.ndarray, y: np.ndarray, counts: np.ndarray, grow: np.ndarray,
                  srt: list[np.ndarray], min_leaf: int):
    """Best Gini split of every node of one level: (gain, dim, threshold), each (nodes,).

    ``cols[f]`` is feature f of every row and ``counts`` holds the
    (nodes, k) class counts.  ``srt[f]`` lists the rows of the nodes that
    ``grow`` marks, grouped by node in ascending order and sorted by
    feature f within a node.  Every feature lists the same nodes' rows in
    the same groups, so what depends only on a row's place in its group
    is built once: its node, the sizes and weights of the two sides of a
    cut after it, the ``min_leaf`` room and the class totals of its node.
    Each feature then scores a cut after every listed row from integer
    running class counts that restart at each node's first row, and sets
    the cuts that are not candidates to -inf: a cut between equal values,
    one that leaves fewer than ``min_leaf`` rows on a side, and a cut after
    a node's last row.  Ties in gain go to the smallest threshold, then
    the lowest dimension.  A node without a candidate gets gain -inf.
    """
    n_nodes, k = counts.shape
    size = counts.sum(axis=1)
    parent = 1.0 - _class_sum((counts.T / np.maximum(size, 1)) ** 2)
    gain = np.full((len(srt), n_nodes), -np.inf)
    thr = np.zeros((len(srt), n_nodes))
    grown = np.flatnonzero(grow)
    m = srt[0].size
    listed = size[grown]
    first = np.cumsum(listed) - listed  # each grown node's first listed row
    at = np.repeat(grown, listed)
    n = size[at]
    n_left = np.arange(1, m + 1) - np.repeat(first, listed)  # of a cut after each row
    n_right = n - n_left
    room = (n_left >= min_leaf) & (n_right >= max(min_leaf, 1))  # n_right >= 1: inside the node
    w_left, w_right = n_left / n, n_right / n
    parent_at = parent[at]
    # A node's last row divides 0 by 1; it is no candidate.
    n_left, n_right = n_left.astype(float), np.maximum(n_right, 1).astype(float)
    # Class counts take the narrowest signed integer that holds -m to m:
    # the k-by-m passes below are bound by memory.
    count_t = np.min_scalar_type(-m - 1)
    tot = np.repeat(counts[grown].T.astype(count_t, order="C"), listed, axis=1)  # (k, rows)
    pos = np.arange(m)
    for f, rows in enumerate(srt):
        xs = cols[f][rows]
        cand = room.copy()
        cand[:-1] &= xs[1:] != xs[:-1]
        step = np.zeros((k, m), count_t)
        step.reshape(-1)[y[rows] * m + pos] = 1
        # Taking the previous node's totals off at a node's first row makes
        # one running count over all listed rows restart at every node.
        step[:, first[1:]] -= tot[:, first[1:] - 1]
        left = np.cumsum(step, axis=1, dtype=count_t)
        gini_l = 1.0 - _class_sum((left / n_left) ** 2)
        gini_r = 1.0 - _class_sum(((tot - left) / n_right) ** 2)
        g = parent_at - w_left * gini_l - w_right * gini_r
        g[~cand] = -np.inf
        best = np.maximum.reduceat(g, first)
        # the first maximum is the smallest threshold
        i = np.minimum.reduceat(np.where(g == np.repeat(best, listed), pos, m), first)
        gain[f, grown] = best
        nxt = xs[np.minimum(i + 1, m - 1)]  # a one-row node (in _root_split) has no cut
        thr[f, grown] = np.where(best > -np.inf, 0.5 * (xs[i] + nxt), 0.0)
    dim = np.argmax(gain, axis=0)  # first max: ties keep the lower dimension
    nodes = np.arange(n_nodes)
    return gain[dim, nodes], dim, thr[dim, nodes]


def _root_split(X: np.ndarray, y: np.ndarray, k: int, min_leaf: int) -> tuple[float, int, float]:
    """(gain, dim, threshold) of the best split of all rows, as fit_tree's root search finds it."""
    cols = np.ascontiguousarray(X.T, dtype=float)
    gain, dim, thr = _level_splits(cols, y, np.bincount(y, minlength=k)[None, :], np.ones(1, bool),
                                   [np.argsort(c) for c in cols], min_leaf)
    return float(gain[0]), int(dim[0]), float(thr[0])


def fit_tree(
    samples: SampleSet,
    max_depth: int,
    min_leaf: int = 1,
    domain=None,
    min_gain: float = DEFAULT_MIN_GAIN,
    num_classes: Optional[int] = None,
) -> FittedModel:
    """Greedy Gini CART with the midpoint fallback for gainless nodes.

    The tree grows one level at a time.  Each feature is sorted once; the
    rows of every level's nodes are kept grouped by node and sorted by
    the feature within a node, so all nodes of a level are searched in
    the same array passes.  A node stops at max_depth, below 2*min_leaf
    rows or when pure; the children of the last level that can split are
    leaves, so their rows are kept unordered, for their class counts
    only.  The procedure is fully deterministic.
    """
    if len(samples) == 0:
        raise LearnerError("cannot fit a tree on an empty training set")
    if max_depth < 0:
        raise LearnerError("max_depth must be nonnegative")
    if min_leaf < 1:
        raise LearnerError(f"min_leaf must be at least 1, got {min_leaf}")
    if not np.isfinite(min_gain):
        raise LearnerError(f"min_gain must be a finite number, got {min_gain}")
    X, y = samples.X, samples.y
    _check_finite(X)
    n, d = X.shape
    lo, hi = _bounds_from_data(X) if domain is None else _as_bounds(domain, d)
    k = _num_classes(samples, num_classes)
    cols = np.ascontiguousarray(X.T, dtype=float)
    node = np.zeros(n, dtype=np.intp)  # row -> its node among this level's
    srt = [np.argsort(c) for c in cols]  # per feature: rows by (node, value)
    box_lo, box_hi = lo[None, :], hi[None, :]
    levels = []  # per level: its nodes' feature, threshold, left, class counts and box lo, hi
    n_nodes, first_id, depth = 1, 0, 0
    while n_nodes:
        rows = srt[0]
        counts = _label_counts(node[rows], y[rows], n_nodes, k)
        size = counts.sum(axis=1)
        grow = (depth < max_depth) & (size >= 2 * min_leaf) & (counts.max(axis=1) < size)
        if not grow.any():  # a level of leaves ends the tree
            levels.append((np.full(n_nodes, -1), np.zeros(n_nodes), np.full(n_nodes, -1), counts,
                           box_lo, box_hi))
            break
        if not grow.all():
            srt = [r[grow[node[r]]] for r in srt]
            rows = srt[0]
        gain, dim, thr = _level_splits(cols, y, counts, grow, srt, min_leaf)
        # No split distinguishable from noise: halve the widest side so
        # depth alone can realize balanced checkerboard structure.
        fallback = ~(gain > min_gain)
        widest = np.argmax(box_hi - box_lo, axis=1)
        nodes = np.arange(n_nodes)
        dim = np.where(fallback, widest, dim)
        thr = np.where(fallback, 0.5 * (box_lo[nodes, widest] + box_hi[nodes, widest]), thr)
        at = node[rows]
        go_left = cols.reshape(-1)[dim[at] * n + rows] <= thr[at]
        n_left = np.bincount(at[go_left], minlength=n_nodes)
        split = grow & ~(fallback & ((n_left < min_leaf) | (size - n_left < min_leaf)))

        rank = np.cumsum(split) - split
        n_children = 2 * int(split.sum())
        levels.append((np.where(split, dim, -1), np.where(split, thr, 0.0),
                       np.where(split, first_id + n_nodes + 2 * rank, -1), counts, box_lo, box_hi))
        # A split node's rows move to its children, numbered in node order;
        # the other rows get id n_children and drop off the end.
        node[rows] = np.where(split[at], 2 * rank[at] + ~go_left, n_children)
        if depth + 1 == max_depth:  # the children are leaves: counting their rows needs no order
            srt = [rows[node[rows] < n_children]]
        else:
            key = np.min_scalar_type(n_children)  # ids of up to 16 bits sort by radix
            n_kept = int(size[split].sum())
            srt = [r[np.argsort(node[r].astype(key), kind="stable")[:n_kept]] for r in srt]
        parents = np.flatnonzero(split)
        box_lo = np.repeat(box_lo[parents], 2, axis=0)
        box_hi = np.repeat(box_hi[parents], 2, axis=0)
        box_hi[0::2][np.arange(parents.size), dim[parents]] = thr[parents]
        box_lo[1::2][np.arange(parents.size), dim[parents]] = thr[parents]
        first_id += n_nodes
        n_nodes = n_children
        depth += 1

    feature, threshold, left, counts, node_lo, node_hi = (np.concatenate(a) for a in zip(*levels))
    u = TreeTransformer(feature, threshold, left, node_lo, node_hi, len(levels) - 1)
    return FittedModel(ComposeableDecisionFunction(u, _voter_from_counts(counts[feature < 0]), k))


def induced_partition(model: FittedModel) -> Partition:
    """The learner's cell structure as a geometric partition (2-d only)."""
    u = model.fn.transformer
    if u.dim != 2:
        raise LearnerError("induced partitions are only materialized for 2-d inputs")
    # Each (lo, hi) pair of 2-d rows interleaves to (xmin, xmax, ymin, ymax).
    return Partition.from_boxes(np.stack(u.boxes(), axis=-1).reshape(-1, 4),
                                np.stack((u.lo, u.hi), axis=-1).reshape(4))


def adapt_to_target(source_model: FittedModel, target_samples: SampleSet,
                    num_classes: Optional[int] = None) -> ComposeableDecisionFunction:
    """Refit the voter and decider on target data over the frozen source regions.

    Regions that receive no target samples predict the global target
    majority label.
    """
    if len(target_samples) == 0:
        raise LearnerError("adaptation needs a nonempty target training set")
    u = source_model.fn.transformer
    k = _num_classes(target_samples, num_classes)
    counts = _label_counts(u(target_samples.X), target_samples.y, u.n_regions, k)
    majority = int(np.argmax(counts.sum(axis=0)))
    table = _voter_from_counts(counts)
    empty = counts.sum(axis=1) == 0
    table[empty] = 0.0
    table[empty, majority] = 1.0
    return ComposeableDecisionFunction(u, table, k)


def predict(model_or_fn, X: np.ndarray) -> np.ndarray:
    return model_or_fn.predict(X)


def empirical_risk(model_or_fn, samples: SampleSet) -> float:
    """Fraction of misclassified samples under 0-1 loss."""
    if len(samples) == 0:
        raise LearnerError("cannot evaluate risk on an empty sample set")
    return float(np.mean(model_or_fn.predict(samples.X) != samples.y))
