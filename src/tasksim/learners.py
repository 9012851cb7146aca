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
per level and shared: its node, the side sizes of a cut after it and
the ``min_leaf`` room.  A cut's Gini gain is written in exact integer
sums of squared class counts, each of which a row changes through its
own class's count alone, so each feature scores a cut after every listed
row from one stable sort by class and one running sum, with no
class-count factor.  Ties go to the lowest feature, then the smallest
threshold, exactly: near-equal gains are compared in integers.  The
midpoint fallback fires unless the best gain exceeds ``min_gain``.  The
tree is stored as flat node arrays, as in scikit-learn, in the
breadth-first order its levels produce: (feature, threshold, left) and
every node's box (node_lo, node_hi).  It predicts by one vectorised step
per level.
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
        # One column at a time: numpy broadcasts a (dim,) operand over rows
        # of length dim an order of magnitude slower than a scalar.
        X = _patterns(X, self.dim)
        span = self.hi - self.lo
        for j in range(self.dim):
            frac = X[:, j] - self.lo[j]
            frac /= span[j]
            frac *= self.bins
            idx = frac.astype(np.intp)
            np.maximum(idx, 0, out=idx)
            np.minimum(idx, self.bins - 1, out=idx)
            if j == 0:
                ids = idx
            else:  # row-major cell id by Horner's rule
                ids *= self.bins
                ids += idx
        return ids

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


def _checked(samples: SampleSet, num_classes: Optional[int], which: str = "training",
             domain=None, box: bool = True):
    """The learners' one input gate: (k, box) of a set to fit or adapt on.

    It refuses an empty set, non-finite features (naming the set, row and
    dimension) and negative labels.  k is ``num_classes``, or the largest
    label + 1 when that is None.  The box is the (lo, hi) of ``domain``, or
    of the data when it is None; without ``box`` it is None.
    """
    X, y = samples.X, samples.y
    if len(samples) == 0:
        raise LearnerError(f"{which} set is empty")
    if not np.isfinite(X).all():
        row, dim = np.argwhere(~np.isfinite(X))[0]
        raise LearnerError(f"{which} features must be finite: row {row} holds {X[row, dim]} "
                           f"in dimension {dim}")
    if y.min() < 0:
        raise LearnerError(f"labels must be non-negative, got {y.min()}")
    k = int(y.max()) + 1
    if num_classes is not None:
        if num_classes < k:
            raise LearnerError("num_classes smaller than observed labels")
        k = int(num_classes)
    if not box:
        return k, None
    return k, _bounds_from_data(X) if domain is None else _as_bounds(domain, samples.dim)


def fit_histogram(
    samples: SampleSet,
    n_bins_per_dim: int,
    domain=None,
    num_classes: Optional[int] = None,
) -> FittedModel:
    """Histogram rule: grid-cell transformer + per-cell label frequencies."""
    if n_bins_per_dim < 1:
        raise LearnerError("bin count must be positive")
    d = samples.dim
    if int(n_bins_per_dim) ** d > MAX_GRID**2:  # Python ints: no overflow
        raise LearnerError(f"histogram of {n_bins_per_dim} bins in each of {d} dimensions "
                           f"exceeds the limit of {MAX_GRID**2} cells")
    k, (lo, hi) = _checked(samples, num_classes, domain=domain)
    u = GridTransformer(lo, hi, n_bins_per_dim)
    counts = _label_counts(u(samples.X), samples.y, u.n_regions, k)
    return FittedModel(ComposeableDecisionFunction(u, _voter_from_counts(counts), k))


# Cuts scored this close to their node's best are compared exactly.  A
# cut's score S_L/(n n_L) + S_R/(n n_R) lies in [0, 1] and adds two
# correctly rounded quotients of integers below 2**53, so its float is
# within 2**-51 of the exact value and two equal scores are under 2**-50
# apart.
_GAIN_WINDOW = 2.0**-46


def _level_splits(cols: np.ndarray, y: np.ndarray, counts: np.ndarray, grow: np.ndarray,
                  srt: list[np.ndarray], min_leaf: int):
    """Best Gini split of every node of one level: (gain, dim, threshold), each (nodes,).

    ``cols[f]`` is feature f of every row and ``counts`` holds the
    (nodes, k) class counts.  ``srt[f]`` lists the rows of the nodes that
    ``grow`` marks, grouped by node in ascending order and sorted by
    feature f within a node.  A cut after a listed row leaves n_L rows,
    L_c of class c, on the left and n_R rows, R_c of class c, on the right
    of a node of n rows, T_c of class c.  Its Gini gain (CART, Breiman et
    al. 1984) is S_L/(n n_L) + S_R/(n n_R) - S_T/n**2, in the integer sums
    of squares S_L = sum L_c**2, S_R = sum R_c**2 and S_T = sum T_c**2.

    A row of class c that joins the left side, as its L_c-th, adds
    2 L_c - 1 to S_L and 2 (L_c - T_c) - 1 to S_R, so a row needs only its
    own class's count.  A stable sort of a feature's rows by class lists
    each node's rows of one class together and in feature order, so a row's
    place in it gives L_c; nothing is counted per class, and the cost has
    no class-count factor.  Both running sums are cumulative sums of exact
    integers, below 2**53, held as the real and imaginary parts of one
    complex array.

    A cut between equal values, one that leaves fewer than ``min_leaf``
    rows on a side, and a cut after a node's last row are no candidates.
    Ties go to the lowest dimension, then the smallest threshold, and hold
    exactly: a node's candidates scored within ``_GAIN_WINDOW`` of its best
    are ordered by S_L/n_L + S_R/n_R, cross-multiplied in Python integers.
    A node without a candidate gets gain -inf.
    """
    n_nodes, k = counts.shape
    grown = np.flatnonzero(grow)
    tot = counts[grown].astype(np.int64)
    sq = (tot * tot).sum(axis=1)  # S_T of each grown node
    listed = tot.sum(axis=1)
    first = np.cumsum(listed) - listed  # each grown node's first listed row
    m = srt[0].size
    slot = np.repeat(np.arange(grown.size), listed)  # a listed row's node among the grown
    n_left = np.arange(1, m + 1) - first[slot]  # of a cut after each row
    n_right = listed[slot] - n_left
    shut = (n_left < min_leaf) | (n_right < max(min_leaf, 1))  # n_right >= 1: inside the node
    den_l = (listed[slot] * n_left).astype(float)
    den_r = (listed[slot] * np.maximum(n_right, 1)).astype(float)  # shut cuts divide by n
    # Sorted by class, every feature's rows fall in the same (class, node)
    # groups, of the class totals' sizes, so the steps in sorted order are
    # one array for all features: S_L's in the real part, S_R's in the
    # imaginary part.
    size = tot.T.reshape(-1)
    sorted_l = np.arange(1, m + 1) - np.repeat(np.cumsum(size) - size, size)
    steps = np.empty(m, complex)
    steps.real = 2 * sorted_l - 1
    steps.imag = 2 * (sorted_l - np.repeat(size, size)) - 1
    # Along a node's rows S_L rises from 0 to S_T and S_R falls from S_T to
    # 0, so adding these at each node's first row restarts both sums there.
    restart = sq * 1j
    restart.real[1:] = -sq[:-1]
    cls = y.astype(np.min_scalar_type(k - 1))  # narrow keys sort by radix
    tops, near = [], []
    for f, rows in enumerate(srt):
        xs = cols[f][rows]
        s = np.empty(m, complex)
        s[np.argsort(cls[rows], kind="stable")] = steps
        s[first] += restart
        np.cumsum(s, out=s)
        score = s.real / den_l
        score += s.imag / den_r
        score[shut] = -np.inf
        score[:-1][xs[1:] == xs[:-1]] = -np.inf
        top = np.maximum.reduceat(score, first)
        p = np.flatnonzero(score >= np.where(top > -np.inf, top - _GAIN_WINDOW, np.inf)[slot])
        tops.append(top)
        near.append((np.full(p.size, f), p, score[p], s[p], 0.5 * (xs[p] + xs[p + 1])))
    # The cuts near their node's best over all features, in (dim, row)
    # order: each node's first is its pick unless another ties it.
    f, p, score, s, mid = (np.concatenate(a) for a in zip(*near))
    at = slot[p]
    keep = score >= np.max(tops, axis=0)[at] - _GAIN_WINDOW
    f, p, score, s, mid, at = f[keep], p[keep], score[keep], s[keep], mid[keep], at[keep]
    nodes, pick, many = np.unique(at, return_index=True, return_counts=True)
    for j in np.flatnonzero(many > 1):
        best = None  # S_L/n_L + S_R/n_R as (numerator, denominator)
        for c in np.flatnonzero(at == nodes[j]):
            n_l, n_r = int(n_left[p[c]]), int(n_right[p[c]])
            q = int(s[c].real) * n_r + int(s[c].imag) * n_l, n_l * n_r
            if best is None or q[0] * best[1] > best[0] * q[1]:  # strictly: ties keep the first
                best, pick[j] = q, c
    gain = np.full(n_nodes, -np.inf)
    dim = np.zeros(n_nodes, np.intp)
    thr = np.zeros(n_nodes)
    gain[grown[nodes]] = score[pick] - (sq / (listed * listed))[nodes]
    dim[grown[nodes]] = f[pick]
    thr[grown[nodes]] = mid[pick]
    return gain, dim, thr


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
    rows or when pure.  The procedure is fully deterministic.
    """
    if max_depth < 0:
        raise LearnerError("max_depth must be nonnegative")
    if min_leaf < 1:
        raise LearnerError(f"min_leaf must be at least 1, got {min_leaf}")
    if not np.isfinite(min_gain):
        raise LearnerError(f"min_gain must be a finite number, got {min_gain}")
    k, (lo, hi) = _checked(samples, num_classes, domain=domain)
    X, y = samples.X, samples.y
    n = len(samples)
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


def adapt_to_target(u, target_samples: SampleSet,
                    num_classes: Optional[int] = None) -> ComposeableDecisionFunction:
    """Fit the voter and decider on target data over the frozen regions of u.

    u is a transformer, such as a fitted source model's ``fn.transformer``
    or a ``GridTransformer`` built on its own; only its regions are read.
    Regions that receive no target samples predict the global target
    majority label.
    """
    k, _ = _checked(target_samples, num_classes, "target", box=False)
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
