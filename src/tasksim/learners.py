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
passes over all its nodes: running class counts, the Gini gain of every
candidate cut, and each node's first maximum.  The tie rules are
unchanged from the node-at-a-time search: the smallest threshold within
a feature, then the lowest feature, and the midpoint fallback unless the
best gain exceeds ``min_gain``.  The tree is stored as flat node arrays
(feature, threshold, left, right, leaf_id), in the layout of
scikit-learn's trees, and predicts by one vectorised step per level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .distributions import SampleSet
from .geometry import Box, ConvexPolygon, Partition

# Best-split Gini gains at or below this level are indistinguishable from
# sampling noise for n >= ~2000; see module docstring.
DEFAULT_MIN_GAIN = 1e-2


class LearnerError(ValueError):
    pass


def _as_bounds(domain, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a domain spec to (lo, hi) arrays of length d.

    Accepts the 2-d box tuple (xmin, xmax, ymin, ymax) or a (d, 2) array
    of per-dimension bounds.
    """
    arr = np.asarray(domain, dtype=float)
    if arr.shape == (4,) and d == 2:
        lo = np.array([arr[0], arr[2]])
        hi = np.array([arr[1], arr[3]])
    elif arr.shape == (d, 2):
        lo, hi = arr[:, 0].copy(), arr[:, 1].copy()
    else:
        raise LearnerError(f"cannot interpret domain {domain!r} for {d}-dimensional data")
    if not (lo < hi).all():
        raise LearnerError("domain bounds must have positive extent")
    return lo, hi


def _bounds_from_data(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    return lo - 1e-9 * span, hi + 1e-9 * span


class GridTransformer:
    """u for histogram rules: index of the containing grid cell."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray, bins: int):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.bins = int(bins)
        self.dim = self.lo.shape[0]
        self.n_regions = self.bins**self.dim

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        frac = (X - self.lo) / (self.hi - self.lo)
        idx = np.clip((frac * self.bins).astype(int), 0, self.bins - 1)
        flat = np.zeros(X.shape[0], dtype=int)
        for d in range(self.dim):
            flat = flat * self.bins + idx[:, d]
        return flat


_TREE_ARRAYS = ("feature", "threshold", "left", "right", "leaf_id")


class TreeTransformer:
    """u for tree rules: id of the containing leaf, by descent over flat node arrays.

    Node 0 is the root and children come after their parent.  An internal
    node i sends x to ``left[i]`` when ``x[feature[i]] <= threshold[i]``
    and to ``right[i]`` otherwise.  A leaf has feature, left and right -1
    and threshold 0; ``leaf_id`` numbers the leaves in depth-first
    preorder, left child first, and is -1 on internal nodes.
    """

    def __init__(self, feature, threshold, left, right, leaf_id, dim: int):
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.leaf_id = np.asarray(leaf_id, dtype=np.intp)
        self.dim = dim
        n = self.feature.size
        inner = self.feature >= 0
        ids = np.arange(n)
        if not (
            n > 0
            and all(getattr(self, a).shape == (n,) for a in _TREE_ARRAYS)
            and (self.feature < dim).all()
            and (self.left[inner] > ids[inner]).all() and (self.right[inner] > ids[inner]).all()
            and (self.left[inner] < n).all() and (self.right[inner] < n).all()
            and (self.leaf_id[inner] == -1).all()
            and np.array_equal(np.sort(self.leaf_id[~inner]), np.arange(n - inner.sum()))
        ):
            raise LearnerError("tree arrays do not describe a binary tree")
        self.n_regions = n - int(inner.sum())
        # Descent tables in which a leaf leads back to itself, so every row
        # can take the same number of steps.
        self._split_on = np.where(inner, self.feature, 0)
        self._child = np.column_stack([np.where(inner, self.left, ids),
                                       np.where(inner, self.right, ids)]).reshape(-1)
        self._depth = sum(1 for _ in self._inner_levels())

    def _inner_levels(self):
        """The internal nodes at each depth from the root, as index arrays."""
        level = np.zeros(1, dtype=np.intp)
        while True:
            level = level[self.feature[level] >= 0]
            if not level.size:
                return
            yield level
            level = np.concatenate([self.left[level], self.right[level]])

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=float)
        if X.shape[1] != self.dim:
            raise LearnerError(f"tree expects {self.dim} features, got {X.shape[1]}")
        flat = X.reshape(-1)
        offset = np.arange(X.shape[0]) * self.dim
        node = np.zeros(X.shape[0], dtype=np.intp)
        for _ in range(self._depth):
            go_left = flat[offset + self._split_on[node]] <= self.threshold[node]
            node = self._child[2 * node + ~go_left]
        return self.leaf_id[node]

    def node_boxes(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) of every node's box, each (nodes, dim), given the root box."""
        box_lo = np.empty((self.feature.size, self.dim))
        box_hi = np.empty((self.feature.size, self.dim))
        box_lo[0], box_hi[0] = lo, hi
        for parents in self._inner_levels():
            f, t = self.feature[parents], self.threshold[parents]
            for child, side in ((self.left[parents], box_hi), (self.right[parents], box_lo)):
                box_lo[child], box_hi[child] = box_lo[parents], box_hi[parents]
                side[child, f] = t
        return box_lo, box_hi


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
    meta: dict = field(default_factory=dict)

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
    _check_finite(samples.X)
    d = samples.dim
    lo, hi = _bounds_from_data(samples.X) if domain is None else _as_bounds(domain, d)
    u = GridTransformer(lo, hi, n_bins_per_dim)
    k = _num_classes(samples, num_classes)
    counts = _label_counts(u(samples.X), samples.y, u.n_regions, k)
    fn = ComposeableDecisionFunction(u, _voter_from_counts(counts), k)
    meta = {
        "kind": "histogram",
        "bins": int(n_bins_per_dim),
        "n_train": len(samples),
        "num_classes": k,
        "lo": lo.tolist(),
        "hi": hi.tolist(),
    }
    return FittedModel(fn, meta)


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
                  srt: list[np.ndarray], node: np.ndarray, min_leaf: int):
    """Best Gini split of every node of one level: (gain, dim, threshold), each (nodes,).

    ``cols[f]`` is feature f of every row; ``node`` maps a row to its node
    and ``counts`` holds the (nodes, k) class counts.  ``srt[f]`` lists the
    rows of the nodes that ``grow`` marks, grouped by node in ascending
    order and sorted by feature f within a node.  Candidates are the
    midpoints of consecutive distinct values that leave ``min_leaf`` rows
    on each side.  Ties in gain go to the smallest threshold, then the
    lowest dimension.  A node without a candidate gets gain -inf.
    """
    n_nodes = counts.shape[0]
    size = counts.sum(axis=1)
    tot = np.ascontiguousarray(counts.T, dtype=float)  # (k, nodes)
    parent = 1.0 - _class_sum((tot / np.maximum(size, 1)) ** 2)
    listed = np.where(grow, size, 0)
    start = np.cumsum(listed) - listed
    # A running class count over all listed rows restarts at each node by
    # taking the previous node's totals off at its successor's first row.
    grown = np.flatnonzero(grow)
    restart_at, restart_by = start[grown[1:]] + 1, tot[:, grown[:-1]]
    gain = np.full((len(srt), n_nodes), -np.inf)
    thr = np.zeros((len(srt), n_nodes))
    for f, rows in enumerate(srt):
        at = node[rows]
        xs = cols[f][rows]
        n_left = np.arange(1, rows.size + 1) - start[at]  # of a cut after each row
        n_right = size[at] - n_left
        # n_right >= 1 also keeps the cut inside the node
        cut = np.flatnonzero((xs[1:] != xs[:-1]) & (n_left[:-1] >= min_leaf)
                             & (n_right[:-1] >= max(min_leaf, 1)))
        if cut.size == 0:
            continue
        at, n_left, n_right = at[cut], n_left[cut].astype(float), n_right[cut].astype(float)
        onehot = np.zeros((tot.shape[0], rows.size + 1))
        onehot.reshape(-1)[y[rows] * (rows.size + 1) + np.arange(1, rows.size + 1)] = 1.0
        onehot[:, restart_at] -= restart_by
        left = np.take(np.cumsum(onehot, axis=1), cut + 1, axis=1)
        right = np.take(tot, at, axis=1) - left
        gini_l = 1.0 - _class_sum((left / n_left) ** 2)
        gini_r = 1.0 - _class_sum((right / n_right) ** 2)
        n = size[at]
        g = parent[at] - (n_left / n) * gini_l - (n_right / n) * gini_r
        first = np.flatnonzero(np.concatenate(([True], at[1:] != at[:-1])))  # per node
        best = np.maximum.reduceat(g, first)
        is_best = g == np.repeat(best, np.diff(first, append=g.size))
        # the first maximum is the smallest threshold
        i = np.minimum.reduceat(np.where(is_best, np.arange(g.size), g.size), first)
        gain[f, at[first]] = best
        thr[f, at[first]] = 0.5 * (xs[cut[i]] + xs[cut[i] + 1])
    dim = np.argmax(gain, axis=0)  # first max: ties keep the lower dimension
    nodes = np.arange(n_nodes)
    return gain[dim, nodes], dim, thr[dim, nodes]


def _root_split(X: np.ndarray, y: np.ndarray, k: int, min_leaf: int) -> tuple[float, int, float]:
    """(gain, dim, threshold) of the best split of all rows, as fit_tree's root search finds it."""
    cols = np.ascontiguousarray(X.T, dtype=float)
    gain, dim, thr = _level_splits(cols, y, np.bincount(y, minlength=k)[None, :], np.ones(1, bool),
                                   [np.argsort(c) for c in cols], np.zeros(len(y), np.intp),
                                   min_leaf)
    return float(gain[0]), int(dim[0]), float(thr[0])


def _preorder_leaf_ids(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Number the leaves (left == -1) in depth-first preorder, left child first."""
    leaf_id = np.full(left.size, -1, dtype=np.intp)
    lefts, rights = left.tolist(), right.tolist()
    stack, n_leaves = [0], 0
    while stack:
        i = stack.pop()
        if lefts[i] < 0:
            leaf_id[i] = n_leaves
            n_leaves += 1
        else:
            stack += (rights[i], lefts[i])
    return leaf_id


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
    levels = []  # (feature, threshold, left, class counts) of each level's nodes
    n_nodes, first_id, depth = 1, 0, 0
    while n_nodes:
        counts = _label_counts(node[srt[0]], y[srt[0]], n_nodes, k)
        size = counts.sum(axis=1)
        grow = (depth < max_depth) & (size >= 2 * min_leaf) & (counts.max(axis=1) < size)
        srt = [r[grow[node[r]]] for r in srt]
        gain, dim, thr = _level_splits(cols, y, counts, grow, srt, node, min_leaf)
        # No split distinguishable from noise: halve the widest side so
        # depth alone can realize balanced checkerboard structure.
        fallback = ~(gain > min_gain)
        widest = np.argmax(box_hi - box_lo, axis=1)
        nodes = np.arange(n_nodes)
        dim = np.where(fallback, widest, dim)
        thr = np.where(fallback, 0.5 * (box_lo[nodes, widest] + box_hi[nodes, widest]), thr)
        rows = srt[0]
        at = node[rows]
        go_left = cols.reshape(-1)[dim[at] * n + rows] <= thr[at]
        n_left = np.bincount(at[go_left], minlength=n_nodes)
        split = grow & ~(fallback & ((n_left < min_leaf) | (size - n_left < min_leaf)))

        rank = np.cumsum(split) - split
        n_children = 2 * int(split.sum())
        levels.append((np.where(split, dim, -1), np.where(split, thr, 0.0),
                       np.where(split, first_id + n_nodes + 2 * rank, -1), counts))
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

    feature, threshold, left, counts = (np.concatenate(a) for a in zip(*levels))
    right = np.where(left >= 0, left + 1, -1)
    leaf_id = _preorder_leaf_ids(left, right)
    leaves = leaf_id >= 0
    leaf_counts = np.empty((int(leaves.sum()), k), dtype=counts.dtype)
    leaf_counts[leaf_id[leaves]] = counts[leaves]
    u = TreeTransformer(feature, threshold, left, right, leaf_id, d)
    fn = ComposeableDecisionFunction(u, _voter_from_counts(leaf_counts), k)
    meta = {
        "kind": "tree",
        "max_depth": int(max_depth),
        "min_leaf": int(min_leaf),
        "min_gain": float(min_gain),
        "n_train": len(samples),
        "num_classes": k,
        "lo": lo.tolist(),
        "hi": hi.tolist(),
    }
    return FittedModel(fn, meta)


def induced_partition(model: FittedModel) -> Partition:
    """The learner's cell structure as a geometric partition (2-d only)."""
    u = model.fn.transformer
    if getattr(u, "dim", None) != 2:
        raise LearnerError("induced partitions are only materialized for 2-d inputs")
    if isinstance(u, GridTransformer):
        cells = []
        edges0 = np.linspace(u.lo[0], u.hi[0], u.bins + 1)
        edges1 = np.linspace(u.lo[1], u.hi[1], u.bins + 1)
        # region id = i0 * bins + i1 (dimension 0 is the major index)
        for i0 in range(u.bins):
            for i1 in range(u.bins):
                cells.append(
                    ConvexPolygon.from_box(
                        (edges0[i0], edges0[i0 + 1], edges1[i1], edges1[i1 + 1])
                    )
                )
        domain: Box = (u.lo[0], u.hi[0], u.lo[1], u.hi[1])
        return Partition(cells, domain)
    if isinstance(u, TreeTransformer):
        lo, hi = np.asarray(model.meta["lo"]), np.asarray(model.meta["hi"])
        box_lo, box_hi = u.node_boxes(lo, hi)
        leaves = np.flatnonzero(u.leaf_id >= 0)
        leaves = leaves[np.argsort(u.leaf_id[leaves])]
        cells = [
            ConvexPolygon.from_box((blo[0], bhi[0], blo[1], bhi[1]))
            for blo, bhi in zip(box_lo[leaves], box_hi[leaves])
        ]
        return Partition(cells, (lo[0], hi[0], lo[1], hi[1]))
    raise LearnerError(f"unknown transformer type {type(u).__name__}")


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


# ---------------------------------------------------------------------------
# serialization


def model_to_json_dict(model: FittedModel) -> dict:
    u = model.fn.transformer
    out = {"meta": model.meta, "voter": model.fn.voter_table.tolist(),
           "num_classes": model.fn.num_classes}
    if isinstance(u, GridTransformer):
        out["transformer"] = {"type": "grid", "lo": u.lo.tolist(), "hi": u.hi.tolist(),
                              "bins": u.bins}
    elif isinstance(u, TreeTransformer):
        out["transformer"] = {"type": "tree", "dim": u.dim, "n_regions": u.n_regions,
                              **{name: getattr(u, name).tolist() for name in _TREE_ARRAYS}}
    else:
        raise LearnerError(f"cannot serialize transformer {type(u).__name__}")
    return out


def model_from_json_dict(data: dict) -> FittedModel:
    t = data["transformer"]
    if t["type"] == "grid":
        u = GridTransformer(np.asarray(t["lo"]), np.asarray(t["hi"]), t["bins"])
    elif t["type"] == "tree":
        u = TreeTransformer(*(t[name] for name in _TREE_ARRAYS), int(t["dim"]))
        if u.n_regions != int(t["n_regions"]):
            raise LearnerError("tree n_regions does not match its leaves")
    else:
        raise LearnerError(f"unknown transformer type {t['type']!r}")
    fn = ComposeableDecisionFunction(u, np.asarray(data["voter"], dtype=float),
                                     int(data["num_classes"]))
    return FittedModel(fn, dict(data.get("meta", {})))


def save_model(model: FittedModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json_dict(model), fh)


def load_model(path: str) -> FittedModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json_dict(json.load(fh))
