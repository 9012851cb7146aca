import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    box_polygon,
    reference_best_split,
    reference_fit_tree,
    reference_grid_ids,
    reference_leaf_ids,
)

import tasksim as T
from tasksim import learners
from tasksim.distributions import SampleSet
from tasksim.geometry import MAX_GRID
from tasksim.learners import (
    DEFAULT_MIN_GAIN,
    GridTransformer,
    LearnerError,
    _root_split,
    _voter_from_counts,
)

DOM = (-1.0, 1.0, -1.0, 1.0)


def draw(dist, n, seed):
    return T.sample(dist, n, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# histogram


def test_histogram_single_class():
    s = SampleSet(np.random.default_rng(0).uniform(-1, 1, (50, 2)), np.full(50, 3))
    m = T.fit_histogram(s, 3, DOM, num_classes=5)
    pts = np.random.default_rng(1).uniform(-1, 1, (200, 2))
    assert (m.predict(pts) == 3).all()


def test_histogram_one_bin_is_majority_vote():
    X = np.random.default_rng(0).uniform(-1, 1, (90, 2))
    y = np.array([0] * 60 + [1] * 30)
    m = T.fit_histogram(SampleSet(X, y), 1, DOM)
    assert (m.predict(X) == 0).all()


def test_histogram_size_capped_before_allocating(monkeypatch):
    s = draw(T.xor(), 20, 0)
    s3 = SampleSet(np.random.default_rng(0).uniform(-1, 1, (20, 3)), np.arange(20) % 2)
    assert T.fit_histogram(s, MAX_GRID, DOM).fn.transformer.n_regions == MAX_GRID**2
    assert T.fit_histogram(s3, 40, num_classes=2).fn.transformer.n_regions == 40**3
    monkeypatch.setattr(learners, "GridTransformer", None)  # any allocation attempt would raise
    for samples, bins in ((s, MAX_GRID + 1), (s, 100000), (s, 10**18), (s3, 41)):
        with pytest.raises(LearnerError, match=f"{bins} bins in each of {samples.dim} dim"):
            T.fit_histogram(samples, bins, num_classes=2)


def test_histogram_learns_xor(dist_xor):
    m = T.fit_histogram(draw(dist_xor, 4000, 11), 2, DOM)
    assert T.empirical_risk(m, draw(dist_xor, 4000, 211)) <= 0.02


def test_histogram_induced_partition_is_grid():
    m = T.fit_histogram(draw(T.xor(), 100, 0), 3, DOM)
    part = T.induced_partition(m)
    assert len(part.cells) == 9
    grid = T.make_grid_partition(3, DOM)
    assert T.is_subpartition(part, grid) and T.is_subpartition(grid, part)


@pytest.mark.parametrize("bins", range(1, 9))
def test_histogram_induced_partition_cells_follow_region_order(bins):
    domain = (-3.0, 5.0, 0.5, 2.0)
    rng = np.random.default_rng(bins)
    X = np.column_stack([rng.uniform(-3, 5, 50), rng.uniform(0.5, 2, 50)])
    m = T.fit_histogram(SampleSet(X, rng.integers(0, 2, 50)), bins, domain)
    part = T.induced_partition(m)
    # Region i0 * bins + i1 is the box of bin i0 along x and bin i1 along y.
    e0, e1 = np.linspace(-3.0, 5.0, bins + 1), np.linspace(0.5, 2.0, bins + 1)
    want = T.Partition([box_polygon((e0[i0], e0[i0 + 1], e1[i1], e1[i1 + 1])).vertices
                        for i0 in range(bins) for i1 in range(bins)], domain)
    assert part.domain == want.domain
    assert np.array_equal(part.cell_vertices, want.cell_vertices)
    assert np.array_equal(part.vertex_counts, want.vertex_counts)
    centers = part.cell_vertices.mean(axis=1)
    assert np.array_equal(m.fn.transformer(centers), np.arange(bins**2))


def test_histogram_consistency_in_bins(dist_xor):
    # fresh-data risk with bins = n and 200*n^2 training samples does not
    # degrade as the grid refines
    means = {}
    for bins in (2, 4, 8):
        risks = []
        for r in range(20):
            rng = np.random.default_rng(100 + r)
            train = T.sample(dist_xor, 200 * bins * bins, rng)
            fresh = T.sample(dist_xor, 2000, rng)
            risks.append(T.empirical_risk(T.fit_histogram(train, bins, DOM), fresh))
        means[bins] = (np.mean(risks), np.std(risks, ddof=1) / np.sqrt(len(risks)))
    for a, b in ((2, 4), (4, 8)):
        mu_a, se_a = means[a]
        mu_b, se_b = means[b]
        assert mu_b <= mu_a + 2 * np.hypot(se_a, se_b) + 1e-12


def bins_limit(d: int) -> int:
    """Most bins per dimension that fit_histogram allows in d dimensions."""
    b = round((MAX_GRID**2) ** (1 / d))
    return b if b**d <= MAX_GRID**2 else b - 1


@st.composite
def grid_transformer_cases(draw_):
    d = draw_(st.integers(1, 4))
    bins = draw_(st.one_of(st.integers(1, min(16, bins_limit(d))),
                           st.integers(1, bins_limit(d)), st.just(bins_limit(d))))
    lo = draw_(st.lists(st.sampled_from([-1.0, 0.0, -3.7, 1e-3, 12.5, -1e6]),
                        min_size=d, max_size=d))
    span = draw_(st.lists(st.sampled_from([1.0, 2.0, 0.3, 7.1, 1e-4, 1e5]),
                          min_size=d, max_size=d))
    return d, bins, lo, span, draw_(st.integers(0, 2**32 - 1))


@settings(max_examples=120)
@given(grid_transformer_cases())
@example((1, bins_limit(1), [-1.0], [2.0], 0))
@example((2, MAX_GRID, [-1.0, -1.0], [2.0, 2.0], 1))
@example((4, bins_limit(4), [0.0, -3.7, 12.5, 1e-3], [0.3, 7.1, 1e5, 1e-4], 2))
def test_grid_transformer_matches_the_broadcast_reference(case):
    """Every bin edge, the doubles on either side of it and points outside
    the box on both sides get the reference's cell ids, with its dtype."""
    d, bins, lo, span, seed = case
    lo = np.array(lo)
    hi = lo + np.array(span)
    u = GridTransformer(lo, hi, bins)
    rng = np.random.default_rng(seed)
    pools = []
    for j in range(d):
        edges = np.linspace(lo[j], hi[j], bins + 1)
        outside = np.concatenate([lo[j] - span[j] * np.array([1e-12, 0.5, 3.0]),
                                  hi[j] + span[j] * np.array([1e-12, 0.5, 3.0])])
        pools.append(np.concatenate([edges, np.nextafter(edges, -np.inf),
                                     np.nextafter(edges, np.inf), outside,
                                     rng.uniform(lo[j], hi[j], 50)]))
    n = max(pool.size for pool in pools)
    X = np.column_stack([rng.permutation(np.concatenate([pool, rng.choice(pool, n - pool.size)]))
                         for pool in pools])
    got, want = u(X), reference_grid_ids(u, X)
    assert got.dtype == want.dtype and got.shape == want.shape == (n,)
    assert np.array_equal(got, want)
    assert got.min() >= 0 and got.max() < u.n_regions


# ---------------------------------------------------------------------------
# tree


def test_tree_depth_zero_is_majority():
    s = draw(T.xor(), 3000, 14)
    m = T.fit_tree(s, max_depth=0, domain=DOM)
    part = T.induced_partition(m)
    assert len(part.cells) == 1
    majority = np.argmax(np.bincount(s.y))
    assert (m.predict(s.X) == majority).all()


def test_tree_pure_input_single_leaf():
    X = np.random.default_rng(0).uniform(-1, 1, (200, 2))
    m = T.fit_tree(SampleSet(X, np.zeros(200, dtype=int)), max_depth=8, domain=DOM)
    assert len(T.induced_partition(m).cells) == 1


def test_tree_learns_xor_at_depth_two(dist_xor):
    m = T.fit_tree(draw(dist_xor, 4000, 10), max_depth=2, domain=DOM)
    part = T.induced_partition(m)
    assert len(part.cells) == 4
    assert T.empirical_risk(m, draw(dist_xor, 4000, 210)) <= 0.05


def test_tree_leaf_count_bounds(dist_rxor45):
    for depth in (1, 3, 5):
        m = T.fit_tree(draw(dist_rxor45, 2000, 3), max_depth=depth, domain=DOM)
        part = T.induced_partition(m)
        assert len(part.cells) <= 2**depth
        assert sum(part.cell_areas()) == pytest.approx(4.0, abs=1e-9)
        assert T.validate_partition(part).ok


def test_tree_determinism(dist_rxor45):
    s = draw(dist_rxor45, 3000, 42)
    m1 = T.fit_tree(s, max_depth=6, domain=DOM)
    # same seed means same data means same tree
    for m in (T.fit_tree(s, max_depth=6, domain=DOM),
              T.fit_tree(draw(dist_rxor45, 3000, 42), max_depth=6, domain=DOM)):
        for name in ("feature", "threshold", "left", "leaf_id", "node_lo", "node_hi"):
            assert np.array_equal(getattr(m.fn.transformer, name),
                                  getattr(m1.fn.transformer, name)), name
        assert np.array_equal(m.fn.voter_table, m1.fn.voter_table)


@pytest.mark.parametrize("domain,d", [(DOM, 3), ([(-1.0, 1.0)] * 3, 3), ([(-1.0, 1.0)] * 2, 2)])
def test_domain_is_a_2d_box_tuple_only(domain, d):
    rng = np.random.default_rng(4)
    s = SampleSet(rng.uniform(-1, 1, (50, d)), rng.integers(0, 2, 50))
    with pytest.raises(LearnerError, match="cannot interpret domain"):
        T.fit_tree(s, max_depth=2, domain=domain)
    with pytest.raises(LearnerError, match="cannot interpret domain"):
        T.fit_histogram(s, 2, domain)


@pytest.mark.parametrize("domain", [(-1e308, 1e308, -1.0, 1.0), (-1.0, 1.0, -np.inf, 1.0)])
def test_a_domain_whose_extent_overflows_is_refused(domain):
    s = SampleSet(np.zeros((4, 2)), np.arange(4) % 2)
    with pytest.raises(LearnerError, match="positive, finite extent"):
        T.fit_tree(s, max_depth=2, domain=domain)
    with pytest.raises(LearnerError, match="positive, finite extent"):
        T.fit_histogram(s, 2, domain)


def test_tree_handles_higher_dimensions():
    rng = np.random.default_rng(8)
    X = rng.uniform(-1, 1, (600, 4))
    y = (X[:, 2] > 0).astype(int)
    m = T.fit_tree(SampleSet(X, y), max_depth=3)
    fresh = rng.uniform(-1, 1, (400, 4))
    assert np.mean(m.predict(fresh) == (fresh[:, 2] > 0)) > 0.95
    with pytest.raises(LearnerError):
        T.induced_partition(m)  # only materialized for 2-d inputs


def test_min_leaf_below_one_and_nan_min_gain_rejected():
    rng = np.random.default_rng(3)
    s = SampleSet(rng.uniform(0.9, 1.0, (40, 2)), rng.integers(0, 2, 40))
    # one leaf at min_leaf 1: no cut beats min_gain and the midpoint
    # fallback would leave a side empty
    assert T.fit_tree(s, max_depth=8, min_leaf=1, domain=(0, 1, 0, 1),
                      min_gain=0.5).fn.transformer.n_regions == 1
    for min_leaf in (0, -2):
        with pytest.raises(LearnerError, match="min_leaf"):
            T.fit_tree(s, max_depth=8, min_leaf=min_leaf, domain=(0, 1, 0, 1), min_gain=0.5)
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(LearnerError, match="min_gain"):
            T.fit_tree(s, max_depth=8, min_gain=float(bad))


def test_min_leaf_respected():
    s = draw(T.rxor(45.0), 400, 5)
    m = T.fit_tree(s, max_depth=10, min_leaf=20, domain=DOM)
    region_counts = np.bincount(m.fn.u(s.X), minlength=m.fn.voter_table.shape[0])
    assert region_counts.min() >= 20


# ---------------------------------------------------------------------------
# adaptation


def test_adapt_same_model_same_data_identical(dist_xor):
    s = draw(dist_xor, 2000, 6)
    m = T.fit_tree(s, max_depth=4, domain=DOM)
    adapted = T.adapt_to_target(m.fn.transformer, s, num_classes=2)
    pts = draw(dist_xor, 3000, 66).X
    assert np.array_equal(m.predict(pts), adapted.predict(pts))


def test_adapt_never_alters_transformer(dist_xor, dist_quads):
    src = T.fit_tree(draw(dist_quads, 3000, 7), max_depth=5, domain=DOM)
    pts = np.random.default_rng(9).uniform(-1, 1, (1000, 2))
    before = src.fn.u(pts)
    adapted = T.adapt_to_target(src.fn.transformer, draw(dist_xor, 500, 77), num_classes=2)
    assert adapted.transformer is src.fn.transformer
    assert np.array_equal(adapted.u(pts), before)


def test_adapt_quads_model_to_xor(dist_xor, dist_quads):
    src = T.fit_tree(draw(dist_quads, 4000, 12), max_depth=2, domain=DOM)
    adapted = T.adapt_to_target(src.fn.transformer, draw(dist_xor, 4000, 112), num_classes=2)
    assert T.empirical_risk(adapted, draw(dist_xor, 4000, 212)) <= 0.05


def test_adapt_orthogonal_source_is_chance(dist_xor, dist_rxor45):
    # wedge-aligned regions are half one xor class, half the other
    src = T.fit_tree(draw(dist_rxor45, 4000, 12), max_depth=2, domain=DOM)
    adapted = T.adapt_to_target(src.fn.transformer, draw(dist_xor, 4000, 113), num_classes=2)
    risk = T.empirical_risk(adapted, draw(dist_xor, 4000, 213))
    assert risk == pytest.approx(0.5, abs=0.05)


def test_adapt_empty_regions_vote_target_majority():
    src = T.fit_histogram(draw(T.xor(), 500, 1), 4, DOM)
    # target data confined to one corner cell, majority class 1
    X = np.random.default_rng(2).uniform(-1, -0.6, (30, 2))
    y = np.array([1] * 20 + [0] * 10)
    adapted = T.adapt_to_target(src.fn.transformer, SampleSet(X, y), num_classes=2)
    far = np.random.default_rng(3).uniform(0.6, 1.0, (50, 2))
    assert (adapted.predict(far) == 1).all()


def test_empirical_risk_examples(dist_xor):
    s = draw(dist_xor, 4000, 15)
    perfect = T.fit_tree(s, max_depth=2, domain=DOM)
    assert T.empirical_risk(perfect, s) <= 0.01
    const = T.fit_tree(s, max_depth=0, domain=DOM)
    r = T.empirical_risk(const, draw(dist_xor, 5000, 16))
    assert r == pytest.approx(0.5, abs=0.02)
    assert 0.0 <= r <= 1.0


def test_predict_function_dispatch(dist_xor):
    s = draw(dist_xor, 500, 17)
    m = T.fit_tree(s, max_depth=2, domain=DOM)
    assert np.array_equal(T.predict(m, s.X), T.predict(m.fn, s.X))


# ---------------------------------------------------------------------------
# composeable structure and serialization


def test_decision_function_pieces(dist_xor):
    m = T.fit_histogram(draw(dist_xor, 1000, 18), 2, DOM)
    pts = draw(dist_xor, 200, 19).X
    ids = m.fn.u(pts)
    probs = m.fn.v(ids)
    assert probs.shape == (200, 2)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.array_equal(m.fn.w(probs), m.predict(pts))


def test_deterministic_tie_break_low_index():
    probs = np.array([[0.5, 0.5], [0.2, 0.8]])
    assert T.ComposeableDecisionFunction.w(probs).tolist() == [0, 1]


@st.composite
def decision_cases(draw_):
    """A grid or tree transformer over [-1, 1]^2, a voter table of k = 1-4
    classes whose votes tie exactly in many regions, and query points in
    and around the box.  The table is either normalised counts of 0-2
    (a region of zeros votes uniformly, a k-way tie) or ``adapt_to_target``
    on 1-12 target rows, which leaves most regions without a sample."""
    k = draw_(st.integers(1, 4))
    seed = draw_(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw_(st.booleans()):
        u = GridTransformer(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), draw_(st.integers(1, 5)))
    else:
        X = rng.integers(-4, 5, (40, 2)) / 4
        u = T.fit_tree(SampleSet(X, rng.integers(0, k, 40)), draw_(st.integers(0, 4)),
                       domain=DOM, num_classes=k).fn.transformer
    if draw_(st.booleans()):
        counts = rng.integers(0, 3, (u.n_regions, k))
        fn = T.ComposeableDecisionFunction(u, _voter_from_counts(counts), k)
    else:
        n = draw_(st.integers(1, 12))
        fn = T.adapt_to_target(u, SampleSet(rng.uniform(-1, 1, (n, 2)), rng.integers(0, k, n)),
                               num_classes=k)
    return fn, rng.uniform(-1.5, 1.5, (draw_(st.integers(1, 60)), 2))


@settings(max_examples=200)
@given(decision_cases())
def test_predict_decides_per_region_as_w_v_u_does_per_row(case):
    fn, X = case
    got = fn.predict(X)
    want = [fn.w(fn.v(fn.u(x[None, :])))[0] for x in X]
    assert got.dtype == np.intp and got.tolist() == want
    assert np.array_equal(got, fn.w(fn.v(fn.u(X))))


def test_tree_node_thresholds_inside_boxes(dist_rxor45):
    m = T.fit_tree(draw(dist_rxor45, 3000, 23), max_depth=6, domain=DOM)
    u = m.fn.transformer
    lo, hi = u.node_lo, u.node_hi
    inner = np.flatnonzero(u.feature >= 0)
    assert inner.size > 0
    for i in inner:
        d = u.feature[i]
        assert lo[i, d] < u.threshold[i] < hi[i, d]


@pytest.mark.parametrize("fit", [
    lambda s: T.fit_tree(s, max_depth=3),
    lambda s: T.fit_histogram(s, 2),
    lambda s: T.adapt_to_target(
        T.fit_tree(SampleSet(np.where(np.isfinite(s.X), s.X, 0), s.y), 2).fn.transformer, s),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_learners_reject_non_finite_features(fit, bad):
    X = np.random.default_rng(0).uniform(-1, 1, (40, 2))
    X[7, 1] = bad
    with pytest.raises(LearnerError, match="finite"):
        fit(SampleSet(X, np.arange(40) % 2))


@pytest.mark.parametrize("fit,which", [
    (lambda s: T.fit_tree(s, 2, domain=DOM), "training"),
    (lambda s: T.fit_histogram(s, 2, DOM), "training"),
    (lambda s: T.adapt_to_target(
        T.fit_histogram(SampleSet(np.zeros((4, 2)), np.arange(4) % 2), 2, DOM).fn.transformer, s),
     "target"),
], ids=["fit_tree", "fit_histogram", "adapt_to_target"])
def test_learners_refuse_an_empty_set(fit, which):
    with pytest.raises(LearnerError, match=f"^{which} set is empty$"):
        fit(SampleSet(np.empty((0, 2)), np.empty(0, dtype=int)))


@pytest.mark.parametrize("fit,which", [
    (lambda s: T.fit_tree(s, max_depth=3), "training"),
    (lambda s: T.fit_histogram(s, 2), "training"),
    (lambda s: T.adapt_to_target(
        T.fit_histogram(SampleSet(np.zeros((4, 2)), np.arange(4) % 2), 2, DOM).fn.transformer, s),
     "target"),
], ids=["fit_tree", "fit_histogram", "adapt_to_target"])
def test_non_finite_features_are_named_by_set_row_and_dimension(fit, which):
    X = np.random.default_rng(0).uniform(-1, 1, (40, 2))
    X[7, 1], X[9, 0] = np.nan, np.inf
    with pytest.raises(LearnerError,
                       match=rf"^{which} features must be finite: row 7 holds nan in dimension 1$"):
        fit(SampleSet(X, np.arange(40) % 2))


@pytest.mark.parametrize("fit", [
    lambda s: T.fit_tree(s, max_depth=2),
    lambda s: T.fit_histogram(s, 2),
])
def test_transformers_refuse_patterns_that_are_not_n_by_d(fit):
    X = np.random.default_rng(0).uniform(-1, 1, (40, 2))
    m = fit(SampleSet(X, np.arange(40) % 2))
    for bad in (X.reshape(20, 2, 2), X[:, :1]):
        with pytest.raises(LearnerError, match=r"shape \(n, 2\)"):
            m.predict(bad)


@pytest.mark.parametrize("fit", [
    lambda s: T.fit_tree(s, max_depth=2, domain=DOM),
    lambda s: T.fit_histogram(s, 2, DOM),
], ids=["tree", "histogram"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_transformers_refuse_non_finite_patterns(fit, bad, dist_xor):
    m = fit(draw(dist_xor, 400, 5))
    pts = np.array([[0.25, 0.5], [0.5, -0.75], [0.5, bad], [bad, 0.5]])
    for X, row in ((pts[2:], 0), (pts, 2)):
        with pytest.raises(LearnerError,
                           match=rf"^patterns must be finite: row {row} holds {bad} in dimension 1$"):
            m.predict(X)
    with pytest.raises(LearnerError, match="^patterns must be finite: row 0 holds "):
        m.fn.transformer([[bad, 0.5]])


@pytest.mark.parametrize("fit", [
    lambda s: T.fit_tree(s, max_depth=2),
    lambda s: T.fit_histogram(s, 2),
    lambda s: T.adapt_to_target(T.fit_tree(SampleSet(s.X, np.abs(s.y)), 2).fn.transformer, s),
])
def test_negative_labels_are_refused_naming_the_smallest(fit):
    X = np.random.default_rng(0).uniform(-1, 1, (6, 2))
    with pytest.raises(LearnerError, match="non-negative, got -3"):
        fit(SampleSet(X, [0, -1, 1, -3, 2, -2]))


_THREE_CLASSES = SampleSet(np.random.default_rng(0).uniform(-1, 1, (8, 2)), np.arange(8) % 3)
LEARNER_REFUSALS = {
    "zero-bins": (lambda: T.fit_histogram(_THREE_CLASSES, 0), "bin count must be positive"),
    "negative-depth": (lambda: T.fit_tree(_THREE_CLASSES, max_depth=-1),
                       "max_depth must be nonnegative"),
    "classes-below-labels": (lambda: T.fit_tree(_THREE_CLASSES, 2, num_classes=2),
                             "num_classes smaller than observed labels"),
    "empty-risk": (lambda: T.empirical_risk(T.fit_tree(_THREE_CLASSES, 2), _THREE_CLASSES[:0]),
                   "cannot evaluate risk on an empty sample set"),
}


@pytest.mark.parametrize("case", sorted(LEARNER_REFUSALS))
def test_learner_refusals_name_the_fault(case):
    call, message = LEARNER_REFUSALS[case]
    with pytest.raises(LearnerError, match=f"^{message}$"):
        call()


# ---------------------------------------------------------------------------
# differential test against the node-at-a-time builder


@st.composite
def tree_cases(draw_):
    # up to the 121 classes of a grid(11) target, and past them
    k = draw_(st.one_of(st.integers(2, 10), st.integers(11, 130)))
    n = draw_(st.integers(1, 300))
    d = draw_(st.integers(1, 3))
    seed = draw_(st.integers(0, 2**32 - 1))
    steps = draw_(st.sampled_from([1, 2, 4, 16, None]))  # grid steps per unit; None: no grid
    labels = draw_(st.sampled_from(["random", "xor", "noisy-xor"]))
    observed = max(1, k - draw_(st.integers(0, 2)))  # num_classes may exceed the labels seen
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, d))
    if steps is not None:
        X = np.round(X * steps) / steps  # duplicate values are common
    if labels == "random":
        y = rng.integers(0, observed, n)
    else:  # balanced checkerboard classes fire the midpoint fallback
        y = ((X[:, 0] > 0) ^ (X[:, -1] > 0)).astype(int) * (observed > 1)
        if labels == "noisy-xor":
            flip = rng.random(n) < 0.2
            y[flip] = rng.integers(0, observed, int(flip.sum()))
    return dict(X=X, y=y, k=k, max_depth=draw_(st.integers(0, 12)),
                min_leaf=draw_(st.integers(1, 5)),
                min_gain=draw_(st.sampled_from([0.0, DEFAULT_MIN_GAIN, 0.1])),
                domain=draw_(st.sampled_from([None, DOM] if d == 2 else [None])))


def many_rows_case():
    """A class of over 2**15 rows, past what a 16-bit count holds."""
    rng = np.random.default_rng(0)
    X = np.round(rng.uniform(-1, 1, (40_000, 2)) * 64) / 64
    y = (X[:, 0] > 0.9) ^ (rng.random(40_000) < 0.05)  # ~38,000 rows left of the best root cut
    return dict(X=X, y=y.astype(int), k=2, max_depth=3, min_leaf=1, min_gain=0.0, domain=None)


def wide_sums_case():
    """A node of over 46,341 rows: its sum of squared class counts passes 2**31."""
    rng = np.random.default_rng(1)
    X = np.round(rng.uniform(-1, 1, (60_000, 2)) * 64) / 64
    y = (X[:, 1] > 0.95) ^ (rng.random(60_000) < 0.02)  # ~57,000 rows of class 0
    return dict(X=X, y=y.astype(int), k=2, max_depth=2, min_leaf=1, min_gain=0.0, domain=None)


@settings(max_examples=150)
@given(tree_cases())
@example(many_rows_case())
@example(wide_sums_case())
def test_tree_matches_reference_builder(case):
    X, y, k = case["X"], case["y"], case["k"]
    m = T.fit_tree(SampleSet(X, y), case["max_depth"], min_leaf=case["min_leaf"],
                   domain=case["domain"], min_gain=case["min_gain"], num_classes=k)
    u = m.fn.transformer
    root, counts = reference_fit_tree(X, y, k, u.lo, u.hi, case["max_depth"], case["min_leaf"],
                                      case["min_gain"])

    def walk(ref, i):
        assert tuple(u.node_lo[i]) == ref.lo and tuple(u.node_hi[i]) == ref.hi
        if ref.is_leaf:
            assert u.feature[i] == -1 and u.leaf_id[i] == ref.leaf_id
            return
        assert u.feature[i] == ref.split_dim
        assert u.threshold[i] == ref.split_threshold
        walk(ref.left, u.left[i])
        walk(ref.right, u.left[i] + 1)

    walk(root, 0)
    gain, dim, thr = _root_split(X, y, k, case["min_leaf"])
    ref_gain, ref_dim, ref_thr = reference_best_split(X, y, k, case["min_leaf"])
    assert gain == ref_gain  # bit for bit: the same float terms, added in the same order
    if ref_dim is not None:
        assert (dim, thr) == (ref_dim, ref_thr)
    assert u.n_regions == counts.shape[0]
    assert np.array_equal(m.fn.voter_table, _voter_from_counts(counts))
    fresh = np.random.default_rng(len(y)).uniform(u.lo, u.hi, (200, X.shape[1]))
    for pts in (fresh, X):
        ids = reference_leaf_ids(root, pts)
        assert np.array_equal(u(pts), ids)
        assert np.array_equal(m.predict(pts), np.argmax(m.fn.voter_table[ids], axis=1))


@st.composite
def tied_roots(draw_):
    """8-60 rows of k = 2-4 random classes on a 1/4 grid: cuts of equal gain are common."""
    n = draw_(st.integers(8, 60))
    k = draw_(st.integers(2, 4))
    rng = np.random.default_rng(draw_(st.integers(0, 2**32 - 1)))
    return np.round(rng.uniform(-1, 1, (n, 2)) * 4) / 4, rng.integers(0, k, n), k


@settings(max_examples=1000)
@given(tied_roots())
def test_root_split_breaks_exact_ties_by_dimension_then_threshold(case):
    X, y, k = case
    _, ref_dim, ref_thr = reference_best_split(X, y, k, 1)  # picked by exact gains
    _, dim, thr = _root_split(X, y, k, 1)
    if ref_dim is not None:
        assert (dim, thr) == (ref_dim, ref_thr)
