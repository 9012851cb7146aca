import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tasksim as T
from oracles import reference_convergence_replication, reference_ets_table
from test_cell_pairs import moved
from tasksim import empirical
from tasksim.distributions import DistributionError, SampleSet
from tasksim.empirical import (
    EmpiricalError,
    Z90,
    _matrix_one_replication,
    _transfer_sweep,
)
from tasksim.geometry import GeometryError
from tasksim.learners import ComposeableDecisionFunction, GridTransformer, TreeTransformer

DOM = (-1.0, 1.0, -1.0, 1.0)
LC = T.LearnerConfig()  # tree, depth 2


def test_ets_same_model_is_one(dist_xor):
    rng = np.random.default_rng(0)
    s = T.sample(dist_xor, 1000, rng)
    m = LC.fit(s, domain=DOM, num_classes=2)
    ev = T.sample(dist_xor, 500, rng)
    est = T.ets(m.predict(ev.X), m, ev)
    assert type(est) is float and est == 1.0


def test_ets_value_is_exact_agreement_fraction(dist_xor, dist_rxor45):
    rng = np.random.default_rng(1)
    ev = T.sample(dist_xor, 777, rng)
    mt = LC.fit(T.sample(dist_xor, 2000, rng), domain=DOM, num_classes=2)
    ms = LC.fit(T.sample(dist_rxor45, 2000, rng), domain=DOM, num_classes=2)
    ad = T.adapt_to_target(ms.fn.transformer, T.sample(dist_xor, 2000, rng), num_classes=2)
    est = T.ets(mt.predict(ev.X), ad, ev)
    agree = int(np.sum(mt.predict(ev.X) == ad.predict(ev.X)))
    assert est == agree / 777


def test_ets_rejects_bad_eval_sets(dist_xor):
    rng = np.random.default_rng(2)
    m = LC.fit(T.sample(dist_xor, 200, rng), domain=DOM, num_classes=2)
    with pytest.raises(EmpiricalError):
        T.ets(np.empty(0, dtype=int), m, SampleSet(np.empty((0, 2)), np.empty(0, dtype=int)))
    ev = T.sample(dist_xor, 50, rng)
    for labels in (m.predict(ev.X)[:-1], m.predict(T.sample(dist_xor, 51, rng).X),
                   m.predict(ev.X)[:, None]):
        with pytest.raises(EmpiricalError, match="one target label per evaluation row"):
            T.ets(labels, m, ev)


def test_ets_shared_partition_high(dist_xor, dist_quads):
    rng = np.random.default_rng(30)
    pool = T.sample(dist_xor, 7000, rng)
    train, evalset = pool[:5000], pool[5000:]
    mt = LC.fit(train, domain=DOM, num_classes=2)
    ms = LC.fit(T.sample(dist_quads, 5000, rng), domain=DOM, num_classes=4)
    adapted = T.adapt_to_target(ms.fn.transformer, train, num_classes=2)
    assert T.ets(mt.predict(evalset.X), adapted, evalset) >= 0.95


def test_ets_deep_trees_overpartition(dist_xor, dist_rxor45):
    rng = np.random.default_rng(13)
    train = T.sample(dist_xor, 20000, rng)
    evalset = T.sample(dist_xor, 2000, rng)
    deep = T.LearnerConfig(depth=12)
    mt = deep.fit(train, domain=DOM, num_classes=2)
    ms = deep.fit(T.sample(dist_rxor45, 20000, rng), domain=DOM, num_classes=2)
    adapted = T.adapt_to_target(ms.fn.transformer, train, num_classes=2)
    assert T.ets(mt.predict(evalset.X), adapted, evalset) >= 0.8


def drawn_ets_inputs(dists, learner, in_sample):
    """Targets and source regions as ``ets_table`` takes them: 60 training
    and 40 evaluation rows of each distribution, the last one fit on its
    data's box and its own labels; then each distribution's regions, fit
    on 60 rows, and a 7-bin grid, many of whose 49 cells get no target row."""
    rng = np.random.default_rng(3)
    targets = []
    for i, dist in enumerate(dists):
        pool = T.sample(dist, 100, rng)
        last = i == len(dists) - 1
        targets.append((pool[:60], pool[:60] if in_sample else pool[60:],
                        None if last else DOM, None if last else dist.num_classes))
    regions = [learner.fit(T.sample(d, 60, rng), DOM, d.num_classes).fn.transformer
               for d in dists]
    return targets, regions + [GridTransformer(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), 7)]


@pytest.mark.parametrize("learner", [LC, T.LearnerConfig(kind="histogram", bins=3)],
                         ids=["tree", "histogram"])
@pytest.mark.parametrize("in_sample", [False, True], ids=["held-out", "in-sample"])
def test_ets_table_matches_the_per_pair_reference(learner, in_sample, four_builtins):
    targets, regions = drawn_ets_inputs(four_builtins, learner, in_sample)
    table = empirical.ets_table(targets, iter(regions), learner)
    assert table.shape == (4, 5)
    want = reference_ets_table(targets, regions, learner)
    assert [v.hex() for v in table.ravel().tolist()] == [v.hex() for v in want.ravel().tolist()]


def test_ets_table_predicts_each_target_once(monkeypatch, dist_xor, dist_quads, dist_rxor45):
    # Every prediction is a ComposeableDecisionFunction.predict call; the
    # ones not made by an adapted source are the targets'.
    targets, regions = drawn_ets_inputs([dist_xor, dist_quads, dist_rxor45], LC, False)
    calls, adapted = [], []
    predict, adapt = ComposeableDecisionFunction.predict, empirical.adapt_to_target

    def counted_predict(fn, X):
        calls.append(fn)
        return predict(fn, X)

    def counted_adapt(*args, **kwargs):
        adapted.append(adapt(*args, **kwargs))
        return adapted[-1]

    monkeypatch.setattr(ComposeableDecisionFunction, "predict", counted_predict)
    monkeypatch.setattr(empirical, "adapt_to_target", counted_adapt)
    empirical.ets_table(targets, regions, LC)
    by_targets = [fn for fn in calls if not any(fn is a for a in adapted)]
    assert len(adapted) == 3 * 4 and len(calls) - len(by_targets) == 3 * 4
    assert len(by_targets) == 3 and len({id(fn) for fn in by_targets}) == 3


# ---------------------------------------------------------------------------
# replication harness


def test_replication_report_ci_formula():
    rep = T.ReplicationReport("x", np.array([1.0, 2.0, 3.0, 4.0]), (0, 1, 2, 3))
    values = np.array([1.0, 2.0, 3.0, 4.0])
    assert rep.mean == values.mean()
    expected = Z90 * values.std(ddof=1) / np.sqrt(4)
    assert rep.ci_halfwidth == pytest.approx(expected, rel=0, abs=0)
    assert Z90 == 1.645


def _report(experiment, replications, base_seed):
    values, seeds = T.run_replications((experiment, base_seed), replications)
    return T.ReplicationReport("x", values, seeds)


def test_run_replications_constant_statistic():
    rep = _report(lambda seed: 0.25, 10, 123)
    assert rep.mean == 0.25
    assert rep.ci_halfwidth == 0.0
    assert rep.seeds == tuple(123 + i for i in range(10))


def test_run_replications_requires_two():
    with pytest.raises(EmpiricalError):
        T.run_replications((lambda seed: 0.0, 0), 1)


def test_run_replications_ci_shrinks_with_root_two():
    def stat(seed):
        return float(np.random.default_rng(seed).normal(0, 1, 50).mean())

    r1 = _report(stat, 200, 1000)
    r2 = _report(stat, 400, 5000)
    ratio = r2.ci_halfwidth / r1.ci_halfwidth
    assert ratio == pytest.approx(1 / np.sqrt(2), rel=0.2)


def test_run_replications_stacks_array_statistics():
    rep = _report(lambda seed: np.array([float(seed), 1.0]), 5, 10)
    assert rep.values.shape == (5, 2)
    assert rep.values[:, 0].tolist() == [10.0, 11.0, 12.0, 13.0, 14.0]
    assert rep.mean.tolist() == [12.0, 1.0]
    assert rep.ci_halfwidth[1] == 0.0


def test_run_replications_seeds_every_pair_from_its_own_base_seed():
    values, seeds = T.run_replications((float, 100), 3)
    assert seeds == (100, 101, 102)
    assert values.tolist() == [100.0, 101.0, 102.0]
    values, seeds = T.run_replications((lambda seed: np.array([seed, -seed]), 7), 3)
    assert seeds == (7, 8, 9)
    assert values.tolist() == [[7.0, -7.0], [8.0, -8.0], [9.0, -9.0]]


def test_run_replications_runs_past_the_old_seed_stride():
    # A sweep is one experiment per replication, so R has no upper limit.
    values, seeds = T.run_replications((float, 5), 1001)
    assert seeds == tuple(range(5, 1006))
    assert values.tolist() == [float(seed) for seed in seeds]


def test_the_pool_starts_no_more_workers_than_replications(monkeypatch, dist_xor, dist_quads):
    started = []

    class SerialPool:  # records the pool size, starts no process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(empirical.futures, "ProcessPoolExecutor", SerialPool)
    values, _ = T.run_replications((float, 10), 3, workers=64)
    assert values.tolist() == [10.0, 11.0, 12.0]
    values, _ = T.run_replications((float, 0), 5, workers=2)
    assert values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert started == [3, 2]
    # One pool per harness call, of min(workers, R) processes: a replication
    # of every point is one task.
    for workers, sizes in ((2, [2, 2]), (64, [3, 3])):
        started.clear()
        T.convergence_study(dist_xor, [1, 2, 3], T.LearnerConfig(kind="histogram", bins=2),
                            n_train=50, n_eval=50, replications=3, base_seed=1, workers=workers)
        T.transfer_experiment(dist_quads, dist_xor, LC, n_targets=[50, 60], n_source=100,
                              n_eval=50, replications=3, base_seed=1, workers=workers)
        assert started == sizes


class _CountCalls:
    """An experiment whose value is how often this copy of it has been called."""

    def __init__(self):
        self.calls = 0

    def __call__(self, seed):
        self.calls += 1
        return float(self.calls)


def test_the_pool_sends_each_experiment_once_per_chunk():
    # Four tasks in two chunks of two: each chunk unpickles one copy of the
    # experiment and calls it twice.  Sent task by task, every copy is new.
    values, seeds = T.run_replications((_CountCalls(), 0), 4, workers=2)
    assert values.tolist() == [1.0, 2.0, 1.0, 2.0] and seeds == (0, 1, 2, 3)


def test_harnesses_refuse_a_bad_later_point_before_any_replication(monkeypatch, dist_xor):
    calls = []
    for name in ("_convergence_sweep", "_transfer_sweep"):
        real = getattr(empirical, name)
        monkeypatch.setattr(empirical, name,
                            lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
    with pytest.raises(GeometryError, match="grid resolution 300"):
        T.convergence_study(dist_xor, [3, 300], T.LearnerConfig(kind="histogram", bins=2),
                            n_train=50, n_eval=50, replications=2, base_seed=1)
    # The curve's label-mass matrix of grid 256 against 1025 target classes
    # holds 2**16 * 1025 > 2**26 entries.
    many = T.grid_distribution(1, labels=[0], num_classes=1025)
    with pytest.raises(DistributionError, match="label-mass matrix of 'grid1' <- 'grid256' "
                                                "of 65536 cells x 1025 classes"):
        T.convergence_study(many, [3, 256], T.LearnerConfig(kind="histogram", bins=2),
                            n_train=50, n_eval=50, replications=2, base_seed=1)
    with pytest.raises(EmpiricalError, match="sample counts"):
        T.transfer_experiment(T.rxor(30.0), dist_xor, LC, n_targets=[50, 0], n_source=100,
                              n_eval=50, replications=2, base_seed=1)
    assert calls == []


def _row_by_row_sum(stack: np.ndarray) -> np.ndarray:
    total = stack[0]
    for row in stack[1:]:
        total = total + row
    return total


def test_reductions_at_nine_or_more_replications(dist_xor, dist_quads):
    # From 8 terms on, numpy sums a 1-d array pairwise.  A convergence point
    # and each transfer column reduce as np.mean/np.std of a tuple of their
    # values; the ETS matrix adds its replication rows one after another.
    # Each case below is one where the other rule gives other bits.
    def tuple_stats(rep):
        t = tuple(rep.values.tolist())
        return np.mean(t), Z90 * np.std(t, ddof=1) / np.sqrt(len(t))

    points = T.convergence_study(dist_xor, [1, 3], T.LearnerConfig(kind="histogram", bins=2),
                                 n_train=200, n_eval=100, replications=9, base_seed=4)
    rep = points[1].ets_report
    assert (rep.mean, rep.ci_halfwidth) == tuple_stats(rep)
    assert _row_by_row_sum(rep.values) / 9 != rep.mean

    [te] = T.transfer_experiment(T.rxor(30.0), dist_xor, LC, n_targets=[50], n_source=500,
                                 n_eval=300, replications=17, base_seed=5)
    for col in (te.scratch, te.adapted):
        assert (col.mean, col.ci_halfwidth) == tuple_stats(col)
    stack = np.stack([te.scratch.values, te.adapted.values], axis=1)
    assert stack.mean(axis=0)[1] != te.adapted.mean  # the (R, 2) stack on axis 0

    mat = T.empirical_matrix([dist_xor, dist_quads], LC, 300, 200, 9, base_seed=3)
    mean = _row_by_row_sum(mat.values) / 9
    assert np.array_equal(mat.mean, mean)
    pairwise = [[np.mean(tuple(mat.values[:, i, j].tolist())) for j in range(2)] for i in range(2)]
    assert not np.array_equal(pairwise, mean)


def test_transfer_efficiency_ratio():
    def ratio(adapted, scratch):
        reports = (T.ReplicationReport("risk", np.array(v), (0, 1)) for v in (scratch, adapted))
        return empirical.TransferReport("s", "t", 10, 100, *reports).te_ratio

    assert ratio([0.1, 0.1], [0.2, 0.2]) == 0.5
    assert ratio([0.2, 0.2], [0.1, 0.3]) == 1.0
    assert ratio([0.0, 0.0], [0.1, 0.3]) == 0.0
    assert ratio([0.1, 0.3], [0.0, 0.0]) is None
    assert not hasattr(T, "transfer_efficiency")


# ---------------------------------------------------------------------------
# matrix harness


def test_matrix_values_in_unit_interval(dist_xor, dist_quads):
    rep = T.empirical_matrix([dist_xor, dist_quads], LC, 800, 300, 3, base_seed=5)
    assert rep.mean.shape == (2, 2)
    assert ((rep.values >= 0) & (rep.values <= 1)).all()
    assert rep.seeds == (5, 6, 7)


def test_matrix_diagonal_high(four_builtins):
    from tasksim.cli import DEFAULT_TREE_DEPTH

    # at the CLI default depth, independent fits of the same task agree
    rep = T.empirical_matrix(
        four_builtins, T.LearnerConfig(depth=DEFAULT_TREE_DEPTH), 5000, 2000, 5,
        base_seed=42,
    )
    assert rep.mean.diagonal().min() >= 0.9


def test_matrix_quads_beats_shuffled_geometry_control(dist_xor, dist_quads):
    rng = np.random.default_rng(99)
    scattered = rng.permutation(np.repeat(np.arange(4), 4))
    control = T.grid_distribution(4, labels=scattered.tolist(), num_classes=4,
                                  name="quads-shuffled")
    rep = T.empirical_matrix([dist_xor, dist_quads, control], LC, 5000, 2000, 10,
                             base_seed=42)
    xor, quads, shuffled = 0, 1, 2  # as passed
    assert rep.mean[xor, quads] > rep.mean[xor, shuffled]


def test_matrix_replication_is_train_eval_disjoint(dist_xor, dist_rxor45):
    # One replication recomputed by hand from its seed: the target pool,
    # then the source rows; fit on the pool's first n_train rows, adapt
    # the source to them, and score on the rest (or on them, in sample).
    n_train, n_eval, seed = 100, 50, 1
    rng = np.random.default_rng(seed)
    pool = T.sample(dist_xor, n_train + n_eval, rng)
    source = LC.fit(T.sample(dist_rxor45, n_train, rng), domain=DOM, num_classes=2)
    train = pool[:n_train]
    target = LC.fit(train, domain=DOM, num_classes=2)
    adapted = T.adapt_to_target(source.fn.transformer, train, num_classes=2)

    def score(rows):
        return T.ets(target.predict(pool[rows].X), adapted, pool[rows])

    for in_sample, rows in ((False, slice(n_train, None)), (True, slice(None, n_train))):
        values = _matrix_one_replication(
            seed, (dist_xor,), (dist_rxor45,), LC, n_train, n_eval, in_sample
        )
        assert values.tolist() == [[score(rows)]]
    # This seed tells the splits apart: a score on either split shifted by
    # one row (into the training rows or out of them), or on the other
    # split, differs.
    held_out, on_train = score(slice(n_train, None)), score(slice(None, n_train))
    assert score(slice(n_train - 1, None)) != held_out != on_train
    assert score(slice(1, n_train + 1)) != on_train


def test_matrix_in_sample_flag(dist_xor, dist_quads):
    held = T.empirical_matrix([dist_xor, dist_quads], LC, 1000, 400, 3, 60)
    ins = T.empirical_matrix([dist_xor, dist_quads], LC, 1000, 400, 3, 60, in_sample=True)
    assert held.mean.shape == ins.mean.shape
    assert ins.mean.diagonal().min() >= 0.9


def test_matrix_workers_match_serial(dist_xor, dist_quads):
    serial = T.empirical_matrix([dist_xor, dist_quads], LC, 600, 200, 4, 11, workers=1)
    parallel = T.empirical_matrix([dist_xor, dist_quads], LC, 600, 200, 4, 11, workers=2)
    assert np.array_equal(serial.values, parallel.values)


# ---------------------------------------------------------------------------
# transfer harness


def test_ensemble_with_uninformative_source_is_scratch(monkeypatch, dist_xor, dist_rxor45):
    # A source whose every refit voter row is uniform adds the same mass
    # to every class, so the with-source argmax is the scratch one.
    adapt = empirical.adapt_to_target
    calls = []

    def uniform(u, train, num_classes):
        adapted = adapt(u, train, num_classes=num_classes)
        calls.append(len(train))
        return dataclasses.replace(adapted, voter_table=np.full_like(adapted.voter_table, 0.5))

    monkeypatch.setattr(empirical, "adapt_to_target", uniform)
    risks = _transfer_sweep(5, dist_rxor45, dist_xor, LC, (20, 60, 200), 2000, 5000)
    assert calls == [20, 60, 200]
    assert risks[:, 0].min() > 0 and np.array_equal(risks[:, 1], risks[:, 0])


def test_a_transfer_replication_passes_the_eval_rows_once_per_model(monkeypatch, dist_xor,
                                                                     dist_rxor45):
    # 333 rows is the evaluation set and no other: one pass through the
    # source's regions, then one per size through its scratch model.
    rows = []
    call = TreeTransformer.__call__

    def counted(self, X):
        rows.append(len(X))
        return call(self, X)

    monkeypatch.setattr(TreeTransformer, "__call__", counted)
    sizes = (50, 100, 200)
    _transfer_sweep(9, dist_rxor45, dist_xor, LC, sizes, 300, 333)
    assert rows.count(333) == len(sizes) + 1


def test_transfer_source_equals_target(dist_xor):
    [rep] = T.transfer_experiment(dist_xor, dist_xor, LC, n_targets=[100], n_source=5000,
                                  n_eval=2000, replications=10, base_seed=50)
    assert rep.te_ratio <= 1.05
    assert not np.array_equal(rep.scratch.values, rep.adapted.values)
    assert rep.to_dict()["te_adapted_over_scratch"] == rep.te_ratio


def test_transfer_shared_partition_helps(dist_xor, dist_quads):
    [rep] = T.transfer_experiment(dist_quads, dist_xor, LC, n_targets=[100], n_source=5000,
                                  n_eval=2000, replications=20, base_seed=70)
    assert rep.te_ratio < 1.0
    assert rep.adapted.mean + rep.adapted.ci_halfwidth < rep.scratch.mean - rep.scratch.ci_halfwidth


def test_convergence_study_tracks_analytic(dist_xor):
    points = T.convergence_study(
        dist_xor, [1, 3, 5], T.LearnerConfig(kind="histogram", bins=2),
        n_train=2000, n_eval=500, replications=3, base_seed=3,
    )
    for p in points:
        assert p.ets_report.mean == pytest.approx(p.analytic_ts, abs=0.05)
    analytic = [p.analytic_ts for p in points]
    assert analytic == sorted(analytic)  # odd grids are monotone


def test_convergence_study_refuses_an_empty_grid_list(dist_xor):
    with pytest.raises(EmpiricalError, match="need at least one grid size"):
        T.convergence_study(dist_xor, [], T.LearnerConfig(kind="histogram", bins=2),
                            n_train=50, n_eval=50, replications=2, base_seed=1)


HIST = T.LearnerConfig(kind="histogram", bins=2)
HARNESS_REFUSALS = {
    "matrix-no-eval": (lambda d: T.empirical_matrix([d], LC, 50, 0, 2, base_seed=1),
                       "sample counts must be positive"),
    "convergence-no-eval": (lambda d: T.convergence_study(d, [1], HIST, n_train=50, n_eval=0,
                                                          replications=2, base_seed=1),
                            "sample counts must be positive"),
    "convergence-grid-0": (lambda d: T.convergence_study(d, [1, 0], HIST, n_train=50, n_eval=50,
                                                         replications=2, base_seed=1),
                           "grid sizes must be positive"),
}


@pytest.mark.parametrize("case", sorted(HARNESS_REFUSALS))
def test_harness_refusals_name_the_fault(case, dist_xor):
    call, message = HARNESS_REFUSALS[case]
    with pytest.raises(EmpiricalError, match=f"^{message}$"):
        call(dist_xor)


@st.composite
def convergence_targets(draw):
    kind = draw(st.sampled_from(["xor", "quads", "fxor", "rxor"]))
    target = T.rxor(draw(st.floats(0.0, 90.0))) if kind == "rxor" else T.builtin(kind)
    if draw(st.booleans()):
        target = T.with_label_noise(target, draw(st.floats(0.0, 0.45)))
    if draw(st.booleans()):
        target = moved(target, 10.0 ** draw(st.integers(-3, 3)), draw(st.floats(-100, 100)),
                       draw(st.floats(-100, 100)))
    return target


@given(convergence_targets(), st.lists(st.integers(1, 30), min_size=1, max_size=6))
@settings(max_examples=25, deadline=None)
def test_the_analytic_curve_is_every_grids_ts_bit_for_bit(target, grids):
    points = T.convergence_study(target, grids, T.LearnerConfig(kind="histogram", bins=2),
                                 n_train=20, n_eval=10, replications=2, base_seed=1)
    want = [T.ts(target, T.grid_distribution(n, domain=target.partition.domain)).value
            for n in grids]
    assert [p.analytic_ts.hex() for p in points] == [w.hex() for w in want]


CONVERGENCE_TARGETS = {"xor": T.xor, "rxor(30)": lambda: T.rxor(30.0), "fxor": T.fxor}
CONVERGENCE_LEARNERS = {
    "histogram2": T.LearnerConfig(kind="histogram", bins=2),
    "histogram3": T.LearnerConfig(kind="histogram", bins=3),
    "tree3": T.LearnerConfig(depth=3),
}


def _assert_convergence_matches_reference(target, learner, workers):
    # R = 9 >= 8 replications, where numpy's mean of a 1-d array is pairwise.
    grids, n_train, n_eval = [1, 2, 5], 200, 100
    points = T.convergence_study(target, grids, learner, n_train, n_eval,
                                 replications=9, base_seed=17, workers=workers)
    assert [p.n_bins for p in points] == grids
    sources = [T.grid_distribution(n, domain=target.partition.domain) for n in grids]
    replays = [reference_convergence_replication(17 + r, target, sources, learner, grids,
                                                 n_train, n_eval)
               for r in range(9)]
    for idx, (n, source, point) in enumerate(zip(grids, sources, points)):
        rep = point.ets_report
        assert rep.seeds == tuple(17 + r for r in range(9))
        expected = np.asarray([values[idx] for values in replays])
        assert point.analytic_ts == T.ts(target, source).value
        assert rep.statistic == f"ets[bins={n}]"
        assert rep.values.tolist() == expected.tolist()
        assert rep.mean == expected.mean()
        assert rep.ci_halfwidth == Z90 * expected.std(ddof=1) / np.sqrt(9)


@pytest.mark.parametrize("learner", sorted(CONVERGENCE_LEARNERS))
@pytest.mark.parametrize("target", sorted(CONVERGENCE_TARGETS))
def test_convergence_matches_the_reference_replication(target, learner):
    _assert_convergence_matches_reference(
        CONVERGENCE_TARGETS[target](), CONVERGENCE_LEARNERS[learner], workers=1
    )


def test_convergence_with_two_workers_matches_the_reference_replication():
    _assert_convergence_matches_reference(
        T.rxor(30.0), CONVERGENCE_LEARNERS["tree3"], workers=2
    )


def test_a_convergence_replication_draws_and_fits_only_the_target(monkeypatch, dist_xor):
    draws, fits = [], []
    real_sample = empirical.sample
    monkeypatch.setattr(empirical, "sample",
                        lambda dist, n, rng: draws.append((dist, n)) or real_sample(dist, n, rng))
    for name in ("fit_histogram", "fit_tree"):
        real = getattr(empirical, name)
        monkeypatch.setattr(empirical, name,
                            lambda s, *a, real=real, **k: fits.append(len(s)) or real(s, *a, **k))
    T.convergence_study(dist_xor, [1, 3, 5], T.LearnerConfig(kind="histogram", bins=2),
                        n_train=200, n_eval=100, replications=3, base_seed=1)
    assert [n for _, n in draws] == [300] * 3 and all(d is dist_xor for d, _ in draws)
    assert fits == [200] * 3


@pytest.mark.parametrize("workers", [1, 2])
def test_appending_a_grid_keeps_the_earlier_points_bit_for_bit(dist_xor, workers):
    # Every grid shares replication r's target pool and target model, and
    # no grid draws rows of its own.
    def values(grids):
        points = T.convergence_study(dist_xor, grids, T.LearnerConfig(kind="histogram", bins=2),
                                     n_train=200, n_eval=100, replications=3, base_seed=2,
                                     workers=workers)
        assert all(p.ets_report.seeds == (2, 3, 4) for p in points)
        return [[v.hex() for v in p.ets_report.values.tolist()] for p in points]

    grids = [3, 1, 5]
    assert values(grids + [4])[:len(grids)] == values(grids)


def test_single_point_sweeps_keep_the_draws_of_one_point():
    # With one grid or one target size, a replication draws and fits what
    # one point on its own does, so these pinned bits hold.
    [point] = T.convergence_study(T.xor(), [3], T.LearnerConfig(kind="histogram", bins=2),
                                  n_train=200, n_eval=100, replications=3, base_seed=11)
    assert [v.hex() for v in point.ets_report.values.tolist()] == [
        "0x1.9eb851eb851ecp-1", "0x1.70a3d70a3d70ap-1", "0x1.7ae147ae147aep-1"]
    [te] = T.transfer_experiment(T.quads(), T.xor(), LC, n_targets=[60], n_source=500,
                                 n_eval=300, replications=3, base_seed=11)
    assert te.scratch.seeds == te.adapted.seeds == (11, 12, 13)
    assert [v.hex() for v in te.scratch.values.tolist()] == [
        "0x1.eb851eb851eb8p-2", "0x1.7e4b17e4b17e5p-2", "0x1.1d0369d0369d0p-1"]
    assert [v.hex() for v in te.adapted.values.tolist()] == [
        "0x1.2c5f92c5f92c6p-4", "0x1.d0369d0369d03p-5", "0x1.8bf258bf258bfp-4"]


@pytest.mark.parametrize("kind", ["tree", "histogram"])
@pytest.mark.parametrize("min_gain", [float("nan"), float("inf"), -float("inf")])
def test_learner_config_rejects_non_finite_min_gain(kind, min_gain):
    with pytest.raises(EmpiricalError, match="min_gain"):
        T.LearnerConfig(kind=kind, min_gain=min_gain)


def test_learner_config_rejects_unknown_kind():
    with pytest.raises(EmpiricalError, match="unknown learner kind"):
        T.LearnerConfig(kind="forest")
