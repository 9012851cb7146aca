import numpy as np
import pytest

import tasksim as T
from tasksim import empirical
from tasksim.distributions import SampleSet
from tasksim.empirical import (
    EmpiricalError,
    Z90,
    _ensemble_predict,
    _matrix_one_replication,
)

DOM = (-1.0, 1.0, -1.0, 1.0)
LC = T.LearnerConfig()  # tree, depth 2


def test_ets_same_model_is_one(dist_xor):
    rng = np.random.default_rng(0)
    s = T.sample(dist_xor, 1000, rng)
    m = LC.fit(s, domain=DOM, num_classes=2)
    est = T.ets(m, m, T.sample(dist_xor, 500, rng))
    assert type(est) is float and est == 1.0


def test_ets_value_is_exact_agreement_fraction(dist_xor, dist_rxor45):
    rng = np.random.default_rng(1)
    ev = T.sample(dist_xor, 777, rng)
    mt = LC.fit(T.sample(dist_xor, 2000, rng), domain=DOM, num_classes=2)
    ms = LC.fit(T.sample(dist_rxor45, 2000, rng), domain=DOM, num_classes=2)
    ad = T.adapt_to_target(ms, T.sample(dist_xor, 2000, rng), num_classes=2)
    est = T.ets(mt, ad, ev)
    agree = int(np.sum(mt.predict(ev.X) == ad.predict(ev.X)))
    assert est == agree / 777


def test_ets_rejects_bad_eval_sets(dist_xor):
    rng = np.random.default_rng(2)
    m = LC.fit(T.sample(dist_xor, 200, rng), domain=DOM, num_classes=2)
    with pytest.raises(EmpiricalError):
        T.ets(m, m, SampleSet(np.empty((0, 2)), np.empty(0, dtype=int)))
    bad = T.sample(dist_xor, 10, rng)
    bad.t[:] = 0  # source-flagged points are not target evaluation data
    with pytest.raises(EmpiricalError):
        T.ets(m, m, bad)


def test_ets_shared_partition_high(dist_xor, dist_quads):
    rng = np.random.default_rng(30)
    pool = T.sample(dist_xor, 7000, rng)
    train, evalset = pool[:5000], pool[5000:]
    mt = LC.fit(train, domain=DOM, num_classes=2)
    ms = LC.fit(T.sample(dist_quads, 5000, rng), domain=DOM, num_classes=4)
    adapted = T.adapt_to_target(ms, train, num_classes=2)
    assert T.ets(mt, adapted, evalset) >= 0.95


def test_ets_deep_trees_overpartition(dist_xor, dist_rxor45):
    rng = np.random.default_rng(13)
    train = T.sample(dist_xor, 20000, rng)
    evalset = T.sample(dist_xor, 2000, rng)
    deep = T.LearnerConfig(depth=12)
    mt = deep.fit(train, domain=DOM, num_classes=2)
    ms = deep.fit(T.sample(dist_rxor45, 20000, rng), domain=DOM, num_classes=2)
    adapted = T.adapt_to_target(ms, train, num_classes=2)
    assert T.ets(mt, adapted, evalset) >= 0.8


# ---------------------------------------------------------------------------
# replication harness


def test_replication_report_ci_formula():
    rep = T.ReplicationReport("x", (1.0, 2.0, 3.0, 4.0), (0, 1, 2, 3))
    values = np.array([1.0, 2.0, 3.0, 4.0])
    assert rep.mean == values.mean()
    expected = Z90 * values.std(ddof=1) / np.sqrt(4)
    assert rep.ci_halfwidth == pytest.approx(expected, rel=0, abs=0)
    assert Z90 == 1.645


def test_run_replications_constant_statistic():
    rep = T.run_replications(lambda seed: 0.25, 10, 123)
    assert rep.mean == 0.25
    assert rep.ci_halfwidth == 0.0
    assert rep.seeds == tuple(123 + i for i in range(10))


def test_run_replications_requires_two():
    with pytest.raises(EmpiricalError):
        T.run_replications(lambda seed: 0.0, 1, 0)


def test_run_replications_ci_shrinks_with_root_two():
    def stat(seed):
        return float(np.random.default_rng(seed).normal(0, 1, 50).mean())

    r1 = T.run_replications(stat, 200, 1000)
    r2 = T.run_replications(stat, 400, 5000)
    ratio = r2.ci_halfwidth / r1.ci_halfwidth
    assert ratio == pytest.approx(1 / np.sqrt(2), rel=0.2)


def test_run_replications_dict_statistics():
    reports = T.run_replications(lambda seed: {"a": float(seed), "b": 1.0}, 5, 10)
    assert set(reports) == {"a", "b"}
    assert reports["a"].values == (10.0, 11.0, 12.0, 13.0, 14.0)
    assert reports["b"].ci_halfwidth == 0.0


def test_the_pool_starts_no_more_workers_than_replications(monkeypatch):
    started = []

    class SerialPool:  # records the pool size, starts no process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(empirical.futures, "ProcessPoolExecutor", SerialPool)
    assert T.run_replications(float, 3, 10, workers=64).values == (10.0, 11.0, 12.0)
    assert T.run_replications(float, 5, 0, workers=2).values == (0.0, 1.0, 2.0, 3.0, 4.0)
    assert started == [3, 2]


def test_transfer_efficiency_ratio():
    assert T.transfer_efficiency(0.1, 0.2) == pytest.approx(0.5)
    assert T.transfer_efficiency(0.2, 0.2) == pytest.approx(1.0)
    with pytest.raises(EmpiricalError):
        T.transfer_efficiency(0.1, 0.0)


# ---------------------------------------------------------------------------
# matrix harness


def test_matrix_values_in_unit_interval(dist_xor, dist_quads):
    rep = T.empirical_matrix([dist_xor, dist_quads], LC, 800, 300, 3, base_seed=5)
    assert rep.means.shape == (2, 2)
    assert ((rep.per_replication >= 0) & (rep.per_replication <= 1)).all()
    assert rep.seeds == (5, 6, 7)


def test_matrix_diagonal_high(four_builtins):
    from tasksim.cli import DEFAULT_TREE_DEPTH

    # at the CLI default depth, independent fits of the same task agree
    rep = T.empirical_matrix(
        four_builtins, T.LearnerConfig(depth=DEFAULT_TREE_DEPTH), 5000, 2000, 5,
        base_seed=42,
    )
    assert rep.means.diagonal().min() >= 0.9


def test_matrix_quads_beats_shuffled_geometry_control(dist_xor, dist_quads):
    rng = np.random.default_rng(99)
    scattered = rng.permutation(np.repeat(np.arange(4), 4))
    control = T.grid_distribution(4, labels=scattered.tolist(), num_classes=4,
                                  name="quads-shuffled")
    rep = T.empirical_matrix([dist_xor, dist_quads, control], LC, 5000, 2000, 10,
                             base_seed=42)
    i = rep.names.index("xor")
    assert rep.means[i, rep.names.index("quads")] > rep.means[i, rep.names.index("quads-shuffled")]


def test_matrix_replication_is_train_eval_disjoint(dist_xor):
    # the harness splits one pool by index: recompute the split here and
    # confirm the index sets cannot overlap
    n_train, n_eval = 100, 50
    rng = np.random.default_rng(7)
    pool = T.sample(dist_xor, n_train + n_eval, rng)
    train_idx = np.arange(n_train)
    eval_idx = np.arange(n_train, n_train + n_eval)
    assert len(np.intersect1d(train_idx, eval_idx)) == 0
    values = _matrix_one_replication(
        7, (dist_xor,), LC, n_train=n_train, n_eval=n_eval, in_sample=False
    )
    assert values.shape == (1, 1)


def test_matrix_in_sample_flag(dist_xor, dist_quads):
    held = T.empirical_matrix([dist_xor, dist_quads], LC, 1000, 400, 3, 60)
    ins = T.empirical_matrix([dist_xor, dist_quads], LC, 1000, 400, 3, 60, in_sample=True)
    assert held.means.shape == ins.means.shape
    assert ins.means.diagonal().min() >= 0.9


def test_matrix_workers_match_serial(dist_xor, dist_quads):
    serial = T.empirical_matrix([dist_xor, dist_quads], LC, 600, 200, 4, 11, workers=1)
    parallel = T.empirical_matrix([dist_xor, dist_quads], LC, 600, 200, 4, 11, workers=2)
    assert np.array_equal(serial.per_replication, parallel.per_replication)


# ---------------------------------------------------------------------------
# transfer harness


def test_ensemble_with_uninformative_source_is_scratch(dist_xor, dist_rxor45):
    # Every source region gets each target label equally often, so each
    # refit voter row is uniform and adds the same mass to every class.
    rng = np.random.default_rng(5)
    scratch = LC.fit(T.sample(dist_xor, 60, rng), domain=DOM, num_classes=2)
    src_X = T.sample(dist_rxor45, 2000, rng).X
    source = LC.fit(T.sample(dist_rxor45, 2000, rng), domain=DOM, num_classes=2)
    balanced = SampleSet(np.vstack([src_X, src_X]), np.repeat([0, 1], len(src_X)))
    adapted = T.adapt_to_target(source, balanced, num_classes=2)
    assert np.all(adapted.voter_table == 0.5)
    X = rng.uniform(-1.0, 1.0, size=(5000, 2))
    assert np.array_equal(_ensemble_predict(scratch, adapted, X), scratch.predict(X))


def test_transfer_source_equals_target(dist_xor):
    rep = T.transfer_experiment(dist_xor, dist_xor, LC, n_target=100, n_source=5000,
                                n_eval=2000, replications=10, base_seed=50)
    assert rep.te_ratio <= 1.05
    assert rep.scratch.values != rep.adapted.values
    assert rep.to_dict()["te_adapted_over_scratch"] == rep.te_ratio


def test_transfer_shared_partition_helps(dist_xor, dist_quads):
    rep = T.transfer_experiment(dist_quads, dist_xor, LC, n_target=100, n_source=5000,
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


@pytest.mark.parametrize("kind", ["tree", "histogram"])
@pytest.mark.parametrize("min_gain", [float("nan"), float("inf"), -float("inf")])
def test_learner_config_rejects_non_finite_min_gain(kind, min_gain):
    with pytest.raises(EmpiricalError, match="min_gain"):
        T.LearnerConfig(kind=kind, min_gain=min_gain)


def test_learner_config_rejects_unknown_kind():
    with pytest.raises(EmpiricalError, match="unknown learner kind"):
        T.LearnerConfig(kind="forest")
