"""Empirical task similarity, transfer efficiency, and replications.

Empirical task similarity (ETS) is the agreement fraction between a
model trained on target data and a source-trained model whose voter and
decider were refit on the same target training data.  It is estimated on
a held-out target split by default; the in-sample variant (agreement
measured on the training data itself) is available behind a flag.

All randomness flows through numpy Generators seeded as
``base_seed + replication_index``, so every harness here is reproducible
and safe to parallelize across replications.
"""

from __future__ import annotations

import functools
from concurrent import futures
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import PartitionDistribution, SampleSet, grid_distribution, sample
from .learners import (
    DEFAULT_MIN_GAIN,
    ComposeableDecisionFunction,
    FittedModel,
    adapt_to_target,
    empirical_risk,
    fit_histogram,
    fit_tree,
)
from .similarity import ts

# 90% two-sided normal quantile used for all confidence intervals.
Z90 = 1.645


class EmpiricalError(ValueError):
    pass


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters shared by every model fit inside a harness."""

    kind: str = "tree"  # "tree" or "histogram"
    depth: int = 2
    bins: int = 2
    min_leaf: int = 1
    min_gain: float = DEFAULT_MIN_GAIN

    def __post_init__(self) -> None:
        # Checked for both kinds: the config is recorded even when unused.
        if self.kind not in ("tree", "histogram"):
            raise EmpiricalError(f"unknown learner kind {self.kind!r}")
        if not np.isfinite(self.min_gain):
            raise EmpiricalError(f"min_gain must be a finite number, got {self.min_gain}")

    def fit(self, samples: SampleSet, domain=None, num_classes: Optional[int] = None) -> FittedModel:
        if self.kind == "histogram":
            return fit_histogram(samples, self.bins, domain=domain, num_classes=num_classes)
        return fit_tree(
            samples,
            max_depth=self.depth,
            min_leaf=self.min_leaf,
            domain=domain,
            min_gain=self.min_gain,
            num_classes=num_classes,
        )


def ets(target_model, adapted_source, eval_samples: SampleSet) -> float:
    """Agreement fraction between two decision functions on target patterns.

    The second argument must already be adapted to the target task (its
    voter refit on target training data disjoint from eval_samples).
    """
    if len(eval_samples) == 0:
        raise EmpiricalError("ETS needs a nonempty evaluation set")
    if not (eval_samples.t == 1).all():
        raise EmpiricalError("ETS evaluation samples must all carry target flag t=1")
    a = target_model.predict(eval_samples.X)
    b = adapted_source.predict(eval_samples.X)
    agree = int(np.sum(a == b))
    return agree / len(eval_samples)


@dataclass(frozen=True)
class ReplicationReport:
    """Per-replication values of one statistic with a 90% normal CI."""

    statistic: str
    values: tuple[float, ...]
    seeds: tuple[int, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values, ddof=1))

    @property
    def ci_halfwidth(self) -> float:
        return Z90 * self.std / np.sqrt(len(self.values))

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "mean": self.mean,
            "ci90_halfwidth": self.ci_halfwidth,
            "replications": len(self.values),
            "seeds": list(self.seeds),
            "values": list(self.values),
        }


def run_replications(
    experiment: Callable[[int], float | dict],
    replications: int,
    base_seed: int,
    workers: int = 1,
    statistic: str = "statistic",
):
    """Run ``experiment(seed)`` for seeds base_seed..base_seed+R-1.

    Returns a ReplicationReport, or a dict of them when the experiment
    returns a dict of named statistics.  With workers > 1 the experiment
    must be picklable; results are order-stable either way.
    """
    seeds, results = _replicate(experiment, replications, base_seed, workers)
    if isinstance(results[0], dict):
        return {
            k: ReplicationReport(k, tuple(float(r[k]) for r in results), seeds)
            for k in results[0]
        }
    return ReplicationReport(statistic, tuple(float(r) for r in results), seeds)


def _replicate(experiment: Callable, replications: int, base_seed: int, workers: int):
    """Seeds base_seed..base_seed+R-1 and ``experiment(seed)`` for each, in
    seed order: the one place where replications are seeded and run."""
    if replications < 2:
        raise EmpiricalError("need at least 2 replications for a confidence interval")
    seeds = tuple(base_seed + i for i in range(replications))
    if workers is None or workers <= 1:
        return seeds, [experiment(seed) for seed in seeds]
    with futures.ProcessPoolExecutor(max_workers=min(workers, replications)) as pool:
        return seeds, list(pool.map(experiment, seeds))


def transfer_efficiency(adapted_risk_mean: float, scratch_risk_mean: float) -> float:
    """Ratio of mean risks, transfer learner over target-only baseline.

    Values below 1 mean the source representation helped.  This is the
    only orientation reported: the reciprocal would divide by an adapted
    risk that can be exactly zero.
    """
    if scratch_risk_mean <= 0:
        raise EmpiricalError("scratch risk mean must be positive to form a ratio")
    return adapted_risk_mean / scratch_risk_mean


# ---------------------------------------------------------------------------
# ETS matrix harness


@dataclass(frozen=True)
class EtsMatrixReport:
    names: tuple[str, ...]
    means: np.ndarray
    ci_halfwidth: np.ndarray
    per_replication: np.ndarray  # (R, m, m)
    seeds: tuple[int, ...]


def _matrix_one_replication(
    seed: int,
    distributions: Sequence[PartitionDistribution],
    learner: LearnerConfig,
    n_train: int,
    n_eval: int,
    in_sample: bool,
) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = len(distributions)
    target_train, target_eval, target_models, source_models = [], [], [], []
    for dist in distributions:
        pool = sample(dist, n_train + n_eval, rng)
        train, evalset = pool[:n_train], pool[n_train:]
        if in_sample:
            evalset = train
        target_train.append(train)
        target_eval.append(evalset)
        target_models.append(
            learner.fit(train, domain=dist.partition.domain, num_classes=dist.num_classes)
        )
        src = sample(dist, n_train, rng)
        source_models.append(
            learner.fit(src, domain=dist.partition.domain, num_classes=dist.num_classes)
        )
    out = np.zeros((m, m))
    for i, tgt in enumerate(distributions):
        for j in range(m):
            adapted = adapt_to_target(
                source_models[j], target_train[i], num_classes=tgt.num_classes
            )
            out[i, j] = ets(target_models[i], adapted, target_eval[i])
    return out


def empirical_matrix(
    distributions: Sequence[PartitionDistribution],
    learner: LearnerConfig,
    n_train: int,
    n_eval: int,
    replications: int,
    base_seed: int,
    in_sample: bool = False,
    workers: int = 1,
) -> EtsMatrixReport:
    """Directed ETS matrix (rows targets, columns sources) with 90% CIs.

    Every replication draws fresh training, evaluation and source data
    for each task; each (target, source) entry adapts that source's model
    to the target's training split and scores agreement on the target's
    evaluation split.
    """
    if n_train < 1 or n_eval < 1:
        raise EmpiricalError("sample counts must be positive")
    fn = functools.partial(
        _matrix_one_replication,
        distributions=tuple(distributions),
        learner=learner,
        n_train=n_train,
        n_eval=n_eval,
        in_sample=in_sample,
    )
    seeds, results = _replicate(fn, replications, base_seed, workers)
    # Reduce along axis 0 rather than per entry through ReplicationReport:
    # numpy sums a 1-d array pairwise, which rounds differently for R >= 8.
    stack = np.stack(results)
    means = stack.mean(axis=0)
    ci = Z90 * stack.std(axis=0, ddof=1) / np.sqrt(replications)
    return EtsMatrixReport(tuple(d.name for d in distributions), means, ci, stack, seeds)


# ---------------------------------------------------------------------------
# transfer-efficiency harness


@dataclass(frozen=True)
class TransferReport:
    source: str
    target: str
    n_target: int
    n_source: int
    scratch: ReplicationReport
    adapted: ReplicationReport

    @property
    def te_ratio(self) -> float:
        """Adapted over scratch mean risk; < 1 means transfer helped."""
        return transfer_efficiency(self.adapted.mean, self.scratch.mean)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "target": self.target,
            "n_target": self.n_target,
            "n_source": self.n_source,
            "scratch_risk": self.scratch.to_dict(),
            "adapted_risk": self.adapted.to_dict(),
            "te_adapted_over_scratch": self.te_ratio,
        }


def _ensemble_predict(
    scratch_model: FittedModel, adapted: ComposeableDecisionFunction, X: np.ndarray
) -> np.ndarray:
    """Argmax of the summed voter posteriors of the target's own model and
    the adapted source; exact ties go to the lowest class, as in ``w``."""
    own = scratch_model.fn
    return own.w(own.v(own.u(X)) + adapted.v(adapted.u(X)))


def _transfer_one_replication(
    seed: int,
    source: PartitionDistribution,
    target: PartitionDistribution,
    learner: LearnerConfig,
    n_target: int,
    n_source: int,
    n_eval: int,
) -> dict:
    rng = np.random.default_rng(seed)
    target_train = sample(target, n_target, rng)
    evalset = sample(target, n_eval, rng)
    source_train = sample(source, n_source, rng)
    dom = target.partition.domain
    scratch_model = learner.fit(target_train, domain=dom, num_classes=target.num_classes)
    source_model = learner.fit(source_train, domain=dom, num_classes=source.num_classes)
    adapted = adapt_to_target(source_model, target_train, num_classes=target.num_classes)
    with_source = _ensemble_predict(scratch_model, adapted, evalset.X)
    return {
        "scratch_risk": empirical_risk(scratch_model, evalset),
        "adapted_risk": float(np.mean(with_source != evalset.y)),
    }


def transfer_experiment(
    source: PartitionDistribution,
    target: PartitionDistribution,
    learner: LearnerConfig,
    n_target: int,
    n_source: int,
    n_eval: int,
    replications: int,
    base_seed: int,
    workers: int = 1,
) -> TransferReport:
    """Mean target risk with and without the source representation.

    The scratch model is fit on the n_target target samples alone.  The
    with-source ("adapted") learner ensembles that model with the source
    one: the transformer fit on n_source source samples is frozen, its
    voter is refit on the same n_target target samples
    (``adapt_to_target``), and the two voters' posteriors are summed
    before the argmax decider.  A source whose regions carry no target
    label information (an orthogonal task) adds near-uniform votes and so
    barely moves the scratch prediction, keeping the ratio near 1; a
    source sharing the target's partition drives it below 1.  Risks are measured on a fresh
    evaluation draw each replication.
    """
    if min(n_target, n_source, n_eval) < 1:
        raise EmpiricalError("sample counts must be positive")
    fn = functools.partial(
        _transfer_one_replication,
        source=source,
        target=target,
        learner=learner,
        n_target=n_target,
        n_source=n_source,
        n_eval=n_eval,
    )
    risks = run_replications(fn, replications, base_seed, workers)
    return TransferReport(
        source.name, target.name, n_target, n_source, risks["scratch_risk"], risks["adapted_risk"]
    )


# ---------------------------------------------------------------------------
# convergence harness (analytic curve vs histogram-learner ETS)


@dataclass(frozen=True)
class ConvergencePoint:
    n_bins: int
    analytic_ts: float
    ets_report: ReplicationReport


def _convergence_one_replication(
    seed: int,
    target: PartitionDistribution,
    source: PartitionDistribution,
    target_learner: LearnerConfig,
    bins: int,
    n_train: int,
    n_eval: int,
) -> float:
    rng = np.random.default_rng(seed)
    pool = sample(target, n_train + n_eval, rng)
    train, evalset = pool[:n_train], pool[n_train:]
    source_train = sample(source, n_train, rng)
    dom = target.partition.domain
    target_model = target_learner.fit(train, domain=dom, num_classes=target.num_classes)
    source_model = fit_histogram(source_train, bins, domain=dom,
                                 num_classes=source.num_classes)
    adapted = adapt_to_target(source_model, train, num_classes=target.num_classes)
    return ets(target_model, adapted, evalset)


def convergence_study(
    target: PartitionDistribution,
    grid_sizes: Sequence[int],
    target_learner: LearnerConfig,
    n_train: int,
    n_eval: int,
    replications: int,
    base_seed: int,
    workers: int = 1,
) -> list[ConvergencePoint]:
    """Analytic similarity and histogram-learner ETS along a grid refinement.

    For each n the source task labels the n x n grid with one class per
    cell and the source learner is a histogram with n bins per dimension,
    so its regions coincide with the source's optimal partition.  The
    target model keeps a fixed configuration across the sweep.
    """
    if n_train < 1 or n_eval < 1:
        raise EmpiricalError("sample counts must be positive")
    if min(grid_sizes) < 1:
        raise EmpiricalError("grid sizes must be positive")
    points = []
    for idx, n in enumerate(grid_sizes):
        src = grid_distribution(n, domain=target.partition.domain)
        analytic = ts(target, src).value
        fn = functools.partial(
            _convergence_one_replication,
            target=target,
            source=src,
            target_learner=target_learner,
            bins=n,
            n_train=n_train,
            n_eval=n_eval,
        )
        report = run_replications(fn, replications, base_seed + 1000 * idx, workers,
                                  statistic=f"ets[bins={n}]")
        points.append(ConvergencePoint(n, analytic, report))
    return points
