"""Empirical task similarity, transfer efficiency, and replications.

Empirical task similarity (ETS) is the agreement fraction between a
model trained on target data and a source-trained model whose voter and
decider were refit on the same target training data.  It is estimated on
a held-out target split by default; the in-sample variant (agreement
measured on the training data itself) is available behind a flag.

All randomness flows through numpy Generators seeded as
``base_seed + replication_index`` (plus ``1000 * grid_index`` for each
point of the convergence study), so every harness here is reproducible
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
from .similarity import check_domains, ts

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
    a = target_model.predict(eval_samples.X)
    b = adapted_source.predict(eval_samples.X)
    agree = int(np.sum(a == b))
    return agree / len(eval_samples)


@dataclass(frozen=True, eq=False)  # eq would compare arrays as truth values
class ReplicationReport:
    """Per-replication values of one statistic, stacked on axis 0: (R,) for
    a number per replication, (R, ...) for an array.  ``mean`` and the 90%
    normal CI reduce axis 0, entry by entry."""

    statistic: str
    values: np.ndarray
    seeds: tuple[int, ...]

    @property
    def mean(self):
        return self.values.mean(axis=0)

    @property
    def ci_halfwidth(self):
        return Z90 * self.values.std(axis=0, ddof=1) / np.sqrt(len(self.values))

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "mean": self.mean.tolist(),
            "ci90_halfwidth": self.ci_halfwidth.tolist(),
            "replications": len(self.values),
            "seeds": list(self.seeds),
            "values": self.values.tolist(),
        }


def run_replications(
    experiment: Callable[[int], float | np.ndarray],
    replications: int,
    base_seed: int,
    workers: int = 1,
    statistic: str = "statistic",
) -> ReplicationReport:
    """Run ``experiment(seed)`` for seeds base_seed..base_seed+R-1, in seed
    order: the one place where replications are seeded and run.

    The experiment returns a number or an array of numbers of one shape,
    and the report stacks them on axis 0.  With workers > 1 the experiment
    must be picklable; results are order-stable either way.
    """
    if replications < 2:
        raise EmpiricalError("need at least 2 replications for a confidence interval")
    seeds = tuple(base_seed + i for i in range(replications))
    if workers is None or workers <= 1:
        results = [experiment(seed) for seed in seeds]
    else:
        with futures.ProcessPoolExecutor(max_workers=min(workers, replications)) as pool:
            results = list(pool.map(experiment, seeds))
    return ReplicationReport(statistic, np.asarray(results, dtype=float), seeds)


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


def _matrix_one_replication(
    seed: int,
    targets: Sequence[PartitionDistribution],
    sources: Sequence[PartitionDistribution],
    learners: tuple[LearnerConfig, LearnerConfig],
    n_train: int,
    n_eval: int,
    in_sample: bool,
) -> np.ndarray:
    """One replication's (targets x sources) ETS table.

    Targets and sources pair by index: for each i it draws target i's
    n_train + n_eval pool, then source i's n_train rows.  Targets are fit
    with learners[0] and sources with learners[1], each on its own
    distribution's domain.
    """
    rng = np.random.default_rng(seed)
    target_learner, source_learner = learners
    target_train, target_eval, target_models, source_models = [], [], [], []
    for tgt, src in zip(targets, sources):
        pool = sample(tgt, n_train + n_eval, rng)
        train = pool[:n_train]
        target_train.append(train)
        target_eval.append(train if in_sample else pool[n_train:])
        target_models.append(
            target_learner.fit(train, domain=tgt.partition.domain, num_classes=tgt.num_classes)
        )
        source_models.append(source_learner.fit(
            sample(src, n_train, rng), domain=src.partition.domain, num_classes=src.num_classes
        ))
    out = np.zeros((len(targets), len(sources)))
    for i, tgt in enumerate(targets):
        for j, source_model in enumerate(source_models):
            adapted = adapt_to_target(source_model, target_train[i], num_classes=tgt.num_classes)
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
) -> ReplicationReport:
    """Directed ETS matrix (rows targets, columns sources) with 90% CIs:
    a report whose values are (R, m, m).

    Every replication draws fresh training, evaluation and source data
    for each task; each (target, source) entry adapts that source's model
    to the target's training split and scores agreement on the target's
    evaluation split.
    """
    if n_train < 1 or n_eval < 1:
        raise EmpiricalError("sample counts must be positive")
    check_domains(distributions, distributions)
    dists = tuple(distributions)
    fn = functools.partial(
        _matrix_one_replication,
        targets=dists,
        sources=dists,
        learners=(learner, learner),
        n_train=n_train,
        n_eval=n_eval,
        in_sample=in_sample,
    )
    return run_replications(fn, replications, base_seed, workers, statistic="ets")


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
    def te_ratio(self) -> Optional[float]:
        """Adapted over scratch mean risk; < 1 means transfer helped.  None
        when the scratch risk is 0, since no ratio then exists."""
        if self.scratch.mean == 0:
            return None
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
) -> tuple[float, float]:
    """The scratch and the with-source risk of one replication."""
    rng = np.random.default_rng(seed)
    target_train = sample(target, n_target, rng)
    evalset = sample(target, n_eval, rng)
    source_train = sample(source, n_source, rng)
    dom = target.partition.domain
    scratch_model = learner.fit(target_train, domain=dom, num_classes=target.num_classes)
    source_model = learner.fit(source_train, domain=dom, num_classes=source.num_classes)
    adapted = adapt_to_target(source_model, target_train, num_classes=target.num_classes)
    with_source = _ensemble_predict(scratch_model, adapted, evalset.X)
    return empirical_risk(scratch_model, evalset), float(np.mean(with_source != evalset.y))


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
    check_domains([target], [source])
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
    # One report per column: a strided column reduces as a tuple does,
    # where an axis-0 reduction of the (R, 2) stack would not.
    scratch, adapted = (ReplicationReport(name, risks.values[:, c], risks.seeds)
                        for c, name in enumerate(("scratch_risk", "adapted_risk")))
    return TransferReport(source.name, target.name, n_target, n_source, scratch, adapted)


# ---------------------------------------------------------------------------
# convergence harness (analytic curve vs histogram-learner ETS)


@dataclass(frozen=True)
class ConvergencePoint:
    n_bins: int
    analytic_ts: float
    ets_report: ReplicationReport


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
    target model keeps a fixed configuration across the sweep.  Each
    point runs the ETS-matrix replication on the (target, grid(n)) pair.
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
            _matrix_one_replication,
            targets=(target,),
            sources=(src,),
            learners=(target_learner, LearnerConfig("histogram", bins=n)),
            n_train=n_train,
            n_eval=n_eval,
            in_sample=False,
        )
        table = run_replications(fn, replications, base_seed + 1000 * idx, workers)
        report = ReplicationReport(f"ets[bins={n}]", table.values[:, 0, 0], table.seeds)
        points.append(ConvergencePoint(n, analytic, report))
    return points
