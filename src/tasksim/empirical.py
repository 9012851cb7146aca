"""Empirical task similarity, transfer efficiency, and replications.

Empirical task similarity (ETS) is the agreement fraction between a
model trained on target data and a source-trained model whose voter and
decider were refit on the same target training data.  It is estimated on
a held-out target split by default; the in-sample variant (agreement
measured on the training data itself) is available behind a flag.
``ets_table`` is the one ETS scorer: the ETS matrix and the convergence
study score each replication's seeded draw with it, and the ``ets-csv``
command its CSV train/evaluation split.

All randomness flows through numpy Generators, one per replication:
replication r of a harness's i-th point is seeded ``base_seed + r`` in
the ETS matrix, ``base_seed + 1000 * i + r`` at the i-th grid of the
convergence study and ``base_seed + 10000 * i + r`` at the i-th target
size of the transfer experiment.  Each harness runs all of its points in
one ``run_replications`` sweep, so it is reproducible and safe to
parallelize across replications.  The sweep refuses more replications
than the stride between points (1000 and 10000), so no two points share a
seed.
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
from .similarity import _ts_values, check_domains

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


def _run(task: tuple[Callable[[int], float | np.ndarray], int]):
    experiment, seed = task
    return experiment(seed)


def run_replications(
    experiments: Sequence[tuple[Callable[[int], float | np.ndarray], int]],
    replications: int,
    workers: int = 1,
) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Run ``experiment(base_seed + r)`` for r < R and every
    ``(experiment, base_seed)`` pair, in seed order, serially or in one pool
    of ``min(workers, tasks)`` processes: the one place where replications
    are seeded and run.

    An experiment returns a number or an array of numbers of one shape.
    Each pair gets, in order, its R results stacked on axis 0 and their
    seeds.  No seed may serve two pairs, so R may not exceed the smallest
    gap between base seeds.  With workers > 1 the experiments must be
    picklable.
    """
    if replications < 2:
        raise EmpiricalError("need at least 2 replications for a confidence interval")
    bases = sorted(base_seed for _, base_seed in experiments)
    stride = min((b - a for a, b in zip(bases, bases[1:])), default=replications)
    if replications > stride:
        raise EmpiricalError(f"--replications must be at most {stride} here: the points are "
                             f"seeded {stride} apart, and {replications} replications would "
                             "give two of them the same seed")
    tasks = [(fn, base_seed + r) for fn, base_seed in experiments for r in range(replications)]
    size = min(workers, len(tasks))
    if size <= 1:
        results = list(map(_run, tasks))
    else:
        # Chunks of ceil(R / size) tasks: pickle sends a chunk's experiment
        # once, and a worker reuses its cached sampling tables within it.
        with futures.ProcessPoolExecutor(max_workers=size) as pool:
            results = list(pool.map(_run, tasks, chunksize=-(-replications // size)))
    return [(np.asarray(results[i:i + replications], dtype=float),
             tuple(seed for _, seed in tasks[i:i + replications]))
            for i in range(0, len(tasks), replications)]


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


def ets_table(targets: Sequence[tuple], sources: Sequence[tuple],
              learners: tuple[LearnerConfig, LearnerConfig]) -> np.ndarray:
    """The one ETS scorer: the (targets x sources) ETS table of drawn sets.

    A target is (train, eval, domain, num_classes) and a source (train,
    domain, num_classes); a domain of None fits the data's box.  Every
    target is fit with learners[0] before any source with learners[1].
    Entry (i, j) adapts source j's model to target i's training set and
    scores it against target i's model on target i's evaluation set.
    """
    target_learner, source_learner = learners
    target_models = [target_learner.fit(train, dom, k) for train, _, dom, k in targets]
    source_models = [source_learner.fit(train, dom, k) for train, dom, k in sources]
    return np.array([[ets(model, adapt_to_target(source, train, num_classes=k), evalset)
                      for source in source_models]
                     for (train, evalset, _, k), model in zip(targets, target_models)])


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
    n_train + n_eval pool, then source i's n_train rows.  ``ets_table``
    scores the draws, each set on its own distribution's domain.
    """
    rng = np.random.default_rng(seed)
    drawn_targets, drawn_sources = [], []
    for tgt, src in zip(targets, sources):
        pool = sample(tgt, n_train + n_eval, rng)
        train = pool[:n_train]
        drawn_targets.append((train, train if in_sample else pool[n_train:],
                              tgt.partition.domain, tgt.num_classes))
        drawn_sources.append((sample(src, n_train, rng), src.partition.domain, src.num_classes))
    return ets_table(drawn_targets, drawn_sources, learners)


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
    [(values, seeds)] = run_replications([(fn, base_seed)], replications, workers)
    return ReplicationReport("ets", values, seeds)


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
    n_targets: Sequence[int],
    n_source: int,
    n_eval: int,
    replications: int,
    base_seed: int,
    workers: int = 1,
) -> list[TransferReport]:
    """Mean target risk with and without the source representation, one
    report per target training size in ``n_targets``.

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
    if min(n_source, n_eval, *n_targets) < 1:
        raise EmpiricalError("sample counts must be positive")
    check_domains([target], [source])
    experiments = [(functools.partial(_transfer_one_replication, source=source, target=target,
                                      learner=learner, n_target=n, n_source=n_source,
                                      n_eval=n_eval), base_seed + 10000 * i)
                   for i, n in enumerate(n_targets)]
    reports = []
    for n, (risks, seeds) in zip(n_targets, run_replications(experiments, replications, workers)):
        # One report per column: a strided column reduces as a tuple does,
        # where an axis-0 reduction of the (R, 2) stack would not.
        scratch, adapted = (ReplicationReport(name, risks[:, c], seeds)
                            for c, name in enumerate(("scratch_risk", "adapted_risk")))
        reports.append(TransferReport(source.name, target.name, n, n_source, scratch, adapted))
    return reports


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
    The analytic curve is one label-mass pass over the target against
    every grid at once; each point equals ``ts(target, grid(n)).value``
    bit for bit.
    """
    if n_train < 1 or n_eval < 1:
        raise EmpiricalError("sample counts must be positive")
    if not grid_sizes:
        raise EmpiricalError("need at least one grid size")
    if min(grid_sizes) < 1:
        raise EmpiricalError("grid sizes must be positive")
    sources = [grid_distribution(n, domain=target.partition.domain) for n in grid_sizes]
    analytic = _ts_values(target, sources)
    experiments = [(functools.partial(_matrix_one_replication, targets=(target,), sources=(src,),
                                      learners=(target_learner, LearnerConfig("histogram", bins=n)),
                                      n_train=n_train, n_eval=n_eval, in_sample=False),
                    base_seed + 1000 * i)
                   for i, (n, src) in enumerate(zip(grid_sizes, sources))]
    tables = run_replications(experiments, replications, workers)
    return [
        ConvergencePoint(n, a, ReplicationReport(f"ets[bins={n}]", values[:, 0, 0], seeds))
        for n, a, (values, seeds) in zip(grid_sizes, analytic, tables)
    ]
