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
replication r of every harness is seeded ``base_seed + r``.  Each harness
runs one experiment per replication that returns a value for every point
of its sweep, so the points share replication r's target draw: the
convergence study scores every grid against one target pool and target
model, and the transfer experiment fits every target size on a prefix of
one target pool.  One ``run_replications`` sweep runs them, so a harness
is reproducible and safe to parallelize across replications.
"""

from __future__ import annotations

import functools
from concurrent import futures
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .distributions import PartitionDistribution, SampleSet, sample
from .geometry import make_grid_partition
from .learners import (
    DEFAULT_MIN_GAIN,
    GridTransformer,
    _as_bounds,
    adapt_to_target,
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

    def fit(self, samples: SampleSet, domain=None, num_classes: Optional[int] = None):
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
    task: tuple[Callable[[int], float | np.ndarray], int],
    replications: int,
    workers: int = 1,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Run ``experiment(base_seed + r)`` for r < R, in seed order, serially
    or in one pool of ``min(workers, R)`` processes: the one place where
    replications are seeded and run.

    ``task`` is ``(experiment, base_seed)``.  The experiment returns a
    number or an array of numbers of one shape; the result is its R values
    stacked on axis 0, and their seeds.  With workers > 1 the experiment
    must be picklable.
    """
    if replications < 2:
        raise EmpiricalError("need at least 2 replications for a confidence interval")
    experiment, base_seed = task
    seeds = tuple(range(base_seed, base_seed + replications))
    size = min(workers, replications)
    if size <= 1:
        results = list(map(experiment, seeds))
    else:
        # Chunks of ceil(R / size) seeds: pickle sends a chunk's experiment
        # once, and a worker reuses its cached sampling tables within it.
        with futures.ProcessPoolExecutor(max_workers=size) as pool:
            results = list(pool.map(experiment, seeds, chunksize=-(-replications // size)))
    return np.asarray(results, dtype=float), seeds


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


def ets_table(targets: Sequence[tuple], regions: Iterable, learner: LearnerConfig) -> np.ndarray:
    """The one ETS scorer: the (targets x sources) ETS table of drawn sets.

    A target is (train, eval, domain, num_classes); a domain of None fits
    the data's box.  Every target is fit with ``learner`` first.  A source
    is its frozen transformer, read from ``regions`` once, in order: entry
    (i, j) adapts source j's regions to target i's training set and scores
    them against target i's model on target i's evaluation set.  Each
    source is scored against every target before the next is read, so a
    caller that fits its sources in a generator holds one at a time.
    """
    models = [learner.fit(train, dom, k) for train, _, dom, k in targets]
    columns = [[ets(model, adapt_to_target(u, train, num_classes=k), evalset)
                for (train, evalset, _, k), model in zip(targets, models)] for u in regions]
    return np.array(columns).T


def _matrix_one_replication(
    seed: int,
    targets: Sequence[PartitionDistribution],
    sources: Sequence[PartitionDistribution],
    learner: LearnerConfig,
    n_train: int,
    n_eval: int,
    in_sample: bool,
) -> np.ndarray:
    """One replication's (targets x sources) ETS table.

    Targets and sources pair by index: for each i it draws target i's
    n_train + n_eval pool, then source i's n_train rows.  Every set is fit
    on its own distribution's domain, and ``ets_table`` scores the draws.
    """
    rng = np.random.default_rng(seed)
    drawn_targets, drawn_sources = [], []
    for tgt, src in zip(targets, sources):
        pool = sample(tgt, n_train + n_eval, rng)
        train = pool[:n_train]
        drawn_targets.append((train, train if in_sample else pool[n_train:],
                              tgt.partition.domain, tgt.num_classes))
        drawn_sources.append((sample(src, n_train, rng), src.partition.domain, src.num_classes))
    regions = (learner.fit(train, dom, k).fn.transformer for train, dom, k in drawn_sources)
    return ets_table(drawn_targets, regions, learner)


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
    dists = tuple(distributions)
    check_domains(dists, [d.partition for d in dists], [d.name for d in dists])
    fn = functools.partial(
        _matrix_one_replication,
        targets=dists,
        sources=dists,
        learner=learner,
        n_train=n_train,
        n_eval=n_eval,
        in_sample=in_sample,
    )
    values, seeds = run_replications((fn, base_seed), replications, workers)
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


def _transfer_sweep(
    seed: int,
    source: PartitionDistribution,
    target: PartitionDistribution,
    learner: LearnerConfig,
    n_targets: Sequence[int],
    n_source: int,
    n_eval: int,
) -> np.ndarray:
    """One replication's (scratch, with-source) risks at every target size:
    a (P, 2) array.

    It draws max(n_targets) target rows, then the evaluation set, then the
    source rows, and fits the source model once.  The point of size n fits
    its scratch model and adapts the source on the pool's first n rows, so
    a single size draws and fits what a replication of that size alone
    would.
    """
    rng = np.random.default_rng(seed)
    pool = sample(target, max(n_targets), rng)
    evalset = sample(target, n_eval, rng)
    source_train = sample(source, n_source, rng)
    dom, k = target.partition.domain, target.num_classes
    source_u = learner.fit(source_train, domain=dom, num_classes=source.num_classes).fn.transformer
    source_ids = source_u(evalset.X)
    risks = []
    for n in n_targets:
        train = pool[:n]
        own = learner.fit(train, domain=dom, num_classes=k).fn
        posteriors = own.v(own.u(evalset.X))
        # The with-source learner is the argmax of the summed voter
        # posteriors; exact ties go to the lowest class, as in ``w``.
        adapted = adapt_to_target(source_u, train, num_classes=k)
        with_source = own.w(posteriors + adapted.v(source_ids))
        risks.append((float(np.mean(own.w(posteriors) != evalset.y)),
                      float(np.mean(with_source != evalset.y))))
    return np.array(risks)


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
    source sharing the target's partition drives it below 1.  Risks are
    measured on a fresh evaluation draw each replication, which goes
    through the source's regions once; each size's scratch posteriors on
    it give both risks.  The sizes share replication r's draws: the
    size-n point trains on the first n rows of one target pool of
    max(n_targets) rows, so the training sets are nested.
    """
    if min(n_source, n_eval, *n_targets) < 1:
        raise EmpiricalError("sample counts must be positive")
    check_domains([target], [source.partition], [source.name])
    fn = functools.partial(_transfer_sweep, source=source, target=target, learner=learner,
                           n_targets=tuple(n_targets), n_source=n_source, n_eval=n_eval)
    risks, seeds = run_replications((fn, base_seed), replications, workers)
    reports = []
    for i, n in enumerate(n_targets):
        # One report per column: a strided column reduces as a tuple does,
        # where an axis-0 reduction of the (R, P, 2) stack would not.
        scratch, adapted = (ReplicationReport(name, risks[:, i, c], seeds)
                            for c, name in enumerate(("scratch_risk", "adapted_risk")))
        reports.append(TransferReport(source.name, target.name, n, n_source, scratch, adapted))
    return reports


# ---------------------------------------------------------------------------
# convergence harness (analytic curve vs histogram-learner ETS)


def _convergence_sweep(
    seed: int,
    target: PartitionDistribution,
    regions: Sequence[GridTransformer],
    learner: LearnerConfig,
    n_train: int,
    n_eval: int,
) -> np.ndarray:
    """One replication's ETS at every grid: a (P,) array.

    It draws the target's n_train + n_eval pool and nothing else;
    ``ets_table`` fits the target model once on the first n_train rows
    and scores every grid's regions against it on the rest.
    """
    pool = sample(target, n_train + n_eval, np.random.default_rng(seed))
    [row] = ets_table([(pool[:n_train], pool[n_train:], target.partition.domain,
                        target.num_classes)], regions, learner)
    return row


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

    For each n the source is the n x n grid over the target's domain, the
    optimal partition of a task that gives every cell its own class.  A
    task is judged only by the partition it induces, so no source task is
    built, drawn or fit: the source's regions are an n-bin histogram's
    ``GridTransformer``, which is what fitting one on any source rows
    would freeze.  The target model keeps a fixed configuration across the
    sweep, and the points share replication r's target pool and target
    model, so appending a grid leaves the earlier points' values as they
    were.  The analytic curve is one label-mass pass over the target
    against every grid at once; each point equals
    ``ts(target, grid_distribution(n, domain=...)).value`` bit for bit.
    """
    if n_train < 1 or n_eval < 1:
        raise EmpiricalError("sample counts must be positive")
    if not grid_sizes:
        raise EmpiricalError("need at least one grid size")
    if min(grid_sizes) < 1:
        raise EmpiricalError("grid sizes must be positive")
    dom = target.partition.domain
    grids = [make_grid_partition(n, dom) for n in grid_sizes]
    analytic = _ts_values(target, grids, [f"grid{n}" for n in grid_sizes])
    lo, hi = _as_bounds(dom, 2)
    fn = functools.partial(_convergence_sweep, target=target,
                           regions=tuple(GridTransformer(lo, hi, n) for n in grid_sizes),
                           learner=target_learner, n_train=n_train, n_eval=n_eval)
    values, seeds = run_replications((fn, base_seed), replications, workers)
    return [
        ConvergencePoint(n, a, ReplicationReport(f"ets[bins={n}]", values[:, i], seeds))
        for i, (n, a) in enumerate(zip(grid_sizes, analytic))
    ]
