"""Task similarity between partition-defined classification tasks.

Exact directed similarity (and its tie-adjusted variant) between
distributions whose Bayes rules are constant on convex cells, plus
sample-based estimation through composeable histogram/tree learners,
transfer-efficiency experiments, and a CLI harness.
"""

__version__ = "0.1.0"

from .distributions import (
    PartitionDistribution,
    SampleSet,
    builtin,
    fxor,
    grid_distribution,
    load_distribution,
    permute_labels,
    quads,
    rxor,
    sample,
    with_label_noise,
    xor,
)
from .empirical import (
    LearnerConfig,
    ReplicationReport,
    convergence_study,
    empirical_matrix,
    ets,
    run_replications,
    transfer_efficiency,
    transfer_experiment,
)
from .geometry import (
    Partition,
    is_subpartition,
    make_grid_partition,
    validate_partition,
)
from .learners import (
    ComposeableDecisionFunction,
    FittedModel,
    adapt_to_target,
    empirical_risk,
    fit_histogram,
    fit_tree,
    induced_partition,
    predict,
)
from .similarity import (
    AnalyticMatrices,
    SimilarityResult,
    analytic_matrix,
    are_orthogonal,
    ats,
    is_adversarial,
    label_mass_profiles,
    near_best,
    ts,
)

__all__ = [name for name in dir() if not name.startswith("_")]
