"""Approximating a hidden distribution over a data set from weight queries.

Given a hierarchical tree over the examples and an oracle answering leaf
and subtree weight queries, the package searches for a small pruning of
the tree whose induced piecewise-uniform weighting is close to the hidden
target in total variation, and compares the adaptive search against
budget-matched baselines.
"""

from awpkit.adversarial import (
    assemble,
    build_greedy_trap_a,
    build_greedy_trap_b,
    build_heavy_leaf,
    build_lookahead_trap,
    build_tightness,
)
from awpkit.baselines import (
    BaselineCell,
    empirical_score,
    run_empirical,
    run_uniform,
    run_weight,
    uniform_score,
)
from awpkit.engine import (
    AwpRun,
    EngineConfig,
    PruningResult,
    normalized_distance,
    run_awp,
)
from awpkit.estimator import (
    NodeStats,
    confidence_radius,
    estimate_discrepancy,
)
from awpkit.fileio import (
    dump_tree,
    dump_weights,
    dumps_tree,
    dumps_weights,
    load_tree,
    load_weights,
    loads_tree,
    loads_weights,
)
from awpkit.oracle import (
    Oracle,
    QueryLedger,
    TargetSpec,
    build_median_split_tree,
    build_random_balanced_tree,
    leaf_order_bins,
    make_geometric_target,
    random_features,
)
from awpkit.tree import (
    FileFormatError,
    HierTree,
    InvariantError,
    TreeStructureError,
    WeightTable,
    average_split_quality,
    induced_weighting,
    is_pruning,
    node_discrepancies,
    node_discrepancy,
    optimal_pruning,
    pruning_discrepancy,
    refine_with_queries,
    split_quality,
    tv_distance,
)

__version__ = "0.1.0"
