"""Non-adaptive baselines run under a matched query budget.

All three baselines produce a size-k pruning and spend exactly the same
number of basic and node queries as a reference adaptive run (see
match_budget), making their output weightings directly comparable.

WEIGHT ignores samples for its split choices and always splits the pruning
node with the largest known mass.  UNIFORM and EMPIRICAL draw their whole
basic-query budget up front, uniformly from the full leaf set, and score
every candidate node from the drawn leaves that happen to fall under it:
UNIFORM with the unbiased discrepancy estimate, EMPIRICAL with the plug-in
sum (n/m) * sum |node_average - z|, which looks like the discrepancy but
concentrates around the wrong value when rare heavy leaves are missed.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from math import fsum

from awpkit.engine import PruningResult, build_result, split_node
from awpkit.estimator import NodeStats
from awpkit.oracle import Oracle
from awpkit.tree import HierTree


@dataclass(frozen=True)
class Budget:
    """Query allowance: basic (leaf) queries and node (subtree mass) queries."""

    basic: int
    node: int

    def __post_init__(self):
        if self.basic < 0 or self.node < 0:
            raise ValueError("budget counts must be non-negative")


def match_budget(result: PruningResult) -> Budget:
    """Budget equal to what a finished run actually spent."""
    return Budget(result.ledger.basic_queries, result.ledger.node_queries)


def _as_draws(values) -> list[float]:
    vals = [float(x) for x in values]
    if not vals:
        raise ValueError("empty subsample")
    return vals


def uniform_score(w_star: float, n_leaves: int, values) -> float:
    """Unbiased discrepancy estimate of a node from a uniform subsample."""
    vals = _as_draws(values)
    avg = w_star / n_leaves
    return w_star + (n_leaves / len(vals)) * (fsum(abs(x - avg) for x in vals) - fsum(vals))


def empirical_score(w_star: float, n_leaves: int, values) -> float:
    """Plug-in deviation sum (n/m) * sum |node_average - z|."""
    vals = _as_draws(values)
    avg = w_star / n_leaves
    return (n_leaves / len(vals)) * fsum(abs(avg - x) for x in vals)


def _check_run_args(tree: HierTree, oracle: Oracle, k: int, budget: Budget) -> None:
    if oracle.tree is not tree:
        raise ValueError("oracle is bound to a different tree")
    if not (1 <= k <= tree.leaf_count_total):
        raise ValueError(f"k must be in 1..{tree.leaf_count_total}, got {k}")
    if budget.node < k - 1:
        raise ValueError(f"node budget {budget.node} cannot cover {k - 1} splits")


def _draw_all(tree, oracle, rng, count, trace):
    """Uniform-with-replacement leaf draws over the whole leaf set,
    attributed to the root (they serve no single node).  Returns the drawn
    leaf positions and their weights."""
    root = tree.root_id
    n = tree.leaf_count_total
    positions = []
    values = []
    order = tree.leaf_order
    for _ in range(count):
        pos = rng.randrange(n)
        val = oracle.query_leaf(pos, attributed_to=root)
        positions.append(pos)
        values.append(val)
        trace.append(("SAMPLE", root, order[pos], val))
    return positions, values


def run_weight(tree: HierTree, oracle: Oracle, k: int, budget: Budget, seed: int) -> PruningResult:
    """Split the heaviest pruning node k-1 times, then spend the whole
    basic budget on uniform leaf draws used only to refine the output."""
    _check_run_args(tree, oracle, k, budget)
    pruning = [tree.root_id]
    weights = {tree.root_id: 1.0}
    trace: list[tuple] = []
    # k <= leaf_count_total, and a pruning of leaves only has that many
    # nodes, so each of the k-1 splits finds an internal node.
    for _ in range(k - 1):
        target = -1
        best = -1.0
        for v in pruning:
            if tree.is_leaf(v):
                continue
            if weights[v] > best:
                best = weights[v]
                target = v
        weights.update(split_node(tree, oracle, pruning, trace, target, weights[target]))
    positions, values = _draw_all(tree, oracle, random.Random(seed), budget.basic, trace)
    stats = {v: NodeStats(v, weights[v], tree.leaf_count(v)) for v in pruning}
    return build_result(tree, oracle, pruning, dict(zip(positions, values)), stats, trace, None)


def _run_scored(tree, oracle, k, budget, seed, score_fn) -> PruningResult:
    _check_run_args(tree, oracle, k, budget)
    rng = random.Random(seed)
    trace: list[tuple] = []
    positions, values = _draw_all(tree, oracle, rng, budget.basic, trace)
    by_pos = sorted(range(len(positions)), key=positions.__getitem__)
    pos_sorted = [positions[i] for i in by_pos]
    val_sorted = [values[i] for i in by_pos]

    def subsample(v):
        lo, hi = tree.span(v)
        return val_sorted[bisect_left(pos_sorted, lo) : bisect_left(pos_sorted, hi)]

    pruning = [tree.root_id]
    weights = {tree.root_id: 1.0}
    scores: dict[int, float | None] = {}
    # k <= leaf_count_total, and a pruning of leaves only has that many
    # nodes, so each of the k-1 splits finds an internal node.
    for _ in range(k - 1):
        target = -1
        best = None
        heaviest = -1
        heaviest_w = -1.0
        for v in pruning:
            if tree.is_leaf(v):
                continue
            if weights[v] > heaviest_w:
                heaviest_w = weights[v]
                heaviest = v
            if v not in scores:
                sub = subsample(v)
                scores[v] = score_fn(weights[v], tree.leaf_count(v), sub) if sub else None
            s = scores[v]
            if s is None:
                continue
            if best is None or s > best:
                best = s
                target = v
        if target < 0:
            # No candidate received any draw: fall back to the heaviest node.
            target = heaviest
        weights.update(split_node(tree, oracle, pruning, trace, target, weights[target]))
    stats = {v: NodeStats(v, weights[v], tree.leaf_count(v), samples=subsample(v)) for v in pruning}
    return build_result(tree, oracle, pruning, dict(zip(positions, values)), stats, trace, None)


def run_uniform(tree: HierTree, oracle: Oracle, k: int, budget: Budget, seed: int) -> PruningResult:
    """Score candidate splits with the unbiased discrepancy estimate over a
    fixed, uniformly pre-drawn sample."""
    return _run_scored(tree, oracle, k, budget, seed, uniform_score)


def run_empirical(tree: HierTree, oracle: Oracle, k: int, budget: Budget, seed: int) -> PruningResult:
    """Score candidate splits with the plug-in deviation sum over a fixed,
    uniformly pre-drawn sample."""
    return _run_scored(tree, oracle, k, budget, seed, empirical_score)
