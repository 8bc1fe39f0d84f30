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
from operator import itemgetter

from awpkit.engine import PruningResult, PruningSearch
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


def _check_run_args(tree: HierTree, k: int, budget: Budget) -> None:
    if not (1 <= k <= tree.leaf_count_total):
        raise ValueError(f"k must be in 1..{tree.leaf_count_total}, got {k}")
    if budget.node < k - 1:
        raise ValueError(f"node budget {budget.node} cannot cover {k - 1} splits")


def _draw_all(search: PruningSearch, rng: random.Random, count: int) -> list[tuple[int, float]]:
    """Uniform-with-replacement leaf draws over the whole leaf set,
    drawn for the root (they serve no single node).  Returns the
    (leaf position, weight) pairs in draw order."""
    root = search.tree.root_id
    n = search.tree.leaf_count_total
    draws = []
    for _ in range(count):
        pos = rng.randrange(n)
        draws.append((pos, search.draw(pos, root)))
    return draws


def _split_best(search: PruningSearch, k: int, key) -> None:
    """Split the internal pruning node with the largest key (smallest id
    on ties) until the pruning has k nodes."""
    tree = search.tree
    # k <= leaf_count_total, and a pruning of leaves only has that many
    # nodes, so each split finds an internal node.
    while len(search.pruning) < k:
        search.split(max((v for v in search.pruning if not tree.is_leaf(v)), key=key))


def run_weight(tree: HierTree, oracle: Oracle, k: int, budget: Budget, seed: int) -> PruningResult:
    """Split the heaviest pruning node k-1 times, then spend the whole
    basic budget on uniform leaf draws used only to refine the output."""
    search = PruningSearch(tree, oracle)
    _check_run_args(tree, k, budget)
    _split_best(search, k, search.mass.__getitem__)
    _draw_all(search, random.Random(seed), budget.basic)
    return search.finish()


def _run_scored(tree, oracle, k, budget, seed, score_fn) -> PruningResult:
    search = PruningSearch(tree, oracle)
    _check_run_args(tree, k, budget)
    draws = sorted(_draw_all(search, random.Random(seed), budget.basic), key=itemgetter(0))
    pos_sorted = [pos for pos, _ in draws]
    val_sorted = [x for _, x in draws]
    mass = search.mass
    scores: dict[int, float | None] = {}

    def rank(v):
        # Nodes that received a draw rank by score above those that did
        # not, which rank by mass.
        if v not in scores:
            lo, hi = tree.span(v)
            sub = val_sorted[bisect_left(pos_sorted, lo) : bisect_left(pos_sorted, hi)]
            scores[v] = score_fn(mass[v], tree.leaf_count(v), sub) if sub else None
        s = scores[v]
        return (False, mass[v]) if s is None else (True, s)

    _split_best(search, k, rank)
    return search.finish()


def run_uniform(tree: HierTree, oracle: Oracle, k: int, budget: Budget, seed: int) -> PruningResult:
    """Score candidate splits with the unbiased discrepancy estimate over a
    fixed, uniformly pre-drawn sample."""
    return _run_scored(tree, oracle, k, budget, seed, uniform_score)


def run_empirical(tree: HierTree, oracle: Oracle, k: int, budget: Budget, seed: int) -> PruningResult:
    """Score candidate splits with the plug-in deviation sum over a fixed,
    uniformly pre-drawn sample."""
    return _run_scored(tree, oracle, k, budget, seed, empirical_score)
