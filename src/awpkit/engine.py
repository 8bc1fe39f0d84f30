"""Adaptive pruning search driven by weight queries.

Starting from the pruning {root} (whose mass is 1 by definition, so the
root is never queried), the loop repeatedly samples a uniform leaf from the
pruning node with the largest optimistic discrepancy estimate, then splits
any node whose pessimistic estimate, scaled by the margin factor beta,
still dominates every rival's optimistic estimate.  Each split costs one
node query, for the right child only; the left child's mass is the
difference.  The loop stops at the requested pruning size, or early when a
basic-query cap is reached.

Every oracle interaction is recorded in a trace (SAMPLE and SPLIT events)
from which a run can be replayed and audited without the oracle.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from math import fsum, inf

from awpkit.estimator import NodeStats, confidence_radius, estimate_discrepancy
from awpkit.oracle import Oracle, QueryLedger
from awpkit.tree import (
    WEIGHT_SUM_TOL,
    HierTree,
    InvariantError,
    is_pruning,
    refine_with_queries,
    tv_distance,
)

RADIUS_MODES = ("hoeffding", "bernstein", "min")

# Tolerance for a derived left-child mass coming out barely negative.
MASS_TOL = 1e-12


@dataclass(frozen=True)
class EngineConfig:
    """Run parameters.

    beta is the split margin (> 1): larger values split sooner at the price
    of a looser approximation guarantee.  max_basic_queries, when set, hard
    stops the run before the next draw once the ledger reaches the cap.
    """

    k: int
    delta: float = 0.05
    beta: float = 4.0
    seed: int = 0
    radius_mode: str = "min"
    max_basic_queries: int | None = None
    strict_paper: bool = False

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not self.beta > 1.0:
            raise ValueError(f"beta must exceed 1, got {self.beta!r}")
        if self.radius_mode not in RADIUS_MODES:
            raise ValueError(f"radius_mode must be one of {RADIUS_MODES}, got {self.radius_mode!r}")
        if self.max_basic_queries is not None and self.max_basic_queries < 0:
            raise ValueError("max_basic_queries must be non-negative")


@dataclass
class PruningResult:
    """Outcome of a pruning search (adaptive or baseline).

    w_p_refined is the output weighting, a list in ``tree.leaf_order``
    order: each pruning node's mass spread over its leaves, with every leaf
    whose weight was individually queried pinned to its true value and
    only the residual mass spread uniformly over the rest.  early_stop is
    None for a normal finish, else "max-queries".
    """

    pruning: tuple[int, ...]
    node_weights: dict[int, float]
    w_p_refined: list[float]
    ledger: QueryLedger
    stats: dict[int, NodeStats]
    trace: tuple[tuple, ...]
    early_stop: str | None = None

    def trace_lines(self) -> list[str]:
        out = []
        for ev in self.trace:
            if ev[0] == "SAMPLE":
                out.append(f"SAMPLE {ev[1]} {ev[2]} {ev[3]!r}")
            else:
                out.append(f"SPLIT {ev[1]} {ev[2]!r}")
        return out


def split_node(
    tree: HierTree,
    oracle: Oracle,
    pruning: list[int],
    trace: list,
    v: int,
    w_v: float,
) -> tuple[tuple[int, float], tuple[int, float]]:
    """Replace pruning node v, of known mass w_v, by its children in place
    and append a SPLIT event.  Returns ((left, mass), (right, mass)).

    Costs one node query, for the right child; the left child's mass is
    w_v minus it, clamped at zero within MASS_TOL.
    """
    l = tree.left(v)
    r = tree.right(v)
    w_r = oracle.query_node(r)
    w_l = w_v - w_r
    if w_l < 0.0:
        if w_l < -MASS_TOL:
            raise InvariantError(f"child mass {w_l!r} below zero at node {v}")
        w_l = 0.0
    pruning.remove(v)
    insort(pruning, l)
    insort(pruning, r)
    trace.append(("SPLIT", v, w_r))
    if not is_pruning(tree, pruning):
        raise InvariantError(f"pruning broken after splitting node {v}")
    return (l, w_l), (r, w_r)


def build_result(
    tree: HierTree,
    oracle: Oracle,
    pruning: list[int],
    queried: dict[int, float],
    stats: dict[int, NodeStats],
    trace: list,
    early_stop: str | None,
) -> PruningResult:
    """Freeze a finished search into a PruningResult, spreading the
    pruning's node masses (read from ``stats``, which must cover every
    pruning node) into the refined weighting.  ``queried`` maps leaf
    positions to their queried weights."""
    ptuple = tuple(pruning)
    node_weights = {v: stats[v].w_star for v in ptuple}
    refined = refine_with_queries(tree, ptuple, node_weights, queried)
    total = fsum(refined)
    if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
        raise InvariantError(f"refined weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}")
    return PruningResult(
        pruning=ptuple,
        node_weights=node_weights,
        w_p_refined=refined,
        ledger=oracle.ledger.snapshot(),
        stats=stats,
        trace=tuple(trace),
        early_stop=early_stop,
    )


def sc_satisfied(beta: float, estimate: float, radius: float, rival_ucb: float) -> bool:
    """Split criterion: beta * (estimate - radius) >= max rival optimistic
    value.  rival_ucb is -inf when the node has no rivals, which makes the
    criterion vacuously true."""
    return beta * (estimate - radius) >= rival_ucb


class AwpRun:
    """Mutable state of one adaptive run; drive via sample_step and
    split_check, or use run_awp for the full loop."""

    def __init__(self, tree: HierTree, oracle: Oracle, config: EngineConfig):
        if oracle.tree is not tree:
            raise ValueError("oracle is bound to a different tree")
        if not (2 <= config.k <= tree.leaf_count_total):
            raise ValueError(f"k must be in 2..{tree.leaf_count_total}, got {config.k}")
        self.tree = tree
        self.oracle = oracle
        self.config = config
        self.rng = random.Random(config.seed)
        root = tree.root_id
        # Root mass is 1 by definition of a weighting; never queried.
        self.stats: dict[int, NodeStats] = {root: NodeStats(root, 1.0, tree.leaf_count(root))}
        self.pruning: list[int] = [root]
        self._ucb: dict[int, float] = {root: inf}
        self._lcb: dict[int, float] = {root: -inf}
        self.trace: list[tuple] = []
        self.queried: dict[int, float] = {}
        self.early_stop: str | None = None

    # -- scoring -----------------------------------------------------------

    def _rescore(self, v: int) -> None:
        if self.tree.is_leaf(v):
            self._ucb[v] = 0.0
            self._lcb[v] = 0.0
            return
        st = self.stats[v]
        if st.m == 0:
            self._ucb[v] = inf
            self._lcb[v] = -inf
            return
        d = estimate_discrepancy(st)
        r = confidence_radius(
            st,
            self.config.k,
            self.config.delta,
            self.config.radius_mode,
            strict_paper=self.config.strict_paper,
        )
        self._ucb[v] = d + r
        self._lcb[v] = d - r

    # -- one basic query ---------------------------------------------------

    def sample_step(self) -> int:
        """Draw one leaf from the most promising internal pruning node
        (largest optimistic estimate, smallest id on ties) and record its
        weight.  Returns the sampled node's id."""
        target = -1
        best = -inf
        for v in self.pruning:
            if self.tree.is_leaf(v):
                continue
            u = self._ucb[v]
            if u > best:
                best = u
                target = v
        if target < 0:
            raise InvariantError("no internal node available to sample")
        lo, hi = self.tree.span(target)
        pos = self.rng.randrange(lo, hi)
        value = self.oracle.query_leaf(pos, attributed_to=target)
        self.queried[pos] = value
        self.stats[target].push(value)
        self.trace.append(("SAMPLE", target, self.tree.leaf_order[pos], value))
        self._rescore(target)
        return target

    # -- splitting ---------------------------------------------------------

    def _split(self, v: int) -> None:
        for c, w in split_node(self.tree, self.oracle, self.pruning, self.trace, v, self.stats[v].w_star):
            self.stats[c] = NodeStats(c, w, self.tree.leaf_count(c))
            self._rescore(c)
        del self._ucb[v], self._lcb[v]

    def split_check(self) -> list[int]:
        """Split, in ascending node-id order, every node whose split
        criterion holds, re-checking after each split, until none qualifies
        or the pruning reaches size k.  Returns the nodes split."""
        performed = []
        beta = self.config.beta
        while len(self.pruning) < self.config.k:
            # Top two optimistic values let each node see max over rivals in O(1).
            top1_node = -1
            top1 = -inf
            top2 = -inf
            for v in self.pruning:
                u = self._ucb[v]
                if u > top1:
                    top2 = top1
                    top1 = u
                    top1_node = v
                elif u > top2:
                    top2 = u
            found = -1
            for v in self.pruning:
                if self.tree.is_leaf(v) or self.stats[v].m == 0:
                    continue
                rival = top2 if v == top1_node else top1
                # Same test as sc_satisfied: lcb is estimate minus radius.
                if beta * self._lcb[v] >= rival:
                    found = v
                    break
            if found < 0:
                break
            self._split(found)
            performed.append(found)
        return performed

    # -- assembling the outcome -------------------------------------------

    def result(self) -> PruningResult:
        return build_result(
            self.tree, self.oracle, self.pruning, self.queried, dict(self.stats), self.trace, self.early_stop
        )


def run_awp(tree: HierTree, oracle: Oracle, config: EngineConfig) -> PruningResult:
    """Run the adaptive loop to a size-k pruning (or an early stop)."""
    state = AwpRun(tree, oracle, config)
    cap = config.max_basic_queries
    # k <= leaf_count_total, and a pruning of leaves only has that many
    # nodes, so a pruning smaller than k always has an internal node.
    while len(state.pruning) < config.k:
        if cap is not None and oracle.ledger.basic_queries >= cap:
            state.early_stop = "max-queries"
            break
        state.sample_step()
        state.split_check()
    return state.result()


def normalized_distance(result: PruningResult, truth: list[float]) -> float:
    """Total variation distance between the refined output weighting and
    the true target, given as a list in ``tree.leaf_order`` order."""
    return tv_distance(result.w_p_refined, truth)
