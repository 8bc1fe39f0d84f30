"""Adaptive pruning search driven by weight queries.

Starting from the pruning {root} (whose mass is 1 by definition, so the
root is never queried), the loop repeatedly samples a uniform leaf from the
pruning node with the largest optimistic discrepancy estimate, then splits
any node whose pessimistic estimate, scaled by the margin factor beta,
still dominates every rival's optimistic estimate.  Each split costs one
node query, for the right child only; the left child's mass is the
difference.  The loop stops at the requested pruning size, or early when a
basic-query cap is reached.

Every run ends, cap or no cap: once a node's own draws cover its leaves,
both its estimates are its exact discrepancy, so it qualifies as soon as
it holds the largest optimistic estimate.  Between two splits every draw
thus serves a node not yet covered, which takes a coupon-collector number
of its own draws.

Every oracle interaction is recorded in a trace (SAMPLE and SPLIT events)
from which a run can be replayed and audited without the oracle.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from math import fsum, inf

from awpkit.estimator import RADIUS_MODES, NodeStats, confidence_radius, estimate_discrepancy
from awpkit.oracle import Oracle, QueryLedger
from awpkit.tree import (
    WEIGHT_SUM_TOL,
    HierTree,
    InvariantError,
    _discrepancy,
    is_pruning,
    refine_with_queries,
    tv_distance,
)

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

    pruning holds the node ids, ascending, and node_weights their masses.
    w_p_refined is the output weighting, a list in ``tree.leaf_order``
    order: each pruning node's mass spread over its leaves, with every leaf
    whose weight was individually queried pinned to its true value and
    only the residual mass spread uniformly over the rest.  ledger counts
    the oracle calls; trace, the only per-draw record, lists them as
    SAMPLE (node, leaf label, weight) and SPLIT (node, right child's mass)
    events.  early_stop is None for a normal finish, else "max-queries".
    """

    pruning: tuple[int, ...]
    node_weights: dict[int, float]
    w_p_refined: list[float]
    ledger: QueryLedger
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


class PruningSearch:
    """The state every pruning search shares, grown from the pruning {root}.

    ``pruning`` holds the node ids in ascending order, ``mass`` each node's
    known mass (the root's is 1 by definition of a weighting, so it is
    never queried), ``queried`` maps leaf positions to their queried
    weights, and ``trace`` records every query as a SAMPLE or SPLIT event.
    """

    def __init__(self, tree: HierTree, oracle: Oracle):
        if oracle.tree is not tree:
            raise ValueError("oracle is bound to a different tree")
        self.tree = tree
        self.oracle = oracle
        self.pruning: list[int] = [tree.root_id]
        self.mass: dict[int, float] = {tree.root_id: 1.0}
        self.queried: dict[int, float] = {}
        self.trace: list[tuple] = []

    def draw(self, pos: int, v: int) -> float:
        """Query the weight of the leaf at position pos on behalf of node v."""
        value = self.oracle.query_leaf(pos)
        self.queried[pos] = value
        self.trace.append(("SAMPLE", v, self.tree.leaf_order[pos], value))
        return value

    def split(self, v: int) -> tuple[int, int]:
        """Replace pruning node v by its children and return them.

        Costs one node query, for the right child; the left child's mass is
        v's minus it, clamped at zero within MASS_TOL.
        """
        tree = self.tree
        l = tree.left(v)
        r = tree.right(v)
        w_r = self.oracle.query_node(r)
        w_l = self.mass[v] - w_r
        if w_l < 0.0:
            if w_l < -MASS_TOL:
                raise InvariantError(f"child mass {w_l!r} below zero at node {v}")
            w_l = 0.0
        self.mass[l] = w_l
        self.mass[r] = w_r
        pruning = self.pruning
        pruning.remove(v)
        insort(pruning, l)
        insort(pruning, r)
        self.trace.append(("SPLIT", v, w_r))
        if not is_pruning(tree, pruning):
            raise InvariantError(f"pruning broken after splitting node {v}")
        return l, r

    def finish(self, early_stop: str | None = None) -> PruningResult:
        """Freeze the search into a PruningResult, spreading the pruning's
        node masses into the refined weighting."""
        ptuple = tuple(self.pruning)
        node_weights = {v: self.mass[v] for v in ptuple}
        refined = refine_with_queries(self.tree, ptuple, node_weights, self.queried)
        total = fsum(refined)
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            raise InvariantError(f"refined weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}")
        return PruningResult(
            pruning=ptuple,
            node_weights=node_weights,
            w_p_refined=refined,
            ledger=self.oracle.ledger.snapshot(),
            trace=tuple(self.trace),
            early_stop=early_stop,
        )


class AwpRun(PruningSearch):
    """Mutable state of one adaptive run; drive via sample_step and
    split_check, or use run_awp for the full loop.

    Only the internal nodes of the pruning, the open nodes, are scored: a
    pruning leaf is never drawn from or split, and it is every node's
    rival at an optimistic value of exactly 0 (a single leaf has no
    discrepancy).  Every pick takes the largest score, and the smallest id
    on ties.

    ``drawn[v]`` holds the distinct leaf positions open node v drew itself.
    Until they cover v, its ucb and lcb are the estimate plus and minus the
    radius; after, both are ``_discrepancy`` over ``queried`` in span
    order, and v qualifies whenever it has the top ucb.

    No pick scans the pruning per query; two lazy max-heaps answer them:
      - ``(-ucb, v, stamp)`` for every open node v;
      - ``(-(beta * lcb), v, stamp)`` for every open node v with a draw.
    Each rescore of v takes a fresh stamp, records it as ``_stamp[v]`` (the
    stamp of v's live entries) and pushes both entries; a split deletes
    v's stamp, so the keys of ``_stamp`` are exactly the open nodes.  An
    entry whose stamp is not live is popped once it reaches the top, so
    the top live entry has the largest value and, by tuple order, the
    smallest id on ties.

    A draw takes the top of the ucb heap.  A split check filters, then
    scans: some node qualifies iff the best lcb key other than the top
    ucb node's reaches the top ucb, or the top ucb node's own key reaches
    the second-best ucb.  Only then, on the rare hit, is the pruning
    scanned in id order for the first qualifying node; a pruning leaf
    never has an lcb, so the scan skips it.
    """

    def __init__(self, tree: HierTree, oracle: Oracle, config: EngineConfig):
        super().__init__(tree, oracle)
        if not (2 <= config.k <= tree.leaf_count_total):
            raise ValueError(f"k must be in 2..{tree.leaf_count_total}, got {config.k}")
        self.config = config
        self.rng = random.Random(config.seed)
        root = tree.root_id
        self.stats: dict[int, NodeStats] = {root: NodeStats(root, self.mass[root], tree.leaf_count(root))}
        self.drawn: dict[int, set[int]] = {root: set()}
        # Pessimistic estimates of the open nodes with at least one draw.
        self._lcb: dict[int, float] = {}
        self._ucb_heap: list[tuple[float, int, int]] = []
        self._lcb_heap: list[tuple[float, int, int]] = []
        self._stamp: dict[int, int] = {}
        self._clock = count()
        self.early_stop: str | None = None
        # k >= 2 leaves, so the root is internal.
        self._rescore(root)

    # -- scoring -----------------------------------------------------------

    def _rescore(self, v: int) -> None:
        stamp = self._stamp[v] = next(self._clock)
        st = self.stats[v]
        if st.m == 0:
            heappush(self._ucb_heap, (-inf, v, stamp))
            return
        lo, hi = self.tree._span[v]
        if len(self.drawn[v]) == hi - lo:
            ucb = lcb = _discrepancy([self.queried[p] for p in range(lo, hi)])
        else:
            cfg = self.config
            d = estimate_discrepancy(st)
            r = confidence_radius(st, cfg.k, cfg.delta, cfg.radius_mode, strict_paper=cfg.strict_paper)
            ucb, lcb = d + r, d - r
        self._lcb[v] = lcb
        heappush(self._ucb_heap, (-ucb, v, stamp))
        heappush(self._lcb_heap, (-(self.config.beta * lcb), v, stamp))

    def _top(self, heap: list, skip: int = -1) -> tuple[float, int]:
        """Largest live (value, id) of a score heap, ignoring node ``skip``;
        (-inf, -1) when there is none."""
        live = self._stamp
        held = None
        while heap:
            _, v, stamp = heap[0]
            if live.get(v) != stamp:
                heappop(heap)
            elif v == skip:
                held = heappop(heap)
            else:
                break
        top = (-heap[0][0], heap[0][1]) if heap else (-inf, -1)
        if held is not None:
            heappush(heap, held)
        return top

    # -- one basic query ---------------------------------------------------

    def sample_step(self) -> int:
        """Draw one leaf from the most promising internal pruning node
        (largest optimistic estimate, smallest id on ties) and record its
        weight.  Returns the sampled node's id."""
        target = self._top(self._ucb_heap)[1]
        if target < 0:
            raise InvariantError("no internal node available to sample")
        lo, hi = self.tree._span[target]
        pos = self.rng.randrange(lo, hi)
        self.stats[target].push(self.draw(pos, target))
        self.drawn[target].add(pos)
        self._rescore(target)
        return target

    # -- splitting ---------------------------------------------------------

    def _split(self, v: int) -> None:
        del self._stamp[v], self._lcb[v], self.drawn[v]
        for c in self.split(v):
            self.stats[c] = NodeStats(c, self.mass[c], self.tree.leaf_count(c))
            if not self.tree.is_leaf(c):
                self.drawn[c] = set()
                self._rescore(c)

    def split_check(self) -> list[int]:
        """Split, in ascending node-id order, every node whose split
        criterion holds, re-checking after each split, until none qualifies
        or the pruning reaches size k.  Returns the nodes split."""
        performed = []
        beta = self.config.beta
        while len(self.pruning) < self.config.k:
            # Each node's rival is the best optimistic value among the
            # others: top2 for top1_node, top1 for the rest.  Pruning leaves
            # all sit at 0, so they only set the floor.
            floor = 0.0 if len(self._stamp) < len(self.pruning) else -inf
            top1, top1_node = self._top(self._ucb_heap)
            if top1 <= floor:
                top1 = top2 = floor
                top1_node = -1
            else:
                top2 = max(self._top(self._ucb_heap, top1_node)[0], floor)
            # beta * (estimate - radius) >= rival holds for some node with a
            # draw iff it holds for the best key of the lcb heap, or for
            # top1_node against its own rival.
            if not (
                self._top(self._lcb_heap, top1_node)[0] >= top1
                or (top1_node in self._lcb and beta * self._lcb[top1_node] >= top2)
            ):
                break
            for v in self.pruning:
                if v in self._lcb and beta * self._lcb[v] >= (top2 if v == top1_node else top1):
                    break
            else:
                raise InvariantError("split filter found a node that the scan did not")
            self._split(v)
            performed.append(v)
        return performed

    # -- assembling the outcome -------------------------------------------

    def result(self) -> PruningResult:
        return self.finish(self.early_stop)


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
