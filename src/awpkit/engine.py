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

The per-draw path, ``run_awp``'s loop: ``AwpRun.sample_step`` takes the
top of the ucb heap, draws a leaf position in that node's span, makes one
``Oracle.query_leaf`` call, records the answer in the trace, ``queried``
and the node's ``drawn`` set, and pushes it into the node's ``NodeStats``,
which updates the estimate.  One ``ConfidenceRadii.radius`` call then
gives the radius, and the node's new ucb and lcb go on the heaps;
``AwpRun.split_check`` follows.  A run builds its ``ConfidenceRadii``
from its config once, and it lives as long as the ``AwpRun``: the
arguments are checked there, and each sample size's log term and
Hoeffding factor are computed on first use and kept (see
``awpkit.estimator``), where mode "min" also skips the Bernstein radius
at sample sizes where it cannot win.  The baselines draw their whole
budget at once, once per (k, run) cell, and each answers it with one
``Oracle.query_leaves`` call.
"""

from __future__ import annotations

import random
from bisect import insort
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush, heapreplace
from math import inf

from awpkit.estimator import RADIUS_MODES, ConfidenceRadii, NodeStats
from awpkit.oracle import Oracle, QueryLedger
from awpkit.tree import (
    MASS_TOL,
    HierTree,
    InvariantError,
    _discrepancy,
    _exact_sum,
    _instance_stats,
    _refined_shares,
    _refined_tv,
    is_pruning,
    refine_with_queries,
    tv_distance,
)


@dataclass(frozen=True)
class EngineConfig:
    """Run parameters.

    beta is the split margin (finite, > 1): larger values split sooner at
    the price of a looser approximation guarantee.  max_basic_queries, when
    set, hard stops the run before the next draw once this run's own basic
    queries reach the cap.
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
        if not 1.0 < self.beta < inf:
            raise ValueError(f"beta must exceed 1 and be finite, got {self.beta!r}")
        if self.radius_mode not in RADIUS_MODES:
            raise ValueError(f"radius_mode must be one of {RADIUS_MODES}, got {self.radius_mode!r}")
        if self.max_basic_queries is not None and self.max_basic_queries < 0:
            raise ValueError("max_basic_queries must be non-negative")


@dataclass
class PruningResult:
    """Outcome of a pruning search (adaptive or baseline).

    pruning holds the node ids, ascending, and node_weights their masses;
    tree is the tree searched, and queried maps the leaf positions whose
    weights the search queried to those weights.  ledger counts this
    search's own oracle calls, whatever the oracle served before or serves
    after; trace, the only per-draw record, lists them as SAMPLE (node,
    leaf label, weight) and SPLIT (node, right child's mass) events.
    early_stop is None for a normal finish, else "max-queries".

    The output weighting is each pruning node's mass spread over its
    leaves, with every queried leaf pinned to its true value and only the
    residual mass spread uniformly over the rest.  A result holds it node
    by node (see ``tree._refined_shares``), which is all that its weight
    sum check and ``normalized_distance`` read; ``w_p_refined``, the
    weighting as a list in ``tree.leaf_order`` order, is built from it by
    ``refine_with_queries`` on first access and kept.
    """

    pruning: tuple[int, ...]
    node_weights: dict[int, float]
    ledger: QueryLedger
    trace: tuple[tuple, ...]
    tree: HierTree
    queried: dict[int, float]
    early_stop: str | None = None
    _shares: list | None = field(default=None, init=False, repr=False, compare=False)
    _refined: list[float] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def _node_shares(self) -> list[tuple[int, int, int, float, list[int]]]:
        """The output weighting node by node, ``(v, lo, hi, share, pins)``
        per pruning node (see ``tree._refined_shares``), computed once."""
        if self._shares is None:
            self._shares = _refined_shares(self.tree, self.pruning, self.node_weights, self.queried)
        return self._shares

    @property
    def w_p_refined(self) -> list[float]:
        """The output weighting as a list in ``tree.leaf_order`` order,
        built on first access and kept."""
        if self._refined is None:
            self._refined = refine_with_queries(self.tree, self.pruning, self.node_weights, self.queried)
        return self._refined

    def trace_lines(self, leaf_texts: dict[str, str] | None = None) -> list[str]:
        """The trace as text lines, ``SAMPLE node label weight`` and
        ``SPLIT node mass``, with floats in repr form.

        ``leaf_texts`` maps a leaf label to its ``"label weight"`` text and
        is filled as labels are met, so results drawn from one oracle can
        share it and render each leaf once.  It is keyed by label, not by
        weight, since ``0.0 == -0.0`` but their reprs differ.  Without one,
        a fresh map is used.  Each node's ``"SAMPLE node "`` head is
        likewise rendered once per call.
        """
        return _trace_lines(self.trace, {} if leaf_texts is None else leaf_texts)


def _trace_lines(events: Iterable[tuple], leaf_texts: dict[str, str]) -> list[str]:
    """``PruningResult.trace_lines`` of a trace holding ``events``."""
    heads: dict[int, str] = {}
    out = []
    for ev in events:
        if ev[0] == "SAMPLE":
            label = ev[2]
            text = leaf_texts.get(label)
            if text is None:
                text = leaf_texts[label] = f"{label} {ev[3]!r}"
            head = heads.get(ev[1])
            if head is None:
                head = heads[ev[1]] = f"SAMPLE {ev[1]} "
            out.append(head + text)
        else:
            out.append(f"SPLIT {ev[1]} {ev[2]!r}")
    return out


class PruningSearch:
    """The state every pruning search shares, grown from the pruning {root}.

    ``pruning`` holds the node ids in ascending order, ``mass`` each node's
    known mass (the root's is 1 by definition of a weighting, so it is
    never queried), ``queried`` maps leaf positions to their queried
    weights, and ``trace`` records every query as a SAMPLE or SPLIT event.
    The oracle's counts at the start are kept, so the result's ledger is
    this search's own spend, whatever the oracle served before.
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
        self._start = (oracle.ledger.basic_queries, oracle.ledger.node_queries)

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
        return l, r

    def finish(self, early_stop: str | None = None) -> PruningResult:
        """Freeze the search into a PruningResult, whose output weighting
        spreads the pruning's node masses over the leaves not queried.

        A split keeps the pruning a partition of the leaves, so it is
        checked once here, before any result is built.  The weighting's
        sum is checked without building its list: it is the exact sum of
        each node's share times its unqueried leaves, plus every queried
        weight (each queried position lies in one node's span), correctly
        rounded (``tree._exact_sum``), so it equals ``fsum`` over the list
        bit for bit.  Like the engine's other mass checks it allows
        ``MASS_TOL``, since the target's total may be off 1 by up to
        ``WEIGHT_SUM_TOL`` (see ``tree.MASS_TOL``).
        """
        ptuple = tuple(self.pruning)
        if not is_pruning(self.tree, ptuple):
            raise InvariantError(f"pruning broken: {ptuple} does not partition the leaves")
        led = self.oracle.ledger
        result = PruningResult(
            pruning=ptuple,
            node_weights={v: self.mass[v] for v in ptuple},
            ledger=QueryLedger(led.basic_queries - self._start[0], led.node_queries - self._start[1]),
            trace=tuple(self.trace),
            tree=self.tree,
            queried=dict(self.queried),
            early_stop=early_stop,
        )
        groups = [(share, {0.0: hi - lo - len(pins)}) for _, lo, hi, share, pins in result._node_shares]
        total = _exact_sum(groups, result.queried.values())
        if not abs(total - 1.0) <= MASS_TOL:
            raise InvariantError(f"refined weights sum to {total!r}, expected 1 within {MASS_TOL}")
        return result


class AwpRun(PruningSearch):
    """Mutable state of one adaptive run; drive via sample_step and
    split_check, or use run_awp for the full loop.

    Only the internal nodes of the pruning, the open nodes, are scored: a
    pruning leaf is never drawn from or split, and it is every node's
    rival at an optimistic value of exactly 0 (a single leaf has no
    discrepancy).  Every pick takes the largest score, and the smallest id
    on ties.

    ``drawn[v]`` holds the distinct leaf positions open node v drew itself,
    so the keys of ``drawn`` are exactly the open nodes.  Until they cover
    v, its ucb and lcb are the estimate plus and minus the radius; after,
    both are ``_discrepancy`` over ``queried`` in span order, and v
    qualifies whenever it has the top ucb.

    No pick scans the pruning per query; two max-heaps answer them:
      - ``(-ucb, v)``, exactly one entry for every open node v;
      - ``(-(beta * lcb), v)`` for every open node v with a draw.
    By tuple order the top entry has the largest value and the smallest
    id on ties.  A draw takes the top of the ucb heap and replaces that
    entry in place with the node's new score; a split filters the split
    node's entry out and re-heapifies.  So top1 is ``heap[0]`` and top2,
    the second-best ucb, is the better of ``heap[1]`` and ``heap[2]``.

    The lcb heap is lazy: each draw pushes the node's new entry, and an
    entry is live while its node is open and its key is the node's current
    ``-(beta * lcb)``, the same float expression the push used.  Other
    entries are popped once they reach the top.

    A split check filters, then scans.  Every node's rival is at least
    top2, so while the best lcb key lies below top2 no node qualifies, and
    the check ends after one look at the lcb heap; most checks end there.
    Otherwise some node qualifies iff the best lcb key reaches top1, the
    top ucb, or the top ucb node's own key reaches top2.  Only then, on
    the rare hit, is the pruning scanned in id order for the first
    qualifying node; a pruning leaf never has an lcb, so the scan skips
    it.
    """

    def __init__(self, tree: HierTree, oracle: Oracle, config: EngineConfig):
        super().__init__(tree, oracle)
        if not (2 <= config.k <= tree.leaf_count_total):
            raise ValueError(f"k must be in 2..{tree.leaf_count_total}, got {config.k}")
        self.config = config
        self.rng = random.Random(config.seed)
        self.radii = ConfidenceRadii(
            config.k, config.delta, config.radius_mode, strict_paper=config.strict_paper
        )
        root = tree.root_id
        self.stats: dict[int, NodeStats] = {root: NodeStats(root, self.mass[root], tree.leaf_count(root))}
        self.drawn: dict[int, set[int]] = {root: set()}
        # Pessimistic estimates of the open nodes with at least one draw.
        self._lcb: dict[int, float] = {}
        # k >= 2 leaves, so the root is internal.  It opens with no draw:
        # an infinite ucb and no lcb.
        self._ucb_heap: list[tuple[float, int]] = [(-inf, root)]
        self._lcb_heap: list[tuple[float, int]] = []
        self.early_stop: str | None = None

    # -- one basic query ---------------------------------------------------

    def sample_step(self) -> int:
        """Draw one leaf from the most promising internal pruning node
        (largest optimistic estimate, smallest id on ties) and record its
        weight.  Returns the sampled node's id."""
        heap = self._ucb_heap
        if not heap:
            raise InvariantError("no internal node available to sample")
        target = heap[0][1]
        tree = self.tree
        lo = tree._lo[target]
        hi = tree._hi[target]
        # randrange(lo, hi) returns this after its argument checks.
        pos = lo + self.rng._randbelow(hi - lo)
        value = self.oracle.query_leaf(pos)
        self.queried[pos] = value
        self.trace.append(("SAMPLE", target, tree._order[pos], value))
        st = self.stats[target]
        st.push(value)
        drawn = self.drawn[target]
        drawn.add(pos)
        if len(drawn) == hi - lo:
            ucb = lcb = _discrepancy([self.queried[p] for p in range(lo, hi)])
        else:
            d = st.estimate
            r = self.radii.radius(st)
            ucb = d + r
            lcb = d - r
        self._lcb[target] = lcb
        heapreplace(heap, (-ucb, target))
        heappush(self._lcb_heap, (-(self.config.beta * lcb), target))
        return target

    # -- splitting ---------------------------------------------------------

    def _split(self, v: int) -> None:
        """Split open node v: drop its scores and open its internal
        children, which have no draw yet, so an infinite ucb and no lcb."""
        del self._lcb[v], self.drawn[v]
        heap = self._ucb_heap
        heap[:] = [entry for entry in heap if entry[1] != v]
        heapify(heap)
        tree = self.tree
        for c in self.split(v):
            if not tree.is_leaf(c):
                self.stats[c] = NodeStats(c, self.mass[c], tree.leaf_count(c))
                self.drawn[c] = set()
                heappush(heap, (-inf, c))

    def split_check(self) -> list[int]:
        """Split, in ascending node-id order, every node whose split
        criterion holds, re-checking after each split, until none qualifies
        or the pruning reaches size k.  Returns the nodes split."""
        performed = []
        beta = self.config.beta
        heap = self._ucb_heap
        lcb = self._lcb
        lcb_heap = self._lcb_heap
        pruning = self.pruning
        drawn = self.drawn
        k = self.config.k
        while len(pruning) < k:
            # The best live lcb key, popping the dead entries above it.
            key = -inf
            while lcb_heap:
                neg, v = lcb_heap[0]
                if v in lcb and -(beta * lcb[v]) == neg:
                    key = -neg
                    break
                heappop(lcb_heap)
            # Each node's rival is the best optimistic value among the
            # others: top2 for top1_node, top1 for the rest.  Pruning leaves
            # all sit at 0, so they only set the floor.
            floor = 0.0 if len(drawn) < len(pruning) else -inf
            top1, top1_node = (-heap[0][0], heap[0][1]) if heap else (-inf, -1)
            if top1 <= floor:
                top1 = top2 = floor
                top1_node = -1
            else:
                # heap[0] is top1_node's entry, so the better of heap[1] and
                # heap[2] is the best of the other open nodes.
                if len(heap) > 2:
                    top2 = -(heap[1] if heap[1] < heap[2] else heap[2])[0]
                else:
                    top2 = -heap[1][0] if len(heap) == 2 else -inf
                if floor > top2:
                    top2 = floor
            # beta * (estimate - radius) >= rival holds for some node with a
            # draw iff the best lcb key reaches top1, or top1_node's own
            # key reaches top2 (a best key of top1_node's own that reaches
            # top1 reaches top2 too).  Every rival is at least top2, so a
            # best key below top2 rules out every node with one look.
            if key < top2 or not (key >= top1 or (top1_node in lcb and beta * lcb[top1_node] >= top2)):
                break
            for v in pruning:
                if v in lcb and beta * lcb[v] >= (top2 if v == top1_node else top1):
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
    # The cap counts this run's own queries, from the oracle's count at its
    # start.
    if cap is not None:
        cap += state._start[0]
    # k <= leaf_count_total, and a pruning of leaves only has that many
    # nodes, so a pruning smaller than k always has an internal node.
    while len(state.pruning) < config.k:
        if cap is not None and oracle.ledger.basic_queries >= cap:
            state.early_stop = "max-queries"
            break
        state.sample_step()
        state.split_check()
    return state.result()


def normalized_distance(result: PruningResult, truth: Mapping[str, float]) -> float:
    """Total variation distance between the refined output weighting and
    the true target ``truth``, keyed by leaf label like every target of
    the package: the instance's ``WeightTable`` or another mapping over
    exactly the tree's leaves (any other leaf set raises ValueError).

    It equals ``tv_distance(result.w_p_refined, vals)``, for the target's
    values ``vals`` in ``tree.leaf_order`` order, bit for bit, and is
    computed from the result's pruning, node shares and pins without that
    list (see ``tree._refined_tv``).  The target is read through its
    statistics entry for ``result.tree`` (see ``tree._instance_stats``):
    a table keeps its entry, so a long span of a few-valued instance
    costs the instance's distinct values, counted once per instance from
    its value index (see ``tree._refined_tv``), plus its pins, while any
    other mapping gets a fresh entry, dropped after the call.  Any other
    node costs one pass over its leaves.  A result whose terms do not sum
    as finite floats (a non-finite node mass, say) is scored on
    ``w_p_refined`` itself, so it gets ``tv_distance``'s value or error.
    """
    stats = _instance_stats(result.tree, truth)
    try:
        return _refined_tv(result._node_shares, result.queried, stats)
    except (ValueError, OverflowError):
        return tv_distance(result.w_p_refined, stats.vals)
