"""Non-adaptive baselines run under a matched query budget.

All three baselines produce a size-k pruning with exactly k - 1 splits,
so k - 1 node queries, and spend a given number of basic queries.  Given
the size and basic-query count an adaptive run reached, they spend
exactly what it spent, making their output weightings directly
comparable.

WEIGHT ignores samples for its split choices and always splits the pruning
node with the largest known mass.  UNIFORM and EMPIRICAL draw their whole
basic-query budget up front, uniformly from the full leaf set, and score
every candidate node from the drawn leaves that happen to fall under it:
UNIFORM with the unbiased discrepancy estimate, EMPIRICAL with the plug-in
sum (n/m) * sum |node_average - z|, which looks like the discrepancy but
concentrates around the wrong value when rare heavy leaves are missed.

The three baselines of one (k, run) cell draw the same leaf positions
from the same seed and get the same answers, so ``cli.run_experiment``
builds one ``BaselineCell`` per cell and runs each of them on it, as
``run_weight(cell, k)`` and so on.  The cell holds the draw, its sort
order, the SAMPLE events and the queried map, and each node's deviation
sum, which both scores need; each baseline still answers the draw with
its own oracle call, which charges its own ledger, and keeps its own
trace, queried map and result.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from heapq import heappop, heappush
from itertools import repeat
from math import fsum
from operator import sub

from awpkit.engine import PruningResult, PruningSearch
from awpkit.oracle import Oracle
from awpkit.tree import HierTree


def _deviation_sum(w_star: float, n_leaves: int, vals: list[float]) -> float:
    """The deviation sum of a node's subsample, ``fsum`` of |z - w*/n| over
    its draws z, which both scores need.  It is the one place their
    arguments are checked."""
    if not n_leaves >= 1:
        raise ValueError(f"a node has at least 1 leaf, got {n_leaves!r}")
    if not w_star >= 0.0:
        raise ValueError(f"a node mass is non-negative, got {w_star!r}")
    if not vals:
        raise ValueError("empty subsample")
    return fsum(map(abs, map(sub, vals, repeat(w_star / n_leaves))))


def _uniform(w_star: float, n_leaves: int, vals: list[float], deviation: float) -> float:
    return w_star + (n_leaves / len(vals)) * (deviation - fsum(vals))


def _empirical(w_star: float, n_leaves: int, vals: list[float], deviation: float) -> float:
    return (n_leaves / len(vals)) * deviation


def uniform_score(w_star: float, n_leaves: int, values) -> float:
    """Unbiased discrepancy estimate of a node from a uniform subsample."""
    vals = list(map(float, values))
    return _uniform(w_star, n_leaves, vals, _deviation_sum(w_star, n_leaves, vals))


def empirical_score(w_star: float, n_leaves: int, values) -> float:
    """Plug-in deviation sum (n/m) * sum |node_average - z|."""
    vals = list(map(float, values))
    return _empirical(w_star, n_leaves, vals, _deviation_sum(w_star, n_leaves, vals))


def _draw_positions(rng: random.Random, n: int, count: int) -> list[int]:
    """``count`` uniform-with-replacement leaf positions below n, in draw
    order, as ``rng.randrange(n)`` per draw would give them."""
    # randrange(n) returns _randbelow(n) after its argument checks, which
    # returns the first getrandbits(n.bit_length()) below n.  So the draws
    # are the values below n in that stream of getrandbits calls, taken in
    # batches no longer than the draws still missing: the last call is the
    # last draw, and the generator ends in randrange's state.
    bits = n.bit_length()
    positions: list[int] = []
    while len(positions) < count:
        positions += filter(n.__gt__, map(rng.getrandbits, repeat(bits, count - len(positions))))
    return positions


class BaselineCell:
    """The work the baselines of one (k, run) cell share.

    Built for a tree, an oracle bound to that tree, a non-negative
    basic-query count and a seed (any other oracle or count raises
    ValueError), it draws ``count`` uniform leaf positions over the whole
    leaf set from ``random.Random(seed)`` (``positions``, in draw order)
    and sorts them (``pos_sorted``, and ``order``, the draw indices in
    that order, with equal positions in draw order).  The first baseline
    to answer the draw
    (``_draw_budget``) fills in what depends on the answers: the values in
    sorted order (``val_sorted``), the SAMPLE events, which are immutable
    and so are shared by every trace, and the queried map, built in
    ascending position order so that ``tree._refined_shares`` sorts its
    keys in linear time.

    ``deviation`` keeps each node's deviation sum, keyed on the node and
    its mass, so the two scored baselines compute it once for a node both
    meet.  That is exact: the unbiased score is defined over |z - a| and
    the plug-in score over |a - z|, with a = w*/n, and IEEE-754
    subtraction rounds to nearest symmetrically, so |fl(z - a)| equals
    |fl(a - z)| and both sums ``fsum`` the same floats.
    """

    def __init__(self, tree: HierTree, oracle: Oracle, count: int, seed):
        if oracle.tree is not tree:
            raise ValueError("oracle is bound to a different tree")
        if count < 0:
            raise ValueError(f"basic query count must be non-negative, got {count}")
        self.tree = tree
        self.oracle = oracle
        self.positions = _draw_positions(random.Random(seed), tree.leaf_count_total, count)
        self.order = sorted(range(len(self.positions)), key=self.positions.__getitem__)
        self.pos_sorted = list(map(self.positions.__getitem__, self.order))
        self.val_sorted: list[float] = []
        self._events: tuple[tuple, ...] | None = None
        self._queried: dict[int, float] = {}
        self._deviations: dict[tuple[int, float], float] = {}

    def deviation(self, v: int, mass: float, vals: list[float]) -> float:
        """``_deviation_sum`` of node v with the given mass, over ``vals``,
        its subsample of this cell's draw; computed once per (v, mass)."""
        key = (v, mass)
        dev = self._deviations.get(key)
        if dev is None:
            dev = self._deviations[key] = _deviation_sum(mass, self.tree.leaf_count(v), vals)
        return dev


def _draw_budget(search: PruningSearch, cell: BaselineCell) -> list[float]:
    """Answer the cell's draw for ``search`` with one
    ``Oracle.query_leaves`` call, which charges this search's ledger, and
    record it in the search's trace, as SAMPLE events of the root (the
    draws serve no single node), and in its queried map.  Returns the
    values, in draw order.

    The events and the queried map are the cell's, built from the first
    answer: the cell is bound to one oracle, which answers a position the
    same way every time."""
    values = search.oracle.query_leaves(cell.positions)
    if cell._events is None:
        cell.val_sorted = list(map(values.__getitem__, cell.order))
        labels = map(search.tree.leaf_order.__getitem__, cell.positions)
        cell._events = tuple(zip(repeat("SAMPLE"), repeat(search.tree.root_id), labels, values))
        cell._queried = dict(zip(cell.pos_sorted, cell.val_sorted))
    search.queried.update(cell._queried)
    search.trace.extend(cell._events)
    return values


def _search(cell: BaselineCell, k: int) -> PruningSearch:
    """A baseline's search on the cell's tree and oracle, once k is checked."""
    n = cell.tree.leaf_count_total
    if not (1 <= k <= n):
        raise ValueError(f"k must be in 1..{n}, got {k}")
    return PruningSearch(cell.tree, cell.oracle)


def _split_best(search: PruningSearch, k: int, key) -> None:
    """Split the internal pruning node with the smallest key (smallest id
    on ties) until the pruning has k nodes.  A node's key is computed once,
    when it joins the pruning, so it must not change after that."""
    tree = search.tree
    # Each internal pruning node is in the heap once.  k <= leaf_count_total,
    # and a pruning of leaves only has that many nodes, so each split finds
    # an internal node; in particular the root is internal when k > 1.
    heap = [(key(tree.root_id), tree.root_id)]
    while len(search.pruning) < k:
        for c in search.split(heappop(heap)[1]):
            if not tree.is_leaf(c):
                heappush(heap, (key(c), c))


def run_weight(cell: BaselineCell, k: int) -> PruningResult:
    """Split the heaviest pruning node k-1 times, then spend the cell's
    whole basic-query count on its uniform leaf draws, used only to refine
    the output."""
    search = _search(cell, k)
    mass = search.mass
    _split_best(search, k, lambda v: -mass[v])
    _draw_budget(search, cell)
    return search.finish()


def _run_scored(cell: BaselineCell, k: int, score) -> PruningResult:
    search = _search(cell, k)
    _draw_budget(search, cell)
    tree = cell.tree
    pos_sorted, val_sorted = cell.pos_sorted, cell.val_sorted
    mass = search.mass

    def key(v):
        # Nodes that received a draw rank by score ahead of those that did
        # not, which rank by mass.
        lo, hi = tree.span(v)
        i = bisect_left(pos_sorted, lo)
        j = bisect_left(pos_sorted, hi, i)
        if i == j:
            return (True, -mass[v])
        sub = val_sorted[i:j]
        w = mass[v]
        return (False, -score(w, tree.leaf_count(v), sub, cell.deviation(v, w, sub)))

    _split_best(search, k, key)
    return search.finish()


def run_uniform(cell: BaselineCell, k: int) -> PruningResult:
    """Score candidate splits with the unbiased discrepancy estimate over
    the cell's fixed, uniformly pre-drawn sample."""
    return _run_scored(cell, k, _uniform)


def run_empirical(cell: BaselineCell, k: int) -> PruningResult:
    """Score candidate splits with the plug-in deviation sum over the
    cell's fixed, uniformly pre-drawn sample."""
    return _run_scored(cell, k, _empirical)
