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
builds one ``BaselineCell`` per cell and hands it to each of them.  The
cell holds the draw, its sort order, the SAMPLE events and the queried
map, and each node's deviation sum, which both scores need; each
baseline still answers the draw with its own oracle call, which charges
its own ledger, and keeps its own trace, queried map and result.  A
runner called without a cell builds one for itself, so it draws afresh
on every call.
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


def _check_run_args(tree: HierTree, k: int, basic: int) -> None:
    if not (1 <= k <= tree.leaf_count_total):
        raise ValueError(f"k must be in 1..{tree.leaf_count_total}, got {k}")
    if basic < 0:
        raise ValueError(f"basic query count must be non-negative, got {basic}")


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

    Built for a tree, an oracle, a basic-query count and a seed, it draws
    ``count`` uniform leaf positions over the whole leaf set from
    ``random.Random(seed)`` (``positions``, in draw order) and sorts them
    (``pos_sorted``, and ``order``, the draw indices in that order, with
    equal positions in draw order).  The first baseline to answer the draw
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
        self.tree = tree
        self.oracle = oracle
        self.count = count
        self.seed = seed
        self.positions = _draw_positions(random.Random(seed), tree.leaf_count_total, count)
        self.order = sorted(range(len(self.positions)), key=self.positions.__getitem__)
        self.pos_sorted = list(map(self.positions.__getitem__, self.order))
        self.val_sorted: list[float] = []
        self._events: tuple[tuple, ...] | None = None
        self._queried: dict[int, float] = {}
        self._deviations: dict[tuple[int, float], float] = {}

    def fits(self, tree: HierTree, oracle: Oracle, count: int, seed) -> bool:
        """Whether this cell was built for these arguments; a count or seed
        of another type may draw differently, so it does not fit."""
        return (
            tree is self.tree
            and oracle is self.oracle
            and (type(count), count) == (type(self.count), self.count)
            and (type(seed), seed) == (type(self.seed), self.seed)
        )

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


def _start(tree, oracle, k, basic, seed, cell) -> tuple[PruningSearch, BaselineCell]:
    """A baseline's search, after its arguments are checked, and its cell:
    the one given, if it was built for these arguments, else a new one."""
    search = PruningSearch(tree, oracle)
    _check_run_args(tree, k, basic)
    if cell is None:
        return search, BaselineCell(tree, oracle, basic, seed)
    if not cell.fits(tree, oracle, basic, seed):
        raise ValueError("the cell was built for another tree, oracle, basic-query count or seed")
    return search, cell


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


def run_weight(
    tree: HierTree, oracle: Oracle, k: int, basic: int, seed: int, cell: BaselineCell | None = None
) -> PruningResult:
    """Split the heaviest pruning node k-1 times, then spend all ``basic``
    queries on uniform leaf draws used only to refine the output.  The
    draws are ``cell``'s, which must be built for the same tree, oracle,
    ``basic`` and seed; without one, they are drawn afresh."""
    search, cell = _start(tree, oracle, k, basic, seed, cell)
    mass = search.mass
    _split_best(search, k, lambda v: -mass[v])
    _draw_budget(search, cell)
    return search.finish()


def _run_scored(tree, oracle, k, basic, seed, cell, score) -> PruningResult:
    search, cell = _start(tree, oracle, k, basic, seed, cell)
    _draw_budget(search, cell)
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


def run_uniform(
    tree: HierTree, oracle: Oracle, k: int, basic: int, seed: int, cell: BaselineCell | None = None
) -> PruningResult:
    """Score candidate splits with the unbiased discrepancy estimate over a
    fixed, uniformly pre-drawn sample: ``cell``'s draw, as in
    ``run_weight``."""
    return _run_scored(tree, oracle, k, basic, seed, cell, _uniform)


def run_empirical(
    tree: HierTree, oracle: Oracle, k: int, basic: int, seed: int, cell: BaselineCell | None = None
) -> PruningResult:
    """Score candidate splits with the plug-in deviation sum over a fixed,
    uniformly pre-drawn sample: ``cell``'s draw, as in ``run_weight``."""
    return _run_scored(tree, oracle, k, basic, seed, cell, _empirical)
