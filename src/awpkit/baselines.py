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
from the same seed, so the positions are drawn, and sorted, once per
cell (``_seeded_positions``, ``_sort_positions``); each baseline still
answers them with its own oracle call, which charges its own ledger and
records its own trace.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import lru_cache
from heapq import heappop, heappush
from itertools import repeat
from math import fsum
from operator import sub

from awpkit.engine import PruningResult, PruningSearch
from awpkit.oracle import Oracle
from awpkit.tree import HierTree


def _as_draws(values) -> list[float]:
    vals = list(map(float, values))
    if not vals:
        raise ValueError("empty subsample")
    return vals


def uniform_score(w_star: float, n_leaves: int, values) -> float:
    """Unbiased discrepancy estimate of a node from a uniform subsample."""
    vals = _as_draws(values)
    avg = w_star / n_leaves
    return w_star + (n_leaves / len(vals)) * (fsum(map(abs, map(sub, vals, repeat(avg)))) - fsum(vals))


def empirical_score(w_star: float, n_leaves: int, values) -> float:
    """Plug-in deviation sum (n/m) * sum |node_average - z|."""
    vals = _as_draws(values)
    avg = w_star / n_leaves
    return (n_leaves / len(vals)) * fsum(map(abs, map(sub, repeat(avg), vals)))


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


# The three baselines of one (k, run) cell draw the same budget from the
# same seed, so the last budget drawn from an int seed, and the last sort
# order, are kept: one entry each, holding only ints.  typed=True keeps a
# float count from hitting an equal int count's entry: it must still fail
# in ``_draw_positions``.
@lru_cache(maxsize=1, typed=True)
def _seeded_positions(n: int, seed: int, count: int) -> tuple[int, ...]:
    return tuple(_draw_positions(random.Random(seed), n, count))


@lru_cache(maxsize=1)
def _sort_positions(positions: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The positions sorted, and the draw indices in that order (draw
    order among equal positions)."""
    order = sorted(range(len(positions)), key=positions.__getitem__)
    return tuple(map(positions.__getitem__, order)), tuple(order)


def _draw_budget(search: PruningSearch, seed, count: int) -> tuple[tuple[int, ...], list[float]]:
    """Draw ``count`` uniform leaf positions over the whole leaf set from
    ``random.Random(seed)`` and answer them with one ``draw_many`` call for
    the root (the draws serve no single node), which charges this search's
    ledger and records its trace.  Returns the positions and their values,
    in draw order.

    The positions are a pure function of (leaf count, seed, count),
    memoised for an int seed; any other seed draws afresh, as
    ``random.Random(None)`` must."""
    n = search.tree.leaf_count_total
    if type(seed) is int:
        positions = _seeded_positions(n, seed, count)
    else:
        positions = tuple(_draw_positions(random.Random(seed), n, count))
    return positions, search.draw_many(positions, search.tree.root_id)


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


def run_weight(tree: HierTree, oracle: Oracle, k: int, basic: int, seed: int) -> PruningResult:
    """Split the heaviest pruning node k-1 times, then spend all ``basic``
    queries on uniform leaf draws used only to refine the output."""
    search = PruningSearch(tree, oracle)
    _check_run_args(tree, k, basic)
    mass = search.mass
    _split_best(search, k, lambda v: -mass[v])
    _draw_budget(search, seed, basic)
    return search.finish()


def _run_scored(tree, oracle, k, basic, seed, score_fn) -> PruningResult:
    search = PruningSearch(tree, oracle)
    _check_run_args(tree, k, basic)
    positions, values = _draw_budget(search, seed, basic)
    pos_sorted, order = _sort_positions(positions)
    val_sorted = list(map(values.__getitem__, order))
    mass = search.mass

    def key(v):
        # Nodes that received a draw rank by score ahead of those that did
        # not, which rank by mass.
        lo, hi = tree.span(v)
        sub = val_sorted[bisect_left(pos_sorted, lo) : bisect_left(pos_sorted, hi)]
        if sub:
            return (False, -score_fn(mass[v], tree.leaf_count(v), sub))
        return (True, -mass[v])

    _split_best(search, k, key)
    return search.finish()


def run_uniform(tree: HierTree, oracle: Oracle, k: int, basic: int, seed: int) -> PruningResult:
    """Score candidate splits with the unbiased discrepancy estimate over a
    fixed, uniformly pre-drawn sample."""
    return _run_scored(tree, oracle, k, basic, seed, uniform_score)


def run_empirical(tree: HierTree, oracle: Oracle, k: int, basic: int, seed: int) -> PruningResult:
    """Score candidate splits with the plug-in deviation sum over a fixed,
    uniformly pre-drawn sample."""
    return _run_scored(tree, oracle, k, basic, seed, empirical_score)
