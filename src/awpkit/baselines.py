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
``run_weight(cell, k)`` and so on.  The cell owns what the answered draw
yields, and its baselines read it: the draw and its sort order, the
answers in that order and their exact prefix sums, the SAMPLE events and
the queried map, each node's deviation sum, which both scores need, and
the SAMPLE block of the trace text, rendered once (``trace_text``).  Each
baseline still answers the draw with its own oracle call, which charges
its own ledger, makes its own node queries, and keeps its own trace,
queried map and result.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from heapq import heappop, heappush
from itertools import repeat
from math import fsum
from operator import sub

from awpkit.engine import PruningResult, PruningSearch, _trace_lines
from awpkit.oracle import Oracle
from awpkit.tree import HierTree, _checked_int, span_sums


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


def _uniform(w_star: float, n_leaves: int, m: int, total: float, deviation: float) -> float:
    return w_star + (n_leaves / m) * (deviation - total)


def _empirical(w_star: float, n_leaves: int, m: int, total: float, deviation: float) -> float:
    return (n_leaves / m) * deviation


def uniform_score(w_star: float, n_leaves: int, values) -> float:
    """Unbiased discrepancy estimate of a node from a uniform subsample."""
    vals = list(map(float, values))
    return _uniform(w_star, n_leaves, len(vals), fsum(vals), _deviation_sum(w_star, n_leaves, vals))


def empirical_score(w_star: float, n_leaves: int, values) -> float:
    """Plug-in deviation sum (n/m) * sum |node_average - z|."""
    vals = list(map(float, values))
    return _empirical(w_star, n_leaves, len(vals), fsum(vals), _deviation_sum(w_star, n_leaves, vals))


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

    Built for a tree, an oracle bound to that tree, a non-negative integer
    basic-query count (a bool counts as 0 or 1) and a seed (any other
    oracle or count raises ValueError), it draws ``count`` uniform leaf
    positions over the whole leaf set from ``random.Random(seed)``
    (``positions``, in draw order) and sorts them (``pos_sorted``, and
    ``order``, the draw indices in that order, with equal positions in
    draw order).

    The first baseline to answer the draw (``_draw_budget``) fills in what
    depends on the answers, which the cell then owns and its baselines
    read: the values in sorted order (``val_sorted``) and their exact
    prefix sums (``sums`` over ``den``, from ``tree.span_sums``), so that
    ``(sums[j] - sums[i]) / den`` is ``fsum(val_sorted[i:j])`` bit for
    bit; the SAMPLE events, which are immutable and so are shared by
    every trace; and the queried map, built in ascending position order
    so that ``tree._refined_shares`` sorts its keys in linear time.
    ``trace_text`` renders a result's trace with the cell's SAMPLE block
    rendered once.

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
        count = _checked_int("basic query count", count, 0)
        self.tree = tree
        self.oracle = oracle
        self.positions = _draw_positions(random.Random(seed), tree.leaf_count_total, count)
        self.order = sorted(range(len(self.positions)), key=self.positions.__getitem__)
        self.pos_sorted = list(map(self.positions.__getitem__, self.order))
        self.val_sorted: list[float] = []
        self.sums: list[int] = [0]
        self.den = 1
        self._events: tuple[tuple, ...] | None = None
        self._queried: dict[int, float] = {}
        self._block: str | None = None
        self._deviations: dict[tuple[int, float], float] = {}

    def deviation(self, v: int, mass: float, i: int, j: int) -> float:
        """``_deviation_sum`` of node v with the given mass over
        ``val_sorted[i:j]``, its subsample of this cell's draw; computed
        once per (v, mass)."""
        key = (v, mass)
        dev = self._deviations.get(key)
        if dev is None:
            dev = self._deviations[key] = _deviation_sum(mass, self.tree.leaf_count(v), self.val_sorted[i:j])
        return dev

    def trace_text(self, result: PruningResult, leaf_texts: dict[str, str]) -> str:
        """``"\\n".join(result.trace_lines(leaf_texts))`` for the result of
        a baseline run on this cell, whose trace is the cell's SAMPLE events
        with SPLIT events before or after them.

        The SAMPLE block is rendered through ``leaf_texts`` on the first
        call and kept, so the ``leaf_texts`` of every call must map a label
        to the same text, as a map shared by the results of one oracle
        does; each call renders only the result's SPLIT lines."""
        events = self._events
        if events is None:
            raise ValueError("no baseline has answered this cell's draw")
        trace = result.trace
        # The result's m SPLIT events come before or after the draw.
        m = len(trace) - len(events)
        splits_first = m >= 0 and (not events or trace[m] is events[0])
        if not (splits_first or m >= 0 and trace[0] is events[0]):
            raise ValueError("the result's trace does not hold this cell's draw")
        splits = trace[:m] if splits_first else trace[len(events) :]
        block = self._block
        if block is None:
            block = self._block = "\n".join(_trace_lines(events, leaf_texts))
        if not splits:
            return block
        split_text = "\n".join(_trace_lines(splits, leaf_texts))
        if not block:
            return split_text
        return split_text + "\n" + block if splits_first else block + "\n" + split_text


def _draw_budget(search: PruningSearch, cell: BaselineCell) -> list[float]:
    """Answer the cell's draw for ``search`` with one
    ``Oracle.query_leaves`` call, which charges this search's ledger, and
    record it in the search's trace, as SAMPLE events of the root (the
    draws serve no single node), and in its queried map.  Returns the
    values, in draw order.

    What the cell keeps is built from the first answer: the cell is bound
    to one oracle, which answers a position the same way every time."""
    values = search.oracle.query_leaves(cell.positions)
    if cell._events is None:
        cell.val_sorted = list(map(values.__getitem__, cell.order))
        cell.sums, cell.den = span_sums(cell.val_sorted)
        labels = map(search.tree.leaf_order.__getitem__, cell.positions)
        cell._events = tuple(zip(repeat("SAMPLE"), repeat(search.tree.root_id), labels, values))
        cell._queried = dict(zip(cell.pos_sorted, cell.val_sorted))
    search.queried.update(cell._queried)
    search.trace.extend(cell._events)
    return values


def _search(cell: BaselineCell, k: int) -> tuple[PruningSearch, int]:
    """A baseline's search on the cell's tree and oracle, and k as an int,
    once k is checked: an integer (a bool counts as 0 or 1) in 1..n."""
    k = _checked_int("k", k, 1, cell.tree.leaf_count_total)
    return PruningSearch(cell.tree, cell.oracle), k


def _split_best(search: PruningSearch, k: int, key) -> None:
    """Split the internal pruning node with the smallest key (smallest id
    on ties) until the pruning has k nodes.  A node's key is computed once,
    when it joins the pruning, so it must not change after that."""
    labels = search.tree._labels
    pruning = search.pruning
    # Each internal pruning node is in the heap once.  k <= leaf_count_total,
    # and a pruning of leaves only has that many nodes, so each split finds
    # an internal node; in particular the root is internal when k > 1.
    root = search.tree.root_id
    heap = [(key(root), root)]
    while len(pruning) < k:
        for c in search.split(heappop(heap)[1]):
            if labels[c] is None:
                heappush(heap, (key(c), c))


def run_weight(cell: BaselineCell, k: int) -> PruningResult:
    """Split the heaviest pruning node k-1 times, then spend the cell's
    whole basic-query count on its uniform leaf draws, used only to refine
    the output."""
    search, k = _search(cell, k)
    mass = search.mass
    _split_best(search, k, lambda v: -mass[v])
    _draw_budget(search, cell)
    return search.finish()


def _run_scored(cell: BaselineCell, k: int, score) -> PruningResult:
    search, k = _search(cell, k)
    _draw_budget(search, cell)
    tree = cell.tree
    span_lo, span_hi = tree._lo, tree._hi
    pos_sorted, sums, den = cell.pos_sorted, cell.sums, cell.den
    mass = search.mass
    deviation = cell.deviation

    def key(v):
        # Nodes that received a draw rank by score ahead of those that did
        # not, which rank by mass.
        lo = span_lo[v]
        hi = span_hi[v]
        i = bisect_left(pos_sorted, lo)
        j = bisect_left(pos_sorted, hi, i)
        if i == j:
            return (True, -mass[v])
        w = mass[v]
        return (False, -score(w, hi - lo, j - i, (sums[j] - sums[i]) / den, deviation(v, w, i, j)))

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
