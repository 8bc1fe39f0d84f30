"""Weight-query oracle, query accounting, and synthetic instances.

The oracle holds the hidden target weighting and exposes it only through
two query operations: the weight of a single leaf (a basic query) and the
total weight of a node's leaf set (a node query).  ``query_leaves`` answers
a batch of basic queries in one call.  Every query is counted in a ledger
that runs over the oracle's whole life.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from math import fsum, inf, isfinite

from awpkit.adversarial import _balanced
from awpkit.tree import HierTree, WeightTable, _instance_stats, _LoadedWeights


@dataclass
class QueryLedger:
    """Running count of oracle calls, over the oracle's whole life; a
    search reports its own spend as the difference from the counts at its
    start."""

    basic_queries: int = 0
    node_queries: int = 0


class Oracle:
    """Query access to a hidden target weighting over a tree's leaves.

    The label-keyed target must cover exactly the tree's leaf set.  Answers
    are exact; repeated queries for the same leaf are answered (and
    charged) again.  ``ledger`` counts every query the oracle serves over
    its whole life, so one oracle can serve many searches, and each search
    reports its own spend.  Both queries take O(1) time: ``query_node``
    reads exact prefix sums (see ``span_sums``).

    The oracle answers from the instance's statistics entry (see
    ``tree._instance_stats``), the one that ``node_discrepancies`` and
    ``engine.normalized_distance`` read: for a ``WeightTable`` truth its
    leaf values and prefix sums are computed once per (tree, table) pair,
    whichever asks first, and kept on the table; for any other mapping
    they are computed here.  The oracle exposes the target only through
    its queries: a caller that needs the leaf values reads the target.
    """

    def __init__(self, tree: HierTree, truth: Mapping[str, float]):
        stats = _instance_stats(tree, truth)
        self._vals = stats.vals
        self._sums, self._den = stats.prefix
        self.tree = tree
        self.ledger = QueryLedger()

    def query_leaf(self, pos: int) -> float:
        """Weight of the leaf at position ``pos`` of ``tree.leaf_order``;
        counted as a basic query.  Raises KeyError for a position that is
        not an int in 0..leaf_count_total-1."""
        if not (isinstance(pos, int) and 0 <= pos < self.tree.leaf_count_total):
            raise KeyError(f"unknown leaf position {pos!r}")
        self.ledger.basic_queries += 1
        return self._vals[pos]

    def query_leaves(self, positions: Sequence[int]) -> list[float]:
        """Weights of the leaves at the given positions, in order; counted
        as one basic query per position, as ``query_leaf`` per position
        would be.  A bad position raises the KeyError that ``query_leaf``
        raises, after the positions before it are charged."""
        n = self.tree.leaf_count_total
        # C-level checks clear a batch of plain ints in range at once; any
        # other batch is answered one ``query_leaf`` at a time.
        if not positions or (set(map(type, positions)) == {int} and 0 <= min(positions) and max(positions) < n):
            self.ledger.basic_queries += len(positions)
            return list(map(self._vals.__getitem__, positions))
        return list(map(self.query_leaf, positions))

    def query_node(self, v: int) -> float:
        """Total weight of the leaves under node v, equal to ``fsum`` over
        them; counted as a node query."""
        lo, hi = self.tree.span(v)
        self.ledger.node_queries += 1
        return (self._sums[hi] - self._sums[lo]) / self._den


@dataclass(frozen=True)
class TargetSpec:
    """Description of a synthetic target.

    The only kind is "geometric-bins": leaves are grouped into bins whose
    per-leaf weights fall geometrically by ``ratio`` from bin 0 down;
    ``bins`` may give the partition explicitly, otherwise leaves are
    shuffled by seed into ``n_bins`` near-equal bins.
    """

    kind: str
    n_bins: int = 0
    ratio: float = 0.0
    bins: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        if self.kind != "geometric-bins":
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.bins is None and self.n_bins < 1:
            raise ValueError("geometric-bins needs n_bins >= 1 or an explicit partition")
        if not 1.0 < self.ratio < inf:
            raise ValueError(f"ratio must exceed 1 and be finite, got {self.ratio!r}")


def _near_equal_runs(labels: Sequence[str], n_bins: int) -> tuple[tuple[str, ...], ...]:
    """Cut labels into n_bins contiguous runs whose sizes differ by at most
    one, the longer runs first."""
    base, extra = divmod(len(labels), n_bins)
    bins = []
    start = 0
    for i in range(n_bins):
        size = base + (1 if i < extra else 0)
        bins.append(tuple(labels[start : start + size]))
        start += size
    return tuple(bins)


def leaf_order_bins(tree: HierTree, n_bins: int) -> tuple[tuple[str, ...], ...]:
    """Partition the leaf ordering into n_bins near-equal contiguous runs."""
    n = tree.leaf_count_total
    if not (1 <= n_bins <= n):
        raise ValueError(f"n_bins must be in 1..{n}, got {n_bins}")
    return _near_equal_runs(tree.leaf_order, n_bins)


def make_geometric_target(tree: HierTree, spec: TargetSpec, seed: int) -> WeightTable:
    """Geometric-bins target: every leaf in bin i has weight proportional to
    ratio**(B-1-i), so bin 0 is heaviest and successive bins differ by an
    exact factor of ``ratio``.

    The total is ``fsum`` over every leaf's level, which is exact in any
    order.  Each bin's level is divided by it once, and every label of the
    bin shares that one float, so the table holds one float object per
    bin, with the bits of a per-leaf division.  The label-to-share dict
    and the table, in leaf order, are built in C-level passes (``zip``,
    ``chain``, ``repeat`` and ``map``).  The returned ``WeightTable`` keeps
    the table's dict without a copy (see ``_LoadedWeights``)."""
    labels = tree.leaf_order
    if spec.bins is not None:
        bins = spec.bins
        flat = list(chain.from_iterable(bins))
        if sorted(flat) != sorted(labels) or len(flat) != len(set(flat)):
            raise ValueError("explicit bins are not a partition of the leaf set")
    else:
        if spec.n_bins > len(labels):
            raise ValueError(f"cannot fill {spec.n_bins} bins from {len(labels)} leaves")
        shuffled = list(labels)
        random.Random(seed).shuffle(shuffled)
        bins = _near_equal_runs(shuffled, spec.n_bins)
    if any(not b for b in bins):
        raise ValueError("empty bin in target partition")
    n_bins = len(bins)
    sizes = list(map(len, bins))
    try:
        levels = [float(spec.ratio) ** (n_bins - 1 - i) for i in range(n_bins)]
        total = fsum(chain.from_iterable(map(repeat, levels, sizes)))
    except OverflowError:
        raise ValueError(f"ratio {spec.ratio!r} over {n_bins} bins gives weights beyond float range") from None
    shares = [level / total for level in levels]
    share = dict(zip(chain.from_iterable(bins), chain.from_iterable(map(repeat, shares, sizes))))
    return WeightTable(_LoadedWeights(zip(labels, map(share.__getitem__, labels))))


class FeatureColumns:
    """Seeded uniform features kept flat, as ``random_features`` draws them:
    ``labels`` in sorted order, and coordinate c of label i at
    ``flat[i * dim + c]``, so coordinate c of every label is
    ``flat[c::dim]``.  ``build_median_split_tree`` reads these columns,
    with no tuple per label."""

    def __init__(self, labels: Sequence[str], dim: int, seed: int):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.labels = sorted(map(str, labels))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")
        self.dim = dim
        rng = random.Random(seed)
        self.flat = array("d", map(random.Random.random, repeat(rng, len(self.labels) * dim)))


def build_median_split_tree(features: Mapping[str, Sequence[float]] | FeatureColumns, seed: int) -> HierTree:
    """Top-down median-split tree over labelled feature vectors.

    The splitting coordinate cycles with depth from a seeded starting
    coordinate.  Each node's labels are ordered by (coordinate value,
    label) and cut at the middle, so both halves are non-empty and the
    depth is logarithmic in the number of labels.  Every coordinate must
    be a finite real number.

    Cost: each group is sorted on its plain coordinate values, read from
    the ``array('d')`` slice of a ``FeatureColumns`` or from the column
    tuple, and ties are settled only at the cut.  This is exact, since
    only the set of labels in each half matters: a half of two or more
    labels is sorted again at the next level, and a one-label half is
    written as a leaf.  If the values at ``mid - 1`` and ``mid`` differ,
    the value sort has the same first ``mid`` labels as the (value,
    label) sort.  If they are equal, the labels valued below the tied
    value still come first and those valued above it last, so sorting
    the tied run (found by bisection) by label index gives the (value,
    label) order at the cut.  Values that compare equal, such as ``0.0``
    and ``-0.0``, form one tied run.  A two-label half is ordered by one
    (value, label) comparison, with no sort, slice or stack push.

    One explicit stack emits the nodes into the child columns of
    ``HierTree``.  The stack holds only groups of three or more labels; a
    node's id fixes its children's, ``v + 1`` on the left and ``v + 2*mid``
    on the right for a left half of ``mid`` labels, so ids come out in
    preorder, and a child of one or two labels is written by its parent.
    That is O(dim * n) memory for the columns and one sort per level,
    O(depth * n log n), with no Python call per compared item.
    """
    if isinstance(features, FeatureColumns):
        labels, dim, flat = features.labels, features.dim, features.flat
        columns = [flat[c::dim] for c in range(dim)]
    else:
        labels = sorted(features.keys())
        vectors = [features[lab] for lab in labels]
        dims = set(map(len, vectors))
        if len(dims) > 1:
            raise ValueError(f"feature vectors have mixed dimensions {sorted(dims)}")
        dim = dims.pop() if dims else 0
        columns = list(zip(*vectors))
    if not labels:
        raise ValueError("no features given")
    if dim < 1:
        raise ValueError("feature vectors are empty")
    start = random.Random(seed).randrange(dim)
    n = len(labels)
    for col in columns:
        if not all(map(isfinite, col)):
            bad = next(i for i in range(n) if not isfinite(col[i]))
            raise ValueError(f"feature vector of {labels[bad]!r} has a non-finite coordinate {col[bad]!r}")
    keys = [col.__getitem__ for col in columns]
    count = 2 * n - 1
    left = [-1] * count
    right = [-1] * count
    leaf_labels: list[str | None] = [None] * count
    # idx keeps every label's int alive through the loop, so the ints of
    # the child columns are not laid out in the holes that freed halves
    # leave; the index walk reads them about 20% faster.
    idx = list(range(n))
    stack = []
    if n > 1:
        stack.append((idx, start, 0))
    else:
        leaf_labels[0] = str(labels[0])
    while stack:
        group, coord, v = stack.pop()
        key = keys[coord]
        group.sort(key=key)
        size = len(group)
        mid = size >> 1
        cut = key(group[mid])
        if not key(group[mid - 1]) < cut:
            # A tie at the cut: the run of labels valued cut, by index.
            lo = bisect_left(group, cut, 0, mid - 1, key=key)
            hi = bisect_right(group, cut, mid + 1, size, key=key)
            group[lo:hi] = sorted(group[lo:hi])
        # The left half's mid leaves take ids v + 1 .. v + 2*mid - 1.
        w = v + 2 * mid
        left[v] = v + 1
        right[v] = w
        coord = coord + 1 if coord + 1 < dim else 0
        key = keys[coord]
        for u, lo, hi in ((w, mid, size), (v + 1, 0, mid)):
            if hi - lo > 2:
                stack.append((group[lo:hi], coord, u))
            elif hi - lo == 2:
                a, b = group[lo], group[lo + 1]
                if (key(b), b) < (key(a), a):
                    a, b = b, a
                left[u] = u + 1
                right[u] = u + 2
                leaf_labels[u + 1] = str(labels[a])
                leaf_labels[u + 2] = str(labels[b])
            else:
                leaf_labels[u] = str(labels[group[lo]])
    # The columns and label ints are not needed by the index walk; free
    # them before it (``key`` holds one of the columns).
    columns = keys = key = idx = None
    return HierTree(None, leaf_labels, left=left, right=right)


def build_random_balanced_tree(labels: Sequence[str], seed: int) -> HierTree:
    """Balanced binary tree over a seeded shuffle of the labels."""
    labs = [str(x) for x in labels]
    if not labs:
        raise ValueError("no labels given")
    if len(set(labs)) != len(labs):
        raise ValueError("duplicate labels")
    random.Random(seed).shuffle(labs)
    return HierTree.from_nested(_balanced(labs))


def random_features(labels: Sequence[str], dim: int, seed: int) -> dict[str, tuple[float, ...]]:
    """Seeded uniform feature vectors, for synthetic median-split trees.
    The labels (after ``str``) must be distinct; their vectors are drawn
    in sorted label order, as ``FeatureColumns`` draws them."""
    features = FeatureColumns(labels, dim, seed)
    # zip over dim references to one iterator cuts flat into dim-tuples.
    return dict(zip(features.labels, zip(*[iter(features.flat)] * dim)))
