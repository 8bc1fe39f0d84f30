"""Weight-query oracle, query accounting, and synthetic instances.

The oracle holds the hidden target weighting and exposes it only through
two query operations: the weight of a single leaf (a basic query) and the
total weight of a node's leaf set (a node query).  Every call is counted in
a ledger.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import repeat
from math import fsum, inf, isfinite

from awpkit.adversarial import _balanced
from awpkit.tree import HierTree, WeightTable, _leaf_values, span_sums


@dataclass
class QueryLedger:
    """Running count of oracle calls."""

    basic_queries: int = 0
    node_queries: int = 0

    def record_basic(self) -> None:
        self.basic_queries += 1

    def record_node(self) -> None:
        self.node_queries += 1

    def snapshot(self) -> "QueryLedger":
        return QueryLedger(self.basic_queries, self.node_queries)


class Oracle:
    """Query access to a hidden target weighting over a tree's leaves.

    The label-keyed target must cover exactly the tree's leaf set.  Answers
    are exact; repeated queries for the same leaf are answered (and
    charged) again.  Both queries take O(1) time: ``query_node`` reads
    exact prefix sums built once here (see ``span_sums``).
    """

    def __init__(self, tree: HierTree, truth: Mapping[str, float]):
        self._vals = tuple(_leaf_values(tree, truth))
        self._sums, self._den = span_sums(self._vals)
        self.tree = tree
        self.ledger = QueryLedger()

    @property
    def leaf_values(self) -> tuple[float, ...]:
        """The hidden target in ``tree.leaf_order`` order, read-only; for
        scoring results, not for the algorithms under test.  Reading it is
        not a query and is not counted."""
        return self._vals

    def query_leaf(self, pos: int) -> float:
        """Weight of the leaf at position ``pos`` of ``tree.leaf_order``;
        counted as a basic query.  Raises KeyError for a position that is
        not an int in 0..leaf_count_total-1."""
        if not (isinstance(pos, int) and 0 <= pos < self.tree.leaf_count_total):
            raise KeyError(f"unknown leaf position {pos!r}")
        self.ledger.record_basic()
        return self._vals[pos]

    def query_node(self, v: int) -> float:
        """Total weight of the leaves under node v, equal to ``fsum`` over
        them; counted as a node query."""
        lo, hi = self.tree.span(v)
        self.ledger.record_node()
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
    exact factor of ``ratio``."""
    labels = tree.leaf_order
    if spec.bins is not None:
        bins = spec.bins
        flat = [lab for b in bins for lab in b]
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
    raw: dict[str, float] = {}
    try:
        for i, b in enumerate(bins):
            level = float(spec.ratio) ** (n_bins - 1 - i)
            for lab in b:
                raw[lab] = level
        total = fsum(raw[lab] for lab in labels)
    except OverflowError:
        raise ValueError(f"ratio {spec.ratio!r} over {n_bins} bins gives weights beyond float range") from None
    return WeightTable({lab: raw[lab] / total for lab in labels})


def build_median_split_tree(features: Mapping[str, Sequence[float]], seed: int) -> HierTree:
    """Top-down median-split tree over labelled feature vectors.

    The splitting coordinate cycles with depth from a seeded starting
    coordinate.  Each node's labels are ordered by (coordinate value,
    label) and cut at the middle, so both halves are non-empty and the
    depth is logarithmic in the number of labels.  Every coordinate must
    be a finite real number.

    Cost: one stable sort of the label indices per coordinate gives each
    label its rank there; equal values keep the sorted label order, which
    is the (value, label) tie rule.  Each level then sorts its groups on
    those int ranks, and one explicit stack emits the nodes in preorder,
    so the cost is dim sorts plus one int-keyed sort per level, O((dim +
    depth) n log n), with no Python call per compared item.
    """
    labels = sorted(features.keys())
    if not labels:
        raise ValueError("no features given")
    vectors = [features[lab] for lab in labels]
    dims = set(map(len, vectors))
    if len(dims) != 1:
        raise ValueError(f"feature vectors have mixed dimensions {sorted(dims)}")
    dim = dims.pop()
    if dim < 1:
        raise ValueError("feature vectors are empty")
    start = random.Random(seed).randrange(dim)
    # The rank lists take their ints from idx, so all dim of them share one
    # set of int objects.
    idx = list(range(len(labels)))
    ranks = []
    for col in zip(*vectors):
        if not all(map(isfinite, col)):
            bad = next(i for i in idx if not isfinite(col[i]))
            raise ValueError(f"feature vector of {labels[bad]!r} has a non-finite coordinate {col[bad]!r}")
        rank = [0] * len(idx)
        for r, i in zip(idx, sorted(idx, key=col.__getitem__)):
            rank[i] = r
        ranks.append(rank)
    # Preorder ids, as from_nested gives them: a left child's id is its
    # parent's plus one, so only a right child carries its parent's id.
    children: list[tuple[int, ...]] = []
    leaf_labels: list[str | None] = []
    stack = [(idx, start, -1)]
    while stack:
        group, coord, parent = stack.pop()
        v = len(children)
        if parent >= 0:
            children[parent] = (parent + 1, v)
        children.append(())
        if len(group) == 1:
            leaf_labels.append(str(labels[group[0]]))
            continue
        leaf_labels.append(None)
        group.sort(key=ranks[coord].__getitem__)
        mid = len(group) // 2
        coord = coord + 1 if coord + 1 < dim else 0
        stack.append((group[mid:], coord, v))
        stack.append((group[:mid], coord, -1))
    return HierTree(children, leaf_labels)


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
    in sorted label order."""
    if dim < 1:
        raise ValueError("dim must be positive")
    labs = sorted(map(str, labels))
    if len(set(labs)) != len(labs):
        raise ValueError("duplicate labels")
    rng = random.Random(seed)
    flat = list(map(random.Random.random, repeat(rng, len(labs) * dim)))
    # zip over dim references to one iterator cuts flat into dim-tuples.
    return dict(zip(labs, zip(*[iter(flat)] * dim)))
