"""Weight-query oracle, query accounting, and synthetic instances.

The oracle holds the hidden target weighting and exposes it only through
two query operations: the weight of a single leaf (a basic query) and the
total weight of a node's leaf set (a node query).  Every call is counted in
a ledger; basic queries are additionally attributed to the node on whose
behalf they were drawn.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from math import fsum, inf

from awpkit.adversarial import _balanced
from awpkit.tree import HierTree, WeightTable, _leaf_values


@dataclass
class QueryLedger:
    """Running count of oracle calls."""

    basic_queries: int = 0
    node_queries: int = 0
    per_node_basic: dict[int, int] = field(default_factory=dict)

    def record_basic(self, attributed_to: int) -> None:
        self.basic_queries += 1
        self.per_node_basic[attributed_to] = self.per_node_basic.get(attributed_to, 0) + 1

    def record_node(self) -> None:
        self.node_queries += 1

    def snapshot(self) -> "QueryLedger":
        return QueryLedger(self.basic_queries, self.node_queries, dict(self.per_node_basic))


class Oracle:
    """Query access to a hidden target weighting over a tree's leaves.

    The label-keyed target must cover exactly the tree's leaf set.  Answers
    are exact; repeated queries for the same leaf are answered (and
    charged) again.
    """

    def __init__(self, tree: HierTree, truth: Mapping[str, float]):
        self._vals = _leaf_values(tree, truth)
        self.tree = tree
        self.ledger = QueryLedger()

    def query_leaf(self, pos: int, attributed_to: int) -> float:
        """Weight of the leaf at position ``pos`` of ``tree.leaf_order``;
        counted as a basic query for the given node.  Raises KeyError for
        a position that is not an int in 0..leaf_count_total-1."""
        if not (isinstance(pos, int) and 0 <= pos < self.tree.leaf_count_total):
            raise KeyError(f"unknown leaf position {pos!r}")
        self.tree._check_id(attributed_to)
        self.ledger.record_basic(attributed_to)
        return self._vals[pos]

    def query_node(self, v: int) -> float:
        """Total weight of the leaves under node v; counted as a node query."""
        lo, hi = self.tree.span(v)
        self.ledger.record_node()
        return fsum(self._vals[lo:hi])


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
    depth is logarithmic in the number of labels.
    """
    labels = sorted(features.keys())
    if not labels:
        raise ValueError("no features given")
    dims = {len(features[lab]) for lab in labels}
    if len(dims) != 1:
        raise ValueError(f"feature vectors have mixed dimensions {sorted(dims)}")
    dim = dims.pop()
    if dim < 1:
        raise ValueError("feature vectors are empty")
    start = random.Random(seed).randrange(dim)

    def split(group: list[str], depth: int):
        if len(group) == 1:
            return group[0]
        coord = (start + depth) % dim
        ordered = sorted(group, key=lambda lab: (features[lab][coord], lab))
        mid = len(ordered) // 2
        return (split(ordered[:mid], depth + 1), split(ordered[mid:], depth + 1))

    return HierTree.from_nested(split(labels, 0))


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
    """Seeded uniform feature vectors, for synthetic median-split trees."""
    if dim < 1:
        raise ValueError("dim must be positive")
    rng = random.Random(seed)
    out = {}
    for lab in sorted(str(x) for x in labels):
        out[lab] = tuple(rng.random() for _ in range(dim))
    return out
