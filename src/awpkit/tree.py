"""Hierarchical trees over a finite example set, and exact pruning math.

A hierarchical tree is a full binary tree whose leaves are labelled by the
examples of a data set.  A pruning is an antichain of nodes whose leaf sets
partition the examples; it induces a piecewise-uniform weighting in which
every leaf below a pruning node shares that node's mass equally.  The
discrepancy of a node measures how far the target weighting is from uniform
on the node's leaves, and the discrepancy of a pruning is the l1 distance
between the induced weighting and the target.

All l1 accumulations use ``math.fsum`` so that results are reproducible to
well below the documented tolerances regardless of summation order.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence
from math import fsum, inf
from typing import Union

WEIGHT_SUM_TOL = 1e-9

# Structure spec for HierTree.from_nested: a leaf label, or a (left, right) pair.
NestedSpec = Union[str, tuple]


class TreeStructureError(ValueError):
    """A tree description violates a structural invariant.

    ``kind`` identifies the violation ("cycle", "dangling-child",
    "non-binary-internal", "duplicate-leaf-label", ...) and ``node_id`` the
    first node at which it was detected, when one is identifiable.
    """

    def __init__(self, kind: str, node_id: int | None = None, detail: str = ""):
        self.kind = kind
        self.node_id = node_id
        msg = kind if node_id is None else f"{kind} (node {node_id})"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)


class FileFormatError(ValueError):
    """A tree or weight file does not conform to its on-disk format."""


class InvariantError(RuntimeError):
    """An internal runtime invariant was breached; results are unusable."""


class WeightTable(Mapping):
    """Non-negative masses over leaf labels, summing to one within
    ``WEIGHT_SUM_TOL``.

    The form in which weight files, generated targets and constructions
    give a target.  Inside a run a weighting is a list in leaf order.
    """

    __slots__ = ("_w",)

    def __init__(self, weights: Mapping[str, float]):
        items = {}
        for label, value in weights.items():
            value = float(value)
            if not 0.0 <= value < inf:
                raise ValueError(f"weight {value!r} for leaf {label!r} is not a finite non-negative number")
            items[str(label)] = value
        if not items:
            raise ValueError("empty weight table")
        total = fsum(items.values())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}")
        self._w = items

    def __getitem__(self, label: str) -> float:
        return self._w[label]

    def __iter__(self):
        return iter(self._w)

    def __len__(self) -> int:
        return len(self._w)

    def __repr__(self) -> str:
        return f"WeightTable({len(self._w)} leaves)"

    def total(self) -> float:
        return fsum(self._w.values())


class HierTree:
    """Immutable full binary tree with uniquely labelled leaves.

    Node ids are dense integers ``0 .. node_count-1``.  After construction
    the tree also carries a left-to-right leaf ordering in which every
    node's leaf set is a contiguous span; this makes uniform leaf draws and
    subtree lookups O(1).
    """

    __slots__ = (
        "_children",
        "_labels",
        "_parent",
        "_span",
        "_depth",
        "_order",
        "root_id",
        "node_count",
        "leaf_count_total",
    )

    def __init__(self, children: Sequence[tuple[int, ...]], labels: Sequence[str | None]):
        if len(children) != len(labels):
            raise ValueError("children and labels must have equal length")
        self._children = tuple(tuple(c) for c in children)
        self._labels = tuple(labels)
        self.node_count = len(self._children)
        self._build_index(*self._check())

    # -- construction ------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[tuple]) -> "HierTree":
        """Build from ("I", id, (child ids...)) and ("L", id, label) records.

        Ids must form a dense range 0..n-1.
        """
        recs = list(records)
        n = len(recs)
        if n == 0:
            raise TreeStructureError("empty-tree")
        children: list[tuple[int, ...] | None] = [None] * n
        labels: list[str | None] = [None] * n
        seen = [False] * n
        for rec in recs:
            tag, node_id = rec[0], rec[1]
            if not isinstance(node_id, int) or not (0 <= node_id < n):
                raise TreeStructureError("bad-node-ids", None, f"ids must be dense 0..{n - 1}, got {node_id!r}")
            if seen[node_id]:
                raise TreeStructureError("duplicate-node-id", node_id)
            seen[node_id] = True
            if tag == "I":
                children[node_id] = tuple(int(c) for c in rec[2])
            elif tag == "L":
                children[node_id] = ()
                labels[node_id] = str(rec[2])
            else:
                raise TreeStructureError("bad-record", node_id, f"unknown tag {tag!r}")
        return cls([c if c is not None else () for c in children], labels)

    @classmethod
    def from_nested(cls, spec: NestedSpec) -> "HierTree":
        """Build from nested pairs, e.g. ``(("a", "b"), "c")``.

        A string is a leaf label; a 2-tuple is an internal node.  Ids are
        assigned in preorder (node before its left subtree, left before
        right), so every subtree occupies a contiguous id range.
        """
        children: list[tuple[int, ...]] = []
        labels: list[str | None] = []

        def walk(s: NestedSpec) -> int:
            my_id = len(children)
            children.append(())
            labels.append(None)
            if isinstance(s, tuple):
                if len(s) != 2:
                    raise ValueError(f"internal spec must be a pair, got {len(s)} entries")
                left = walk(s[0])
                right = walk(s[1])
                children[my_id] = (left, right)
            else:
                labels[my_id] = str(s)
            return my_id

        walk(spec)
        return cls(children, labels)

    # -- structural checks -------------------------------------------------

    def _check(self) -> tuple[list[int], int]:
        """Raise TreeStructureError on the first structural violation;
        return the parent array (-1 at the root) and the root id."""
        n = self.node_count
        if n == 0:
            raise TreeStructureError("empty-tree")
        parent = [-1] * n
        for v in range(n):
            kids = self._children[v]
            if self._labels[v] is None and len(kids) != 2:
                raise TreeStructureError("non-binary-internal", v, f"{len(kids)} children")
            if self._labels[v] is not None and kids:
                raise TreeStructureError("leaf-with-children", v)
            for c in kids:
                if not (0 <= c < n):
                    raise TreeStructureError("dangling-child", v, f"child id {c}")
                if parent[c] != -1 or c == v:
                    raise TreeStructureError("multiple-parents" if c != v else "cycle", c)
                parent[c] = v
        roots = [v for v in range(n) if parent[v] == -1]
        if not roots:
            raise TreeStructureError("no-root")
        if len(roots) > 1:
            raise TreeStructureError("multiple-roots", roots[1])
        # Each node has at most one parent, so any node unreachable from the
        # root sits in a detached component that must contain a cycle.
        reached = 0
        stack = [roots[0]]
        mark = [False] * n
        mark[roots[0]] = True
        while stack:
            v = stack.pop()
            reached += 1
            for c in self._children[v]:
                mark[c] = True
                stack.append(c)
        if reached != n:
            bad = next(v for v in range(n) if not mark[v])
            raise TreeStructureError("cycle", bad, "unreachable from root")
        seen_labels: dict[str, int] = {}
        for v in range(n):
            lab = self._labels[v]
            if lab is None:
                continue
            if lab in seen_labels:
                raise TreeStructureError("duplicate-leaf-label", v, lab)
            seen_labels[lab] = v
        return parent, roots[0]

    def _build_index(self, parent: list[int], root: int) -> None:
        n = self.node_count
        self.root_id = root
        self._parent = tuple(parent)
        span = [(0, 0)] * n
        depth = [0] * n
        order: list[str] = []
        stack: list[tuple[int, bool]] = [(self.root_id, False)]
        while stack:
            v, done = stack.pop()
            kids = self._children[v]
            if done:
                span[v] = (span[kids[0]][0], span[kids[-1]][1])
                continue
            if not kids:
                lo = len(order)
                order.append(self._labels[v])  # type: ignore[arg-type]
                span[v] = (lo, lo + 1)
            else:
                stack.append((v, True))
                for c in reversed(kids):
                    depth[c] = depth[v] + 1
                    stack.append((c, False))
        self._span = span
        self._depth = depth
        self._order = tuple(order)
        self.leaf_count_total = len(order)

    def _check_id(self, v: int) -> None:
        if not (isinstance(v, int) and 0 <= v < self.node_count):
            raise KeyError(f"unknown node id {v!r}")

    # -- accessors ---------------------------------------------------------

    def is_leaf(self, v: int) -> bool:
        self._check_id(v)
        return self._labels[v] is not None

    def children(self, v: int) -> tuple[int, ...]:
        self._check_id(v)
        return self._children[v]

    def left(self, v: int) -> int:
        self._check_id(v)
        if not self._children[v]:
            raise ValueError(f"node {v} is a leaf")
        return self._children[v][0]

    def right(self, v: int) -> int:
        self._check_id(v)
        if not self._children[v]:
            raise ValueError(f"node {v} is a leaf")
        return self._children[v][1]

    def parent(self, v: int) -> int | None:
        self._check_id(v)
        p = self._parent[v]
        return None if p < 0 else p

    def label(self, v: int) -> str:
        self._check_id(v)
        lab = self._labels[v]
        if lab is None:
            raise ValueError(f"node {v} is internal")
        return lab

    def span(self, v: int) -> tuple[int, int]:
        """Half-open range of ``leaf_order`` positions covered by node v."""
        self._check_id(v)
        return self._span[v]

    def leaf_count(self, v: int) -> int:
        lo, hi = self.span(v)
        return hi - lo

    def depth(self, v: int) -> int:
        self._check_id(v)
        return self._depth[v]

    @property
    def max_depth(self) -> int:
        return max(self._depth)

    @property
    def leaf_order(self) -> tuple[str, ...]:
        return self._order

    def internal_ids(self) -> list[int]:
        return [v for v in range(self.node_count) if self._labels[v] is None]

    def leaf_ids(self) -> list[int]:
        return [v for v in range(self.node_count) if self._labels[v] is not None]

    def __repr__(self) -> str:
        return f"HierTree({self.node_count} nodes, {self.leaf_count_total} leaves)"


def leaves_under(tree: HierTree, v: int) -> list[str]:
    """Labels of the leaves below v, in left-to-right order."""
    lo, hi = tree.span(v)
    return list(tree.leaf_order[lo:hi])


def is_pruning(tree: HierTree, nodes: Iterable[int]) -> bool:
    """True iff the node set partitions the leaf set (an antichain covering
    every leaf exactly once).  Single leaves may appear as pruning nodes."""
    spans = []
    for v in nodes:
        tree._check_id(v)
        spans.append(tree.span(v))
    if not spans:
        return False
    spans.sort()
    cursor = 0
    for lo, hi in spans:
        if lo != cursor:
            return False
        cursor = hi
    return cursor == tree.leaf_count_total


def _leaf_values(tree: HierTree, w: Mapping[str, float]) -> list[float]:
    """A label-keyed weighting as a list in ``leaf_order`` order.  Raises
    ValueError unless its labels are exactly the tree's leaves."""
    missing = sum(1 for lab in tree.leaf_order if lab not in w)
    if missing or len(w) != tree.leaf_count_total:
        extra = len(w) - tree.leaf_count_total + missing
        raise ValueError(f"weighting does not match the tree's leaf set (missing {missing}, extra {extra})")
    return [w[lab] for lab in tree.leaf_order]


def _discrepancy(vals: Sequence[float]) -> float:
    """Sum of |mean - value| over a non-empty list of weights."""
    avg = fsum(vals) / len(vals)
    return fsum(abs(avg - x) for x in vals)


def node_discrepancy(tree: HierTree, v: int, w: Mapping[str, float]) -> float:
    """Sum over the node's leaves of |node_average - leaf_weight|.

    The node average is the node's total mass divided by its leaf count, so
    this is the l1 gap between the target restricted to the node and the
    uniform spread of the node's mass.
    """
    lo, hi = tree.span(v)
    return _discrepancy(_leaf_values(tree, w)[lo:hi])


def node_discrepancies(tree: HierTree, w: Mapping[str, float]) -> list[float]:
    """Discrepancy of every node, indexed by node id."""
    vals = _leaf_values(tree, w)
    out = [0.0] * tree.node_count
    for v in range(tree.node_count):
        lo, hi = tree.span(v)
        out[v] = _discrepancy(vals[lo:hi])
    return out


def pruning_discrepancy(tree: HierTree, nodes: Iterable[int], w: Mapping[str, float]) -> float:
    """Sum of node discrepancies over a pruning.

    Equals the l1 distance between the target and the weighting induced by
    the pruning with true node masses, i.e. twice their total variation
    distance.
    """
    node_list = list(nodes)
    if not is_pruning(tree, node_list):
        raise ValueError("node set is not a pruning")
    vals = _leaf_values(tree, w)
    return fsum(_discrepancy(vals[slice(*tree.span(v))]) for v in node_list)


def induced_weighting(
    tree: HierTree,
    nodes: Iterable[int],
    node_weights: Mapping[int, float],
) -> list[float]:
    """Spread each pruning node's mass uniformly over its leaves; the
    weighting is a list in ``leaf_order`` order."""
    node_list = list(nodes)
    if not is_pruning(tree, node_list):
        raise ValueError("node set is not a pruning")
    masses = []
    for v in node_list:
        if v not in node_weights:
            raise KeyError(f"missing node weight for node {v}")
        mass = float(node_weights[v])
        if mass < 0.0:
            raise ValueError(f"negative node weight {mass!r} for node {v}")
        masses.append(mass)
    total = fsum(masses)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"node weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}")
    return refine_with_queries(tree, node_list, dict(zip(node_list, masses)), {})


def refine_with_queries(
    tree: HierTree,
    pruning: Iterable[int],
    node_weights: Mapping[int, float],
    queried: Mapping[int, float],
) -> list[float]:
    """Weighting, as a list in ``leaf_order`` order, that pins individually
    queried leaves (keyed by leaf position) to their known weights and
    spreads each pruning node's residual mass uniformly over its unqueried
    leaves."""
    out = [0.0] * tree.leaf_count_total
    pins = sorted(queried)
    for v in pruning:
        lo, hi = tree.span(v)
        known = pins[bisect_left(pins, lo) : bisect_left(pins, hi)]
        residual = node_weights[v] - fsum(queried[pos] for pos in known)
        if residual < 0.0:
            # Queried masses can only overshoot the node total by rounding.
            residual = 0.0
        rest = hi - lo - len(known)
        out[lo:hi] = [residual / rest if rest else 0.0] * (hi - lo)
        for pos in known:
            out[pos] = queried[pos]
    return out


def tv_distance(w1: Sequence[float], w2: Sequence[float]) -> float:
    """Total variation distance: half the l1 distance between two
    weightings given as equal-length lists in ``leaf_order`` order."""
    if len(w1) != len(w2):
        raise ValueError(f"weightings have different lengths ({len(w1)} and {len(w2)})")
    return 0.5 * fsum(abs(a - b) for a, b in zip(w1, w2))


def _split_shares(tree: HierTree, disc: Sequence[float]) -> list[float]:
    """Larger child's share of the parent discrepancy, for every internal
    node with positive discrepancy."""
    shares = []
    for v in tree.internal_ids():
        if disc[v] > 0.0:
            l, r = tree.children(v)
            shares.append(max(disc[l], disc[r]) / disc[v])
    return shares


def split_quality(tree: HierTree, disc: Sequence[float]) -> float | None:
    """Largest child-to-parent discrepancy ratio over internal nodes with
    positive discrepancy; None when no such node exists.  ``disc`` is the
    list returned by ``node_discrepancies``."""
    shares = _split_shares(tree, disc)
    return max(shares) if shares else None


def average_split_quality(tree: HierTree, disc: Sequence[float]) -> float | None:
    """Mean over internal nodes with positive discrepancy of the larger
    child's share of the parent discrepancy; None when undefined.  ``disc``
    is the list returned by ``node_discrepancies``."""
    shares = _split_shares(tree, disc)
    if not shares:
        return None
    return fsum(shares) / len(shares)


def optimal_pruning(
    tree: HierTree,
    k: int,
    w: Mapping[str, float],
) -> tuple[tuple[int, ...], float]:
    """Minimum-discrepancy pruning of size at most k, by exact dynamic
    programming over the tree.

    For each node and budget, either keep the node whole (cost = its
    discrepancy) or split the budget between the children.  Ties prefer not
    splitting and then the smaller left budget, which makes the reported
    pruning deterministic.
    """
    if not (1 <= k <= tree.leaf_count_total):
        raise ValueError(f"k must be in 1..{tree.leaf_count_total}, got {k}")
    disc = node_discrepancies(tree, w)

    # cost[v][b-1]: best discrepancy for the subtree at v using at most b
    # pruning nodes; choice[v][b-1] is None (keep whole) or the left budget.
    cost: dict[int, list[float]] = {}
    choice: dict[int, list[int | None]] = {}

    # Children precede parents in reversed preorder only for preorder id
    # assignment, which from_records does not guarantee; order by depth.
    by_depth = sorted(range(tree.node_count), key=tree.depth, reverse=True)
    for v in by_depth:
        cap = min(k, tree.leaf_count(v))
        if tree.is_leaf(v):
            cost[v] = [0.0] * cap
            choice[v] = [None] * cap
            continue
        l, r = tree.children(v)
        ncl = tree.leaf_count(l)
        ncr = tree.leaf_count(r)
        cv: list[float] = []
        ch: list[int | None] = []
        for b in range(1, cap + 1):
            best = disc[v]
            pick: int | None = None
            for bl in range(1, b):
                br = b - bl
                c = cost[l][min(bl, ncl) - 1] + cost[r][min(br, ncr) - 1]
                if c < best:
                    best = c
                    pick = bl
            cv.append(best)
            ch.append(pick)
        cost[v] = cv
        choice[v] = ch

    result: list[int] = []

    def collect(v: int, b: int) -> None:
        b = min(b, tree.leaf_count(v))
        pick = choice[v][b - 1]
        if pick is None:
            result.append(v)
            return
        l, r = tree.children(v)
        collect(l, pick)
        collect(r, b - pick)

    root = tree.root_id
    collect(root, k)
    result.sort()
    return tuple(result), cost[root][min(k, tree.leaf_count_total) - 1]
