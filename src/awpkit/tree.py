"""Hierarchical trees over a finite example set, and exact pruning math.

A hierarchical tree is a full binary tree whose leaves are labelled by the
examples of a data set.  A pruning is an antichain of nodes whose leaf sets
partition the examples; it induces a piecewise-uniform weighting in which
every leaf below a pruning node shares that node's mass equally.  The
discrepancy of a node measures how far the target weighting is from uniform
on the node's leaves, and the discrepancy of a pruning is the l1 distance
between the induced weighting and the target.

All l1 accumulations use ``math.fsum``, which rounds the exact sum
correctly, or forms that equal it bit for bit: an exact integer sum over
one power-of-two denominator followed by one correctly rounded
``int / int`` division (the prefix sums of ``span_sums`` for span
masses), and, for sums that repeat a term m times, one ``fsum`` over
exact products m * hi and m * lo, where hi + lo is the term cut in two
26-bit halves by Veltkamp's split (see ``_exact_sum``).  That form has
three users: the sums grouped by distinct leaf value in
``node_discrepancies``, and, for a search result, its weight-sum check
(each node's share times its unqueried leaves) and its total variation
from a target (``_refined_tv``, one term per distinct value of a node
counted from the instance's value index), neither of which builds the
n-long refined weighting.
So results are reproducible to well below the documented tolerances
regardless of summation order.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
# _count_elements is the C loop behind Counter.update, which counts an
# iterable into a plain dict without Counter's Python-level overhead.
from collections import _count_elements  # type: ignore[attr-defined]
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from itertools import accumulate, chain, islice, repeat
from math import fsum, inf, isfinite
from operator import floordiv, index, itemgetter, mul, neg, sub
from typing import NoReturn, Union

WEIGHT_SUM_TOL = 1e-9
# The root's mass is 1 by definition, but a table's total is only within
# WEIGHT_SUM_TOL of 1, so a leaf's weight may pass its node's mass, a
# derived left-child mass may fall below zero and a refined weighting may
# sum away from 1, each by up to WEIGHT_SUM_TOL plus rounding.  The engine
# allows twice that in all three checks.
MASS_TOL = 2 * WEIGHT_SUM_TOL

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


class _LoadedWeights(dict):
    """A str label -> float dict that the package built for one
    ``WeightTable`` and hands over to it, which keeps it without a copy:
    ``fileio.loads_weights`` builds one from a weight file and
    ``oracle.make_geometric_target`` one from its levels.  Nothing else
    holds it, so the table cannot change."""

    __slots__ = ()


class WeightTable(Mapping):
    """Non-negative masses over leaf labels, summing to one within
    ``WEIGHT_SUM_TOL``.

    The form in which weight files, generated targets and constructions
    give a target.  Inside a run a weighting is a list in leaf order.  A
    table cannot change through its API, so it keeps the exact statistics
    of the last tree it was asked about (``_stats``; see
    ``_instance_stats``).  The entry refers to that tree, and no tree
    refers to a table, so the entry is freed with the table.  The table
    copies the mapping it is given into a dict of str labels and float
    values, except a ``_LoadedWeights`` (the dicts that ``loads_weights``
    and ``make_geometric_target`` build for it), which it keeps as it is;
    its value and sum checks run on either.
    """

    __slots__ = ("_w", "_stats")

    def __init__(self, weights: Mapping[str, float]):
        if type(weights) is _LoadedWeights:
            items: dict[str, float] = weights
        else:
            items = {str(label): float(value) for label, value in weights.items()}
        if not items:
            raise ValueError("empty weight table")
        values = items.values()
        try:
            total = fsum(values)
        except (ValueError, OverflowError):  # inf - inf, or past the float range
            total = inf
        if not isfinite(total) or min(values) < 0.0:
            for label, value in items.items():
                if not 0.0 <= value < inf:
                    raise ValueError(f"weight {value!r} for leaf {label!r} is not a finite non-negative number")
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}")
        self._w = items
        self._stats: _Stats | None = None

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


def _preorder(spec, leaf: Callable[..., str]) -> tuple[list[str | None], list[int], list[int]]:
    """Labels and child columns (see ``HierTree``) of a nested spec, with
    ids in preorder; ``leaf`` maps a leaf spec to its label.  Iterative, so
    any depth works."""
    labels: list[str | None] = []
    left: list[int] = []
    right: list[int] = []
    # A left child's id is its parent's plus one, so only a right child
    # carries the id of the parent that links to it.
    stack = [(spec, -1)]
    while stack:
        s, parent = stack.pop()
        v = len(labels)
        if parent >= 0:
            right[parent] = v
        left.append(-1)
        right.append(-1)
        if isinstance(s, tuple):
            if len(s) != 2:
                raise ValueError(f"internal spec must be a pair, got {len(s)} entries")
            labels.append(None)
            left[v] = v + 1
            stack.append((s[1], v))
            stack.append((s[0], -1))
        else:
            labels.append(leaf(s))
    return labels, left, right


class HierTree:
    """Immutable full binary tree with uniquely labelled leaves.

    Node ids are dense integers ``0 .. node_count-1``.  After construction
    the tree also carries a left-to-right leaf ordering in which every
    node's leaf set is a contiguous span; this makes uniform leaf draws and
    subtree lookups O(1).

    The tree is a set of flat columns indexed by node id: the labels
    ``_labels`` (None for an internal node), the child links ``_left`` and
    ``_right`` (-1 for a leaf), the leaf spans ``_lo`` and ``_hi``, and the
    depths.  So a tree holds no object per node, only list slots and the
    ints and labels they point to; ``children(v)`` and ``span(v)`` pair
    the columns.  The constructor takes the labels and the two child
    columns, and keeps the three lists it is handed, so the caller must
    not change them.

    Construction checks and indexes the links in one iterative preorder
    walk from the root, the one id that the child ids leave out of the sum
    of all ids.  The walk pops exactly ``node_count`` nodes, so it ends on
    any input.  Whole-list checks after it (nothing left to visit, every
    leaf placed once, no negative id visited, a leaf's links -1) show that
    it reached every node once.  Only when the walk or these checks fail
    are the columns read again one node at a time (``_name_fault``), to
    name the first fault with its kind and node id.

    A tree refers to no weighting: the exact statistics of a tree under a
    ``WeightTable`` live on the table (see ``_instance_stats``).
    """

    __slots__ = (
        "_labels",
        "_left",
        "_right",
        "_lo",
        "_hi",
        "_depth",
        "_order",
        "_pre",
        "root_id",
        "node_count",
        "leaf_count_total",
    )

    def __init__(self, labels: Sequence[str | None], left: list[int], right: list[int]):
        if not len(left) == len(right) == len(labels):
            raise ValueError("left, right and labels must have equal length")
        self._labels = labels
        self._left = left
        self._right = right
        self.node_count = len(labels)
        try:
            indexed = self._build_index()
        except (IndexError, TypeError, ValueError):
            indexed = False
        if not indexed:
            self._name_fault()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[tuple]) -> "HierTree":
        """Build from ("I", id, (child ids...)) and ("L", id, label) records.

        Ids must form a dense range 0..n-1; a record that is not exactly
        (tag, id, payload), or an "I" record whose payload is not a
        sequence of integers, is a "bad-record" error.  Once every record
        is read, an "I" record without exactly two child ids is a
        "non-binary-internal" error, named at the lowest such id; only
        then are the links checked (see ``_name_fault``).
        """
        recs = list(records)
        n = len(recs)
        if n == 0:
            raise TreeStructureError("empty-tree")
        labels: list[str | None] = [None] * n
        left = [-1] * n
        right = [-1] * n
        seen = [False] * n
        arity: dict[int, int] = {}
        for rec in recs:
            try:
                tag, node_id, payload = rec
            except (TypeError, ValueError):
                raise TreeStructureError("bad-record", None, f"expected (tag, id, payload), got {rec!r}") from None
            if not isinstance(node_id, int) or not (0 <= node_id < n):
                raise TreeStructureError("bad-node-ids", None, f"ids must be dense 0..{n - 1}, got {node_id!r}")
            if seen[node_id]:
                raise TreeStructureError("duplicate-node-id", node_id)
            seen[node_id] = True
            if tag == "I":
                try:
                    kids = tuple(map(index, payload))
                except TypeError:
                    raise TreeStructureError(
                        "bad-record", node_id, f"child ids must be a sequence of integers, got {payload!r}"
                    ) from None
                if len(kids) == 2:
                    left[node_id], right[node_id] = kids
                else:
                    arity[node_id] = len(kids)
            elif tag == "L":
                labels[node_id] = str(payload)
            else:
                raise TreeStructureError("bad-record", node_id, f"unknown tag {tag!r}")
        if arity:
            v = min(arity)
            raise TreeStructureError("non-binary-internal", v, f"{arity[v]} children")
        return cls(labels, left, right)

    @classmethod
    def from_nested(cls, spec: NestedSpec) -> "HierTree":
        """Build from nested pairs, e.g. ``(("a", "b"), "c")``.

        A string is a leaf label; a 2-tuple is an internal node.  Ids are
        assigned in preorder (node before its left subtree, left before
        right), so every subtree occupies a contiguous id range.
        """
        return cls(*_preorder(spec, str))

    # -- structural checks -------------------------------------------------

    def _build_index(self) -> bool:
        """Index the tree in one preorder walk; False when the links are
        not a tree over uniquely labelled leaves.  May also raise
        IndexError, TypeError or ValueError on such links.

        A node is internal exactly when it has no label.  The walk gives
        the leaves their spans in order, each leaf's ``_hi`` the next one's
        ``_lo``; an internal node spans its left child's ``_lo`` to its
        right child's ``_hi``, set in reverse preorder.  ``_pre`` keeps the
        preorder, so reversed it visits children before their parents."""
        n = self.node_count
        left, right, labels = self._left, self._right, self._labels
        leaves = n - labels.count(None)
        # In a tree every id but the root's is a child id exactly once, and
        # each leaf adds -1 to both columns.
        root = n * (n - 1) // 2 - sum(left) - sum(right) - 2 * leaves
        lo = [0] * n
        hi = [0] * n
        depth = [0] * n
        order: list[str] = []
        pre: list[int] = []
        stack = [root]
        pop, push, visit, place = stack.pop, stack.append, pre.append, order.append
        pos = 0
        for _ in range(n):
            v = pop()
            visit(v)
            label = labels[v]
            if label is None:
                l = left[v]
                r = right[v]
                depth[l] = depth[r] = depth[v] + 1
                push(r)
                push(l)
            else:
                lo[v] = pos
                place(label)
                pos = len(order)
                hi[v] = pos
        # With n visits and nothing left to visit, a node visited twice
        # would have visited some leaf twice, so when every leaf was placed
        # and no label repeats, every node was visited once.  No visited id
        # is negative, so no -1 stood in for node n - 1, and every child id
        # of an internal node is a node: the -1 entries are the leaves'.
        if (
            stack
            or len(order) != leaves
            or len(set(order)) != leaves
            or min(pre) < 0
            or left.count(-1) != leaves
            or right.count(-1) != leaves
        ):
            return False
        for v in reversed(pre):
            if labels[v] is None:
                lo[v] = lo[left[v]]
                hi[v] = hi[right[v]]
        self.root_id = root
        self._lo = lo
        self._hi = hi
        self._depth = depth
        self._order = tuple(order)
        self._pre = pre
        self.leaf_count_total = leaves
        return True

    def _name_fault(self) -> NoReturn:
        """Raise TreeStructureError for the first fault of links that
        ``_build_index`` refused: an empty tree; then, reading the columns
        node by node in id order, a leaf whose links are not (-1, -1), an
        internal node's child link that is not a node id (dangling), or a
        node linked as a child twice or by itself; then no root or more
        than one; then a node unreachable from the root; then a repeated
        leaf label."""
        n = self.node_count
        if n == 0:
            raise TreeStructureError("empty-tree")
        labels = self._labels
        parent = [-1] * n
        for v, l, r, lab in zip(range(n), self._left, self._right, labels):
            if lab is not None:
                if l != -1 or r != -1:
                    raise TreeStructureError("leaf-with-children", v)
                continue
            for c in (l, r):
                if not (isinstance(c, int) and 0 <= c < n):
                    raise TreeStructureError("dangling-child", v, f"child id {c!r}")
                if parent[c] != -1 or c == v:
                    raise TreeStructureError("multiple-parents" if c != v else "cycle", c)
                parent[c] = v
        if -1 not in parent:
            raise TreeStructureError("no-root")
        root = parent.index(-1)
        if parent.count(-1) > 1:
            raise TreeStructureError("multiple-roots", parent.index(-1, root + 1))
        reached = {root}
        stack = [root]
        while stack:
            v = stack.pop()
            if labels[v] is None:
                kids = (self._left[v], self._right[v])
                reached.update(kids)
                stack.extend(kids)
        if len(reached) != n:
            # Each node has at most one parent, so any node unreachable from
            # the root sits in a detached component that must hold a cycle.
            bad = next(v for v in range(n) if v not in reached)
            raise TreeStructureError("cycle", bad, "unreachable from root")
        seen_labels: set[str] = set()
        for v, lab in enumerate(labels):
            if lab in seen_labels:
                raise TreeStructureError("duplicate-leaf-label", v, lab)
            if lab is not None:
                seen_labels.add(lab)
        raise InvariantError("the tree index walk refused links that every check accepts")

    def _check_id(self, v: int) -> None:
        if not (isinstance(v, int) and 0 <= v < self.node_count):
            raise KeyError(f"unknown node id {v!r}")

    # -- accessors ---------------------------------------------------------

    def is_leaf(self, v: int) -> bool:
        self._check_id(v)
        return self._labels[v] is not None

    def children(self, v: int) -> tuple[int, ...]:
        self._check_id(v)
        if self._labels[v] is not None:
            return ()
        return self._left[v], self._right[v]

    def left(self, v: int) -> int:
        self._check_id(v)
        if self._labels[v] is not None:
            raise ValueError(f"node {v} is a leaf")
        return self._left[v]

    def right(self, v: int) -> int:
        self._check_id(v)
        if self._labels[v] is not None:
            raise ValueError(f"node {v} is a leaf")
        return self._right[v]

    def label(self, v: int) -> str:
        self._check_id(v)
        lab = self._labels[v]
        if lab is None:
            raise ValueError(f"node {v} is internal")
        return lab

    def span(self, v: int) -> tuple[int, int]:
        """Half-open range of ``leaf_order`` positions covered by node v."""
        self._check_id(v)
        return self._lo[v], self._hi[v]

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

    def __repr__(self) -> str:
        return f"HierTree({self.node_count} nodes, {self.leaf_count_total} leaves)"


def is_pruning(tree: HierTree, nodes: Iterable[int]) -> bool:
    """True iff the node set partitions the leaf set (an antichain covering
    every leaf exactly once).  Single leaves may appear as pruning nodes."""
    node_list = list(nodes)
    for v in node_list:
        tree._check_id(v)
    if not node_list:
        return False
    lo, hi = tree._lo, tree._hi
    cursor = 0
    for v in sorted(node_list, key=lo.__getitem__):
        if lo[v] != cursor:
            return False
        cursor = hi[v]
    return cursor == tree.leaf_count_total


def _leaf_values(tree: HierTree, w: Mapping[str, float]) -> list[float]:
    """A label-keyed weighting as a list in ``leaf_order`` order.  Raises
    ValueError unless its labels are exactly the tree's leaves."""
    table = w._w if isinstance(w, WeightTable) else w
    try:
        vals = list(map(table.__getitem__, tree.leaf_order))
        if len(w) == tree.leaf_count_total:
            return vals
    except KeyError:
        pass
    missing = sum(1 for lab in tree.leaf_order if lab not in w)
    extra = len(w) - tree.leaf_count_total + missing
    raise ValueError(f"weighting does not match the tree's leaf set (missing {missing}, extra {extra})")


# Cut-overs of _few_distinct, node_discrepancies, _value_index and
# _refined_tv; their docstrings say how they are used.
_SMALL = 64
_GROUP_RATIO = 10
# Veltkamp's splitting constant 2**27 + 1, and the bounds under which
# ``_exact_sum`` sums split products; its docstring says why.
_VELTKAMP = float((1 << 27) + 1)
_SPLIT_TERM_CAP = 2.0**996
_SPLIT_COUNT_CAP = 1 << 27


def _few_distinct(vals: Collection) -> set | None:
    """The set of distinct items of ``vals`` when it holds at most one per
    ``_GROUP_RATIO`` items, else None.

    The head test comes first: the first ``_SMALL * _GROUP_RATIO`` items
    may hold at most ``bound = min(len(vals) // _GROUP_RATIO, _SMALL)``
    distinct ones.  Before it, the first ``bound + 1`` items alone are
    checked, since when those are all distinct the head fails too.  So a
    list of distinct items costs only ``bound + 1`` of them.
    ``span_sums`` and the weight file reader and writer (see ``fileio``)
    take their few-valued paths on this test."""
    cap = len(vals) // _GROUP_RATIO
    bound = min(cap, _SMALL)
    if len(set(islice(vals, bound + 1))) > bound:
        return None
    head = _SMALL * _GROUP_RATIO
    distinct = set(islice(vals, head))
    if len(distinct) <= bound:
        distinct.update(islice(vals, head, None))
        if len(distinct) <= cap:
            return distinct
    return None


def _over_one_denominator(xs: Iterable[float]) -> tuple[Iterator[int], int]:
    """The floats ``xs`` as integers over one denominator: ``(nums, D)``,
    with ``D`` the largest of their power-of-two denominators and ``nums``
    a lazy iterator over their numerators, in order, so that each x is
    exactly its numerator over ``D``.  Values are converted with
    ``float()`` first, as ``fsum`` does; a non-finite one raises
    ``float.as_integer_ratio``'s ValueError or OverflowError."""
    ratios = list(map(float.as_integer_ratio, map(float, xs)))
    den = max(map(itemgetter(1), ratios), default=1)
    return map(mul, map(itemgetter(0), ratios), map(floordiv, repeat(den), map(itemgetter(1), ratios))), den


def span_sums(vals: Sequence[float]) -> tuple[list[int], int]:
    """Exact prefix sums ``(P, D)`` of a list of finite weights.

    Over one power-of-two denominator ``D`` (``_over_one_denominator``)
    each prefix sum ``P[i]`` of ``vals[:i]`` is an exact integer.
    ``(P[hi] - P[lo]) / D`` is then one correctly rounded ``int / int``
    division, so it equals ``fsum(vals[lo:hi])`` bit for bit, in O(1).
    A list that ``_few_distinct`` finds few-valued has each distinct value
    scaled once; any other list has each value scaled, since a per-value
    map would cost more than it saves.
    """
    distinct = _few_distinct(vals)
    if distinct is None:
        nums, den = _over_one_denominator(vals)
    else:
        keys = list(distinct)
        nums, den = _over_one_denominator(keys)
        nums = map(dict(zip(keys, nums)).__getitem__, vals)
    return list(accumulate(nums, initial=0)), den


class _Stats:
    """Exact statistics of one instance, a tree under a weighting: the tree
    ``tree``, the leaf values ``vals`` as a tuple in ``leaf_order`` order,
    and what is derived from them, each built on its first read and then
    kept (``functools.cached_property``):

    - ``prefix``, their exact prefix sums ``(P, D)`` from ``span_sums``.
      Only ``Oracle`` and the discrepancy pass read them, so scoring a
      result, and ``node_discrepancy`` or ``pruning_discrepancy`` against
      a mapping that is not a ``WeightTable``, whose entry is built per
      call, never pay for them;
    - ``disc``, the node discrepancies from ``_discrepancy_pass``, which
      ``node_discrepancies`` copies out;
    - ``index``, which maps each distinct leaf value of a few-valued
      instance (``_value_index``) to its ascending leaf positions, one
      ``array('q')`` per value, 8 bytes per leaf in all, and is None for
      any other instance.

    ``counts`` maps each node a result was scored on to its span's
    value -> count map when that span was counted from the index
    (``_indexed_counts``), else to None; ``_refined_tv`` fills it."""

    def __init__(self, tree: HierTree, w: Mapping[str, float]):
        self.tree = tree
        self.vals = tuple(_leaf_values(tree, w))
        self.counts: dict[int, dict | None] = {}

    @cached_property
    def prefix(self) -> tuple[list[int], int]:
        return span_sums(self.vals)

    @cached_property
    def index(self) -> dict[float, array] | None:
        return _value_index(self.vals)

    @cached_property
    def disc(self) -> list[float]:
        return _discrepancy_pass(self)


def _value_index(vals: Sequence[float]) -> dict[float, array] | None:
    """Each distinct value of ``vals`` -> its ascending positions, when
    ``vals`` holds at most one distinct value per ``_GROUP_RATIO`` items,
    else None.  One pass, which stops at the first value past that cap;
    0.0 and -0.0 compare equal, so they share one entry."""
    cap = len(vals) // _GROUP_RATIO
    index: dict[float, array] = {}
    for pos, x in enumerate(vals):
        try:
            index[x].append(pos)
        except KeyError:
            if len(index) == cap:
                return None
            index[x] = array("q", (pos,))
    return index


def _instance_stats(tree: HierTree, w: Mapping[str, float]) -> _Stats:
    """The exact statistics of ``tree`` under ``w``, computed once per
    (tree, ``WeightTable``) pair.

    A table keeps one entry, that of the last tree it was asked about, and
    a call with that same tree (``entry.tree is tree``) returns it; a call
    with another tree replaces it.  The references run one way, table to
    entry to tree, so the entry is freed with the table, and a table keeps
    its last tree alive.  Any other mapping may change between calls, so
    its entry is built afresh every time and not kept.
    """
    if not isinstance(w, WeightTable):
        return _Stats(tree, w)
    entry = w._stats
    if entry is None or entry.tree is not tree:
        entry = w._stats = _Stats(tree, w)
    return entry


def _discrepancy(vals: Sequence[float]) -> float:
    """Sum of |mean - value| over a non-empty list of weights."""
    avg = fsum(vals) / len(vals)
    return fsum(map(abs, map(sub, repeat(avg, len(vals)), vals)))


def _exact_sum(groups: Sequence[tuple[float, Mapping]], singles: Iterable[float] = ()) -> float:
    """The exact sum of m * |a - x| over the value counts ``{x: m}`` of
    every group ``(a, counts)``, plus the floats ``singles`` (read once),
    correctly rounded.

    Each term t = |a - x| is rounded to a float as ``fsum`` rounds it, so
    the result equals ``fsum`` over a list that holds each t m times and
    each single once, bit for bit.  Veltkamp's split with the constant
    2**27 + 1 cuts each t into halves ``hi + lo == t`` of at most 26
    significant bits each, in IEEE-754 binary64 with round to nearest,
    underflow included (Dekker 1971; Boldo 2006).  A count m below 2**27
    has at most 27 bits, so m * hi and m * lo are exact floats, and one
    ``fsum`` over these 2g products and the singles, which rounds their
    exact sum correctly (Shewchuk 1997), is the result, in about one
    Python step per term.  The split needs t * (2**27 + 1) finite, so it
    is taken only when every t is below 2**996 and all the counts sum to
    below 2**27.  Then the products' exact total is below 2**1023, so no
    product overflows.  Otherwise the m-fold terms and the singles are
    summed exactly as integers over one denominator
    (``_over_one_denominator``), and the one ``int / int`` division rounds
    correctly, or raises ``OverflowError`` when the total passes the float
    range.
    """
    products: list[float] = []
    add = products.append
    total = 0
    for a, counts in groups:
        total += sum(counts.values())
        if total >= _SPLIT_COUNT_CAP:
            break
        for x, m in counts.items():
            t = abs(a - x)
            if not t < _SPLIT_TERM_CAP:
                break
            scaled = t * _VELTKAMP
            hi = scaled - (scaled - t)
            add(m * hi)
            add(m * (t - hi))
        else:
            continue
        break
    else:
        return fsum(chain(products, singles)) if singles else fsum(products)
    terms = chain.from_iterable(map(abs, map(sub, repeat(a), counts)) for a, counts in groups)
    nums, d = _over_one_denominator(chain(terms, singles))
    # Each single counts once.
    ms = chain(chain.from_iterable(counts.values() for _, counts in groups), repeat(1))
    return sum(map(mul, ms, nums)) / d


def _indexed_counts(index: Mapping[float, array], lo: int, hi: int) -> dict:
    """The value -> count map of the positions ``[lo, hi)`` of the list
    that ``index`` indexes (see ``_Stats.index``), without zero counts:
    two ``bisect_left`` per value of the list."""
    counts = {}
    for x, positions in index.items():
        start = bisect_left(positions, lo)
        m = bisect_left(positions, hi, start) - start
        if m:
            counts[x] = m
    return counts


def node_discrepancy(tree: HierTree, v: int, w: Mapping[str, float]) -> float:
    """Sum over the node's leaves of |node_average - leaf_weight|.

    The node average is the node's total mass divided by its leaf count, so
    this is the l1 gap between the target restricted to the node and the
    uniform spread of the node's mass.
    """
    lo, hi = tree.span(v)
    return _discrepancy(_instance_stats(tree, w).vals[lo:hi])


def node_discrepancies(tree: HierTree, w: Mapping[str, float]) -> list[float]:
    """Discrepancy of every node, indexed by node id; a leaf's is 0.0.

    Every value equals ``fsum`` of |avg - x| over the node's leaf values x
    bit for bit, with ``avg`` the node's exact prefix-sum mass
    ``(P[hi] - P[lo]) / D`` (see ``span_sums``) over its leaf count.

    Nodes are visited children first.  A node of more than ``_SMALL``
    leaves builds the value -> count map of its span, a plain dict: it
    merges its children's maps, the smaller into the larger, and counts
    the leaves of a child of at most ``_SMALL`` leaves, which keeps no
    map, with the C loop behind ``Counter.update``.  When the map holds at
    most one distinct value per ``_GROUP_RATIO`` leaves, the node costs
    one term per distinct value, summed as exact split products under one
    ``fsum`` (``_exact_sum``); otherwise it walks its leaves.
    Every node keeps its map, so an ancestor with few distinct values per
    leaf is summed by value whatever its descendants did.  So a target
    with g distinct values costs about the node count times g on every
    tree shape, and one with all-distinct values the sum of all span
    lengths, as a leaf pass does, plus the merges (at most n log2 n
    entries for n leaves).  Maps are freed as soon as the parent has
    taken them.  On a 3,000-leaf caterpillar with 10 distinct values a
    pass takes about 11 ms (Python 3.11, 2-core host), about 3 µs per
    grouped node.

    The pass runs once per (tree, ``WeightTable``) pair, on the first read
    of the pair's statistics entry's ``disc`` (see ``_Stats``), which the
    table holds while it is asked about that tree (see
    ``_instance_stats``); every call returns a fresh copy of it.  Any
    other mapping gets a fresh entry per call, so each call with it runs
    the pass.
    """
    return list(_instance_stats(tree, w).disc)


def _discrepancy_pass(stats: _Stats) -> list[float]:
    """The pass of ``node_discrepancies`` over the tree, leaf values and
    prefix sums of ``stats``."""
    tree, vals = stats.tree, stats.vals
    sums, den = stats.prefix
    out = [0.0] * tree.node_count
    span_lo, span_hi, left, right = tree._lo, tree._hi, tree._left, tree._right
    counts: list[dict | None] = [None] * tree.node_count
    for v in reversed(tree._pre):
        lo = span_lo[v]
        hi = span_hi[v]
        c = hi - lo
        if c == 1:
            continue
        avg = (sums[hi] - sums[lo]) / den / c
        if c > _SMALL:
            l = left[v]
            r = right[v]
            mid = span_hi[l]
            # A child of at most _SMALL leaves has no map: take its leaves.
            a = counts[l] if mid - lo > _SMALL else vals[lo:mid]
            b = counts[r] if hi - mid > _SMALL else vals[mid:hi]
            counts[l] = counts[r] = None
            # Count into the larger map; a slice of vals is no map.
            if isinstance(a, tuple) or (not isinstance(b, tuple) and len(a) < len(b)):
                a, b = b, a
            if isinstance(a, tuple):
                leaves, a = a, {}
                _count_elements(a, leaves)
            if isinstance(b, tuple):
                _count_elements(a, b)
            else:
                # Add the shared values one by one, and copy the rest in C.
                for x in a.keys() & b.keys():
                    b[x] += a[x]
                a.update(b)
            counts[v] = a
            if len(a) * _GROUP_RATIO <= c:
                out[v] = _exact_sum(((avg, a),))
                continue
        out[v] = fsum(map(abs, map(sub, repeat(avg, c), vals[lo:hi])))
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
    vals = _instance_stats(tree, w).vals
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


def _refined_shares(
    tree: HierTree,
    pruning: Iterable[int],
    node_weights: Mapping[int, float],
    queried: Mapping[int, float],
) -> list[tuple[int, int, int, float, list[int]]]:
    """The refined weighting node by node: for each pruning node v, in the
    given order, ``(v, lo, hi, share, pins)``, with ``pins`` the queried
    leaf positions in v's span ``[lo, hi)``, ascending, and ``share`` the
    weight of each of its other leaves.  That is v's residual mass, its
    mass less the pinned weights (their ``fsum``) and clamped at zero,
    over the number of those leaves, or 0.0 when every leaf is pinned."""
    pins = sorted(queried)
    out = []
    for v in pruning:
        lo, hi = tree.span(v)
        known = pins[bisect_left(pins, lo) : bisect_left(pins, hi)]
        residual = node_weights[v] - fsum(map(queried.__getitem__, known))
        if residual < 0.0:
            # Queried masses can only overshoot the node total by rounding.
            residual = 0.0
        rest = hi - lo - len(known)
        out.append((v, lo, hi, residual / rest if rest else 0.0, known))
    return out


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
    return _spread_shares(tree, _refined_shares(tree, pruning, node_weights, queried), queried)


def _spread_shares(tree: HierTree, shares: Iterable[tuple], queried: Mapping[int, float]) -> list[float]:
    """The refined weighting that ``shares`` (see ``_refined_shares``)
    gives node by node, as a list in ``leaf_order`` order."""
    out = [0.0] * tree.leaf_count_total
    for _, lo, hi, share, pins in shares:
        out[lo:hi] = _refined_span(lo, hi, share, pins, queried)
    return out


def _refined_span(lo: int, hi: int, share: float, pins: list[int], queried: Mapping[int, float]) -> list[float]:
    """The refined weighting over one pruning node's span ``[lo, hi)``:
    its share on every leaf, but each pin's queried weight on the pins."""
    out = [share] * (hi - lo)
    for pos in pins:
        out[pos - lo] = queried[pos]
    return out


def _refined_tv(
    shares: Iterable[tuple[int, int, int, float, list[int]]],
    queried: Mapping[int, float],
    stats: _Stats,
) -> float:
    """``tv_distance`` between the refined weighting given by ``shares``
    (see ``_refined_shares``) and ``queried``, and the leaf values of the
    statistics entry ``stats``, bit for bit, without the refined list.

    Every unqueried leaf of a node with share q adds the term |q - x| for
    its true weight x, and every pinned leaf p adds |queried[p] - x|,
    which is 0.0 when the entry holds the values the oracle answered.  On
    a few-valued instance, whose entry has a value ``index``, a node whose
    span holds at least ``_GROUP_RATIO`` leaves per distinct value of the
    instance is counted from the index (``_indexed_counts``, two
    bisections per distinct value) and adds each distinct x's term once,
    times its count in the span, and each of its pins adds minus the term
    |q - x| that its leaf got there.  Each node's value counts, or None,
    are kept in the entry's ``counts``, so the results of an instance
    count each node's span once, and the index is built on the instance's
    first score.  Any other node walks the refined weighting over its
    span (``_refined_span``) leaf by leaf, as ``tv_distance`` walks the
    whole list.  All these terms go under one exact sum (``_exact_sum``),
    so the result is ``fsum`` over the per-leaf terms, halved, as
    ``tv_distance`` computes it, whenever that sum is finite.
    """
    truth, memo, index = stats.vals, stats.counts, stats.index
    long_span = inf if index is None else _GROUP_RATIO * len(index)
    groups: list[tuple[float, dict]] = []
    singles: list[Iterable[float]] = []
    for v, lo, hi, share, pins in shares:
        if v in memo:
            few = memo[v]
        else:
            few = memo[v] = _indexed_counts(index, lo, hi) if hi - lo >= long_span else None
        if few is None:
            singles.append(map(abs, map(sub, _refined_span(lo, hi, share, pins, queried), truth[lo:hi])))
            continue
        groups.append((share, few))
        if pins:
            # Each pin's term replaces the share's term counted above.
            pinned = list(map(truth.__getitem__, pins))
            singles.append(map(abs, map(sub, map(queried.__getitem__, pins), pinned)))
            singles.append(map(neg, map(abs, map(sub, repeat(share), pinned))))
    return 0.5 * _exact_sum(groups, chain.from_iterable(singles))


def tv_distance(w1: Sequence[float], w2: Sequence[float]) -> float:
    """Total variation distance: half the l1 distance between two
    weightings given as equal-length lists in ``leaf_order`` order."""
    if len(w1) != len(w2):
        raise ValueError(f"weightings have different lengths ({len(w1)} and {len(w2)})")
    return 0.5 * fsum(map(abs, map(sub, w1, w2)))


def _split_qualities(tree: HierTree, disc: Sequence[float]) -> tuple[float | None, float | None]:
    """``split_quality`` and ``average_split_quality`` from one pass over
    the internal nodes: the larger child's share of the parent
    discrepancy, for every internal node with positive discrepancy."""
    shares = [
        max(disc[l], disc[r]) / d
        for l, r, d in zip(tree._left, tree._right, disc)
        if l >= 0 and d > 0.0
    ]
    if not shares:
        return None, None
    return max(shares), fsum(shares) / len(shares)


def split_quality(tree: HierTree, disc: Sequence[float]) -> float | None:
    """Largest child-to-parent discrepancy ratio over internal nodes with
    positive discrepancy; None when no such node exists.  ``disc`` is the
    list returned by ``node_discrepancies``."""
    return _split_qualities(tree, disc)[0]


def average_split_quality(tree: HierTree, disc: Sequence[float]) -> float | None:
    """Mean over internal nodes with positive discrepancy of the larger
    child's share of the parent discrepancy; None when undefined.  ``disc``
    is the list returned by ``node_discrepancies``."""
    return _split_qualities(tree, disc)[1]


def _checked_int(name: str, value, lo: int, hi: float = inf) -> int:
    """``value`` as an int, once it is checked to be an integer that
    ``operator.index`` takes (so a bool counts as 0 or 1) in ``lo..hi``.
    Anything else, 2.5, 3.0, "3" or None among them, raises the
    ValueError "``name`` must be in lo..hi", or "at least lo" without
    ``hi``."""
    try:
        checked = index(value)
    except TypeError:
        checked = None
    if checked is None or not lo <= checked <= hi:
        bound = f"at least {lo}" if hi == inf else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return checked


def optimal_pruning(
    tree: HierTree,
    k: int,
    w: Mapping[str, float],
) -> tuple[tuple[int, ...], float]:
    """Minimum-discrepancy pruning of size at most k, by exact dynamic
    programming over the tree, in two phases.

    The value pass computes, for each node and budget b, the least
    discrepancy of a pruning of its subtree with at most b nodes: either
    the node kept whole (its discrepancy) or the best split of b between
    the children.  Its left budgets run from ``max(1, b - n_r)`` to
    ``min(n_l, b - 1)``, for children of n_l and n_r leaves, since a
    budget past a child's leaf count buys that child nothing.  It takes
    O(n·k) time for n leaves on every tree shape.

    Every cost row is non-increasing in the budget, by induction from the
    leaves' ``[0.0]``: each candidate of budget b has one of budget b + 1
    that gives each child a budget no smaller, so it costs no more, and
    ``keep`` stays a candidate.  IEEE-754 addition rounds monotonically:
    fl(x + y) <= fl(x' + y') whenever x <= x' and y <= y'.  So, with L(j)
    and R(j) the children's costs at budget j, every left budget below bl
    costs at least fl(L(bl) + min R), and every one above it at least
    fl(min L + R(b - bl)), for the least right and left costs that budget
    b can reach.  The scan of budget b starts at the previous budget's
    best left budget, walks down and then up, and stops each walk once its
    bound reaches the best cost so far.  No candidate it skips is strictly
    cheaper, so each row holds exactly the minimum that a scan of every
    left budget finds, bit for bit.  On the 4,096-leaf median-split tree,
    with its discrepancies kept, a call takes about 13 ms at k=40 and
    31 ms at k=160, against 16 and 45 ms with a scan of every left budget
    (Python 3.11, 2-core host).

    Beside a leaf child, on either side, every budget b above 1 has one
    candidate: the leaf's cost, 0.0, plus the other child's cost at
    b - 1.  That row does not increase, so the node's row, of length
    ``top``, is a clamp: ``keep`` (its discrepancy) for budget 1 and for
    each of the other child's leading costs of at least ``keep`` (``keep``
    wins a tie), then the rest of the other child's first ``top - 1``
    costs.  ``bisect_right`` finds where that run of costs ends, so the
    row is built by two C-level list operations.  Every node of a
    caterpillar is such a node: at 3,000 leaves the value pass takes about
    4 ms at k=40 (Python 3.11, 2-core host).

    The read-back walks down from the root with budget k and repeats one
    node's scan at each node it reaches, this time over every left budget
    from 1, to recover the choice.  Ties prefer not splitting and then the
    smaller left budget: a split is taken only when it is strictly cheaper,
    and among equally cheap splits the one with the smallest left budget
    wins.  This makes the reported pruning deterministic.  It reaches at
    most 2k - 1 nodes at O(k) each, so O(k²) in all.

    The ``node_discrepancies`` pass before both costs about the node count
    times the number of distinct leaf values when that number is small,
    and otherwise about the sum of all node leaf counts, as a leaf pass.
    It runs once per (tree, ``WeightTable``) pair, so further calls on the
    same pair, at any k, reuse it (see ``node_discrepancies``); the value
    pass runs on every call.
    """
    k = _checked_int("k", k, 1, tree.leaf_count_total)
    disc = node_discrepancies(tree, w)

    # cost[v][b-1]: best discrepancy for the subtree at v using at most b
    # pruning nodes, for b up to min(k, leaf count).  cost[v] is
    # non-increasing in b (see above).
    cost: list[list[float]] = [[]] * tree.node_count
    left, right = tree._left, tree._right
    for v in reversed(tree._pre):
        l = left[v]
        if l < 0:
            cost[v] = [0.0]
            continue
        r = right[v]
        cost_l, cost_r = cost[l], cost[r]
        n_l, n_r = len(cost_l), len(cost_r)
        keep = disc[v]
        top = n_l + n_r if n_l + n_r < k else k
        if n_l == 1 or n_r == 1:
            # Beside a leaf child, whose row is [0.0], budget b has one
            # candidate: the other child's cost at budget b - 1.  That row
            # does not increase, so its costs of at least keep come first,
            # j of them, and each of them yields to keep.  (At k = 1 every
            # row has one cost, and top is 1.)
            other = cost_r if n_l == 1 else cost_l
            j = bisect_right(other, -keep, 0, top - 1, key=neg)
            cost[v] = [keep] * (j + 1) + other[j : top - 1]
            continue
        # Both children have two leaves or more, so budget 1 keeps v, and
        # every budget b from 2 has a split.  The scan starts at p, the
        # previous budget's best left budget, and walks down, then up;
        # low_r and low_l are the least right and left costs that b can
        # reach, which bound every candidate past the walk's position
        # (see above).  Neither end of the range of left budgets falls as
        # b grows, so p can fall below the range but never above it.
        cv = [keep]
        p = 1
        for b in range(2, top + 1):
            best = keep
            start = b - n_r if b - n_r > 1 else 1
            end = n_l if n_l < b - 1 else b - 1
            if p < start:
                p = start
            low_r = cost_r[b - start - 1]
            low_l = cost_l[end - 1]
            pick = bl = p
            while bl >= start:
                x = cost_l[bl - 1]
                if x + low_r >= best:
                    break
                c = x + cost_r[b - bl - 1]
                if c < best:
                    best = c
                    pick = bl
                bl -= 1
            bl = p + 1
            while bl <= end:
                y = cost_r[b - bl - 1]
                if low_l + y >= best:
                    break
                c = cost_l[bl - 1] + y
                if c < best:
                    best = c
                    pick = bl
                bl += 1
            p = pick
            cv.append(best)
        cost[v] = cv

    result: list[int] = []
    stack = [(tree.root_id, k)]
    while stack:
        v, b = stack.pop()
        # A split may give a child more budget than it has leaves.
        b = min(b, len(cost[v]))
        best = disc[v]
        pick = 0
        l = left[v]
        if l >= 0:
            r = right[v]
            cost_l, cost_r = cost[l], cost[r]
            n_r = len(cost_r)
            for bl in range(1, min(len(cost_l), b - 1) + 1):
                c = cost_l[bl - 1] + cost_r[(b - bl if b - bl < n_r else n_r) - 1]
                if c < best:
                    best = c
                    pick = bl
        if pick:
            stack.append((l, pick))
            stack.append((r, b - pick))
        else:
            result.append(v)
    result.sort()
    return tuple(result), cost[tree.root_id][-1]
