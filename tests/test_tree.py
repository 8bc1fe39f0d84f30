"""Tree structure validation, pruning identities, and the exact DP."""

import copy
import gc
import math
import pickle
import random
import sys
from collections import Counter
from fractions import Fraction
from math import fsum
from time import monotonic

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import awpkit.tree as tree_mod
from awpkit.baselines import BaselineCell, run_uniform
from awpkit.engine import normalized_distance
from awpkit.fileio import dumps_tree, loads_tree
from awpkit.oracle import Oracle, TargetSpec, build_median_split_tree, make_geometric_target, random_features
from awpkit.tree import (
    FileFormatError,
    HierTree,
    TreeStructureError,
    WeightTable,
    _LoadedWeights,
    _exact_sum,
    _few_distinct,
    average_split_quality,
    induced_weighting,
    is_pruning,
    node_discrepancies,
    node_discrepancy,
    optimal_pruning,
    _leaf_values,
    pruning_discrepancy,
    refine_with_queries,
    span_sums,
    split_quality,
    tv_distance,
)

from helpers import (
    caterpillar,
    dyadic_weight_table,
    enumerate_prunings,
    leaf_ids,
    leaves_under,
    random_pruning,
    random_tree,
    random_weight_table,
    reference_grouped_deviation,
    reference_node_discrepancies,
    reference_optimal_pruning,
    reference_refine_with_queries,
    reference_span_sums,
    reference_tree_index,
    reference_tv_distance,
)


# Tree records that each break one structural rule, with the violation kind.
INVALID_RECORDS = [
    ([], "empty-tree"),
    ([("I", 0, (1,)), ("L", 1, "a")], "non-binary-internal"),
    ([("I", 0, (1, 5)), ("L", 1, "a"), ("L", 2, "b")], "dangling-child"),
    (
        [("I", 0, (1, 2)), ("I", 1, (3, 3)), ("L", 2, "a"), ("L", 3, "b")],
        "multiple-parents",
    ),
    ([("I", 0, (0, 1)), ("L", 1, "a")], "cycle"),
    (
        [
            ("L", 0, "a"),
            ("I", 1, (2, 3)),
            ("I", 2, (1, 4)),
            ("L", 3, "b"),
            ("L", 4, "c"),
        ],
        "cycle",
    ),
    ([("I", 0, (1, 2)), ("I", 1, (0, 3)), ("L", 2, "a"), ("L", 3, "b")], "no-root"),
    (
        [("I", 0, (1, 2)), ("L", 1, "a"), ("L", 2, "b"), ("L", 3, "c")],
        "multiple-roots",
    ),
    ([("I", 0, (1, 2)), ("L", 1, "a"), ("L", 1, "b")], "duplicate-node-id"),
    ([("I", 0, (1, 2)), ("L", 1, "a"), ("L", 7, "b")], "bad-node-ids"),
    ([("Z", 0, ()), ("L", 1, "a")], "bad-record"),
    ([("I", 0, (1, 2)), ("L", 1, "a"), ("L", 2, "a")], "duplicate-leaf-label"),
]


def quad_tree():
    return HierTree.from_nested((("a", "b"), ("c", "d")))


class TestStructure:
    @pytest.mark.parametrize("spine", ["left", "right"])
    def test_deep_from_nested_matches_records(self, spine):
        # Depth 5000, far past the interpreter's recursion limit.
        n = 5001
        labels = [f"x{i:04d}" for i in range(n)]
        if spine == "right":
            spec = labels[-1]
            for lab in reversed(labels[:-1]):
                spec = (lab, spec)
            records = [("L", 2 * n - 2, labels[-1])]
            for i in range(n - 1):
                records += [("I", 2 * i, (2 * i + 1, 2 * i + 2)), ("L", 2 * i + 1, labels[i])]
        else:
            spec = labels[0]
            for lab in labels[1:]:
                spec = (spec, lab)
            records = [("L", n - 1, labels[0])]
            for d in range(n - 1):
                records += [("I", d, (d + 1, 2 * n - 2 - d)), ("L", 2 * n - 2 - d, labels[n - 1 - d])]
        t = HierTree.from_nested(spec)
        assert t.max_depth == n - 1
        assert dumps_tree(t) == dumps_tree(HierTree.from_records(records))

    def test_from_nested_assigns_preorder_ids(self):
        t = HierTree.from_nested((("a", "b"), "c"))
        assert t.node_count == 5
        assert t.root_id == 0
        assert t.children(0) == (1, 4)
        assert t.children(1) == (2, 3)
        assert t.label(2) == "a"
        assert t.label(3) == "b"
        assert t.label(4) == "c"
        assert t.leaf_order == ("a", "b", "c")
        assert t.span(0) == (0, 3)
        assert t.span(1) == (0, 2)
        assert t.span(3) == (1, 2)
        assert t.leaf_count(1) == 2
        assert [t.depth(v) for v in range(5)] == [0, 1, 2, 2, 1]
        assert t.max_depth == 2
        assert t.left(1) == 2 and t.right(1) == 3
        assert t.internal_ids() == [0, 1]
        assert leaf_ids(t) == [2, 3, 4]

    def test_from_records_matches_nested_in_any_order(self):
        records = [
            ("I", 0, (1, 4)),
            ("I", 1, (2, 3)),
            ("L", 2, "a"),
            ("L", 3, "b"),
            ("L", 4, "c"),
        ]
        want = HierTree.from_nested((("a", "b"), "c"))
        for perm in (records, records[::-1], records[2:] + records[:2]):
            t = HierTree.from_records(perm)
            assert t.leaf_order == want.leaf_order
            assert all(t.children(v) == want.children(v) for v in range(5))

    @pytest.mark.parametrize("records,kind", INVALID_RECORDS)
    def test_invalid_records_identify_the_violation(self, records, kind):
        with pytest.raises(TreeStructureError) as err:
            HierTree.from_records(records)
        assert err.value.kind == kind

    @pytest.mark.parametrize("record", [("I", 0), ("L", 0), (), ("L", 0, "a", "b"), None, ("I", 0, "12")])
    def test_record_not_a_triple_is_a_bad_record(self, record):
        # Not part of INVALID_RECORDS, which is also written as HWT text.
        with pytest.raises(TreeStructureError) as err:
            HierTree.from_records([record, ("L", 1, "b")])
        assert err.value.kind == "bad-record"

    @pytest.mark.parametrize("payload", [5, None, ("x", "y"), (1.5, 2), (1, "2")])
    def test_non_integer_child_ids_are_a_bad_record(self, payload):
        # None of these may escape as a TypeError or ValueError, and a float
        # child id may not be truncated to an integer one.
        with pytest.raises(TreeStructureError) as err:
            HierTree.from_records([("I", 0, payload), ("L", 1, "a"), ("L", 2, "b")])
        assert err.value.kind == "bad-record"
        assert err.value.node_id == 0

    @pytest.mark.parametrize("kids", [(1.5, 2), (1, "2"), (None, 2), (1, 2.0)])
    def test_non_integer_child_id_is_a_dangling_child(self, kids):
        with pytest.raises(TreeStructureError) as err:
            HierTree([kids, (), ()], [None, "a", "b"])
        assert err.value.kind == "dangling-child"
        assert err.value.node_id == 0

    @pytest.mark.parametrize("records,kind", INVALID_RECORDS)
    def test_invalid_hwt_text_identifies_the_same_violation(self, records, kind):
        # loads_tree fills the node lists itself, so it must find what
        # from_records finds.  An internal node without two children, or an
        # unknown tag, cannot be written as an HWT record at all.
        rows = ["HWT 1"]
        for tag, node_id, payload in records:
            rows.append(f"{tag} {node_id} {payload if tag == 'L' else ' '.join(map(str, payload))}")
        text = "\n".join(rows) + "\n"
        if kind in ("non-binary-internal", "bad-record"):
            with pytest.raises(FileFormatError):
                loads_tree(text)
            return
        with pytest.raises(TreeStructureError) as err:
            loads_tree(text)
        assert err.value.kind == kind

    def test_leaf_with_children_detected(self):
        with pytest.raises(TreeStructureError) as err:
            HierTree([(1, 2), (), ()], ["x", "a", "b"])
        assert err.value.kind == "leaf-with-children"

    def test_single_leaf_tree(self):
        t = HierTree.from_nested("only")
        assert t.node_count == 1
        assert t.is_leaf(t.root_id)
        assert t.leaf_order == ("only",)
        assert t.max_depth == 0
        assert is_pruning(t, [0])

    def test_unknown_node_id_raises(self):
        t = quad_tree()
        with pytest.raises(KeyError):
            t.span(99)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_trees_have_contiguous_spans(self, seed):
        rng = random.Random(seed)
        t = random_tree(rng, rng.randint(2, 40))
        for v in range(t.node_count):
            lo, hi = t.span(v)
            assert 0 <= lo < hi <= t.leaf_count_total
            if not t.is_leaf(v):
                l, r = t.children(v)
                assert t.span(l)[0] == lo
                assert t.span(l)[1] == t.span(r)[0]
                assert t.span(r)[1] == hi
        assert sorted(leaves_under(t, t.root_id)) == sorted(t.leaf_order)


def _shuffled_links(rng, n: int) -> tuple[list, list]:
    """Children and labels of a random tree over n leaves, with its ids
    permuted so that the root and the id order are arbitrary."""
    tree = random_tree(rng, n)
    perm = list(range(tree.node_count))
    rng.shuffle(perm)
    children: list = [()] * tree.node_count
    labels: list = [None] * tree.node_count
    for v in range(tree.node_count):
        children[perm[v]] = tuple(perm[c] for c in tree.children(v))
        labels[perm[v]] = tree.label(v) if tree.is_leaf(v) else None
    return children, labels


_CORRUPTIONS = ("relink", "dangling", "arity", "label", "duplicate-label", "detached", "swap")


def _corrupt(rng, children: list, labels: list, kind: str) -> None:
    """Break the links or labels in place, one way per kind: a child link
    moved to any node (multiple parents, a cycle or a lost root), a child
    id out of range, an internal node without two children or a leaf with
    some, a label added or removed, two leaves with one label, a detached
    two-node cycle, or the children of two nodes swapped."""
    n = len(children)
    v = rng.randrange(n)
    internal = [u for u in range(n) if children[u]]
    if kind in ("relink", "dangling") and internal:
        u = rng.choice(internal)
        kids = list(children[u])
        i = rng.randrange(len(kids))
        # A negative id that indexes the node it replaces is out of range too.
        kids[i] = rng.randrange(n) if kind == "relink" else rng.choice([kids[i] - n, -1, n, n + 7])
        children[u] = tuple(kids)
    elif kind == "arity":
        if children[v] and rng.random() < 0.5:
            children[v] = ()
        else:
            children[v] = tuple(rng.randrange(n) for _ in range(rng.choice([1, 2, 3])))
    elif kind == "label":
        labels[v] = None if labels[v] is not None else "new"
    elif kind == "duplicate-label":
        leaves = [u for u in range(n) if not children[u]] or [v]
        labels[rng.choice(leaves)] = labels[rng.choice(leaves)]
    elif kind == "detached":
        children += [(n + 1, n + 2), (n, n + 3), (), ()]
        labels += [None, None, "da", "db"]
    elif kind == "swap":
        u = rng.randrange(n)
        children[u], children[v] = children[v], children[u]


def _index_outcome(build, children, labels):
    """A tree's root, spans, depths, leaf order and preorder, or the kind,
    node id and message of the TreeStructureError that refuses it."""
    try:
        return build(children, labels)
    except TreeStructureError as exc:
        return exc.kind, exc.node_id, str(exc)


def _tree_index(t):
    n = t.node_count
    return t.root_id, [t.span(v) for v in range(n)], [t.depth(v) for v in range(n)], t.leaf_order, list(t._pre)


def _one_walk_index(children, labels):
    return _tree_index(HierTree(children, labels))


class TestIndexMatchesReference:
    """``HierTree`` checks and indexes the links in one walk and names a
    fault only after that walk refuses them; it gives the same index, or
    the same error kind, node id and message, as the two-pass reference."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32), kinds=st.lists(st.sampled_from(_CORRUPTIONS), max_size=2))
    def test_same_index_or_same_fault(self, seed, kinds):
        rng = random.Random(seed)
        children, labels = _shuffled_links(rng, rng.randint(1, 30))
        for kind in kinds:
            _corrupt(rng, children, labels, kind)
        want = _index_outcome(reference_tree_index, children, labels)
        assert _index_outcome(_one_walk_index, children, labels) == want
        if not kinds:
            assert isinstance(want[1], list)

    @pytest.mark.parametrize(
        "children,labels",
        [
            ([], []),
            # One node that is both of its own children: its walk pops the
            # one node and leaves two to visit.
            ([(0, 0)], [None]),
            ([(1, 2), (0, 3), (), ()], [None, None, "a", "b"]),
            ([(1, 2), (), (-1, 1), ()], [None, "a", None, "b"]),
        ],
    )
    def test_hand_written_faults(self, children, labels):
        want = _index_outcome(reference_tree_index, children, labels)
        assert isinstance(want[0], str)
        assert _index_outcome(_one_walk_index, children, labels) == want

    @pytest.mark.parametrize("fault", [None, "back-to-root", "detached"])
    def test_deep_caterpillar_without_recursion(self, fault):
        # Spine node i has children (leaf i, spine i + 1); leaf j is d + j.
        d = 100_000
        children: list = [(d + i, i + 1) for i in range(d - 1)] + [(2 * d - 1, 2 * d)] + [()] * (d + 1)
        labels: list = [None] * d + [f"c{j}" for j in range(d + 1)]
        if fault == "back-to-root":
            children[d - 1] = (2 * d - 1, 0)
        elif fault == "detached":
            _corrupt(random.Random(0), children, labels, "detached")
        want = _index_outcome(reference_tree_index, children, labels)
        assert _index_outcome(_one_walk_index, children, labels) == want
        if fault is None:
            assert HierTree(children, labels).max_depth == d


def _columns(children, labels):
    """The column form of tuple links: (left, right) per node, -1 for a
    leaf; None when some links have no column form, because an internal
    node has not two children, or a leaf has some or has the links
    (-1, -1), which the column form reads as no children."""
    left, right = [], []
    for kids, lab in zip(children, labels):
        if len(kids) != (2 if lab is None else 0) or (lab is not None and kids == (-1, -1)):
            return None
        left.append(kids[0] if kids else -1)
        right.append(kids[1] if kids else -1)
    return left, right


def _column_index(children, labels):
    left, right = _columns(children, labels)
    t = HierTree(None, list(labels), left=left, right=right)
    assert [t.children(v) for v in range(t.node_count)] == [tuple(kids) for kids in children]
    return _tree_index(t)


_COLUMN_CORRUPTIONS = ("negative", "beyond-int64", "repeat", "cycle")


def _corrupt_column(rng, children: list, kind: str) -> None:
    """Break a child link in place, one way per kind: a negative child id,
    one beyond int64, a child id repeated (one node's two children, or a
    child of another node), or a link from a node back to an ancestor."""
    internal = [u for u in range(len(children)) if children[u]]
    if not internal:
        return
    u = rng.choice(internal)
    kids = list(children[u])
    i = rng.randrange(len(kids))
    if kind == "negative":
        kids[i] = rng.choice([-1, -2, -len(children), -len(children) - 1])
    elif kind == "beyond-int64":
        kids[i] = rng.choice([2**63, 2**70, -(2**63) - 1])
    elif kind == "repeat":
        kids[i] = kids[i - 1] if rng.random() < 0.5 else rng.choice(children[rng.choice(internal)])
    else:
        parent = {c: p for p, ks in enumerate(children) for c in ks}
        a = u
        while a in parent and rng.random() < 0.7:
            a = parent[a]
        kids[i] = a
    children[u] = tuple(kids)


class TestColumnFormMatchesTupleForm:
    """``HierTree`` given the two child columns indexes the same tree, or
    raises the same error kind, node id and message, as given one child
    tuple per node, and as the two-pass reference."""

    @settings(max_examples=400, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        kinds=st.lists(st.sampled_from(_CORRUPTIONS + _COLUMN_CORRUPTIONS), max_size=2),
    )
    def test_same_index_or_same_fault(self, seed, kinds):
        rng = random.Random(seed)
        children, labels = _shuffled_links(rng, rng.randint(1, 30))
        for kind in kinds:
            if kind in _COLUMN_CORRUPTIONS:
                _corrupt_column(rng, children, kind)
            else:
                _corrupt(rng, children, labels, kind)
        want = _index_outcome(reference_tree_index, children, labels)
        assert _index_outcome(_one_walk_index, children, labels) == want
        if _columns(children, labels) is not None:
            assert _index_outcome(_column_index, children, labels) == want

    @pytest.mark.parametrize(
        "left,right,labels,kind,node",
        [
            # An internal node's -1 is a dangling child, not a missing one.
            ([1, -1, -1], [-1, -1, -1], [None, "a", "b"], "dangling-child", 0),
            ([1, -1, -1], [2**64, -1, -1], [None, "a", "b"], "dangling-child", 0),
            # A leaf with links other than (-1, -1) has children.
            ([1, -1, -1], [2, 0, -1], [None, "a", "b"], "leaf-with-children", 1),
            ([1, -1, -2], [2, -1, 0], [None, "a", "b"], "leaf-with-children", 2),
            # Every unlabelled node has two children in the column form.
            ([1, 2, -1], [1, -1, -1], [None, None, "a"], "multiple-parents", 1),
            ([0], [0], [None], "cycle", 0),
        ],
    )
    def test_hand_written_column_faults(self, left, right, labels, kind, node):
        with pytest.raises(TreeStructureError) as err:
            HierTree(None, labels, left=left, right=right)
        assert (err.value.kind, err.value.node_id) == (kind, node)

    def test_column_form_needs_equal_lengths_and_one_form(self):
        with pytest.raises(ValueError, match="equal length"):
            HierTree(None, [None, "a", "b"], left=[1, -1], right=[2, -1, -1])
        with pytest.raises(ValueError, match="not both"):
            HierTree([(1, 2), (), ()], [None, "a", "b"], left=[1, -1, -1], right=[2, -1, -1])


class TestWeightTable:
    def test_rejects_negative_and_bad_total(self):
        with pytest.raises(ValueError):
            WeightTable({"a": -0.1, "b": 1.1})
        with pytest.raises(ValueError):
            WeightTable({"a": 0.5, "b": 0.5 + 2e-9})
        WeightTable({"a": 0.5, "b": 0.5 + 5e-10})
        with pytest.raises(ValueError):
            WeightTable({})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WeightTable({"a": bad, "b": 0.5})

    def test_names_the_first_bad_entry(self):
        with pytest.raises(ValueError, match=r"weight -0\.25 for leaf 'b' is not a finite non-negative"):
            WeightTable({"a": 0.5, "b": -0.25, "c": float("inf"), "d": float("nan")})

    def test_total_past_the_float_range_is_a_bad_total(self):
        with pytest.raises(ValueError, match="sum to inf"):
            WeightTable({"a": 1e308, "b": 1e308})

    @pytest.mark.parametrize(
        "weights",
        [{"a": 0.5, "b": 0.5}, {"a": -0.1, "b": 1.1}, {"a": 0.5, "b": float("nan")}, {"a": 0.5}, {}],
    )
    def test_keeps_the_loaders_dict_and_copies_any_other(self, weights):
        # The loader's dict is kept as it is and checked as a copy would be.
        def outcome(mapping):
            try:
                return "table", WeightTable(mapping)._w
            except ValueError as exc:
                return "refused", str(exc)

        loaded = _LoadedWeights(weights)
        plain = dict(weights)
        assert outcome(loaded) == outcome(plain)
        if outcome(plain)[0] == "table":
            assert WeightTable(loaded)._w is loaded
            assert WeightTable(plain)._w is not plain

    def test_labels_become_str_and_values_plain_floats(self):
        class Real(float):
            pass

        table = WeightTable({1: Fraction(1, 4), "b": Real(0.5), "c": 0, "d": Fraction(1, 4)})
        assert dict(table) == {"1": 0.25, "b": 0.5, "c": 0.0, "d": 0.25}
        assert {type(lab) for lab in table} == {str}
        assert {type(x) for x in table.values()} == {float}


class TestPruning:
    def test_membership_cases(self):
        t = quad_tree()
        assert is_pruning(t, [0])
        assert is_pruning(t, [1, 4])
        assert is_pruning(t, [2, 3, 4])
        assert not is_pruning(t, [])
        assert not is_pruning(t, [1])
        assert not is_pruning(t, [0, 2])
        assert not is_pruning(t, [1, 1, 4])

    @pytest.mark.parametrize("seed", range(6))
    def test_generated_prunings_are_prunings(self, seed):
        rng = random.Random(seed)
        t = random_tree(rng, rng.randint(2, 30))
        for _ in range(10):
            assert is_pruning(t, random_pruning(rng, t))


class TestDiscrepancy:
    def test_hand_computed_values(self):
        t = quad_tree()
        w = {"a": 0.5, "b": 0.1, "c": 0.2, "d": 0.2}
        assert abs(node_discrepancy(t, 0, w) - 0.5) < 1e-15
        assert abs(node_discrepancy(t, 1, w) - 0.4) < 1e-15
        assert node_discrepancy(t, 4, w) == 0.0
        assert node_discrepancy(t, 2, w) == 0.0
        disc = node_discrepancies(t, w)
        assert [abs(disc[v] - x) < 1e-15 for v, x in [(0, 0.5), (1, 0.4), (4, 0.0)]]
        assert abs(pruning_discrepancy(t, [1, 4], w) - 0.4) < 1e-15

    def test_pruning_discrepancy_requires_a_pruning(self):
        t = quad_tree()
        with pytest.raises(ValueError):
            pruning_discrepancy(t, [1], {"a": 1.0, "b": 0.0, "c": 0.0, "d": 0.0})

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_pruning_discrepancy_equals_l1_to_induced(self, seed):
        rng = random.Random(seed)
        t = random_tree(rng, rng.randint(2, 48))
        w = random_weight_table(rng, t.leaf_order)
        p = random_pruning(rng, t)
        masses = {v: fsum(w[lab] for lab in leaves_under(t, v)) for v in p}
        induced = induced_weighting(t, p, masses)
        l1 = fsum(abs(induced[pos] - w[lab]) for pos, lab in enumerate(t.leaf_order))
        d = pruning_discrepancy(t, p, w)
        assert abs(d - l1) <= 1e-12
        assert abs(d - 2.0 * tv_distance(induced, [w[lab] for lab in t.leaf_order])) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_pruning_discrepancy_at_most_twice_root(self, seed):
        rng = random.Random(seed)
        t = random_tree(rng, rng.randint(2, 48))
        w = random_weight_table(rng, t.leaf_order)
        p = random_pruning(rng, t)
        assert pruning_discrepancy(t, p, w) <= 2.0 * node_discrepancy(t, t.root_id, w) + 1e-9

    def test_insertion_order_does_not_change_results(self):
        t = quad_tree()
        w1 = {"a": 0.5, "b": 0.1, "c": 0.2, "d": 0.2}
        w2 = {"d": 0.2, "b": 0.1, "a": 0.5, "c": 0.2}
        assert node_discrepancy(t, 0, w1) == node_discrepancy(t, 0, w2)
        assert pruning_discrepancy(t, [1, 4], w1) == pruning_discrepancy(t, [1, 4], w2)


class TestInducedWeighting:
    def test_spreads_mass_uniformly(self):
        t = quad_tree()
        w = dict(zip(t.leaf_order, induced_weighting(t, [1, 4], {1: 0.6, 4: 0.4})))
        assert w["a"] == w["b"] == 0.3
        assert w["c"] == w["d"] == 0.2

    def test_error_cases(self):
        t = quad_tree()
        with pytest.raises(ValueError):
            induced_weighting(t, [1], {1: 1.0})
        with pytest.raises(KeyError):
            induced_weighting(t, [1, 4], {1: 0.6})
        with pytest.raises(ValueError):
            induced_weighting(t, [1, 4], {1: -0.1, 4: 1.1})
        with pytest.raises(ValueError):
            induced_weighting(t, [1, 4], {1: 0.6, 4: 0.6})


class TestTvDistance:
    def test_basic_values(self):
        a = [1.0, 0.0]
        b = [0.0, 1.0]
        assert tv_distance(a, a) == 0.0
        assert tv_distance(a, b) == 1.0
        with pytest.raises(ValueError):
            tv_distance(a, [1.0])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_metric_properties(self, seed):
        rng = random.Random(seed)
        labels = [f"x{i}" for i in range(rng.randint(2, 20))]
        w1 = list(random_weight_table(rng, labels).values())
        w2 = list(random_weight_table(rng, labels).values())
        w3 = list(random_weight_table(rng, labels).values())
        d12 = tv_distance(w1, w2)
        assert 0.0 <= d12 <= 1.0 + 1e-12
        assert d12 == tv_distance(w2, w1)
        assert d12 <= tv_distance(w1, w3) + tv_distance(w3, w2) + 1e-12


class TestLeafOrderWeightings:
    def test_matches_label_keyed_reference(self):
        # fsum is exactly rounded, so the leaf-order and label-keyed forms
        # must agree bit for bit whatever order they sum in.
        rng = random.Random(83)
        trees = [caterpillar(n) for n in (2, 3, 17, 120)]
        trees += [random_tree(rng, rng.randint(2, 80)) for _ in range(20)]
        for tree in trees:
            order = tree.leaf_order
            n = tree.leaf_count_total
            for _ in range(6):
                truth = random_weight_table(rng, order)
                truth_vals = [truth[lab] for lab in order]
                pruning = random_pruning(rng, tree)
                masses = {v: fsum(truth_vals[slice(*tree.span(v))]) for v in pruning}
                pins = set(rng.sample(range(n), rng.randint(0, n)))
                if rng.random() < 0.5:
                    pins.update(range(*tree.span(rng.choice(pruning))))
                # Pins heavier than their node's mass clamp its residual at 0.
                bump = rng.random() if rng.random() < 0.3 else 0.0
                queried = {pos: truth_vals[pos] + bump for pos in pins}

                got = refine_with_queries(tree, pruning, masses, queried)
                ref = reference_refine_with_queries(
                    tree, pruning, masses, {order[pos]: x for pos, x in queried.items()}
                )
                assert got == [ref[lab] for lab in order]
                assert tv_distance(got, truth_vals) == reference_tv_distance(ref, truth)

    def test_leaf_values_requires_the_exact_leaf_set(self):
        t = quad_tree()
        w = {"d": 0.2, "c": 0.2, "b": 0.1, "a": 0.5}
        assert _leaf_values(t, w) == [0.5, 0.1, 0.2, 0.2]
        with pytest.raises(ValueError, match="missing 1, extra 0"):
            _leaf_values(t, {"a": 0.5, "b": 0.3, "c": 0.2})
        with pytest.raises(ValueError, match="missing 0, extra 1"):
            _leaf_values(t, {**w, "e": 0.0})
        with pytest.raises(ValueError, match="missing 1, extra 1"):
            _leaf_values(t, {"a": 0.5, "b": 0.1, "c": 0.2, "e": 0.2})


def span_sum_instances(seed):
    """Trees with weightings that stress exact span sums: every random
    weight kind, dyadic and subnormal weights, spans of signed zeros, and
    int or Fraction values; then trees of a few hundred leaves with few
    distinct values, whose larger nodes sum by value."""
    rng = random.Random(seed)
    for shape in ("random", "caterpillar"):
        n = rng.randint(1, 60)
        tree = caterpillar(n) if shape == "caterpillar" else random_tree(rng, n)
        labels = tree.leaf_order
        for kind in ("dense", "exponential", "sparse", "spiked"):
            yield tree, random_weight_table(rng, labels, kind)
        yield tree, dyadic_weight_table(rng, labels)
        yield tree, {lab: rng.randint(0, 5) * 2.0**-1074 for lab in labels}
        yield tree, {lab: rng.choice((rng.random(), rng.randint(1, 5) * 2.0**-1074)) for lab in labels}
        yield tree, {lab: rng.choice((0.0, -0.0, 0.0, -0.0, rng.random())) for lab in labels}
        yield tree, {lab: -0.0 for lab in labels}
        yield tree, {lab: rng.randint(0, 9) for lab in labels}
        yield tree, {lab: Fraction(rng.randint(0, 9), rng.randint(1, 7)) for lab in labels}
    for shape in ("random", "caterpillar"):
        n = rng.randint(200, 400)
        tree = caterpillar(n) if shape == "caterpillar" else random_tree(rng, n)
        for w in few_valued_weightings(rng, tree, seed):
            yield tree, w
    yield from cutover_instances(rng)


def few_valued_weightings(rng, tree, seed):
    """Weightings with 2 to 12 distinct values: random levels, geometric
    bins, levels with signed zeros, subnormal levels, Fraction levels, and
    few levels with one run of distinct values."""
    labels = tree.leaf_order

    def draw(levels):
        return {lab: rng.choice(levels) for lab in labels}

    yield draw([rng.random() for _ in range(rng.randint(2, 12))])
    spec = TargetSpec("geometric-bins", n_bins=rng.randint(2, 12), ratio=rng.choice((2.0, 4.0, 10.0)))
    yield make_geometric_target(tree, spec, seed)
    yield draw([0.0, -0.0] + [rng.random() for _ in range(rng.randint(1, 4))])
    yield draw([k * 2.0**-1074 for k in rng.sample(range(1, 40), rng.randint(2, 6))] + [0.0, 2.0**-1022])
    yield draw([Fraction(1, 3), Fraction(2, 7), 0.25, rng.randint(0, 3)])
    w = draw([rng.random() for _ in range(rng.randint(2, 5))])
    start = rng.randrange(len(labels))
    for lab in labels[start : start + rng.randint(20, 120)]:
        w[lab] = rng.random()
    yield w


def cutover_instances(rng):
    """Trees built so that nodes land on every side of the cut-overs of
    ``node_discrepancies``: each joins a few-valued subtree to a sibling
    whose values are all distinct."""
    count = iter(range(10**6))

    def subtree(n, levels):
        # A random shape over n fresh labels, with the weight of each.
        labels = [f"u{next(count):05d}" for _ in range(n)]
        spec = labels[0]
        for lab in labels[1:]:
            spec = (spec, lab) if rng.random() < 0.5 else (lab, spec)
        return spec, {lab: rng.choice(levels) if levels else rng.random() for lab in labels}

    def join(*parts):
        spec, w = parts[0]
        for other_spec, other_w in parts[1:]:
            spec, w = (spec, other_spec), {**w, **other_w}
        return HierTree.from_nested(spec), w

    few = [0.125, 0.25, 0.5]
    # The few-valued child is summed by value; its parent gains 60 more
    # distinct values, keeps its counts but walks its leaves.
    yield join(subtree(200, few), subtree(60, None))
    # 70 leaves with 6 values are summed by value; joined with 64 distinct
    # values their parent walks its leaves, and the root above, whose other
    # child is few-valued again, is summed by value.
    yield join(subtree(70, [rng.random() for _ in range(6)]), subtree(64, None), subtree(700, few))
    # Two few-valued subtrees above 64 leaves each: the smaller counts are
    # merged into the larger.
    yield join(subtree(150, few), subtree(100, few + [0.75]), subtree(5, None))


def float_bits(xs):
    return [float.hex(float(x)) for x in xs]


class TestSpanSums:
    @settings(max_examples=200, deadline=None)
    @given(
        vals=st.lists(
            st.floats(-1e300, 1e300) | st.integers(-5, 5).map(lambda m: m * 2.0**-1074),
            max_size=40,
        )
    )
    def test_prefix_difference_equals_fsum(self, vals):
        sums, den = span_sums(vals)
        assert len(sums) == len(vals) + 1
        for lo in range(len(vals) + 1):
            for hi in range(lo, len(vals) + 1):
                assert float_bits([(sums[hi] - sums[lo]) / den]) == float_bits([fsum(vals[lo:hi])])

    @settings(max_examples=200, deadline=None)
    @given(
        size=st.integers(1, 150),
        n=st.integers(0, 1600),
        head=st.integers(0, 1600),
        seed=st.integers(0, 10**6),
    )
    def test_few_values_counts_exactly_the_few_valued_lists(self, size, n, head, seed):
        # _few_distinct's test, which span_sums and the weight file reader
        # and writer take: at most one distinct value per 10 values, and
        # at most min(n // 10, 64) among the first 640; the head draws from
        # a smaller alphabet, so that each bound is met alone.
        rng = random.Random(seed)
        alphabet = [i / 7 for i in range(size)] + [-0.0]
        vals = tuple(rng.choice(alphabet[: 1 + i % 4] if i < head else alphabet) for i in range(n))
        few = len(set(vals)) <= n // 10 and len(set(vals[:640])) <= min(n // 10, 64)
        assert _few_distinct(vals) == (set(vals) if few else None)

    @settings(max_examples=200, deadline=None)
    @given(
        pool=st.lists(
            st.floats(0.0, 1.0) | st.integers(-5, 5).map(lambda m: m * 2.0**-1074) | st.sampled_from((0.0, -0.0)),
            min_size=1,
            max_size=8,
        ),
        picks=st.lists(st.integers(0, 7), max_size=300),
    )
    def test_few_valued_lists_match_the_reference(self, pool, picks):
        # Mostly at most one distinct value per _GROUP_RATIO values, where
        # each distinct value is scaled once.
        vals = [pool[i % len(pool)] for i in picks]
        assert span_sums(vals) == reference_span_sums(vals)

    @settings(max_examples=100, deadline=None)
    @given(vals=st.lists(st.floats(0.0, 1.0) | st.floats(0.0, 2.0**-1000), unique=True, max_size=300))
    def test_all_distinct_lists_match_the_reference(self, vals):
        assert span_sums(vals) == reference_span_sums(vals)

    @pytest.mark.parametrize(
        "vals",
        [
            [],
            [0.0],
            [-0.0],
            [5e-324],
            [0.75],
            [0.0, -0.0] * 20,
            [5e-324] * 30 + [2.0**-1022] * 30 + [1.0] * 30,
            # Exactly one distinct value per 10 values, and one more.
            [i / 16 for i in range(10)] * 10,
            [i / 16 for i in range(11)] * 10,
            # The first tenth all distinct, the rest one value.
            [i / 64 for i in range(11)] + [0.5] * 89,
            # Past a head of 640 values: few values in both, many in the
            # head only, and many after the head only.
            [i / 8 for i in range(8)] * 100,
            [i / 1024 for i in range(65)] + [0.5] * 1000,
            [0.5] * 640 + [i / 4096 for i in range(200)],
        ],
        ids=lambda vals: f"{len(vals)}-values",
    )
    def test_edge_lists_match_the_reference(self, vals):
        assert span_sums(vals) == reference_span_sums(vals)

    @pytest.mark.parametrize("seed", range(8))
    def test_node_discrepancies_match_the_slice_reference(self, seed):
        for tree, w in span_sum_instances(seed):
            got = node_discrepancies(tree, w)
            assert float_bits(got) == float_bits(reference_node_discrepancies(tree, w))

    @pytest.mark.parametrize("seed", range(8))
    def test_node_queries_equal_fsum_of_the_span(self, seed):
        for tree, w in span_sum_instances(seed):
            oracle = Oracle(tree, w)
            vals = [w[lab] for lab in tree.leaf_order]
            for v in range(tree.node_count):
                lo, hi = tree.span(v)
                assert float_bits([oracle.query_node(v)]) == float_bits([fsum(vals[lo:hi])])

    @settings(max_examples=60, deadline=None)
    @given(
        alphabet=st.lists(
            st.floats(0.0, 1.0) | st.integers(0, 5).map(lambda m: m * 2.0**-1074) | st.just(-0.0),
            min_size=1,
            max_size=6,
        ),
        n=st.integers(60, 260),
        shape=st.sampled_from(("random", "caterpillar")),
        seed=st.integers(0, 10**6),
    )
    def test_small_alphabets_match_the_slice_reference(self, alphabet, n, shape, seed):
        rng = random.Random(seed)
        tree = caterpillar(n) if shape == "caterpillar" else random_tree(rng, n)
        w = {lab: rng.choice(alphabet) for lab in tree.leaf_order}
        assert float_bits(node_discrepancies(tree, w)) == float_bits(reference_node_discrepancies(tree, w))

    def test_deep_few_valued_caterpillar_is_not_quadratic(self):
        # 20,000 leaves in a chain: a pass over every node's leaves would
        # touch 2e8 values.  Ten distinct weights keep it near linear.
        n = 20_000
        tree = caterpillar(n)
        w = make_geometric_target(tree, TargetSpec("geometric-bins", n_bins=10, ratio=4.0), 0)
        t0 = monotonic()
        disc = node_discrepancies(tree, w)
        nodes, cost = optimal_pruning(tree, 10, w)
        elapsed = monotonic() - t0
        assert len(nodes) <= 10 and is_pruning(tree, nodes)
        assert cost <= disc[tree.root_id]
        assert elapsed < 5.0


def _grouped_outcome(fn, avg, counts):
    """The float bits of ``fn(avg, counts)``, or its error's type and
    message."""
    try:
        return "value", float.hex(fn(avg, counts))
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _one_group_sum(avg, counts):
    """``_exact_sum`` over the single group ``(avg, counts)``, as the
    discrepancy pass calls it for a few-valued node."""
    return _exact_sum(((avg, counts),))


def _exact_mean(counts):
    """The value -> count map's mean, correctly rounded."""
    return float(sum(Fraction(x) * m for x, m in counts.items()) / sum(counts.values()))


# Keys in [0, 1], subnormal, signed zeros, ints, and of either sign in
# every binade from 2**990 to the float maximum, so that terms reach from
# 0 past 2**996.
_GROUPED_KEYS = (
    st.floats(0.0, 1.0)
    | st.integers(0, 2**20).map(lambda m: m * 2.0**-1074)
    | st.sampled_from((0.0, -0.0))
    | st.integers(-(2**60), 2**60)
    | st.builds(math.ldexp, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True), st.integers(991, 1024))
)
# Counts of few and of many significant bits, below, around and above
# 2**27.
_GROUPED_COUNTS = (
    st.integers(1, 300)
    | st.integers(2**27 - 4, 2**27 + 4)
    | st.integers(2**24, 2**29)
    | st.integers(1, 2**40)
)
_BELOW_CAP = math.nextafter(2.0**996, 0.0)


class TestGroupedDeviation:
    """``_exact_sum`` over one group, a few-valued node's value counts,
    sums split products with one ``fsum`` below its bounds and takes the
    integer form above them; either way it equals the integer-ratio
    reference bit for bit, or raises as it does."""

    @settings(max_examples=500, deadline=None)
    @given(
        counts=st.dictionaries(_GROUPED_KEYS, _GROUPED_COUNTS, min_size=1, max_size=12),
        avg=st.none() | st.floats(0.0, 1.0) | st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_matches_the_integer_reference(self, counts, avg):
        if avg is None:
            avg = _exact_mean(counts)
        assert _grouped_outcome(_one_group_sum, avg, counts) == _grouped_outcome(
            reference_grouped_deviation, avg, counts
        )

    @pytest.mark.parametrize("counts_below", ("split", "cap", "far"))
    def test_random_maps_match_the_integer_reference(self, counts_below):
        # Counts of many significant bits, so that a product that is not
        # exact shows in a few hundred of these maps: summing to below
        # 2**27, where every product must be exact, from 2**27 to 2**28,
        # just past the bound, and up to 2**40.
        rng = random.Random(counts_below)
        top = {"split": 2**27, "cap": 2**28, "far": 2**40}[counts_below]
        for _ in range(6000):
            g = rng.randint(1, 12)
            low = 1 if counts_below == "split" else 2**27 // g + 1
            scales = (1.0, 2.0**-1000, 2.0**990)
            counts = {rng.random() * rng.choice(scales): rng.randint(low, top // g - 1) for _ in range(g)}
            avg = rng.choice((rng.random(), _exact_mean(counts)))
            assert _grouped_outcome(_one_group_sum, avg, counts) == _grouped_outcome(
                reference_grouped_deviation, avg, counts
            )

    @pytest.mark.parametrize(
        "avg, counts",
        [
            # Terms on both sides of 2**996, and near the float maximum.
            (0.0, {2.0**996: 3, 0.25: 1}),
            (0.0, {_BELOW_CAP: 3, 0.25: 1}),
            (0.0, {-_BELOW_CAP: 2**27 - 1}),
            (0.5, {1.7e308: 1, 5e-324: 7, 0.5: 2}),
            (0.0, {1.7e308: 2}),
            (0.0, {2.0**1000: 1, 0.5: 1}),
            (0.0, {math.ldexp(0.75, 997): 5, -(2.0**-1074): 1}),
            # Terms below 2**996 and each count below 2**27, but a sum past
            # the float range: the integer form's OverflowError.
            (0.0, {_BELOW_CAP: 2**27 - 1, -_BELOW_CAP: 2**27 - 1, _BELOW_CAP / 2: 2**27 - 1}),
            (-1e308, {1e308: 1}),
            # Counts on both sides of 2**27, alone and as a sum.
            (0.7, {0.1: 2**27 - 1}),
            (0.7, {0.1: 2**27}),
            (0.7, {0.1: 2**27 - 2, 0.3: 1}),
            (0.7, {0.1: 2**27 - 1, 0.3: 1}),
            (0.7, {0.1: 2**40 + 1, 0.3: 3, 2**-1074: 5}),
            (0.7, {0.1: 2**28 - 1}),
            (0.2, {0.1: 2**26 - 1, 0.3: 2**26 - 3, 1 / 3: 2**25 - 7}),
            # Subnormal terms, signed zeros and int keys.
            (2.0**-1074, {0.0: 3, 2.0**-1073: 1, 3 * 2.0**-1074: 2**27 - 5}),
            (-0.0, {-0.0: 4, 7: 1, -3: 2}),
            (1 / 3, {0: 5, 1: 2, 0.1: 2**26 + 1}),
        ],
    )
    def test_bounds_and_edges(self, avg, counts):
        want = _grouped_outcome(reference_grouped_deviation, avg, counts)
        assert _grouped_outcome(_one_group_sum, avg, counts) == want

    def test_few_valued_caterpillars_match_the_slice_reference(self):
        # 3,000 leaves with ten distinct weights, hung on either side:
        # every node of more than _SMALL leaves sums by value.
        for side in ("left", "right"):
            t = hung_caterpillar(3000, side)
            w = make_geometric_target(t, TargetSpec("geometric-bins", n_bins=10, ratio=4.0), 0)
            assert float_bits(node_discrepancies(t, w)) == float_bits(reference_node_discrepancies(t, w))


def hung_caterpillar(n, side):
    """A caterpillar of n leaves, built from records, whose every internal
    node has a leaf as its ``side`` ("left" or "right") child."""
    records = []
    for i in range(n - 1):
        kids = (2 * i + 1, 2 * i + 2) if side == "left" else (2 * i + 2, 2 * i + 1)
        records.append(("I", 2 * i, kids))
        records.append(("L", 2 * i + 1, f"c{i:04d}"))
    records.append(("L", 2 * n - 2, f"c{n - 1:04d}"))
    return HierTree.from_records(records)


def entry_instances(seed):
    """A tree with two WeightTables over its leaves: a random tree of a few
    hundred leaves with few-valued geometric targets, so that larger
    nodes merge value counts, or a caterpillar with random weights."""
    rng = random.Random(seed)
    if seed % 2:
        tree = random_tree(rng, rng.randint(150, 400))
        spec = TargetSpec("geometric-bins", n_bins=rng.randint(2, 12), ratio=4.0)
        return tree, make_geometric_target(tree, spec, seed), make_geometric_target(tree, spec, seed + 1)
    tree = caterpillar(rng.randint(2, 120))
    return tree, random_weight_table(rng, tree.leaf_order), random_weight_table(rng, tree.leaf_order)


def fresh_optimum(tree, k, w):
    """optimal_pruning on a rebuilt tree with a plain dict, which no
    statistics entry serves."""
    return optimal_pruning(loads_tree(dumps_tree(tree)), k, dict(w))


class TestStatisticsEntry:
    """A WeightTable memoises the exact statistics of the last tree it was
    asked about: repeated calls give the fresh results bit for bit and run
    one pass, the entry lives as long as the table, and the tree holds
    none."""

    @pytest.mark.parametrize("seed", range(6))
    def test_repeated_calls_equal_fresh_results(self, seed):
        tree, w1, w2 = entry_instances(seed)
        n = tree.leaf_count_total
        ks = sorted({1, 2, min(5, n), min(40, n), n})
        want = {id(w): float_bits(reference_node_discrepancies(tree, w)) for w in (w1, w2)}
        optima = {(id(w), k): fresh_optimum(tree, k, w) for w in (w1, w2) for k in ks}
        for order in (ks, ks[::-1]):
            for w, other in ((w1, w2), (w2, w1)):
                for k in order:
                    assert float_bits(node_discrepancies(tree, w)) == want[id(w)]
                    nodes, cost = optimal_pruning(tree, k, w)
                    want_nodes, want_cost = optima[(id(w), k)]
                    assert nodes == want_nodes and float_bits([cost]) == float_bits([want_cost])
                    # Another table in between replaces the entry.
                    assert float_bits(node_discrepancies(tree, other)) == want[id(other)]

    def test_second_call_runs_no_second_pass(self, monkeypatch):
        tree, w, other = entry_instances(1)
        calls = {"_discrepancy_pass": 0, "span_sums": 0}
        for name in calls:

            def counted(*args, _name=name, _original=getattr(tree_mod, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(tree_mod, name, counted)
        first = node_discrepancies(tree, w)
        Oracle(tree, w)
        assert node_discrepancies(tree, w) == first
        optimal_pruning(tree, 10, w)
        optimal_pruning(tree, 40, w)
        Oracle(tree, w)
        assert calls == {"_discrepancy_pass": 1, "span_sums": 1}
        # A plain mapping is never memoised; another table is computed once.
        node_discrepancies(tree, dict(w))
        node_discrepancies(tree, dict(w))
        assert calls == {"_discrepancy_pass": 3, "span_sums": 3}
        node_discrepancies(tree, other)
        optimal_pruning(tree, 10, other)
        assert calls == {"_discrepancy_pass": 4, "span_sums": 4}

    def test_every_reader_converts_the_table_once(self, monkeypatch):
        tree, w, _ = entry_instances(1)
        calls = []
        original = tree_mod._leaf_values
        monkeypatch.setattr(tree_mod, "_leaf_values", lambda *args: calls.append(1) or original(*args))
        nodes = optimal_pruning(tree, 10, w)[0]
        oracle = Oracle(tree, w)
        want = float_bits([oracle.query_node(v) for v in range(tree.node_count)])
        for v in range(tree.node_count):
            node_discrepancy(tree, v, w)
        pruning_discrepancy(tree, nodes, w)
        node_discrepancies(tree, w)
        assert len(calls) == 1
        # A plain dict is converted again on every call.
        node_discrepancy(tree, tree.root_id, dict(w))
        pruning_discrepancy(tree, nodes, dict(w))
        oracle = Oracle(tree, dict(w))
        assert float_bits([oracle.query_node(v) for v in range(tree.node_count)]) == want
        assert len(calls) == 4

    def test_returned_list_is_a_copy(self):
        tree, w, _ = entry_instances(1)
        want = float_bits(reference_node_discrepancies(tree, w))
        optimum = fresh_optimum(tree, 10, w)
        disc = node_discrepancies(tree, w)
        disc[:] = [0.0] * len(disc)
        assert float_bits(node_discrepancies(tree, w)) == want
        assert optimal_pruning(tree, 10, w) == optimum

    def test_plain_dict_mutated_between_calls(self):
        tree, w, _ = entry_instances(3)
        truth = dict(w)
        before = node_discrepancies(tree, truth)
        oracle_before = Oracle(tree, truth)
        heavy = max(truth, key=truth.get)
        light = min(truth, key=truth.get)
        truth[heavy], truth[light] = truth[light], truth[heavy]
        after = node_discrepancies(tree, truth)
        assert float_bits(after) == float_bits(reference_node_discrepancies(tree, truth))
        assert after != before
        positions = range(tree.leaf_count_total)
        answers = Oracle(tree, truth).query_leaves(positions)
        assert answers == [truth[lab] for lab in tree.leaf_order]
        assert oracle_before.query_leaves(positions) != answers

    def test_entry_is_freed_with_the_table_and_the_tree_holds_none(self):
        tree, w, _ = entry_instances(1)
        Oracle(tree, w)
        node_discrepancies(tree, w)
        entry = w._stats
        assert entry.tree is tree and entry.disc is not None
        assert not hasattr(tree, "_stats") and not hasattr(tree, "__dict__")
        count = sys.getrefcount(entry)
        del w
        gc.collect()
        # Only this frame's name and getrefcount's argument still hold it.
        assert sys.getrefcount(entry) == count - 1 == 2

    def test_table_with_an_entry_survives_pickle_and_copies(self):
        tree, w, _ = entry_instances(1)
        want = float_bits(node_discrepancies(tree, w))
        want_sums = (w._stats.sums, w._stats.den)
        for clone in (pickle.loads(pickle.dumps(w)), copy.deepcopy(w), copy.copy(w)):
            assert dict(clone) == dict(w)
            kept = clone._stats
            assert kept is not None and float_bits(kept.disc) == want
            assert kept.vals == w._stats.vals and (kept.sums, kept.den) == want_sums
            assert kept.tree.leaf_order == tree.leaf_order
            # On the copy's tree the kept entry serves; on the original tree
            # a deep copy builds its own.
            for t in (kept.tree, tree):
                assert float_bits(node_discrepancies(t, clone)) == want
                assert float_bits(reference_node_discrepancies(t, clone)) == want
            assert float_bits(node_discrepancies(tree, w)) == want

    @pytest.mark.parametrize("seed", range(4))
    def test_plain_mappings_skip_the_prefix_sums(self, seed, monkeypatch):
        # Scoring, node_discrepancy and pruning_discrepancy read only the
        # leaf values, so against a plain dict they give the table's values
        # bit for bit without calling span_sums; an Oracle still reads the
        # sums, once, and answers as it does from the table.
        tree, w, _ = entry_instances(seed)
        rng = random.Random(seed)
        pruning = random_pruning(rng, tree)
        k = min(5, tree.leaf_count_total)
        result = run_uniform(BaselineCell(tree, Oracle(tree, w), 3 * tree.leaf_count_total, seed), k)

        def scores(target):
            return float_bits(
                [normalized_distance(result, target), pruning_discrepancy(tree, pruning, target)]
                + [node_discrepancy(tree, v, target) for v in range(tree.node_count)]
            )

        want = scores(w)
        table_oracle = Oracle(tree, w)
        calls = []
        monkeypatch.setattr(tree_mod, "span_sums", lambda vals: calls.append(len(vals)) or span_sums(vals))
        assert scores(dict(w)) == want
        assert calls == []
        oracle = Oracle(tree, dict(w))
        assert calls == [tree.leaf_count_total]
        positions = range(tree.leaf_count_total)
        assert oracle.query_leaves(positions) == table_oracle.query_leaves(positions)
        nodes = range(tree.node_count)
        assert float_bits(map(oracle.query_node, nodes)) == float_bits(map(table_oracle.query_node, nodes))

    @pytest.mark.parametrize("seed", range(4))
    def test_oracle_shares_the_entry(self, seed):
        tree, w, _ = entry_instances(seed)
        alone = Oracle(loads_tree(dumps_tree(tree)), w)
        before = Oracle(tree, w)
        disc = node_discrepancies(tree, w)
        after = Oracle(tree, w)
        assert float_bits(disc) == float_bits(reference_node_discrepancies(tree, w))
        assert before._vals is after._vals is w._stats.vals
        for oracle in (before, after):
            assert oracle._vals == alone._vals
            for v in range(tree.node_count):
                assert float_bits([oracle.query_node(v)]) == float_bits([alone.query_node(v)])


def reference_split_quality(tree, w):
    """Per-child loop over its own discrepancy pass, kept as the reference."""
    disc = node_discrepancies(tree, w)
    best = None
    for v in tree.internal_ids():
        if disc[v] <= 0.0:
            continue
        for c in tree.children(v):
            ratio = disc[c] / disc[v]
            if best is None or ratio > best:
                best = ratio
    return best


def reference_average_split_quality(tree, w):
    """Larger-child share loop over its own discrepancy pass, kept as the
    reference."""
    disc = node_discrepancies(tree, w)
    shares = []
    for v in tree.internal_ids():
        if disc[v] <= 0.0:
            continue
        l, r = tree.children(v)
        shares.append(max(disc[l], disc[r]) / disc[v])
    if not shares:
        return None
    return fsum(shares) / len(shares)


# Leaf values that a few-valued instance may hold: both zeros, which
# compare equal, two subnormals and two normal values.
INDEX_ALPHABET = (0.0, -0.0, 5e-324, 2.0**-1070, 0.125, 0.3)


def few_valued_leaf_values(rng, n):
    """n leaf values over one to five members of ``INDEX_ALPHABET``, or a
    single value, so that lists of at least ten leaves per value are
    few-valued."""
    alphabet = rng.sample(INDEX_ALPHABET, rng.randint(1, 5))
    return tuple(rng.choice(alphabet) for _ in range(n))


class TestValueIndex:
    """A few-valued instance keeps, per distinct leaf value, the ascending
    positions that hold it (``_Stats.index``), and the scorer counts a
    long span from them, exactly as ``Counter`` counts the slice."""

    def test_the_index_holds_at_most_one_value_per_ten_items(self):
        # 100 items allow 10 distinct values; 0.0 and -0.0 are one.
        assert tree_mod._value_index([i / 128 for i in range(100)]) is None
        at_cap = [i % 10 / 16 for i in range(100)]
        index = tree_mod._value_index(at_cap)
        assert len(index) == 10 and sum(map(len, index.values())) == 100
        assert tree_mod._value_index(at_cap[:-1] + [0.75]) is None
        with_zeros = at_cap[:-1] + [-0.0]
        index = tree_mod._value_index(with_zeros)
        assert len(index) == 10 and list(index[0.0]) == [*range(0, 91, 10), 99]
        assert tree_mod._value_index([0.5] * 9) is None

    @pytest.mark.parametrize("seed", range(40))
    def test_positions_cover_every_leaf_once_in_order(self, seed):
        rng = random.Random(seed)
        vals = few_valued_leaf_values(rng, rng.randint(60, 700))
        index = tree_mod._value_index(vals)
        assert index is not None
        assert len(index) == len(set(vals))  # 0.0 and -0.0 share one entry
        assert sum(map(len, index.values())) == len(vals)
        for x, positions in index.items():
            assert positions.typecode == "q"
            assert list(positions) == [i for i, y in enumerate(vals) if y == x]

    @pytest.mark.parametrize("seed", range(40))
    def test_indexed_counts_match_counter_on_every_node(self, seed):
        rng = random.Random(seed)
        n = rng.randint(60, 500)
        tree = random_tree(rng, n) if seed % 4 else caterpillar(n)
        vals = few_valued_leaf_values(rng, n)
        index = tree_mod._value_index(vals)
        for v in range(tree.node_count):
            lo, hi = tree.span(v)
            want = Counter(vals[lo:hi])
            got = tree_mod._indexed_counts(index, lo, hi)
            assert got == want and 0 not in got.values(), v

    def test_zeros_of_both_signs_share_one_count(self):
        vals = (0.0, -0.0) * 30 + (0.5,) * 20
        index = tree_mod._value_index(vals)
        assert len(index) == 2
        assert tree_mod._indexed_counts(index, 0, 80) == {0.0: 60, 0.5: 20}
        assert tree_mod._indexed_counts(index, 1, 2) == {-0.0: 1}

    def test_a_single_valued_list_has_one_entry(self):
        vals = (2.0**-1070,) * 50
        index = tree_mod._value_index(vals)
        assert list(index) == [2.0**-1070] and list(index[2.0**-1070]) == list(range(50))
        assert tree_mod._indexed_counts(index, 7, 19) == {2.0**-1070: 12}

    @pytest.mark.parametrize("kind", ("dense", "exponential"))
    def test_a_many_valued_table_builds_no_index(self, kind):
        rng = random.Random(kind)
        tree = random_tree(rng, 500)
        table = random_weight_table(rng, tree.leaf_order, kind)
        res = run_uniform(BaselineCell(tree, Oracle(tree, table), 200, 0), 20)
        normalized_distance(res, table)
        assert table._stats.index is None
        assert table._stats.counts and not any(table._stats.counts.values())

    def test_the_index_is_built_on_the_first_score_only(self):
        tree = build_median_split_tree(random_features([f"x{i}" for i in range(1024)], 4, 0), 0)
        table = make_geometric_target(tree, TargetSpec("geometric-bins", n_bins=10, ratio=4.0), 0)
        node_discrepancies(tree, table)
        optimal_pruning(tree, 8, table)
        with pytest.raises(AttributeError):
            tree_mod._Stats.index.__get__(table._stats)  # not built yet
        res = run_uniform(BaselineCell(tree, Oracle(tree, table), 300, 0), 8)
        normalized_distance(res, table)
        index = table._stats.index
        assert index is not None and len(index) == 10
        assert sum(map(len, index.values())) == 1024
        normalized_distance(res, table)
        assert table._stats.index is index


class TestSplitQuality:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference_loops(self, seed):
        rng = random.Random(seed)
        for shape in ("random", "caterpillar", "flat") * 4:
            if shape == "flat":
                # Equal weights on 2**j leaves: every discrepancy is exactly 0.
                n = 2 ** rng.randint(1, 5)
                tree = random_tree(rng, n)
                w = {lab: 1.0 / n for lab in tree.leaf_order}
            else:
                n = rng.randint(2, 60)
                tree = caterpillar(n) if shape == "caterpillar" else random_tree(rng, n)
                w = random_weight_table(rng, tree.leaf_order)
            disc = node_discrepancies(tree, w)
            assert split_quality(tree, disc) == reference_split_quality(tree, w)
            assert average_split_quality(tree, disc) == reference_average_split_quality(tree, w)

    def test_none_when_no_positive_discrepancy(self):
        t = quad_tree()
        uniform = {lab: 0.25 for lab in "abcd"}
        disc = node_discrepancies(t, uniform)
        assert split_quality(t, disc) is None
        assert average_split_quality(t, disc) is None

    def test_hand_computed(self):
        t = quad_tree()
        w = {"a": 0.5, "b": 0.1, "c": 0.2, "d": 0.2}
        # Only the root (0.5) and the ab node (0.4) have positive discrepancy;
        # the ab node's children are leaves, so its larger-child share is 0.
        disc = node_discrepancies(t, w)
        assert abs(split_quality(t, disc) - 0.8) < 1e-15
        assert abs(average_split_quality(t, disc) - 0.4) < 1e-15


def broom(rng, n, spine, side):
    """Tree over n leaves: a caterpillar spine of ``spine`` leaves, each
    hung on the ``side`` ("left", "right" or "random") of the spine, that
    ends in a balanced subtree over the other leaves."""
    labels = [f"b{i:04d}" for i in range(n)]

    def balanced(group):
        if len(group) == 1:
            return group[0]
        mid = (len(group) + 1) // 2
        return (balanced(group[:mid]), balanced(group[mid:]))

    spec = balanced(labels[spine:])
    for lab in reversed(labels[:spine]):
        on_left = side == "left" or (side == "random" and rng.random() < 0.5)
        spec = (lab, spec) if on_left else (spec, lab)
    return HierTree.from_nested(spec)


def assert_matches_reference(t, k, w):
    """``optimal_pruning`` equals the slow reference at budget k: the same
    nodes and the same cost bits, so that 0.0 and -0.0 differ."""
    nodes, cost = optimal_pruning(t, k, w)
    want_nodes, want_cost = reference_optimal_pruning(t, k, w)
    assert nodes == want_nodes, k
    assert cost.hex() == want_cost.hex(), k


def zero_subtree_table(rng, t):
    """Dense random weights, except that every leaf under the root's left
    child gets the same weight, so that subtree and all its nodes have
    discrepancy 0.0 and tie every split inside it with keeping it whole."""
    lo, hi = t.span(t.left(t.root_id))
    raw = [rng.random() + 0.01 for _ in t.leaf_order]
    raw[lo:hi] = [raw[lo]] * (hi - lo)
    total = fsum(raw)
    return WeightTable({lab: x / total for lab, x in zip(t.leaf_order, raw)})


class TestOptimalPruning:
    def test_rejects_bad_budget(self):
        t = quad_tree()
        w = {lab: 0.25 for lab in "abcd"}
        with pytest.raises(ValueError):
            optimal_pruning(t, 0, w)
        with pytest.raises(ValueError):
            optimal_pruning(t, 5, w)

    def test_budget_one_is_the_root(self):
        t = quad_tree()
        w = {"a": 0.5, "b": 0.1, "c": 0.2, "d": 0.2}
        nodes, value = optimal_pruning(t, 1, w)
        assert nodes == (0,)
        assert value == node_discrepancy(t, 0, w)

    def test_full_budget_reaches_zero(self):
        rng = random.Random(3)
        t = random_tree(rng, 9)
        w = random_weight_table(rng, t.leaf_order)
        nodes, value = optimal_pruning(t, 9, w)
        assert value == 0.0
        assert sorted(nodes) == leaf_ids(t)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = random.Random(seed)
        t = random_tree(rng, rng.randint(2, 12))
        w = random_weight_table(rng, t.leaf_order)
        k = rng.randint(1, min(5, t.leaf_count_total))
        nodes, value = optimal_pruning(t, k, w)
        assert is_pruning(t, nodes)
        assert len(nodes) <= k
        assert abs(pruning_discrepancy(t, nodes, w) - value) <= 1e-12
        best = min(
            pruning_discrepancy(t, p, w)
            for p in enumerate_prunings(t, t.root_id, k)
        )
        assert abs(value - best) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_value_non_increasing_in_budget(self, seed):
        rng = random.Random(seed)
        t = random_tree(rng, 14)
        w = random_weight_table(rng, t.leaf_order)
        values = [optimal_pruning(t, k, w)[1] for k in range(1, 15)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12

    @pytest.mark.parametrize("kind", ("dense", "exponential", "sparse", "spiked", "uniform", "dyadic"))
    @pytest.mark.parametrize("shape", ("random", "caterpillar"))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_for_every_budget(self, seed, shape, kind):
        # Exact equality, nodes and cost: the fast DP must keep the
        # reference's tie-breaking, and dyadic weights make ties common.
        rng = random.Random(f"{seed}-{shape}-{kind}")
        n = rng.randint(1, 24)
        t = caterpillar(n) if shape == "caterpillar" else random_tree(rng, n)
        labels = t.leaf_order
        if kind == "uniform":
            w = WeightTable({lab: 1.0 / n for lab in labels})
        elif kind == "dyadic":
            w = dyadic_weight_table(rng, labels)
        else:
            w = random_weight_table(rng, labels, kind)
        for k in range(1, n + 1):
            assert_matches_reference(t, k, w)

    @pytest.mark.parametrize("target", ("uniform", "dyadic", "distinct"))
    @pytest.mark.parametrize("shape", ("leaf-left", "leaf-right", "broom"))
    @pytest.mark.parametrize("n", (29, 97, 300))
    def test_matches_reference_on_deep_shapes(self, n, shape, target):
        # A node whose left child is a leaf scans exactly one left budget,
        # which the DP computes without a scan loop; a right leaf child
        # leaves only the clamped budget b - 1.  k = n also takes the
        # clamped path at every node; the O(n·k²) reference takes seconds
        # at k = n = 300, so that pair is left out.
        rng = random.Random(f"{n}-{shape}-{target}")
        if shape == "broom":
            t = broom(rng, n, n - n // 4, "random")
        else:
            t = broom(rng, n, n - 1, shape[5:])
        assert t.max_depth >= n // 2
        # Uniform weights tie every split with keeping the node whole.
        if target == "uniform":
            w = WeightTable({lab: 1.0 / n for lab in t.leaf_order})
        elif target == "dyadic":
            w = dyadic_weight_table(rng, t.leaf_order)
        else:
            w = random_weight_table(rng, t.leaf_order, "dense")
        ks = {*range(1, 13), 40, n} if n < 300 else {*range(1, 13), 40}
        for k in sorted(k for k in ks if k <= n):
            assert_matches_reference(t, k, w)

    @pytest.mark.parametrize("target", ("dense", "dyadic", "uniform", "few"))
    @pytest.mark.parametrize("shape", ("left", "right", "cherries", "balanced", "random"))
    def test_leaf_child_rows_match_reference_at_every_budget(self, shape, target):
        # A node beside a leaf child fills its row in one loop: caterpillars
        # hang a leaf on one side of every node, a spine of two-leaf nodes
        # and a balanced tree have both children leaves at their lowest
        # nodes, and random shapes mix them with scanned nodes.
        rng = random.Random(f"{shape}-{target}")
        if shape in ("left", "right"):
            t = hung_caterpillar(30, shape)
        elif shape == "cherries":
            spec = ("a", "b")
            for i in range(9):
                cherry = (f"x{i}", f"y{i}")
                spec = (cherry, spec) if i % 2 else (spec, cherry)
            t = HierTree.from_nested(spec)
        elif shape == "balanced":
            t = broom(rng, 32, 0, "left")
        else:
            t = random_tree(rng, rng.randint(2, 30))
        labels = t.leaf_order
        n = len(labels)
        if target == "uniform":
            w = WeightTable({lab: 1.0 / n for lab in labels})
        elif target == "dyadic":
            w = dyadic_weight_table(rng, labels)
        elif target == "few":
            w = make_geometric_target(t, TargetSpec("geometric-bins", n_bins=3, ratio=4.0), 0)
        else:
            w = random_weight_table(rng, labels, "dense")
        for k in range(1, n + 1):
            assert_matches_reference(t, k, w)

    def test_matches_reference_on_dyadic_ties(self):
        # About one random tree in 150 has a tie that only the first-budget
        # rule of the DP resolves as the reference does.
        for seed in range(600):
            rng = random.Random(seed)
            t = random_tree(rng, rng.randint(2, 14))
            w = dyadic_weight_table(rng, t.leaf_order)
            for k in range(1, t.leaf_count_total + 1):
                assert_matches_reference(t, k, w)

    @pytest.mark.parametrize(
        "n, target",
        [(256, "few"), (256, "dense"), (256, "uniform"), (256, "dyadic"), (256, "zero-subtree"), (384, "few"), (512, "dense")],
    )
    def test_long_rows_on_both_sides_match_reference(self, n, target):
        # A median-split tree gives both children of each node a long cost
        # row, so the bounded scan walks both ways from its start; uniform
        # and dyadic weights and a zero-discrepancy subtree make ties
        # common.  The O(n·k²) reference takes about a second at k = n =
        # 512, so the budgets are every k up to 12, a few in between and
        # the last two.
        rng = random.Random(f"{n}-{target}")
        t = build_median_split_tree(random_features([f"m{i}" for i in range(n)], 4, n), 1)
        labels = t.leaf_order
        if target == "few":
            w = make_geometric_target(t, TargetSpec("geometric-bins", n_bins=10, ratio=4.0), 2)
        elif target == "uniform":
            w = WeightTable({lab: 1.0 / n for lab in labels})
        elif target == "dyadic":
            w = dyadic_weight_table(rng, labels)
        elif target == "zero-subtree":
            w = zero_subtree_table(rng, t)
        else:
            w = random_weight_table(rng, labels, "dense")
        for k in (*range(1, 13), 40, 100, n // 2 + 1, n - 1, n):
            assert_matches_reference(t, k, w)

    @pytest.mark.parametrize("target", ("dense", "dyadic", "zero-subtree"))
    def test_a_start_below_the_next_range_is_raised_to_it(self, target):
        # The root splits a uniform 40-leaf subtree from a two-leaf one.  At
        # budget 3 the best left budget is 1 (the cherry takes two), and
        # from budget 4 on every left budget is at least b - 2, so each
        # budget's scan starts above the previous budget's best; without
        # that step up, budget 5 would read past the cherry's row.
        rng = random.Random(target)
        spec = "u0"
        for i in range(1, 40):
            spec = (spec, f"u{i}") if i % 3 else (f"u{i}", spec)
        t = HierTree.from_nested((spec, ("c0", "c1")))
        labels = t.leaf_order
        if target == "dyadic":
            w = dyadic_weight_table(rng, labels)
        else:
            raw = {lab: 1.0 for lab in labels}
            raw["c0"], raw["c1"] = 9.0, 3.0
            if target == "dense":
                raw.update((lab, 1.0 + rng.random()) for lab in labels if lab.startswith("u"))
            total = fsum(raw.values())
            w = WeightTable({lab: x / total for lab, x in raw.items()})
        for k in range(1, t.leaf_count_total + 1):
            assert_matches_reference(t, k, w)

    @pytest.mark.parametrize("target", ("uniform", "dyadic", "few", "zero-subtree"))
    @pytest.mark.parametrize("n", (2, 3, 17, 60))
    def test_caterpillars_match_reference_at_every_budget(self, n, target):
        # Every node of a caterpillar sits beside a leaf, so its row is a
        # clamp of the spine's; ties come from the flat targets.
        rng = random.Random(f"{n}-{target}")
        t = caterpillar(n)
        labels = t.leaf_order
        if target == "uniform":
            w = WeightTable({lab: 1.0 / n for lab in labels})
        elif target == "dyadic":
            w = dyadic_weight_table(rng, labels)
        elif target == "few":
            raw = [rng.choice((1.0, 2.0, 4.0)) for _ in labels]
            w = WeightTable({lab: x / fsum(raw) for lab, x in zip(labels, raw)})
        else:
            w = zero_subtree_table(rng, t)
        for k in range(1, n + 1):
            assert_matches_reference(t, k, w)

    def test_tie_keeps_the_smallest_left_budget(self):
        # Node 2's right child is the leaf 18, so every split of node 2
        # gives that leaf more budget than it can use.  At k=6 several left
        # budgets of node 2 cost the same, and the reference keeps the
        # first of them.
        internal = {
            0: (1, 2), 2: (3, 18), 3: (4, 7), 4: (5, 6), 7: (8, 11),
            8: (9, 10), 11: (12, 17), 12: (13, 16), 13: (14, 15),
        }
        leaf_ids = (1, 5, 6, 9, 10, 14, 15, 16, 17, 18)
        t = HierTree.from_records(
            [("I", v, kids) for v, kids in internal.items()]
            + [("L", v, f"l{i}") for i, v in enumerate(leaf_ids)]
        )
        masses = (0.0625, 0.0625, 0.09375, 0.0625, 0.09375, 0.15625, 0.0625, 0.09375, 0.0625, 0.25)
        w = WeightTable({f"l{i}": m for i, m in enumerate(masses)})
        assert optimal_pruning(t, 6, w) == ((1, 5, 6, 7, 18), 0.15625)
        assert reference_optimal_pruning(t, 6, w) == ((1, 5, 6, 7, 18), 0.15625)

    def test_ids_need_not_follow_the_preorder(self):
        # Shuffled ids put some children before their parents; the DP walks
        # the tree's own preorder backwards, so ids do not matter.
        rng = random.Random(7)
        base = random_tree(rng, 30)
        perm = list(range(base.node_count))
        rng.shuffle(perm)
        records = [
            ("L", perm[v], base.label(v)) if base.is_leaf(v) else ("I", perm[v], tuple(perm[c] for c in base.children(v)))
            for v in range(base.node_count)
        ]
        t = HierTree.from_records(records)
        w = random_weight_table(rng, t.leaf_order)
        for k in range(1, 31):
            assert_matches_reference(t, k, w)

    def test_deep_caterpillar_at_full_budget(self):
        # Depth 1499: the DP must neither recurse nor go quadratic in k.
        n = 1500
        records = []
        for i in range(n - 1):
            records.append(("I", 2 * i, (2 * i + 1, 2 * i + 2)))
            records.append(("L", 2 * i + 1, f"x{i:04d}"))
        records.append(("L", 2 * n - 2, f"x{n - 1:04d}"))
        t = HierTree.from_records(records)
        assert t.max_depth == n - 1
        rng = random.Random(0)
        w = random_weight_table(rng, t.leaf_order, "dense")
        t0 = monotonic()
        nodes, value = optimal_pruning(t, n, w)
        elapsed = monotonic() - t0
        assert nodes == tuple(leaf_ids(t))
        assert value == 0.0
        assert elapsed < 20.0
