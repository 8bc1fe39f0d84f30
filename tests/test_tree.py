"""Tree structure validation, pruning identities, and the exact DP."""

import random
from math import fsum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awpkit.tree import (
    HierTree,
    TreeStructureError,
    WeightTable,
    average_split_quality,
    induced_weighting,
    is_pruning,
    leaves_under,
    node_discrepancies,
    node_discrepancy,
    optimal_pruning,
    _leaf_values,
    pruning_discrepancy,
    refine_with_queries,
    split_quality,
    tv_distance,
)

from helpers import (
    caterpillar,
    enumerate_prunings,
    random_pruning,
    random_tree,
    random_weight_table,
    reference_refine_with_queries,
    reference_tv_distance,
)


def quad_tree():
    return HierTree.from_nested((("a", "b"), ("c", "d")))


class TestStructure:
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
        assert t.parent(0) is None
        assert t.parent(3) == 1
        assert t.left(1) == 2 and t.right(1) == 3
        assert t.internal_ids() == [0, 1]
        assert t.leaf_ids() == [2, 3, 4]

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

    @pytest.mark.parametrize(
        "records,kind",
        [
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
        ],
    )
    def test_invalid_records_identify_the_violation(self, records, kind):
        with pytest.raises(TreeStructureError) as err:
            HierTree.from_records(records)
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
                assert t.parent(l) == v and t.parent(r) == v
        assert sorted(leaves_under(t, t.root_id)) == sorted(t.leaf_order)


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
        assert sorted(nodes) == sorted(t.leaf_ids())

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
