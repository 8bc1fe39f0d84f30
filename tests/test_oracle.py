"""Query accounting, the weight oracle, and synthetic instances."""

import math
import random
from math import fsum

import pytest

from awpkit.oracle import (
    Oracle,
    QueryLedger,
    TargetSpec,
    build_median_split_tree,
    build_random_balanced_tree,
    leaf_order_bins,
    make_geometric_target,
    random_features,
)
from awpkit.fileio import dumps_tree
from awpkit.tree import HierTree, WeightTable

from helpers import (
    leaves_under,
    random_tree,
    random_weight_table,
    reference_median_split_tree,
    reference_random_features,
)


def small_instance():
    tree = HierTree.from_nested((("a", "b"), ("c", "d")))
    truth = WeightTable({"a": 0.5, "b": 0.1, "c": 0.2, "d": 0.2})
    return tree, truth


class TestLedger:
    def test_counts(self):
        led = QueryLedger()
        led.record_basic()
        led.record_basic()
        led.record_basic()
        led.record_node()
        assert led.basic_queries == 3
        assert led.node_queries == 1

    def test_snapshot_is_detached(self):
        led = QueryLedger()
        led.record_basic()
        snap = led.snapshot()
        led.record_basic()
        led.record_node()
        assert snap.basic_queries == 1
        assert snap.node_queries == 0
        assert led.basic_queries == 2


class TestOracle:
    def test_queries_are_exact_and_counted(self):
        tree, truth = small_instance()
        oracle = Oracle(tree, truth)
        a = tree.leaf_order.index("a")
        assert oracle.query_leaf(a) == 0.5
        assert oracle.query_leaf(a) == 0.5
        assert oracle.query_node(1) == fsum([0.5, 0.1])
        assert oracle.query_node(0) == truth.total()
        assert oracle.ledger.basic_queries == 2
        assert oracle.ledger.node_queries == 2

    def test_leaf_values_are_read_only_and_free(self):
        tree, truth = small_instance()
        oracle = Oracle(tree, truth)
        assert oracle.leaf_values == tuple(truth[lab] for lab in tree.leaf_order)
        assert isinstance(oracle.leaf_values, tuple)
        with pytest.raises(AttributeError):
            oracle.leaf_values = ()
        assert oracle.ledger.basic_queries == 0 and oracle.ledger.node_queries == 0

    def test_repeat_queries_charge_again(self):
        tree, truth = small_instance()
        oracle = Oracle(tree, truth)
        for _ in range(5):
            oracle.query_leaf(tree.leaf_order.index("c"))
        assert oracle.ledger.basic_queries == 5

    def test_leaf_set_must_match(self):
        tree, _ = small_instance()
        with pytest.raises(ValueError):
            Oracle(tree, WeightTable({"a": 0.5, "b": 0.5}))
        with pytest.raises(ValueError):
            Oracle(
                tree,
                WeightTable({"a": 0.2, "b": 0.2, "c": 0.2, "d": 0.2, "e": 0.2}),
            )

    def test_unknown_leaf_or_node(self):
        tree, truth = small_instance()
        oracle = Oracle(tree, truth)
        for bad in (-1, tree.leaf_count_total, "a"):
            with pytest.raises(KeyError):
                oracle.query_leaf(bad)
        with pytest.raises(KeyError):
            oracle.query_node(99)

    @pytest.mark.parametrize("seed", range(5))
    def test_node_query_equals_leaf_sum(self, seed):
        rng = random.Random(seed)
        tree = random_tree(rng, rng.randint(2, 30))
        truth = random_weight_table(rng, tree.leaf_order)
        oracle = Oracle(tree, truth)
        for v in range(tree.node_count):
            want = fsum(truth[lab] for lab in leaves_under(tree, v))
            assert oracle.query_node(v) == want


class TestTargetSpec:
    def test_validation(self):
        TargetSpec("geometric-bins", n_bins=3, ratio=2.0)
        with pytest.raises(ValueError):
            TargetSpec("geometric-bins", n_bins=0, ratio=2.0)
        with pytest.raises(ValueError):
            TargetSpec("geometric-bins", n_bins=3, ratio=1.0)
        with pytest.raises(ValueError, match="finite"):
            TargetSpec("geometric-bins", n_bins=3, ratio=float("inf"))
        with pytest.raises(ValueError):
            TargetSpec("explicit-table")
        with pytest.raises(ValueError):
            TargetSpec("nope")


class TestGeometricTarget:
    def test_leaf_order_bins_partition(self):
        rng = random.Random(0)
        tree = random_tree(rng, 11)
        bins = leaf_order_bins(tree, 4)
        assert [len(b) for b in bins] == [3, 3, 3, 2]
        assert tuple(lab for b in bins for lab in b) == tree.leaf_order
        with pytest.raises(ValueError):
            leaf_order_bins(tree, 0)
        with pytest.raises(ValueError):
            leaf_order_bins(tree, 12)

    def test_explicit_bins_levels(self):
        rng = random.Random(1)
        tree = random_tree(rng, 12)
        bins = leaf_order_bins(tree, 3)
        spec = TargetSpec("geometric-bins", ratio=4.0, bins=bins)
        truth = make_geometric_target(tree, spec, seed=0)
        assert abs(truth.total() - 1.0) <= 1e-12
        levels = [truth[b[0]] for b in bins]
        for b in bins:
            assert len({truth[lab] for lab in b}) == 1
        assert levels[0] > levels[1] > levels[2]
        for hi, lo in zip(levels, levels[1:]):
            assert abs(hi / lo - 4.0) <= 1e-12

    def test_shuffled_bins_are_seeded(self):
        rng = random.Random(2)
        tree = random_tree(rng, 20)
        spec = TargetSpec("geometric-bins", n_bins=5, ratio=2.0)
        a = make_geometric_target(tree, spec, seed=7)
        b = make_geometric_target(tree, spec, seed=7)
        c = make_geometric_target(tree, spec, seed=8)
        assert dict(a) == dict(b)
        assert dict(a) != dict(c)

    def test_bad_partitions_rejected(self):
        rng = random.Random(3)
        tree = random_tree(rng, 6)
        labs = tree.leaf_order
        with pytest.raises(ValueError):
            make_geometric_target(
                tree,
                TargetSpec("geometric-bins", ratio=2.0, bins=(labs[:2], labs[:2], labs[2:])),
                seed=0,
            )
        with pytest.raises(ValueError):
            make_geometric_target(
                tree,
                TargetSpec("geometric-bins", ratio=2.0, bins=(labs, ())),
                seed=0,
            )
        with pytest.raises(ValueError):
            make_geometric_target(
                tree, TargetSpec("geometric-bins", n_bins=7, ratio=2.0), seed=0
            )

    @pytest.mark.parametrize("n_bins", [2, 3])
    def test_overflowing_ratio_rejected(self, n_bins):
        # bins=2 overflows the sum of levels, bins=3 the level power itself.
        tree = random_tree(random.Random(4), 16)
        spec = TargetSpec("geometric-bins", n_bins=n_bins, ratio=1e308)
        with pytest.raises(ValueError, match=rf"ratio 1e\+308 over {n_bins} bins"):
            make_geometric_target(tree, spec, seed=0)


class TestSyntheticTrees:
    def test_median_split_is_deterministic_and_balanced(self):
        labels = [f"m{i:03d}" for i in range(37)]
        feats = random_features(labels, 4, seed=5)
        t1 = build_median_split_tree(feats, seed=9)
        t2 = build_median_split_tree(feats, seed=9)
        assert t1.leaf_order == t2.leaf_order
        assert all(t1.children(v) == t2.children(v) for v in range(t1.node_count))
        assert sorted(t1.leaf_order) == labels
        assert t1.max_depth == math.ceil(math.log2(37))

    def test_median_split_input_validation(self):
        with pytest.raises(ValueError):
            build_median_split_tree({}, seed=0)
        with pytest.raises(ValueError):
            build_median_split_tree({"a": (0.1,), "b": (0.1, 0.2)}, seed=0)
        with pytest.raises(ValueError):
            build_median_split_tree({"a": (), "b": ()}, seed=0)

    def test_median_split_refuses_non_finite_coordinates(self):
        # NaN compares false both ways, so a tree over it would depend on
        # the order in which the sort compares; the build refuses it.
        for bad in (math.nan, math.inf, -math.inf):
            feats = {"a": (0.5, 0.1), "b": (0.5, bad), "c": (0.1, 0.2)}
            with pytest.raises(ValueError, match="'b' has a non-finite coordinate"):
                build_median_split_tree(feats, seed=0)
        with pytest.raises(ValueError, match="'a'"):
            build_median_split_tree({"a": (math.nan,), "b": (0.5,), "c": (0.1,)}, seed=0)

    def test_random_balanced_tree(self):
        labels = [f"b{i}" for i in range(10)]
        t1 = build_random_balanced_tree(labels, seed=3)
        t2 = build_random_balanced_tree(labels, seed=3)
        t3 = build_random_balanced_tree(labels, seed=4)
        assert t1.leaf_order == t2.leaf_order
        assert t1.leaf_order != t3.leaf_order
        assert sorted(t1.leaf_order) == sorted(labels)
        assert t1.max_depth == math.ceil(math.log2(10))
        with pytest.raises(ValueError):
            build_random_balanced_tree([], seed=0)
        with pytest.raises(ValueError):
            build_random_balanced_tree(["x", "x"], seed=0)

    def test_random_features(self):
        f1 = random_features(["b", "a"], 3, seed=1)
        f2 = random_features(["a", "b"], 3, seed=1)
        assert f1 == f2
        assert list(f1.keys()) == ["a", "b"]
        assert all(len(v) == 3 for v in f1.values())
        assert all(0.0 <= x < 1.0 for v in f1.values() for x in v)
        with pytest.raises(ValueError):
            random_features(["a"], 0, seed=0)

    @pytest.mark.parametrize("labels", [["a", "a"], ["x", 1, "1"], [3, "b", "3"]])
    def test_random_features_refuses_duplicate_labels(self, labels):
        # Labels are compared after str(), as build_random_balanced_tree does.
        with pytest.raises(ValueError, match="duplicate labels"):
            random_features(labels, 2, seed=0)


def _features(kind: str, n: int, dim: int, rng) -> dict:
    """Feature vectors over n labels, inserted in descending label order:
    uniform draws, coordinates tied in thirds ((i + c) % 3), or uniform
    draws with one coordinate equal for every label."""
    feats = {}
    for i in reversed(range(n)):
        if kind == "tied":
            vec = [float((i + c) % 3) for c in range(dim)]
        else:
            vec = [rng.random() for _ in range(dim)]
            if kind == "constant":
                vec[dim // 2] = 0.25
        feats[f"f{i:04d}"] = tuple(vec)
    return feats


class TestMedianSplitAgainstReference:
    """The ranked one-pass build writes the same tree file as the recursive
    (value, label)-keyed build, byte for byte."""

    @pytest.mark.parametrize("kind", ["uniform", "tied", "constant"])
    def test_small_trees(self, kind):
        rng = random.Random(kind)
        for n in range(1, 301):
            dim = 1 + n % 8
            seed = n % 5
            feats = _features(kind, n, dim, rng)
            got = dumps_tree(build_median_split_tree(feats, seed))
            assert got == dumps_tree(reference_median_split_tree(feats, seed)), (kind, n, dim)

    @pytest.mark.parametrize(
        "kind,dim,seed", [("uniform", 8, 0), ("uniform", 3, 11), ("tied", 5, 2), ("constant", 2, 7)]
    )
    def test_4096_leaves(self, kind, dim, seed):
        feats = _features(kind, 4096, dim, random.Random(seed))
        tree = build_median_split_tree(feats, seed)
        assert tree.max_depth == 12 > dim
        assert dumps_tree(tree) == dumps_tree(reference_median_split_tree(feats, seed))

    @pytest.mark.parametrize("n,dim,seed", [(1, 1, 0), (2, 3, 1), (37, 8, 5), (300, 2, 9), (1001, 4, 3)])
    def test_random_features(self, n, dim, seed):
        labels = [f"r{i}" for i in range(n)][::-1]
        assert random_features(labels, dim, seed) == reference_random_features(labels, dim, seed)
