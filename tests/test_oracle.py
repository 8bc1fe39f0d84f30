"""Query accounting, the weight oracle, and synthetic instances."""

import math
import random
import struct
from array import array
from math import fsum

import pytest

from awpkit.cli import make_target_source, make_tree_source
from awpkit.oracle import (
    FeatureColumns,
    Oracle,
    QueryLedger,
    TargetSpec,
    build_median_split_tree,
    build_random_balanced_tree,
    leaf_order_bins,
    make_geometric_target,
    random_features,
)
from awpkit.fileio import dumps_tree, dumps_weights
from awpkit.tree import HierTree, WeightTable

from helpers import (
    leaves_under,
    random_tree,
    random_weight_table,
    reference_geometric_target,
    reference_median_split_tree,
    reference_random_features,
)


def small_instance():
    tree = HierTree.from_nested((("a", "b"), ("c", "d")))
    truth = WeightTable({"a": 0.5, "b": 0.1, "c": 0.2, "d": 0.2})
    return tree, truth


class TestLedger:
    def test_counts(self):
        tree, truth = small_instance()
        oracle = Oracle(tree, truth)
        led = oracle.ledger
        assert led == QueryLedger(0, 0)
        for pos in (0, 3, 0):
            oracle.query_leaf(pos)
        oracle.query_node(4)
        # A refused query is not counted.
        with pytest.raises(KeyError):
            oracle.query_leaf(4)
        assert led.basic_queries == 3
        assert led.node_queries == 1


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

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_answers_and_charges_as_one_query_each(self, seed):
        rng = random.Random(seed)
        tree = random_tree(rng, rng.randint(2, 40))
        truth = random_weight_table(rng, tree.leaf_order)
        n = tree.leaf_count_total
        positions = [rng.randrange(n) for _ in range(rng.randint(1, 90))] + [0, n - 1, True, False]
        batch, single = Oracle(tree, truth), Oracle(tree, truth)
        single.query_leaf(0)
        batch.query_leaf(0)
        assert batch.query_leaves(positions) == [single.query_leaf(pos) for pos in positions]
        assert batch.ledger == single.ledger
        assert batch.query_leaves([]) == []
        assert batch.ledger == single.ledger

    @pytest.mark.parametrize("bad", [-1, 4, 1.0, "a", None])
    @pytest.mark.parametrize("before", [0, 1, 3])
    def test_batch_refuses_a_bad_position_after_charging_the_earlier_ones(self, bad, before):
        tree, truth = small_instance()
        batch, single = Oracle(tree, truth), Oracle(tree, truth)
        positions = [3, 0, 2][:before] + [bad, 1]
        with pytest.raises(KeyError) as want:
            for pos in positions:
                single.query_leaf(pos)
        with pytest.raises(KeyError) as got:
            batch.query_leaves(positions)
        assert got.value.args == want.value.args
        assert batch.ledger == single.ledger == QueryLedger(before, 0)

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


def _target_outcome(make, tree, spec, seed):
    """A target table's items, each value by its repr, or the type and
    message of the error that making it raises."""
    try:
        table = make(tree, spec, seed)
    except (ValueError, OverflowError) as exc:
        return "refused", type(exc), str(exc)
    assert all(type(lab) is str and type(value) is float for lab, value in table.items())
    return "table", [(lab, repr(value)) for lab, value in table.items()]


class TestGeometricTargetAgainstReference:
    """The C-level target build gives the reference's table, item for item
    and in the same order, or its refusal."""

    @pytest.mark.parametrize("n", [1, 2, 3, 37, 4096])
    def test_every_bin_count_ratio_and_seed(self, n):
        tree = build_random_balanced_tree([f"g{i:04d}" for i in range(n)], seed=n)
        refused = 0
        for n_bins in range(1, min(n, 12) + 1):
            for ratio in (1.5, 2, 4, 1e10, 1e300):
                # Explicit bins ignore the seed, so they take one.
                cases = [(TargetSpec("geometric-bins", ratio=ratio, bins=leaf_order_bins(tree, n_bins)), 0)]
                cases += [(TargetSpec("geometric-bins", n_bins=n_bins, ratio=ratio), seed) for seed in (0, 1, 2)]
                for spec, seed in cases:
                    want = _target_outcome(reference_geometric_target, tree, spec, seed)
                    assert _target_outcome(make_geometric_target, tree, spec, seed) == want, (n_bins, ratio, seed)
                    refused += want[0] == "refused"
        # ratio 1e300 over 3 or more bins is past the float range.
        assert refused == 4 * max(0, min(n, 12) - 2)

    def test_same_refusals(self):
        tree = build_random_balanced_tree([f"g{i}" for i in range(6)], seed=0)
        labs = tree.leaf_order
        specs = [
            TargetSpec("geometric-bins", n_bins=7, ratio=2.0),
            TargetSpec("geometric-bins", ratio=2.0, bins=(labs[:2], labs[:2], labs[2:])),
            TargetSpec("geometric-bins", ratio=2.0, bins=(labs[:5],)),
            TargetSpec("geometric-bins", ratio=2.0, bins=(labs, ())),
            TargetSpec("geometric-bins", ratio=1e200, bins=(labs[:1], labs[1:3], labs[3:])),
        ]
        for spec in specs:
            want = _target_outcome(reference_geometric_target, tree, spec, 0)
            assert want[0] == "refused"
            assert _target_outcome(make_geometric_target, tree, spec, 0) == want

    def test_explicit_bins_out_of_leaf_order(self):
        # Bins cut from a shuffle, so the labels of the level dict come in
        # another order than the leaves.
        tree = build_random_balanced_tree([f"g{i:03d}" for i in range(101)], seed=4)
        shuffled = list(tree.leaf_order)
        random.Random(5).shuffle(shuffled)
        spec = TargetSpec("geometric-bins", ratio=3.0, bins=(tuple(shuffled[:7]), tuple(shuffled[7:40]), tuple(shuffled[40:])))
        want = _target_outcome(reference_geometric_target, tree, spec, 0)
        assert want[0] == "table"
        assert _target_outcome(make_geometric_target, tree, spec, 0) == want


class TestGeometricTargetShares:
    """Every label of a bin shares one float, with the bits of the
    reference's per-leaf division."""

    @pytest.mark.parametrize("n, n_bins, ratio", [(1, 1, 2.0), (100, 3, 1.5), (4096, 10, 4.0), (4097, 7, 1e10)])
    @pytest.mark.parametrize("layout", ["shuffled", "contiguous"])
    def test_same_bits_and_one_float_per_bin(self, n, n_bins, ratio, layout):
        tree = build_random_balanced_tree([f"s{i:05d}" for i in range(n)], seed=n)
        if layout == "contiguous":
            spec = TargetSpec("geometric-bins", ratio=ratio, bins=leaf_order_bins(tree, n_bins))
        else:
            spec = TargetSpec("geometric-bins", n_bins=n_bins, ratio=ratio)
        got = make_geometric_target(tree, spec, seed=3)
        want = reference_geometric_target(tree, spec, seed=3)
        bits = struct.Struct("<d").pack
        assert list(got) == list(want)
        assert [bits(got[lab]) for lab in got] == [bits(want[lab]) for lab in want]
        assert len(set(map(id, got.values()))) <= n_bins


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
    """The one-pass build writes the same tree file as the recursive
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


def _column(kind: str, n: int, rng) -> list:
    """One coordinate column over n labels: distinct floats, distinct floats
    but for one 0.0 and one -0.0 (from n=2), floats tied in threes, signed
    zeros among ones (0.0 and -0.0 both present from n=2), distinct ints,
    or ints tied in twos."""
    if kind == "distinct":
        return [rng.random() for _ in range(n)]
    if kind == "one-signed-zero":
        col = [rng.random() for _ in range(n)]
        col[:2] = [0.0, -0.0][:n]
        rng.shuffle(col)
        return col
    if kind == "tied":
        return [float(rng.randrange(max(1, n // 3))) for _ in range(n)]
    if kind == "zeros":
        col = [rng.choice((0.0, -0.0, 1.0)) for _ in range(n)]
        col[:2] = [0.0, -0.0][:n]
        rng.shuffle(col)
        return col
    if kind == "int":
        return rng.sample(range(-3 * n, 3 * n), n)
    if kind == "int-tied":
        return [rng.randrange(max(1, n // 2)) for _ in range(n)]
    raise ValueError(kind)


class TestMedianSplitColumnChoice:
    """Columns of distinct values, of values tied in threes, of signed
    zeros among ones, and of distinct or tied ints, through the
    ``Mapping`` input: one build that mixes these kinds of column gives
    the reference's tree file, for every starting coordinate, and for
    small n with one- and two-label children on either side."""

    @pytest.mark.parametrize(
        "kinds",
        [
            ("distinct", "distinct", "distinct"),
            ("tied", "tied"),
            ("zeros", "distinct"),
            ("one-signed-zero", "distinct"),
            ("int", "int-tied", "distinct"),
            ("distinct", "tied", "zeros", "int"),
        ],
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 37, 300])
    def test_mixed_columns(self, kinds, n):
        rng = random.Random(f"{kinds}-{n}")
        for trial in range(4):
            columns = [_column(kind, n, rng) for kind in kinds]
            # Inserted in shuffled label order, as a Mapping need not be sorted.
            labels = [f"c{i:03d}" for i in range(n)]
            order = list(range(n))
            rng.shuffle(order)
            feats = {labels[i]: tuple(col[i] for col in columns) for i in order}
            for seed in range(2 * len(kinds)):
                got = dumps_tree(build_median_split_tree(feats, seed))
                assert got == dumps_tree(reference_median_split_tree(feats, seed)), (trial, seed)

    def test_feature_columns_refuse_non_finite_coordinates(self):
        cols = FeatureColumns(["a", "b", "c"], 2, seed=0)
        cols.flat[3] = math.nan  # coordinate 1 of "b"
        with pytest.raises(ValueError, match=r"^feature vector of 'b' has a non-finite coordinate nan$"):
            build_median_split_tree(cols, seed=0)
        cols.flat[3] = 0.5
        cols.flat[4] = -math.inf  # coordinate 0 of "c"
        with pytest.raises(ValueError, match=r"^feature vector of 'c' has a non-finite coordinate -inf$"):
            build_median_split_tree(cols, seed=0)


def _tied_flat(cols: FeatureColumns, kind: str, rng) -> None:
    """Overwrite every column of ``cols.flat`` in place, through a shuffle
    of the labels per column, so that ties fall where ``kind`` says:
    values quantised to 1/q ("q=Q"; q=1 makes every value 0.0), signed
    zeros among halves ("zeros"), or one tied run in a column's sorted
    order that ends at mid - 1 ("end"), starts at mid ("start"), holds
    both ("straddle") or spans the whole column ("span"), with distinct
    values around it.  A run kind places its tie at the root's cut; the
    other kinds tie values at every level."""
    n, dim, flat = len(cols.labels), cols.dim, cols.flat
    if kind.startswith("q="):
        q = int(kind[2:])
        for i in range(len(flat)):
            flat[i] = math.floor(flat[i] * q) / q
        return
    mid = n >> 1
    for c in range(dim):
        if kind == "zeros":
            values = [rng.choice((0.0, -0.0, 0.5)) for _ in range(n)]
        else:
            # The run [lo, hi) of the column's sorted order, of two or
            # more labels where the kind allows it.
            if kind == "end":
                lo, hi = rng.randrange(max(1, mid - 1)), mid
            elif kind == "start":
                lo, hi = mid, rng.randrange(min(mid + 2, n), n + 1)
            elif kind == "straddle":
                lo, hi = rng.randrange(mid), rng.randrange(mid + 1, n + 1)
            else:
                lo, hi = 0, n
            values = [(lo if lo <= r < hi else r) / n for r in range(n)]
        rng.shuffle(values)
        flat[c::dim] = array("d", values)


class TestMedianSplitTiesThroughColumns:
    """``FeatureColumns`` whose columns are tied where the cut falls, or
    quantised so that ties fall at every level, give the reference's tree
    file: the group sort on plain values and the tie fix at the cut agree
    with the (value, label) sort."""

    @pytest.mark.parametrize("kind", ["q=1", "q=2", "q=4", "q=64", "zeros", "end", "start", "straddle", "span"])
    @pytest.mark.parametrize("dim", [1, 2, 8])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 37, 300, 4096])
    def test_tied_columns(self, n, dim, kind):
        rng = random.Random(f"{n}-{dim}-{kind}")
        cols = FeatureColumns([f"t{i:04d}" for i in range(n)], dim, seed=n)
        _tied_flat(cols, kind, rng)
        feats = {lab: tuple(cols.flat[i * dim : (i + 1) * dim]) for i, lab in enumerate(cols.labels)}
        for seed in range(min(dim, 3)):
            got = dumps_tree(build_median_split_tree(cols, seed))
            assert got == dumps_tree(reference_median_split_tree(feats, seed)), seed

    @pytest.mark.parametrize("n, order", [(4, "cdab"), (5, "deacb")])
    def test_two_label_halves_ordered_by_label(self, n, order):
        # Seed 1 starts at coordinate 0, whose values fall as the label
        # rises, so the root's left half arrives in falling label order;
        # coordinate 1 is equal for all, so the label alone orders it.
        cols = FeatureColumns("abcde"[:n], 2, seed=0)
        cols.flat = array("d", [v for i in range(n) for v in ((n - i) / 10, 0.25)])
        feats = {lab: tuple(cols.flat[2 * i : 2 * i + 2]) for i, lab in enumerate(cols.labels)}
        tree = build_median_split_tree(cols, 1)
        assert dumps_tree(tree) == dumps_tree(reference_median_split_tree(feats, 1))
        assert "".join(tree.leaf_order) == order


class TestFlatFeatureSpec:
    """The median-split spec draws flat feature columns and builds its
    child columns directly; it writes the same tree and weight files, byte
    for byte, as the per-label reference features and recursive build."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("dim", [1, 3, 8])
    @pytest.mark.parametrize("n", [1, 2, 3, 37, 1001, 4096])
    def test_same_files_as_reference(self, n, dim, seed):
        labels = [f"x{i:06d}" for i in range(n)]
        want = reference_median_split_tree(reference_random_features(labels, dim, seed), seed)
        tree, _ = make_tree_source(f"median-split:n={n},dim={dim}", seed)
        assert dumps_tree(tree) == dumps_tree(want)
        weights = f"geometric:bins={min(n, 10)},ratio=4"
        got_w = dumps_weights(make_target_source(weights, tree, seed))
        assert got_w == dumps_weights(make_target_source(weights, want, seed))

    def test_flat_columns(self):
        labels = ["b", "a", "c"]
        cols = FeatureColumns(labels, 2, seed=3)
        want = random_features(labels, 2, seed=3)
        assert want == reference_random_features(labels, 2, 3)
        assert [list(cols.flat[c::2]) for c in range(2)] == [[want[lab][c] for lab in cols.labels] for c in range(2)]
        with pytest.raises(ValueError, match="dim must be positive"):
            FeatureColumns(labels, 0, seed=0)
