"""Round trips and error reporting for the on-disk formats."""

import random

import pytest

from awpkit.fileio import (
    HWT_MAGIC,
    dump_tree,
    dump_weights,
    dumps_tree,
    dumps_weights,
    load_tree,
    load_weights,
    loads_tree,
    loads_weights,
)
from awpkit.oracle import build_random_balanced_tree
from awpkit.tree import FileFormatError, HierTree, TreeStructureError, WeightTable

from helpers import caterpillar, random_tree, random_weight_table


SAMPLE = """\
HWT 1
# a three leaf tree
I 0 1 4
I 1 2 3

L 2 a
L 3 b
L 4 c
"""


def assert_same_tree(got, want):
    """Same ids, children, labels, leaf order, spans and depths."""
    assert got.node_count == want.node_count
    assert got.root_id == want.root_id
    assert got.leaf_order == want.leaf_order
    for v in range(want.node_count):
        assert got.children(v) == want.children(v)
        assert got.span(v) == want.span(v)
        assert got.depth(v) == want.depth(v)
        assert got.is_leaf(v) == want.is_leaf(v)
        if want.is_leaf(v):
            assert got.label(v) == want.label(v)


class TestTreeFormat:
    def test_parse_with_comments_and_blanks(self):
        t = loads_tree(SAMPLE)
        assert t.leaf_order == ("a", "b", "c")
        assert t.children(0) == (1, 4)

    def test_dump_starts_with_magic_and_round_trips(self):
        t = loads_tree(SAMPLE)
        text = dumps_tree(t)
        assert text.splitlines()[0] == HWT_MAGIC
        again = loads_tree(text)
        assert again.leaf_order == t.leaf_order
        assert all(again.children(v) == t.children(v) for v in range(t.node_count))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_round_trip(self, seed):
        rng = random.Random(seed)
        t = random_tree(rng, rng.randint(2, 40))
        again = loads_tree(dumps_tree(t))
        assert again.leaf_order == t.leaf_order
        assert all(again.children(v) == t.children(v) for v in range(t.node_count))

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty tree file"),
            ("# only comments\n", "empty tree file"),
            ("HWT 2\nL 0 a\n", "header"),
            ("L 0 a\n", "header"),
            ("HWT 1\nI 0 1\nL 1 a\n", "line 2"),
            ("HWT 1\nI 0 x 2\nL 1 a\nL 2 b\n", "non-integer"),
            ("HWT 1\nL 0\n", "leaf record"),
            ("HWT 1\nQ 0 a\n", "unknown record tag"),
        ],
    )
    def test_malformed_files_report_the_line(self, text, fragment):
        with pytest.raises(FileFormatError) as err:
            loads_tree(text)
        assert fragment in str(err.value)

    def test_whitespace_label_cannot_be_dumped(self):
        t = HierTree.from_nested(("bad label", "b"))
        with pytest.raises(FileFormatError):
            dumps_tree(t)

    @pytest.mark.parametrize("label", ["", "a\u2028b"])
    def test_unreadable_label_cannot_be_dumped(self, label):
        t = HierTree.from_nested((label, "b"))
        with pytest.raises(FileFormatError):
            dumps_tree(t)

    def test_hash_label_round_trips(self):
        # Only a line that starts with '#' is a comment; a leaf record does not.
        t = HierTree.from_nested(("#a", "b"))
        assert loads_tree(dumps_tree(t)).leaf_order == ("#a", "b")

    def test_detached_cycle_is_reported(self):
        text = "HWT 1\nI 0 1 2\nL 1 a\nL 2 b\nI 3 4 5\nI 4 3 6\nL 5 c\nL 6 d\n"
        with pytest.raises(TreeStructureError) as err:
            loads_tree(text)
        assert err.value.kind == "cycle"
        assert err.value.node_id == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_records_load_the_same_tree(self, seed):
        rng = random.Random(seed)
        t = random_tree(rng, rng.randint(2, 40))
        header, *records = dumps_tree(t).splitlines()
        rng.shuffle(records)
        assert_same_tree(loads_tree("\n".join([header, *records])), t)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: caterpillar(20001),
            lambda: build_random_balanced_tree([f"b{i}" for i in range(2**16)], 0),
        ],
        ids=["caterpillar-20000-deep", "balanced-2**16-leaves"],
    )
    def test_large_trees_round_trip(self, build):
        t = build()
        assert_same_tree(loads_tree(dumps_tree(t)), t)

    def test_file_round_trip(self, tmp_path):
        t = loads_tree(SAMPLE)
        path = tmp_path / "t.hwt"
        dump_tree(t, path)
        assert load_tree(path).leaf_order == t.leaf_order

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_tree(tmp_path / "absent.hwt")


class TestWeightFormat:
    def test_parse(self):
        w = loads_weights("# weights\na 0.25\nb 0.75\n")
        assert w["a"] == 0.25 and w["b"] == 0.75

    def test_dump_is_sorted_and_repr_exact(self):
        w = WeightTable({"b": 2 / 3, "a": 1 / 3})
        text = dumps_weights(w)
        assert text == f"a {(1 / 3)!r}\nb {(2 / 3)!r}\n"
        again = loads_weights(text)
        assert again["a"] == w["a"] and again["b"] == w["b"]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_round_trip_is_exact(self, seed):
        rng = random.Random(seed)
        labels = [f"w{i}" for i in range(rng.randint(1, 30))]
        w = random_weight_table(rng, labels)
        again = loads_weights(dumps_weights(w))
        assert dict(again) == dict(w)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty weight file"),
            ("a\n", "line 1"),
            ("a 1.0 extra\n", "line 1"),
            ("a x\n", "bad weight"),
            ("a 0.5\na 0.5\n", "duplicate label"),
            ("a 0.5\nb 0.2\n", "sum"),
            ("a -0.5\nb 1.5\n", "negative"),
            ("a 1e308\nb 1e308\n", "sum to inf"),
        ],
    )
    def test_malformed_weights(self, text, fragment):
        with pytest.raises(FileFormatError) as err:
            loads_weights(text)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("label", ["", "#a", "a b"])
    def test_unreadable_label_cannot_be_dumped(self, label):
        # An empty label would be read back as a short line, a whitespace one
        # as too many fields, and one starting with '#' as a comment.
        w = WeightTable({label: 0.5, "b": 0.5})
        with pytest.raises(FileFormatError):
            dumps_weights(w)

    def test_file_round_trip(self, tmp_path):
        w = WeightTable({"a": 0.25, "b": 0.75})
        path = tmp_path / "w.txt"
        dump_weights(w, path)
        assert dict(load_weights(path)) == dict(w)
