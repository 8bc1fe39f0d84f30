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
from awpkit.tree import FileFormatError, HierTree, WeightTable

from helpers import random_tree, random_weight_table


SAMPLE = """\
HWT 1
# a three leaf tree
I 0 1 4
I 1 2 3

L 2 a
L 3 b
L 4 c
"""


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
        ],
    )
    def test_malformed_weights(self, text, fragment):
        with pytest.raises(FileFormatError) as err:
            loads_weights(text)
        assert fragment in str(err.value)

    def test_file_round_trip(self, tmp_path):
        w = WeightTable({"a": 0.25, "b": 0.75})
        path = tmp_path / "w.txt"
        dump_weights(w, path)
        assert dict(load_weights(path)) == dict(w)
