"""Round trips and error reporting for the on-disk formats."""

import random
import re
from math import fsum
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import awpkit.fileio as fileio
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

from helpers import (
    caterpillar,
    random_tree,
    random_weight_table,
    reference_dumps_tree,
    reference_dumps_weights,
    reference_loads_tree,
    reference_loads_weights,
)


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


# Labels built from these pieces: ASCII and Unicode whitespace (str.split
# splits on all of them), '#', '!' (which sorts before '#') and letters; an
# empty label is the empty list of pieces.  Half the lists hold only labels
# without whitespace, so that lists both writers accept come up often.
_PIECES = ["a", "b", "!", "#", " ", "\t", "\n", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
_LABELS = st.lists(st.text("!ab#", min_size=1, max_size=3), min_size=1, max_size=12, unique=True) | st.lists(
    st.lists(st.sampled_from(_PIECES), max_size=3).map("".join), min_size=1, max_size=12, unique=True
)


def _outcome(dump, obj):
    """The text a writer returns, or the message of the FileFormatError it
    raises."""
    try:
        return "text", dump(obj)
    except FileFormatError as exc:
        return "refused", str(exc)


def _tree_with_shuffled_ids(labels, rng):
    """A random tree over the labels whose ids are permuted, so that id
    order and leaf order differ."""
    spec = labels[0]
    for lab in labels[1:]:
        spec = (spec, lab) if rng.random() < 0.5 else (lab, spec)
    tree = HierTree.from_nested(spec)
    perm = list(range(tree.node_count))
    rng.shuffle(perm)
    left = [-1] * tree.node_count
    right = [-1] * tree.node_count
    names = [None] * tree.node_count
    for v in range(tree.node_count):
        if tree.is_leaf(v):
            names[perm[v]] = tree.label(v)
        else:
            left[perm[v]] = perm[tree.left(v)]
            right[perm[v]] = perm[tree.right(v)]
    return HierTree(names, left, right)


# Line breaks that str.splitlines honours, and whitespace, ASCII and
# Unicode, that str.split and str.strip honour but splitlines does not.
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x1e", "\u2028"]
_SPACES = [" ", "  ", "\t", "\xa0", "\x1f", "\u3000"]
# Each kind of malformed file, with the replacement values that make one:
# a header, a record's tag, a dropped or added field, an id or child id
# that int() cannot read or that is out of range, and a repeated id.
_MALFORMED = {
    "header": ["HWT 2", "HWT  1x", "hwt 1", "HWT", ""],
    "tag": ["Q", "i", "II", "LL"],
    "fields": ["drop", "add"],
    "integer": ["x", "1.5", "0x1", "--1", "1e3", "\u0661\u0662a"],
    "range": ["-1", "{n}", "{big}"],
    "duplicate": [None],
}
_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


@st.composite
def hwt_texts(draw):
    """An HWT text of a random tree, with records in any order, comments,
    blank lines, mixed line breaks and whitespace, ids written in any form
    int() reads, and up to two malformed records or a bad header."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    labels = [f"{'#' if rng.random() < 0.2 else ''}x{i}" for i in range(draw(st.integers(1, 9)))]
    tree = _tree_with_shuffled_ids(labels, rng)
    n = tree.node_count

    def spell(v):
        # int() also reads a sign, leading zeros and other decimal digits.
        return rng.choice([str(v), str(v), f"+{v}", f"0{v}", str(v).translate(_ARABIC_INDIC)])

    records = [
        ["L", spell(v), tree.label(v)] if tree.is_leaf(v) else ["I", spell(v), *map(spell, tree.children(v))]
        for v in range(n)
    ]
    if draw(st.booleans()):
        rng.shuffle(records)
    header = "HWT 1"
    for kind in draw(st.lists(st.sampled_from(sorted(_MALFORMED)), max_size=2)):
        bad = rng.choice(_MALFORMED[kind])
        rec = rng.choice(records)
        if kind == "header":
            header = bad
        elif kind == "tag":
            rec[0] = bad
        elif kind == "fields":
            if bad == "drop":
                rec.pop()
            else:
                rec.append("7")
        elif kind == "duplicate":
            rec[1] = rng.choice(records)[1]
        else:
            rec[rng.randrange(1, len(rec))] = bad.format(n=n, big=10**30)
    lines = [header] + [rng.choice(_SPACES).join(rec) for rec in records]
    out = []
    for line in lines:
        while rng.random() < 0.2:
            out.append(rng.choice(["", "#", "# note", " \t", "\u3000#x y z", "  # I 0 1 2"]))
        out.append(rng.choice(["", "", " ", "\xa0"]) + line + rng.choice(["", "", "\t", "\u3000"]))
    return "".join(line + rng.choice(_BREAKS) for line in out)


def _load_outcome(load, text):
    """The loaded tree's root and records, or the type and message of the
    error the loader raises."""
    try:
        tree = load(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return tree.root_id, tree.leaf_order, dumps_tree(tree)


class TestLoaderMatchesReference:
    """``loads_tree`` parses in slices and names a bad line only after that
    parse fails; it loads the same tree, or raises the same error with
    the same message, as the line-by-line reference."""

    @settings(max_examples=400, deadline=None)
    @given(text=hwt_texts())
    @example(text="HWT 1\r\nI 0 1 2\r\nL 1 a\r\nL 2 b\r\n")
    @example(text="  HWT 1\u3000\n\n# c\nL\xa02 b\nI 0\t1 +2\nL 01 a\n")
    @example(text="HWT 2\nI 0 1 2\nL 1 a\nL 2 b\n")
    @example(text="HWT 1\nI 0 1 2\nQ 1 a\nL 2 b\n")
    @example(text="HWT 1\nI 0 1 2 3\nL 1 a\nL 2 b\n")
    @example(text="HWT 1\nI 0 1 2\nL 1 a b\nL 2 b\n")
    @example(text="HWT 1\nI 0 1 x\nL 1 a\nL 2 b\n")
    @example(text="HWT 1\nI 0 1 2\nL 3 a\nL 2 b\n")
    @example(text="HWT 1\nI 0 1 2\nL 2 a\nL 2 b\n")
    @example(text="HWT 1\nI 0 1 2\nL 2 a\nL x b\n")
    @example(text="HWT 1\nL -1 a\n")
    @example(text="HWT 1\n")
    def test_same_tree_or_same_error(self, text):
        assert _load_outcome(loads_tree, text) == _load_outcome(reference_loads_tree, text)


# Weights that float() refuses, and ones it reads that WeightTable refuses.
_BAD_WEIGHTS = ["x", "1e-x", "0x1p-3", "1.2.3", "--1", "1,5"]
_NON_FINITE = ["nan", "-nan", "inf", "-inf", "1e999", "-1e999"]


def _spellings(rng, weight: str) -> str:
    """Another string float() reads as the same weight, at times."""
    forms = [weight, weight, f"+{weight}", weight.replace("e", "E")]
    if "." in weight and "e" not in weight:
        forms.append(weight + "0")
    return rng.choice(forms)


@st.composite
def weight_texts(draw):
    """A weight file over 1 to 60 labels, some holding '#': weights with at
    most three distinct values or all distinct, summing to 1 or not, in
    different spellings, with comments, blank and whitespace-only lines,
    mixed line breaks and whitespace, a zero or minus-zero weight at times,
    and up to two faults: a repeated label, a line with one or three
    fields, a weight float() refuses, a non-finite or a negative one."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 60))
    if draw(st.booleans()):
        levels = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        raw = [rng.choice(levels) for _ in range(n)]
    else:
        raw = [rng.randint(1, 10**9) for _ in range(n)]
    total = sum(raw) * (1.0 if draw(st.integers(0, 4)) else 1.5)
    records = [
        [f"w{'#' if rng.random() < 0.2 else ''}{i}", _spellings(rng, repr(x / total))] for i, x in enumerate(raw)
    ]
    if records and rng.random() < 0.2:
        records.insert(rng.randrange(len(records)), ["zero", rng.choice(["0.0", "-0.0", "0"])])
    for kind in draw(st.lists(st.sampled_from(["duplicate", "fields", "bad", "non-finite", "negative"]), max_size=2)):
        if not records:
            break
        rec = rng.choice(records)
        if kind == "duplicate":
            rec[0] = rng.choice(records)[0]
        elif kind == "fields":
            if len(rec) > 1 and rng.random() < 0.5:
                rec.pop()
            else:
                rec.append("7")
        elif kind == "bad":
            rec[-1] = rng.choice(_BAD_WEIGHTS)
        elif kind == "non-finite":
            rec[-1] = rng.choice(_NON_FINITE)
        else:
            rec[-1] = "-" + rec[-1]
    out = []
    for rec in records:
        while rng.random() < 0.2:
            out.append(rng.choice(["", "#", "# note", " \t", "\u3000#x y z", "  # a 0.5"]))
        line = rng.choice(_SPACES).join(rec)
        out.append(rng.choice(["", "", " ", "\xa0"]) + line + rng.choice(["", "", "\t", "\u3000"]))
    return "".join(line + rng.choice(_BREAKS) for line in out)


def _weights_outcome(load, text):
    """The loaded table's labels in order with the repr of each weight, or
    the type and message of the error the loader raises."""
    try:
        table = load(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return [(label, repr(table[label])) for label in table]


class TestWeightLoaderMatchesReference:
    """``loads_weights`` reads in slices and names a bad line only after
    that parse fails; it loads the same table, or raises the same error with
    the same message, as the line-by-line reference."""

    @settings(max_examples=400, deadline=None)
    @given(text=weight_texts())
    @example(text="a 0.25\r\nb 0.75\r\n")
    @example(text="\u2028\u3000a\xa00.5\x1e# c\rb 0.5\x0b")
    @example(text="a 0.5\nb 0.5\na 0.5\n")
    @example(text="a -0.0\nb 1.0\n")
    @example(text="a# 0.5\nb#c 0.5\n")
    @example(text="a nan\nb 1\n")
    @example(text="a 1\nb x\nc 1 2\n")
    @example(text="#a 1\n\n   \n")
    @example(text="a 0.1\n" + "".join(f"w{i} 0.1\n" for i in range(9)))
    @example(text="".join(f"w{i} {(i % 5 + 1) / 180!r}\n" for i in range(60)))
    @example(text="".join(f"w{i} {'0.1' if i % 2 else '1e-x'}\n" for i in range(40)))
    @example(text="")
    def test_same_table_or_same_error(self, text):
        assert _weights_outcome(loads_weights, text) == _weights_outcome(reference_loads_weights, text)


_LINE_TEXT = st.text(alphabet="ab #\t\n\r\x0b\x0c\x1c\x1e\x85\u2028", max_size=60)


class TestSlicedParse:
    """Slices of a few characters, so that records, "\r\n" pairs and
    separators straddle the nominal slice boundaries: the slices' lines
    are the text's lines, and both loaders give the same tree or table, or
    the same error, as the line-by-line references."""

    @settings(max_examples=300, deadline=None)
    @given(text=_LINE_TEXT, size=st.integers(1, 12))
    @example(text="ab\r\ncd\r\n", size=3)
    def test_slices_keep_the_lines(self, text, size):
        with patch.object(fileio, "_SLICE", size):
            slices = list(fileio._sliced_lines(text))
        assert [line for lines in slices for line in lines] == text.splitlines()

    @settings(max_examples=300, deadline=None)
    @given(text=hwt_texts(), size=st.integers(1, 40))
    @example(text="HWT 1\r\nI 0 1 2\r\nL 1 a\r\nL 2 b\r\n", size=7)
    @example(text="# c\n\nHWT 1\nI 0 1 2\nL 1 a\nL 2 b\n", size=1)
    @example(text="# c\n\nHWT 2\nI 0 1 2\nL 1 a\nL 2 b\n", size=1)
    @example(text="HWT 1\nI 0 1 2\nL 1 a\nL 2 b\nL 2 c\n", size=1)
    @example(text="HWT 1\nI 0 1 2\nL 1 a\nL x b\n", size=9)
    def test_tree(self, text, size):
        with patch.object(fileio, "_SLICE", size):
            got = _load_outcome(loads_tree, text)
        assert got == _load_outcome(reference_loads_tree, text)

    @settings(max_examples=300, deadline=None)
    @given(text=weight_texts(), size=st.integers(1, 40))
    @example(text="a 0.25\r\nb 0.75\r\n", size=7)
    @example(text="a 1\nb x\nc 1\na 2\n", size=1)
    @example(text="a 1e-x\nb 1\nc 1 2\n", size=1)
    def test_weights(self, text, size):
        with patch.object(fileio, "_SLICE", size):
            got = _weights_outcome(loads_weights, text)
        assert got == _weights_outcome(reference_loads_weights, text)


class TestChunkedWriter:
    """Chunks of a few records, so that a chunk ends before, after and on
    the last record: both tree writers give the reference text, or refuse
    with its message before writing any record."""

    @settings(max_examples=100, deadline=None)
    @given(labels=_LABELS, seed=st.integers(0, 2**32), size=st.integers(1, 7))
    def test_same_text_or_same_refusal(self, tmp_path_factory, labels, seed, size):
        tree = _tree_with_shuffled_ids(labels, random.Random(seed))
        want = _outcome(reference_dumps_tree, tree)
        path = tmp_path_factory.mktemp("dump") / "t.hwt"

        def dump_and_read(t):
            dump_tree(t, path)
            return path.read_text(encoding="utf-8")

        with patch.object(fileio, "_DUMP_SLICE", size):
            assert _outcome(dumps_tree, tree) == want
            assert _outcome(dump_and_read, tree) == want
        if want[0] == "refused":
            assert path.read_text(encoding="utf-8") == ""


class TestChunkedWeightWriter:
    """Chunks of a few lines, so that a chunk ends before, after and on the
    last line: both weight writers give the reference text, or refuse with
    its message before writing any line."""

    @settings(max_examples=100, deadline=None)
    @given(labels=_LABELS, seed=st.integers(0, 2**32), size=st.integers(1, 7))
    def test_same_text_or_same_refusal(self, tmp_path_factory, labels, seed, size):
        table = random_weight_table(random.Random(seed), labels)
        want = _outcome(reference_dumps_weights, table)
        path = tmp_path_factory.mktemp("dump") / "w.txt"

        def dump_and_read(t):
            dump_weights(t, path)
            return path.read_text(encoding="utf-8")

        with patch.object(fileio, "_DUMP_SLICE", size):
            assert _outcome(dumps_weights, table) == want
            assert _outcome(dump_and_read, table) == want
        if want[0] == "refused":
            assert path.read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize(
        "bad, message", [(["#x", "a b"], "label '#x' starts with '#'"), (["a b"], "label 'a b' contains whitespace")]
    )
    def test_refusal_in_the_last_chunk_writes_nothing(self, tmp_path, bad, message):
        # "!" sorts before "#" and "a", so the bad labels come last, in the
        # third chunk of four labels.
        labels = [f"!{i}" for i in range(9)] + bad
        table = WeightTable({lab: 1 / len(labels) for lab in labels})
        path = tmp_path / "w.txt"
        with patch.object(fileio, "_DUMP_SLICE", 4), pytest.raises(FileFormatError, match=f"^{message}"):
            dump_weights(table, path)
        assert path.read_text(encoding="utf-8") == ""


class TestChunkedTreeWriter:
    """The tree writers in chunks of a few records and labels, so that the
    first refused label may sit in any chunk: both give the reference text,
    or refuse with its message before writing any record."""

    @settings(max_examples=100, deadline=None)
    @given(labels=_LABELS, seed=st.integers(0, 2**32), size=st.integers(1, 7))
    def test_same_text_or_same_refusal(self, tmp_path_factory, labels, seed, size):
        tree = _tree_with_shuffled_ids(labels, random.Random(seed))
        want = _outcome(reference_dumps_tree, tree)
        path = tmp_path_factory.mktemp("dump") / "t.hwt"

        def dump_and_read(t):
            dump_tree(t, path)
            return path.read_text(encoding="utf-8")

        with patch.object(fileio, "_DUMP_SLICE", size):
            assert _outcome(dumps_tree, tree) == want
            assert _outcome(dump_and_read, tree) == want
        if want[0] == "refused":
            assert path.read_text(encoding="utf-8") == ""


class TestWriterLabelCheck:
    """The writers check the labels of a chunk at once and name the refused
    label by walking that chunk only on failure; they refuse exactly the
    lists that the per-label reference writers refuse, with the same
    message."""

    @settings(max_examples=300, deadline=None)
    @given(labels=_LABELS, seed=st.integers(0, 2**32))
    def test_tree_writer_matches_per_label_rule(self, labels, seed):
        tree = _tree_with_shuffled_ids(labels, random.Random(seed))
        assert _outcome(dumps_tree, tree) == _outcome(reference_dumps_tree, tree)

    @settings(max_examples=300, deadline=None)
    @given(labels=_LABELS)
    def test_weight_writer_matches_per_label_rule(self, labels):
        table = WeightTable({lab: 1 / len(labels) for lab in labels})
        assert _outcome(dumps_weights, table) == _outcome(reference_dumps_weights, table)

    def test_first_bad_label_in_id_order_is_named(self):
        # Leaf order is "x y", "a#", "p q"; id order puts "p q" first.
        tree = HierTree([None, "p q", "x y", None, "a#"], [3, -1, -1, 2, -1], [1, -1, -1, 4, -1])
        assert tree.leaf_order == ("x y", "a#", "p q")
        with pytest.raises(FileFormatError, match="'p q' contains whitespace"):
            dumps_tree(tree)


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


def _table(rng, values):
    """A weight table of the given values over their total, inserted in
    their order under shuffled labels, so that sorted and insertion order
    differ."""
    labels = [f"v{i:05d}" for i in range(len(values))]
    rng.shuffle(labels)
    total = fsum(values)
    return WeightTable({lab: x / total for lab, x in zip(labels, values)})


class TestFewValuedWeightWriter:
    """The writers render each distinct weight of a few-valued table without
    a zero once, and fall back to one repr per label otherwise; either way
    they give the per-label reference's text."""

    @pytest.mark.parametrize("size", [None, 7])
    def test_few_values(self, size):
        rng = random.Random(0)
        table = _table(rng, [rng.choice([1, 2, 3, 5]) for _ in range(2000)])
        assert fileio._few_distinct(table._w.values()) is not None
        with patch.object(fileio, "_DUMP_SLICE", size or fileio._DUMP_SLICE):
            assert dumps_weights(table) == reference_dumps_weights(table)

    def test_zero_and_minus_zero(self):
        # 0.0 == -0.0, but the two have their own repr.
        rng = random.Random(1)
        table = _table(rng, [rng.choice([0.0, 0.0, 1, 2]) for _ in range(1000)])
        weights = dict(table)
        for i, lab in enumerate(sorted(weights)):
            if weights[lab] == 0.0 and i % 2:
                weights[lab] = -0.0
        table = WeightTable(weights)
        text = dumps_weights(table)
        assert text == reference_dumps_weights(table)
        assert " -0.0\n" in text and " 0.0\n" in text

    def test_few_values_in_the_head_only(self):
        # The first 640 values in insertion order take two values, the rest
        # are all distinct.
        rng = random.Random(2)
        table = _table(rng, [rng.choice([1, 2]) for _ in range(640)] + [rng.randint(3, 10**9) for _ in range(1360)])
        assert fileio._few_distinct(table._w.values()) is None
        assert dumps_weights(table) == reference_dumps_weights(table)

    def test_all_distinct(self):
        rng = random.Random(3)
        table = _table(rng, [rng.random() for _ in range(3000)])
        assert dumps_weights(table) == reference_dumps_weights(table)


def _lines_text(records):
    return "".join(f"{label} {weight}\n" for label, weight in records)


class TestFewValuedWeightReader:
    """The reader converts each distinct weight string of a slice once
    when the slice is few-valued, keyed by the string; it loads the
    reference's table, or raises its error with its message."""

    @pytest.mark.parametrize("size", [None, 4096])
    def test_equal_floats_from_distinct_strings(self, size):
        spellings = ["1e-3", "0.001", "0.0010", "1E-3"]
        text = _lines_text((f"e{i:04d}", spellings[i % 4]) for i in range(1000))
        with patch.object(fileio, "_SLICE", size or fileio._SLICE):
            assert _weights_outcome(loads_weights, text) == _weights_outcome(reference_loads_weights, text)
            table = loads_weights(text)
            slices = len(list(fileio._sliced_lines(text)))
        # One float per distinct string of each slice.
        assert len(set(map(id, table.values()))) <= 4 * slices

    def test_zero_and_minus_zero(self):
        text = _lines_text((f"z{i:04d}", ["0.0", "-0.0", "0", "0.002"][i % 4]) for i in range(2000))
        got = _weights_outcome(loads_weights, text)
        assert got == _weights_outcome(reference_loads_weights, text)
        assert ("z0001", "-0.0") in got and ("z0000", "0.0") in got

    @pytest.mark.parametrize("size", [None, 16384])
    def test_few_values_in_the_head_only(self, size):
        rng = random.Random(4)
        values = [rng.choice([1, 2]) for _ in range(640)] + [rng.randint(3, 10**9) for _ in range(2360)]
        total = fsum(values)
        text = _lines_text((f"h{i:04d}", repr(x / total)) for i, x in enumerate(values))
        with patch.object(fileio, "_SLICE", size or fileio._SLICE):
            got = _weights_outcome(loads_weights, text)
        assert got == _weights_outcome(reference_loads_weights, text)
        assert got[0][0] == "h0000"

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("a 0.001 x", r"^line 701: expected '<label> <weight>', got 'a 0.001 x'$"),
            ("f0002 0.001", r"^line 701: duplicate label 'f0002'$"),
            ("a 1e-x", r"^line 701: bad weight '1e-x'$"),
            ("a -0.001", r"^weight -0.001 for leaf 'a' is not a finite non-negative number$"),
        ],
    )
    def test_malformed_line_in_a_few_valued_slice(self, fault, message):
        records = [(f"f{i:04d}", "0.001") for i in range(1000)]
        text = _lines_text(records[:700]) + fault + "\n" + _lines_text(records[700:])
        got = _weights_outcome(loads_weights, text)
        assert got == _weights_outcome(reference_loads_weights, text)
        assert got[0] is FileFormatError and re.match(message, got[1])


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

    def test_bad_weight_on_a_later_line_is_named(self):
        # WeightTable converts the weights; the line is found afterwards.
        text = "# header\na 0.25\n\nb 0.25\nc 1e-x\nd oops\n"
        with pytest.raises(FileFormatError, match=r"^line 5: bad weight '1e-x'$"):
            loads_weights(text)
        # A parsable non-finite weight is WeightTable's to refuse.
        with pytest.raises(FileFormatError, match="weight nan for leaf 'b'"):
            loads_weights("a 0.5\nb nan\n")

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
