"""On-disk formats: HWT tree files and whitespace-separated weight files.

Tree file layout::

    HWT 1
    I <id> <left_child_id> <right_child_id>
    L <id> <leaf_label>

Blank lines and lines starting with ``#`` are ignored.  Ids must be dense
integers; records may come in any order (``dump_tree`` writes them in id
order), and the root is the unique id that never appears as a child.
Weight files hold one ``<label> <weight>`` pair per line with the same
comment rules.  Labels may not be empty or contain whitespace, and a
weight file label may not start with ``#``; the writers refuse such labels.

Both readers parse the text in slices of about ``_SLICE`` characters,
each cut just after a ``"\n"``, so each slice's ``splitlines()`` gives
the same lines as the whole text's, ``"\r\n"`` pairs included.  Each
slice's fields are converted before the next slice is split, so only one
slice's lines and field strings are alive at a time.

``loads_tree`` keeps each record's fields of a slice as strings, column
by column, and converts the ids with one ``map(int, ...)`` per column;
once every slice is read it places the records by id into the child
columns and labels of ``HierTree``.  Only when that finds a malformed
record (a bad tag or field count, an id that is no integer, out of range
or repeated) are the records checked again one line at a time, to raise
for the first bad one with its line number.

``loads_weights`` drops a slice's comment and blank lines with one
comprehension, pairs its labels with their weight strings with
``dict(map(str.split, ...))`` and converts the weights with ``float``.
When the slice's weight strings are few-valued (``tree._few_distinct``,
at most one distinct string per ten), each distinct string is converted
once, in a map keyed by the string, so "-0.0" and "0.0", or "1e-3" and
"0.001", each keep their own ``float()``; a slice of distinct strings
pays only for the test's first few strings.  The lines are walked one at
a time only after a failure, to name the first bad one: a line that is
no pair or repeats a label, or else a weight that is no float.  The
``WeightTable`` it returns keeps that dict without a copy.

``dump_tree`` checks every label first, ``_DUMP_SLICE`` labels at a
time, and then writes the records ``_DUMP_SLICE`` at a time, so only one
chunk of labels or of text is alive at once; ``dumps_tree`` joins the
same chunks.  ``dump_weights`` and ``dumps_weights`` do the same with
the lines of a weight file, in sorted label order, reading each weight
from the table's dict.  When the table's weights are few-valued, by the
same test, and none is zero, each distinct weight's ``" {x!r}\n"`` is
rendered once and joined to its labels; a zero takes the per-label
path, since ``0.0 == -0.0`` but their reprs differ.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from itertools import chain
from typing import NoReturn

from awpkit.tree import (
    FileFormatError,
    HierTree,
    InvariantError,
    TreeStructureError,
    WeightTable,
    _few_distinct,
    _LoadedWeights,
)

HWT_MAGIC = "HWT 1"


# Characters per slice of a file's text; see the module docstring.
_SLICE = 1 << 16
# Records or lines per chunk that the writers render at a time.
_DUMP_SLICE = 1 << 12


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _sliced_lines(text: str):
    """The lines of ``text.splitlines()``, one list per slice of about
    ``_SLICE`` characters, each slice cut just after a "\n"."""
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start + _SLICE - 1) + 1 or size
        yield text[start:end].splitlines()
        start = end


def loads_tree(text: str) -> HierTree:
    slices = _sliced_lines(text)
    start = 0  # the header's index in text.splitlines()
    for lines in slices:
        for i, first in enumerate(lines):
            first = first.strip()
            if first and first[0] != "#":
                break
        else:
            start += len(lines)
            continue
        break
    else:
        raise FileFormatError("empty tree file")
    start += i
    if first != HWT_MAGIC:
        raise FileFormatError(f"line {start + 1}: expected {HWT_MAGIC!r} header, got {first!r}")
    del lines[: i + 1]
    node_ids: list[int] = []
    lefts: list[int] = []
    rights: list[int] = []
    leaf_node_ids: list[int] = []
    leaf_labels: list[str] = []
    for lines in chain([lines], slices):
        # A line that is no well-formed record, comment or blank ends the
        # parse.
        ids: list[str] = []
        ls: list[str] = []
        rs: list[str] = []
        leaf_ids: list[str] = []
        for line in lines:
            parts = line.split()
            if len(parts) == 4 and parts[0] == "I":
                ids.append(parts[1])
                ls.append(parts[2])
                rs.append(parts[3])
            elif len(parts) == 3 and parts[0] == "L":
                leaf_ids.append(parts[1])
                leaf_labels.append(parts[2])
            elif parts and parts[0][0] != "#":
                _raise_record_error(text, start)
        try:
            node_ids += map(int, ids)
            lefts += map(int, ls)
            rights += map(int, rs)
            leaf_node_ids += map(int, leaf_ids)
        except ValueError:
            _raise_record_error(text, start)
    n = len(node_ids) + len(leaf_node_ids)
    if n and not (0 <= min(chain(node_ids, leaf_node_ids)) and max(chain(node_ids, leaf_node_ids)) < n):
        _raise_record_error(text, start)
    # n ids in 0..n-1 leave a slot empty exactly when one id repeats.
    left: list[int | None] = [None] * n
    right = [-1] * n
    labels: list[str | None] = [None] * n
    for v, l, r in zip(node_ids, lefts, rights):
        left[v] = l
        right[v] = r
    del node_ids, lefts, rights
    for v, label in zip(leaf_node_ids, leaf_labels):
        left[v] = -1
        labels[v] = label
    del leaf_node_ids, leaf_labels
    if None in left:
        _raise_record_error(text, start)
    return HierTree(labels, left, right)  # type: ignore[arg-type]


def _raise_record_error(text: str, start: int) -> NoReturn:
    """Check the records after the header, which is at index ``start`` of
    ``text.splitlines()``, one by one, and raise for the first malformed
    one; ``loads_tree`` calls this only once its parse has found that
    some record is malformed."""
    records = [(lineno, line) for lineno, line in _content_lines(text) if lineno > start + 1]
    n = len(records)
    seen: set[int] = set()
    for lineno, line in records:
        parts = line.split()
        tag = parts[0]
        if tag == "I":
            if len(parts) != 4:
                raise FileFormatError(f"line {lineno}: internal record needs 'I <id> <left> <right>'")
        elif tag == "L":
            if len(parts) != 3:
                raise FileFormatError(f"line {lineno}: leaf record needs 'L <id> <label>'")
        else:
            raise FileFormatError(f"line {lineno}: unknown record tag {tag!r}")
        try:
            node_id = list(map(int, parts[1:] if tag == "I" else parts[1:2]))[0]
        except ValueError:
            raise FileFormatError(f"line {lineno}: non-integer id in {line!r}") from None
        if not 0 <= node_id < n:
            raise TreeStructureError("bad-node-ids", None, f"ids must be dense 0..{n - 1}, got {node_id!r}")
        if node_id in seen:
            raise TreeStructureError("duplicate-node-id", node_id)
        seen.add(node_id)
    raise InvariantError("the tree file parse refused records that every check accepts")


def _check_labels(labels: list[str], what: str, comment: bool) -> None:
    """Raise for the first label that the matching reader would split or
    drop: an empty one, one with whitespace, or, when ``comment``, one
    starting with '#'.  Labels are checked ``_DUMP_SLICE`` at a time, each
    chunk at once, since split() gives back the joined labels exactly when
    none is empty or holds whitespace; a chunk is walked one label at a
    time only to name the refused one."""
    for start in range(0, len(labels), _DUMP_SLICE):
        chunk = labels[start : start + _DUMP_SLICE]
        joined = "\n".join(chunk)
        if joined.split() == chunk and not (comment and "\n#" in "\n" + joined):
            continue
        for label in chunk:
            if not label:
                raise FileFormatError(f"{what} is empty")
            if label.split() != [label]:
                raise FileFormatError(f"{what} {label!r} contains whitespace")
            if comment and label.startswith("#"):
                raise FileFormatError(f"{what} {label!r} starts with '#', which marks a comment line")


def _hwt_chunks(tree: HierTree) -> Iterator[str]:
    """The HWT text of ``tree``: the header, then its records in id order,
    ``_DUMP_SLICE`` records per chunk.  Every label is checked before the
    first chunk."""
    labels, left, right = tree._labels, tree._left, tree._right
    _check_labels([label for label in labels if label is not None], "leaf label", comment=False)
    yield f"{HWT_MAGIC}\n"
    for start in range(0, tree.node_count, _DUMP_SLICE):
        stop = start + _DUMP_SLICE
        yield "".join(
            [
                f"L {v} {label}\n" if label is not None else f"I {v} {l} {r}\n"
                for v, l, r, label in zip(range(start, stop), left[start:stop], right[start:stop], labels[start:stop])
            ]
        )


def dumps_tree(tree: HierTree) -> str:
    return "".join(_hwt_chunks(tree))


def load_tree(path: str | os.PathLike) -> HierTree:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_tree(fh.read())


def dump_tree(tree: HierTree, path: str | os.PathLike) -> None:
    """Write ``dumps_tree(tree)`` to ``path`` one chunk at a time, so the
    whole text is never held at once."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_hwt_chunks(tree))


def loads_weights(text: str) -> WeightTable:
    # The table keeps this dict as it is, without a copy.
    weights = _LoadedWeights()
    count = 0
    try:
        for lines in _sliced_lines(text):
            lines = [line for line in map(str.strip, lines) if line and line[0] != "#"]
            count += len(lines)
            raw = dict(map(str.split, lines))
            strings = raw.values()
            distinct = _few_distinct(strings)
            if distinct is None:
                weights.update(zip(raw, map(float, strings)))
            else:
                value = {string: float(string) for string in distinct}
                weights.update(zip(raw, map(value.__getitem__, strings)))
    except ValueError:  # a line that is no '<label> <weight>' pair, or a weight that is no float
        _raise_weight_line_error(text)
    if len(weights) != count:  # a repeated label
        _raise_weight_line_error(text)
    if not weights:
        raise FileFormatError("empty weight file")
    try:
        return WeightTable(weights)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None


def _raise_weight_line_error(text: str) -> NoReturn:
    """Raise for the first line of a weight file that is no
    '<label> <weight>' pair or repeats a label, or, when there is none,
    for the first weight that is no float; ``loads_weights`` calls this
    only once its parse has failed."""
    seen: set[str] = set()
    for lineno, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise FileFormatError(f"line {lineno}: expected '<label> <weight>', got {line!r}")
        if parts[0] in seen:
            raise FileFormatError(f"line {lineno}: duplicate label {parts[0]!r}")
        seen.add(parts[0])
    for lineno, line in _content_lines(text):
        raw_weight = line.split()[1]
        try:
            float(raw_weight)
        except ValueError:
            raise FileFormatError(f"line {lineno}: bad weight {raw_weight!r}") from None
    raise InvariantError("the weight file parse refused lines that every check accepts")


def _weight_chunks(table: WeightTable) -> Iterator[str]:
    """The weight file text of ``table``: one line per label in sorted
    order, ``_DUMP_SLICE`` lines per chunk.  Every label is checked before
    the first chunk.  A few-valued table (``_few_distinct``) without a
    zero renders each distinct weight once, since equal weights other than
    ``0.0`` and ``-0.0`` have one repr."""
    weights = table._w
    labels = sorted(weights)
    _check_labels(labels, "label", comment=True)
    distinct = _few_distinct(weights.values())
    if distinct is None or 0.0 in distinct:
        for start in range(0, len(labels), _DUMP_SLICE):
            yield "".join([f"{label} {weights[label]!r}\n" for label in labels[start : start + _DUMP_SLICE]])
        return
    rendered = {x: f" {x!r}\n" for x in distinct}
    for start in range(0, len(labels), _DUMP_SLICE):
        chunk = labels[start : start + _DUMP_SLICE]
        yield "".join(map(str.__add__, chunk, map(rendered.__getitem__, map(weights.__getitem__, chunk))))


def dumps_weights(table: WeightTable) -> str:
    return "".join(_weight_chunks(table))


def load_weights(path: str | os.PathLike) -> WeightTable:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_weights(fh.read())


def dump_weights(table: WeightTable, path: str | os.PathLike) -> None:
    """Write ``dumps_weights(table)`` to ``path`` one chunk at a time, so
    the whole text is never held at once."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_weight_chunks(table))
