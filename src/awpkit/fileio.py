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

``loads_tree`` reads a tree file in one pass over its lines: it keeps each
record's fields as strings, converts the ids with one ``map(int, ...)``
per column and places the records by id.  Only when that pass finds a
malformed record (a bad tag or field count, an id that is no integer, out
of range or repeated) are the records checked again one line at a time,
to raise for the first bad one with its line number.

``loads_weights`` also reads in one pass: one comprehension drops the
comment and blank lines, ``dict(map(str.split, ...))`` pairs the labels
with their weight strings, and ``WeightTable`` converts each weight string
to a float once.  The lines are walked one at a time only after a
failure, to name the first bad one: a line that is no pair or repeats a
label (``_raise_weight_line_error``), or a weight that is no float.
"""

from __future__ import annotations

import os
from itertools import islice

from awpkit.tree import FileFormatError, HierTree, TreeStructureError, WeightTable

HWT_MAGIC = "HWT 1"


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def loads_tree(text: str) -> HierTree:
    lines = text.splitlines()
    for start, first in enumerate(lines):
        first = first.strip()
        if first and first[0] != "#":
            break
    else:
        raise FileFormatError("empty tree file")
    if first != HWT_MAGIC:
        raise FileFormatError(f"line {start + 1}: expected {HWT_MAGIC!r} header, got {first!r}")
    # One pass keeps each record's fields as strings, column by column;
    # a line that is no well-formed record, comment or blank ends it.
    ids: list[str] = []
    lefts: list[str] = []
    rights: list[str] = []
    leaf_ids: list[str] = []
    leaf_labels: list[str] = []
    for line in islice(lines, start + 1, None):
        parts = line.split()
        if len(parts) == 4 and parts[0] == "I":
            ids.append(parts[1])
            lefts.append(parts[2])
            rights.append(parts[3])
        elif len(parts) == 3 and parts[0] == "L":
            leaf_ids.append(parts[1])
            leaf_labels.append(parts[2])
        elif parts and parts[0][0] != "#":
            _raise_record_error(text, start)
    # Each list of strings is freed once converted, which keeps the peak
    # memory of a large file below that of a line-by-line parse.
    del lines
    try:
        node_ids = list(map(int, ids))
        del ids
        kids = list(zip(map(int, lefts), map(int, rights)))
        del lefts, rights
        leaf_node_ids = list(map(int, leaf_ids))
        del leaf_ids
    except ValueError:
        _raise_record_error(text, start)
    every_id = node_ids + leaf_node_ids
    n = len(every_id)
    if n and not (0 <= min(every_id) and max(every_id) < n):
        _raise_record_error(text, start)
    # n ids in 0..n-1 leave a slot empty exactly when one id repeats.
    children: list[tuple[int, ...] | None] = [None] * n
    labels: list[str | None] = [None] * n
    for v, c in zip(node_ids, kids):
        children[v] = c
    for v, label in zip(leaf_node_ids, leaf_labels):
        children[v] = ()
        labels[v] = label
    if None in children:
        _raise_record_error(text, start)
    return HierTree(children, labels)  # type: ignore[arg-type]


def _raise_record_error(text: str, start: int) -> None:
    """Check the records after the header, which is at index ``start`` of
    ``text.splitlines()``, one by one, and raise for the first malformed
    one; ``loads_tree`` calls this only once its one pass has found that
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


def _check_labels(labels: list[str], what: str, comment: bool) -> None:
    """Raise for the first label that the matching reader would split or
    drop: an empty one, one with whitespace, or, when ``comment``, one
    starting with '#'.  All labels are checked at once, since split() gives
    back the joined labels exactly when none is empty or holds whitespace;
    they are walked one by one only to name the refused one."""
    joined = "\n".join(labels)
    if joined.split() == labels and not (comment and "\n#" in "\n" + joined):
        return
    for label in labels:
        if not label:
            raise FileFormatError(f"{what} is empty")
        if label.split() != [label]:
            raise FileFormatError(f"{what} {label!r} contains whitespace")
        if comment and label.startswith("#"):
            raise FileFormatError(f"{what} {label!r} starts with '#', which marks a comment line")


def dumps_tree(tree: HierTree) -> str:
    labels = tree._labels
    _check_labels([label for label in labels if label is not None], "leaf label", comment=False)
    records = [
        f"L {v} {label}" if label is not None else f"I {v} {kids[0]} {kids[1]}"
        for v, kids, label in zip(range(tree.node_count), tree._children, labels)
    ]
    return f"{HWT_MAGIC}\n" + "\n".join(records) + "\n"


def load_tree(path: str | os.PathLike) -> HierTree:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_tree(fh.read())


def dump_tree(tree: HierTree, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_tree(tree))


def loads_weights(text: str) -> WeightTable:
    lines = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    try:
        raw = dict(map(str.split, lines))
    except ValueError:  # a line that is no '<label> <weight>' pair
        _raise_weight_line_error(text)
    if len(raw) != len(lines):  # a repeated label
        _raise_weight_line_error(text)
    if not raw:
        raise FileFormatError("empty weight file")
    # The weights stay strings here; WeightTable converts each one once.
    try:
        return WeightTable(raw)
    except ValueError as exc:
        for lineno, line in _content_lines(text):
            raw_weight = line.split()[1]
            try:
                float(raw_weight)
            except ValueError:
                raise FileFormatError(f"line {lineno}: bad weight {raw_weight!r}") from None
        raise FileFormatError(str(exc)) from None


def _raise_weight_line_error(text: str) -> None:
    """Raise for the first line of a weight file that is no
    '<label> <weight>' pair or repeats a label; ``loads_weights`` calls
    this only once its one pass has found such a line."""
    seen: set[str] = set()
    for lineno, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise FileFormatError(f"line {lineno}: expected '<label> <weight>', got {line!r}")
        if parts[0] in seen:
            raise FileFormatError(f"line {lineno}: duplicate label {parts[0]!r}")
        seen.add(parts[0])


def dumps_weights(table: WeightTable) -> str:
    labels = sorted(table)
    _check_labels(labels, "label", comment=True)
    return "\n".join([f"{label} {table[label]!r}" for label in labels]) + "\n"


def load_weights(path: str | os.PathLike) -> WeightTable:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_weights(fh.read())


def dump_weights(table: WeightTable, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_weights(table))
