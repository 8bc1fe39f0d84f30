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
"""

from __future__ import annotations

import os

from awpkit.tree import FileFormatError, HierTree, TreeStructureError, WeightTable

HWT_MAGIC = "HWT 1"


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def loads_tree(text: str) -> HierTree:
    lines = list(_content_lines(text))
    if not lines:
        raise FileFormatError("empty tree file")
    first_no, first = lines[0]
    if first != HWT_MAGIC:
        raise FileFormatError(f"line {first_no}: expected {HWT_MAGIC!r} header, got {first!r}")
    n = len(lines) - 1
    # Each record line is parsed once, straight into the lists HierTree
    # takes; None marks an id no record has claimed yet.
    children: list[tuple[int, ...] | None] = [None] * n
    labels: list[str | None] = [None] * n
    for lineno, line in lines[1:]:
        parts = line.split()
        tag = parts[0]
        if tag == "I":
            if len(parts) != 4:
                raise FileFormatError(f"line {lineno}: internal record needs 'I <id> <left> <right>'")
            label = None
        elif tag == "L":
            if len(parts) != 3:
                raise FileFormatError(f"line {lineno}: leaf record needs 'L <id> <label>'")
            label = parts[2]
        else:
            raise FileFormatError(f"line {lineno}: unknown record tag {tag!r}")
        try:
            node_id = int(parts[1])
            kids = () if label is not None else (int(parts[2]), int(parts[3]))
        except ValueError:
            raise FileFormatError(f"line {lineno}: non-integer id in {line!r}") from None
        if not 0 <= node_id < n:
            raise TreeStructureError("bad-node-ids", None, f"ids must be dense 0..{n - 1}, got {node_id!r}")
        if children[node_id] is not None:
            raise TreeStructureError("duplicate-node-id", node_id)
        children[node_id] = kids
        labels[node_id] = label
    return HierTree(children, labels)  # type: ignore[arg-type]


def _refuse_label(label: str, what: str) -> None:
    """Raise for a label that the matching reader would split or drop."""
    if not label:
        raise FileFormatError(f"{what} is empty")
    if label.split() != [label]:
        raise FileFormatError(f"{what} {label!r} contains whitespace")
    raise FileFormatError(f"{what} {label!r} starts with '#', which marks a comment line")


def dumps_tree(tree: HierTree) -> str:
    out = [HWT_MAGIC]
    for v, (kids, label) in enumerate(zip(tree._children, tree._labels)):
        if label is None:
            out.append(f"I {v} {kids[0]} {kids[1]}")
        else:
            # split() is [label] only for a non-empty label without whitespace.
            if label.split() != [label]:
                _refuse_label(label, "leaf label")
            out.append(f"L {v} {label}")
    return "\n".join(out) + "\n"


def load_tree(path: str | os.PathLike) -> HierTree:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_tree(fh.read())


def dump_tree(tree: HierTree, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_tree(tree))


def loads_weights(text: str) -> WeightTable:
    weights: dict[str, float] = {}
    for lineno, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise FileFormatError(f"line {lineno}: expected '<label> <weight>', got {line!r}")
        label, raw = parts
        if label in weights:
            raise FileFormatError(f"line {lineno}: duplicate label {label!r}")
        try:
            weights[label] = float(raw)
        except ValueError:
            raise FileFormatError(f"line {lineno}: bad weight {raw!r}") from None
    if not weights:
        raise FileFormatError("empty weight file")
    try:
        return WeightTable(weights)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None


def dumps_weights(table: WeightTable) -> str:
    out = []
    for label in sorted(table):
        if label.split() != [label] or label.startswith("#"):
            _refuse_label(label, "label")
        out.append(f"{label} {table[label]!r}")
    return "\n".join(out) + "\n"


def load_weights(path: str | os.PathLike) -> WeightTable:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_weights(fh.read())


def dump_weights(table: WeightTable, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_weights(table))
