"""On-disk formats: HWT tree files and whitespace-separated weight files.

Tree file layout::

    HWT 1
    I <id> <left_child_id> <right_child_id>
    L <id> <leaf_label>

Blank lines and lines starting with ``#`` are ignored.  Ids must be dense
integers; the root is the unique id that never appears as a child.  Weight
files hold one ``<label> <weight>`` pair per line with the same comment
rules.  Labels may not contain whitespace.
"""

from __future__ import annotations

import os

from awpkit.tree import FileFormatError, HierTree, WeightTable

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
    records = []
    for lineno, line in lines[1:]:
        parts = line.split()
        tag = parts[0]
        if tag == "I":
            if len(parts) != 4:
                raise FileFormatError(f"line {lineno}: internal record needs 'I <id> <left> <right>'")
            try:
                node_id, left, right = (int(p) for p in parts[1:])
            except ValueError:
                raise FileFormatError(f"line {lineno}: non-integer id in {line!r}") from None
            records.append(("I", node_id, (left, right)))
        elif tag == "L":
            if len(parts) != 3:
                raise FileFormatError(f"line {lineno}: leaf record needs 'L <id> <label>'")
            try:
                node_id = int(parts[1])
            except ValueError:
                raise FileFormatError(f"line {lineno}: non-integer id in {line!r}") from None
            records.append(("L", node_id, parts[2]))
        else:
            raise FileFormatError(f"line {lineno}: unknown record tag {tag!r}")
    return HierTree.from_records(records)


def dumps_tree(tree: HierTree) -> str:
    out = [HWT_MAGIC]
    for v in range(tree.node_count):
        if tree.is_leaf(v):
            label = tree.label(v)
            if any(ch.isspace() for ch in label):
                raise FileFormatError(f"leaf label {label!r} contains whitespace")
            out.append(f"L {v} {label}")
        else:
            l, r = tree.children(v)
            out.append(f"I {v} {l} {r}")
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
        if any(ch.isspace() for ch in label):
            raise FileFormatError(f"label {label!r} contains whitespace")
        out.append(f"{label} {table[label]!r}")
    return "\n".join(out) + "\n"


def load_weights(path: str | os.PathLike) -> WeightTable:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_weights(fh.read())


def dump_weights(table: WeightTable, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_weights(table))
