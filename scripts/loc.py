"""Count the code lines of a Python package: every line that holds a token
other than a comment, a docstring or layout.

    python scripts/loc.py [DIR]

DIR defaults to ``src/awpkit`` of this checkout.  Each ``*.py`` file
under it is read with the stdlib ``tokenize``.  A line counts when it
holds a token other than a comment, a newline, an indent or a dedent,
and other than a docstring: a string statement at the start of a logical
line, the first statement of a module, class or function body or a bare
string statement elsewhere.  A continuation line of a multi-line token
counts too, unless the token is a docstring.  The script prints one line
per file, ``count path``, sorted by path, and then ``count total``.
Stdlib only.
"""

from __future__ import annotations

import argparse
import os
import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: str) -> int:
    """The number of code lines of the Python file ``path``."""
    lines: set[int] = set()
    with open(path, "rb") as fh:
        tokens = [tok for tok in tokenize.tokenize(fh.readline) if tok.type != tokenize.ENCODING]
    # True at the start of each logical line.
    start = True
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            start = start or tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
            continue
        lone = start and tok.type == tokenize.STRING
        start = False
        if lone:
            # A string that makes up its whole logical line is a docstring.
            after = (tokens[j].type for j in range(i + 1, len(tokens)))
            end = next((t for t in after if t not in (tokenize.COMMENT, tokenize.NL)), None)
            if end in (tokenize.NEWLINE, tokenize.ENDMARKER):
                continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def py_files(directory: str) -> list[str]:
    """The ``*.py`` files under ``directory``, sorted by path."""
    return sorted(
        os.path.join(root, name)
        for root, _, names in os.walk(directory)
        for name in names
        if name.endswith(".py")
    )


def main(argv: list[str] | None = None) -> int:
    default = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "awpkit")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default=default, help="package directory (default: src/awpkit)")
    args = parser.parse_args(argv)
    paths = py_files(args.dir)
    if not paths:
        print(f"loc: no .py file under {args.dir}", file=sys.stderr)
        return 1
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count} {os.path.relpath(path, args.dir)}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
