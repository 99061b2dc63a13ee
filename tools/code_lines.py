"""Line counts of the Python modules of one or two source trees.

    python3 tools/code_lines.py SRC [OTHER_SRC]

For every `.py` file under SRC, prints its total lines and its lines of
code: the lines that hold part of a statement, so neither blank lines,
comment lines nor the lines of a module, class or function docstring. With
OTHER_SRC, prints both trees' counts side by side and the change from SRC
to OTHER_SRC, a module missing from one tree counting 0 there. The last
row sums every module.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(total lines, lines of code) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def tree_counts(root: str) -> dict[str, tuple[int, int]]:
    """{path relative to root: (total lines, lines of code)} for every module."""
    counts = {}
    for folder, dirs, files in os.walk(root):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    counts[os.path.relpath(path, root)] = count(fh.read())
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="a source tree")
    parser.add_argument("other_src", nargs="?", help="a second tree, to compare against the first")
    args = parser.parse_args(argv)
    for root in filter(None, (args.src, args.other_src)):
        if not os.path.isdir(root):
            print(f"error: {root!r} is not a directory", file=sys.stderr)
            return 2
    trees = [tree_counts(args.src)] + ([tree_counts(args.other_src)] if args.other_src else [])
    modules = sorted(set().union(*trees))
    rows = [[tree.get(m, (0, 0)) for tree in trees] for m in modules]
    rows.append([(sum(row[i][0] for row in rows), sum(row[i][1] for row in rows))
                 for i in range(len(trees))])
    width = max(len(m) for m in modules + ["total"])
    header = ["lines", "code"] * len(trees) + (["dlines", "dcode"] if len(trees) == 2 else [])
    print(f"{'module':<{width}}" + "".join(f"{h:>8}" for h in header))
    for name, row in zip(modules + ["total"], rows):
        cells = [n for counts in row for n in counts]
        if len(trees) == 2:
            cells += [f"{row[1][0] - row[0][0]:+d}", f"{row[1][1] - row[0][1]:+d}"]
        print(f"{name:<{width}}" + "".join(f"{c:>8}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
