"""Line counts of the package's modules, for one checkout or two.

    python3 tools/code_lines.py CHECKOUT
    python3 tools/code_lines.py PARENT_CHECKOUT CHANGE_CHECKOUT

For each module under CHECKOUT/src/gmshadow, and for all of them together,
it prints the non-blank lines and the code lines: the non-blank lines
that are neither a comment nor part of a docstring.  A comment line holds
only a comment; a line that has code and a trailing comment is code.  A
docstring is the string that opens a module, class or function body, as
the ast module reads it.  Given two checkouts it prints both counts of
each and the change's delta against the parent; a module in one checkout
alone counts 0 in the other.  Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path("src") / "gmshadow"


def counts(path: Path) -> tuple[int, int]:
    """(non-blank lines, code lines) of one Python source file."""
    text = path.read_text()
    lines = text.splitlines()
    nonblank = {i for i, line in enumerate(lines, 1) if line.strip()}
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    # a line whose first token is a comment holds nothing else
    comments, seen = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        row = tok.start[0]
        if tok.type in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                        tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        if row not in seen and tok.type == tokenize.COMMENT:
            comments.add(row)
        seen.update(range(row, tok.end[0] + 1))
    return len(nonblank), len(nonblank - comments - docstrings)


def table(checkout: Path) -> dict[str, tuple[int, int]]:
    """counts() of every module of the package in a checkout, by file name."""
    return {p.name: counts(p) for p in sorted((checkout / PACKAGE).glob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", type=Path, nargs="+", metavar="CHECKOUT",
                    help="one checkout, or the parent's and the change's")
    args = ap.parse_args(argv)
    if len(args.checkouts) > 2:
        ap.error("give one checkout or two")
    for checkout in args.checkouts:
        if not (checkout / PACKAGE).is_dir():
            ap.error(f"{checkout} has no {PACKAGE}")
    tables = [table(c) for c in args.checkouts]
    names = sorted(set().union(*tables))
    rows = [[name] + [t.get(name, (0, 0)) for t in tables] for name in names]
    rows.append(["total"] + [tuple(map(sum, zip(*t.values()))) for t in tables])
    if len(tables) == 1:
        print(f"{'module':<16}{'non-blank':>10}{'code':>8}")
        for name, (nb, code) in rows:
            print(f"{name:<16}{nb:>10}{code:>8}")
        return 0
    print(f"{'module':<16}{'non-blank':>22}{'code':>22}")
    print(f"{'':<16}" + f"{'parent':>8}{'change':>8}{'delta':>6}" * 2)
    for name, (nb0, code0), (nb1, code1) in rows:
        print(f"{name:<16}{nb0:>8}{nb1:>8}{nb1 - nb0:>+6}{code0:>8}{code1:>8}{code1 - code0:>+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
