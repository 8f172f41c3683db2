"""Count the lines of every module of the popdyn package.

    python3 tools/src_size.py [--root CHECKOUT]

Prints one line per module of CHECKOUT/src/popdyn (CHECKOUT defaults to the
checkout holding this script) and a total: its total lines and its code
lines.  A code line holds a token of the program that is not part of a
docstring: blank lines, comment lines and the lines of module, class and
function docstrings (found by the AST) are not code.  So deleting or
compressing a docstring or a comment changes the total but not the code
count.  The script uses the standard library only.
"""

import argparse
import ast
import io
import os
import sys
import tokenize

HERE = os.path.dirname(os.path.abspath(__file__))
# tokens that carry no program text
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers spanned by the module's, classes' and functions'
    docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text):
    """(total lines, code lines) of one module's source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def folder_size(folder):
    """Rows (name, total lines, code lines) of folder's modules in name
    order, then ("total", ...) of their sums."""
    rows = []
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name)) as fh:
                rows.append((name, *count(fh.read())))
    return rows + [("total", sum(r[1] for r in rows), sum(r[2] for r in rows))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(HERE),
                        help="checkout whose src/popdyn is counted "
                             "(default: this one)")
    args = parser.parse_args(argv)
    package = os.path.join(os.path.abspath(args.root), "src", "popdyn")
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for name, lines, code in folder_size(package):
        print(f"{name:<16}{lines:>7}{code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
