"""Count the code lines of each module in src/rtd and their total.

A code line holds at least one token that is not a comment and is not part
of a docstring (the leading string of a module, class or function body).
Blank lines, comment lines and docstrings are left out.  A token spanning
several lines, such as a multi-line string, counts on every line it spans.
Uses only the standard library:

    python tools/code_lines.py [package directory, default src/rtd]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """Line numbers covered by the docstrings in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(path):
    """Number of code lines in the Python file at ``path``."""
    source = Path(path).read_bytes()
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/rtd")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:20} {count:6,}")
    print(f"{'total':20} {total:6,}")


if __name__ == "__main__":
    main(sys.argv)
