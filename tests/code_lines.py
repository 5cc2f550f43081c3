"""Count the code lines of src/tfnorms, per module and in total.

A code line is a line that holds a token other than a comment, a newline or
an indentation change (``tokenize``) and that lies outside every module,
class and function docstring (their line spans from ``ast``).  Blank lines,
comment lines and docstrings do not count, so the total moves only with code.

    python tests/code_lines.py
    python tests/code_lines.py --functions

With ``--functions`` each module's line is followed by the code lines of its
top-level functions and classes (decorators included), in source order.

Its name does not match ``test_*.py``, so pytest does not collect it.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tfnorms"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_line_numbers(text: str, tree: ast.Module) -> set:
    """The numbers of the code lines of one module's source text and its tree."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return lines - _docstring_lines(tree)


def main(argv) -> int:
    if argv not in ([], ["--functions"]):
        print(f"usage: python {Path(__file__).name} [--functions]", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        lines = code_line_numbers(text, tree)
        total += len(lines)
        print(f"{path.name:16} {len(lines):5}")
        if not argv:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                count = len(lines & set(range(first, node.end_lineno + 1)))
                print(f"  {node.name:30} {count:5}")
    print(f"{'total':16} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
