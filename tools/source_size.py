"""Count the lines of each module of ``src/descat`` and of the package in total.

Code lines are the lines that hold a token other than a comment, outside
docstrings (module, class and function docstrings, found with ``ast``).
Physical lines are every line of the file, as ``wc -l`` counts them.

Usage: ``python tools/source_size.py [package directory]``, from the root
of the repository; the directory defaults to ``src/descat``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of ``tree``'s module, classes and functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` holding a token that is neither a comment nor part of a docstring."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/descat")
    total_code = total_physical = 0
    print(f"{'module':<20} {'code':>6} {'physical':>9}")
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        code, physical = code_lines(source), source.count("\n")
        total_code += code
        total_physical += physical
        print(f"{path.name:<20} {code:>6} {physical:>9}")
    print(f"{'total':<20} {total_code:>6} {total_physical:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
