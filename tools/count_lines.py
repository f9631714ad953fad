"""Code lines of src/quadcover/*.py: no docstring (ast), comment or blank line (tokenize).

Run from the root of a checkout, or name one: ``python3 tools/count_lines.py [ROOT]``.
Prints each module's count and the total, then the total of tests/*.py
counted the same way, so that code moved from src/ into tests/ shows.
"""

import ast
import glob
import sys
import tokenize

SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}


def code_lines(path: str) -> int:
    with open(path, "rb") as handle:
        tokens = list(tokenize.tokenize(handle.readline))
        handle.seek(0)
        tree = ast.parse(handle.read())
    docs = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        first = body[0] if isinstance(body, list) and body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            docs.update(range(first.lineno, first.end_lineno + 1))
    code = {line for tok in tokens if tok.type not in SKIP for line in range(tok.start[0], tok.end[0] + 1)}
    return len(code - docs)


def main(root: str = ".") -> None:
    total = 0
    for path in sorted(glob.glob(root + "/src/quadcover/*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    tests = sum(code_lines(path) for path in glob.glob(root + "/tests/*.py"))
    print(f"{tests:6d} total of tests/")


if __name__ == "__main__":
    main(*sys.argv[1:2])
