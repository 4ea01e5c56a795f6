#!/usr/bin/env python3
"""Count the lines of src/fedrdp/ by kind: code, docstring, comment, blank;
and the parser tokens of each file.

Stdlib only (tokenize and ast).  A docstring line is a line that a module,
class or function docstring spans, blank ones inside it included.  A
comment line holds a comment and no code.  A blank line holds only
whitespace.  Every other line is code.  The tokens are tokenize's, but
COMMENT, NL and ENCODING: the count at which CPython 3.11's parser doubles
its token array, at 4096.  Prints one row per file and a total row:

    python3 scripts/src_lines.py
"""

import ast
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fedrdp"
KINDS = ("lines", "code", "docstring", "comment", "blank", "tokens")


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings in tree."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path: pathlib.Path) -> dict[str, int]:
    """The number of lines of each kind, and of parser tokens, in the Python file at path."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    docstring = _docstring_lines(ast.parse(text))
    code, comment = set(), set()
    counts = dict.fromkeys(KINDS, 0)
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING):
                counts["tokens"] += 1
            if tok.type == tokenize.COMMENT:
                comment.add(tok.start[0])
            elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                                  tokenize.ENCODING, tokenize.ENDMARKER):
                code.update(range(tok.start[0], tok.end[0] + 1))
    for number, line in enumerate(lines, start=1):
        if number in docstring:
            kind = "docstring"
        elif number in code:
            kind = "code"
        elif number in comment:
            kind = "comment"
        else:
            kind = "blank"
        counts[kind] += 1
    counts["lines"] = len(lines)
    return counts


def main() -> None:
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<16}" + "".join(f"{kind:>10}" for kind in KINDS))
    for path in sorted(PACKAGE.glob("*.py")):
        counts = count(path)
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<16}" + "".join(f"{counts[kind]:>10}" for kind in KINDS))
    print(f"{'total':<16}" + "".join(f"{total[kind]:>10}" for kind in KINDS))


if __name__ == "__main__":
    main()
