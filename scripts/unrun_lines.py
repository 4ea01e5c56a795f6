#!/usr/bin/env python3
"""List the statements of src/fedrdp/ that the test suite never runs.

Runs pytest in this process under a `sys.settrace` hook (stdlib only, no
coverage package) that traces lines only in frames whose code lives under
src/fedrdp/, then prints, per file, the line of each statement with code
that no line event reached.  Docstrings are not listed.  Arguments go to
pytest unchanged; with none, the whole suite under tests/ runs:

    python3 scripts/unrun_lines.py
    python3 scripts/unrun_lines.py tests/test_accountant.py -k ledger

Tests that run the package in a subprocess (the import-cost checks, for
one) are invisible to the hook, so a line they alone run is listed too:
the list is an upper bound on what the suite leaves unrun.  Traced, the
suite takes about twice as long.
"""

import ast
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fedrdp"


def _code_lines(code) -> set[int]:
    """Lines that hold bytecode in code and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(tree: ast.AST):
    """(first line, last line of its header) of each statement, docstrings out."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and id(node) not in docstrings:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            # a compound statement's header ends where its body starts
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
            yield first, max(first, last)


def unrun(path: pathlib.Path, ran: set[int]) -> list[int]:
    """First lines of the statements of path that have code none of whose lines ran."""
    source = path.read_text(encoding="utf-8")
    code = _code_lines(compile(source, str(path), "exec"))
    out = []
    for first, last in _statements(ast.parse(source)):
        lines = code.intersection(range(first, last + 1))
        if lines and not lines & ran:
            out.append(first)
    return sorted(set(out))


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        status = pytest.main(argv or [str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        lines = unrun(path, ran.get(str(path), set()))
        print(f"{path.relative_to(ROOT)}: {len(lines)} unrun"
              + (": " + ", ".join(map(str, lines)) if lines else ""))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
