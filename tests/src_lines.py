"""List the `src/boundbench` statements that no tier-1 test executes.

Runs the tier-1 suite (pytest's `testpaths`) in this process under
`sys.settrace`, recording the lines executed in frames of `src/boundbench`
files only, and prints each statement that none reached as `file:line:
source`. Statements that compile to no code (docstrings) are not listed,
nor are imports kept for other numpy versions. Lines that only a
subprocess runs, such as the CLI's entry point, are listed: the trace
does not follow a subprocess. Needs only the standard library and pytest:

    python tests/src_lines.py [extra pytest arguments]

The exit status is pytest's. Tracing slows the suite several times over.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "boundbench"


def executable_lines(code) -> set[int]:
    """The line numbers of every instruction of `code` and its nested code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def statement_heads(tree: ast.AST):
    """(first line, lines) per statement; a compound statement's lines are
    its decorators and its header, up to the first line of its body. The
    bodies of `except ImportError` handlers, which run only with other
    library versions, are left out."""
    other_versions = {
        id(inner)
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler) and isinstance(handler.type, ast.Name)
        and handler.type.id == "ImportError"
        for stmt in handler.body
        for inner in ast.walk(stmt)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in other_versions:
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        yield node.lineno, range(first, last + 1)


def unreached(hits: dict[str, set[int]]) -> list[str]:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        compiled = executable_lines(compile(source, str(path), "exec"))
        ran = hits.get(str(path), set())
        for lineno, span in sorted(statement_heads(ast.parse(source))):
            if compiled.intersection(span) and not ran.intersection(span):
                out.append(f"{path.relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
    return out


def main(argv: list[str]) -> int:
    os.chdir(ROOT)  # pytest reads its testpaths from the root's pyproject.toml
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set())
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    report = unreached(hits)
    print(f"\n{len(report)} src/boundbench statements no test reached:")
    print("\n".join(report))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
