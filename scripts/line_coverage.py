#!/usr/bin/env python3
"""List the statements of src/robustcl that a pytest run never executes.

Standard library only, besides pytest, which runs in this process under a
`sys.settrace` tracer, also installed for new threads with
`threading.settrace`, that records the lines executed in files under
src/robustcl. Each module's statements are found with `ast`; docstrings and
`def`, `class` and import lines are skipped, as they run whenever the
module is imported. A statement counts as executed when any line of it ran
(a compound statement's lines stop at its body). Code run in forked pool
workers or in subprocesses is not traced, so a statement only they execute
is listed.

    PYTHONPATH=src python3 scripts/line_coverage.py [pytest arguments]

Prints `file:line: source` for each statement never executed, then a count
per file, and exits with pytest's exit code.
"""

import ast
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "robustcl")
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def _is_docstring(node, parent) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str) and parent.body[0] is node
            and isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                    ast.AsyncFunctionDef)))


def statements(source: str) -> dict:
    """{first line: the lines whose execution counts} of each statement of
    the module `source`, skipping docstrings and def, class and import
    statements (their bodies are listed)."""
    out = {}
    for parent in ast.walk(ast.parse(source)):
        for field in ("body", "orelse", "finalbody"):
            children = getattr(parent, field, None)
            for node in children if isinstance(children, list) else ():  # not a lambda's
                if isinstance(node, SKIPPED) or _is_docstring(node, parent):
                    continue
                body = getattr(node, "body", None)
                end = body[0].lineno - 1 if body else node.end_lineno
                out[node.lineno] = range(node.lineno, max(end, node.lineno) + 1)
    return out


def missed(source: str, hit_lines) -> list:
    """(line, source line) of each statement of `source` none of whose lines
    is in `hit_lines`, in line order."""
    lines = source.splitlines()
    return [(first, lines[first - 1].strip())
            for first, span in sorted(statements(source).items())
            if not any(n in hit_lines for n in span)]


def tracer(package: str, hits: dict):
    """A `sys.settrace` function that adds each line executed in a file
    under `package` to `hits[file]`, and traces no other file's lines."""
    prefix = os.path.join(package, "")
    local_by_file = {}

    def local_for(lines):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in local_by_file:
            path = os.path.abspath(filename)
            local_by_file[filename] = (local_for(hits.setdefault(path, set()))
                                       if path.startswith(prefix) else None)
        return local_by_file[filename]

    return trace


def main(argv=None) -> int:
    hits = {}
    trace = tracer(PACKAGE, hits)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(list(sys.argv[1:] if argv is None else argv))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    counts = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as f:
            source = f.read()
        rel = os.path.relpath(path, ROOT)
        gaps = missed(source, hits.get(path, set()))
        for line, text in gaps:
            print(f"{rel}:{line}: {text}")
        counts.append(f"{rel}: {len(gaps)} of {len(statements(source))} statements "
                      "never executed")
    print("\n".join(counts))
    print("not traced: forked pool workers and subprocess runs")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
