"""List the statements under src/qonsager that a pytest run never executes.

The script runs pytest in this process with a line tracer
(`sys.settrace` and `threading.settrace`) that records only frames whose
code lives in src/qonsager, then prints each statement that never ran as
`module:line: text` and a count per module.  Docstrings, `def` and `class`
lines and `global` lines are skipped, because they emit no line event of
their own.  Tests that run the CLI in a subprocess are not traced, so
what only they execute is listed too.  Tracing makes the run about three
times slower.  Run from the root of a checkout, with any pytest arguments:

    python3 tools/unexecuted.py [-x] [tests/test_qfield.py ...]
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Global,
            ast.Nonlocal)
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statements(source: str) -> dict:
    """{first line: the lines whose event shows that it ran} for each
    statement of one module's source: all its lines for a simple statement,
    the lines before its body for a compound one."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, _DOCUMENTED)
                  and ast.get_docstring(node) is not None}
    out = {}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED)
                or id(node) in docstrings):
            continue
        body = getattr(node, "body", None)
        end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        out[node.lineno] = range(node.lineno, end + 1)
    return out


def unexecuted(source: str, hit: set) -> list:
    """The first lines of the statements of source with no line in hit."""
    return sorted(first for first, lines in statements(source).items()
                  if hit.isdisjoint(lines))


def trace(root: Path, run):
    """Call run() with every frame of code under root line-traced; returns
    (run's result, {resolved file name: the lines that ran})."""
    prefix = str(root.resolve()) + os.sep
    hits: dict = {}
    local_tracers: dict = {}   # code file name -> its tracer, or None

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        try:
            return local_tracers[name]
        except KeyError:
            pass
        path = os.path.realpath(name)
        local = None
        if path.startswith(prefix):
            add = hits.setdefault(path, set()).add

            def local(frame, event, arg):
                add(frame.f_lineno)
                return local
        local_tracers[name] = local
        return local

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return result, hits


def report(root: Path, hits: dict) -> int:
    """Print the unexecuted statements of each module under root and their
    counts; returns the total."""
    counts = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        name = path.relative_to(root.parent)
        missed = unexecuted(source, hits.get(str(path.resolve()), set()))
        for first in missed:
            print(f"{name}:{first}: {lines[first - 1].strip()}")
        counts.append((len(missed), name))
    print()
    for n, name in counts:
        print(f"{n:6d}  {name}")
    total = sum(n for n, _ in counts)
    print(f"{total:6d}  total (statements never executed)")
    return total


def main(args) -> int:
    package = Path("src") / "qonsager"
    code, hits = trace(package, lambda: pytest.main(list(args)))
    print("\nnot traced: tests that run the CLI in a subprocess\n")
    report(package, hits)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
