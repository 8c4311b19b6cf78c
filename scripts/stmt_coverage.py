"""Run pytest in this process, list the statements of a package that
never ran, and fail when one outside the package's entry points did.

    python scripts/stmt_coverage.py [PYTEST ARGS]

The package is src/gbflab beside this script's directory.  Every thread,
the main one and each one started during the run, is traced with
sys.settrace and threading.settrace, and only frames of code in the
package's files record their lines.  A statement is the first line of a
statement of a module's syntax tree that the compiler gives code to, so
a function's docstring and `global` do not count.  The report
prints pytest's exit code, then each module's statements and the line
numbers of those that never ran.  It is printed whatever pytest's outcome:
a test that measures memory or time can fail under the tracer, which
allocates and slows each line.

Lines that run only in a subprocess, such as a `python -m` entry point,
are never seen by the tracer.  So the entry points are exempt from the
gate: every statement of a `__main__.py`, and the body of a module's
top-level `if __name__ == "__main__":`.  Run as a script, the exit code
is pytest's when that is not 0, else 1 when a statement outside the entry
points never ran, else 0; the last line says which statements those are.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path


def _code_lines(code) -> set[int]:
    """Every line that code or a code object nested in it has bytecode on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(source: str, filename: str = "<module>") -> set[int]:
    """The first lines of a module's statements that carry bytecode."""
    firsts = {node.lineno for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.stmt)}
    return firsts & _code_lines(compile(source, filename, "exec"))


def entry_lines(source: str, name: str) -> set[int]:
    """The lines of the statements of a module that only an entry point
    runs: all of them in a __main__.py, else those in the body of a
    top-level ``if __name__ == "__main__":``."""
    tree = ast.parse(source)
    if name == "__main__.py":
        blocks = tree.body
    else:
        blocks = [stmt for node in tree.body if isinstance(node, ast.If)
                  and ast.dump(node.test) == _MAIN_TEST for stmt in node.body]
    return {node.lineno for block in blocks for node in ast.walk(block)
            if isinstance(node, ast.stmt)}


_MAIN_TEST = ast.dump(ast.parse('__name__ == "__main__"', mode="eval").body)


def trace_run(package: Path, run):
    """(run(), {path: lines that ran}) for the .py files under package,
    run() called with every thread traced."""
    package = package.resolve()
    ran: dict[str, set[int]] = {}
    inside: dict[str, set[int] | None] = {}

    def local(frame, event, arg):
        if event == "line":
            inside[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            path = Path(name).resolve()
            inside[name] = (ran.setdefault(str(path), set())
                            if path.is_relative_to(package) else None)
        return None if inside[name] is None else local

    old, old_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(old)
        threading.settrace(old_threads)
    return result, ran


def report(argv=None, package: Path | None = None) -> tuple[int, list[str]]:
    """Print the report; return pytest's exit code and the statements
    outside the entry points that never ran, as "module:line"."""
    import pytest

    argv = sys.argv[1:] if argv is None else argv
    package = (package or Path(__file__).resolve().parent.parent
               / "src" / "gbflab").resolve()
    code, ran = trace_run(package, lambda: pytest.main(list(argv)))
    print(f"pytest exit code {int(code)}")
    ungated = []
    for path in sorted(package.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        want = statements(source, str(path))
        missed = sorted(want - ran.get(str(path), set()))
        name = path.relative_to(package).as_posix()
        print(f"{name}\t{len(want)} statements, never ran: "
              f"{', '.join(map(str, missed)) if missed else 'none'}")
        exempt = entry_lines(source, path.name)
        ungated += [f"{name}:{line}" for line in missed if line not in exempt]
    return int(code), ungated


def main(argv=None, package: Path | None = None) -> int:
    """Print the report and return pytest's exit code."""
    return report(argv, package)[0]


if __name__ == "__main__":
    code, ungated = report()
    print("outside the entry points, never ran: "
          + (", ".join(ungated) if ungated else "none"))
    sys.exit(code or int(bool(ungated)))
