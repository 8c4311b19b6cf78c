"""Run pytest in this process and list the statements of a package that
never ran.

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
allocates and slows each line.  The exit code is pytest's.

Lines that run only in a subprocess, such as a `python -m` entry point,
are never seen by the tracer.
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


def main(argv=None, package: Path | None = None) -> int:
    import pytest

    argv = sys.argv[1:] if argv is None else argv
    package = (package or Path(__file__).resolve().parent.parent
               / "src" / "gbflab").resolve()
    code, ran = trace_run(package, lambda: pytest.main(list(argv)))
    print(f"pytest exit code {int(code)}")
    for path in sorted(package.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        want = statements(source, str(path))
        missed = sorted(want - ran.get(str(path), set()))
        print(f"{path.relative_to(package).as_posix()}\t{len(want)} "
              f"statements, never ran: "
              f"{', '.join(map(str, missed)) if missed else 'none'}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
