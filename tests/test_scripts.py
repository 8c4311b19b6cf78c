"""The code-line counter in scripts/code_lines.py and the statement
tracer in scripts/stmt_coverage.py, on small synthetic modules."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

MODULE = '''"""A module docstring
over two lines."""

import os  # a trailing comment leaves its line counted


# a comment line
def f(x):
    """A function docstring."""
    return (x +
            1)


class C:
    """A class docstring
    over two lines."""

    text = """a string that is no docstring
counts on every line"""


value = f(1) \\
    + 2
'''


def test_counts_code_lines_outside_comments_and_docstrings():
    # import; def; return and its bracketed continuation; class; the two
    # lines of the string; the backslash-continued assignment's two lines
    assert code_lines.code_lines(MODULE) == 9
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n\ny = [\n    2,\n]\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a.py\t9\nsub/b.py\t4\ntotal\t13\n"


_COV_PATH = _PATH.parent / "stmt_coverage.py"
_COV_SPEC = importlib.util.spec_from_file_location("stmt_coverage", _COV_PATH)
stmt_coverage = importlib.util.module_from_spec(_COV_SPEC)
_COV_SPEC.loader.exec_module(stmt_coverage)

SIGN = '''"""A module docstring."""

import sys

LIMIT: int


def sign(x):
    """A function docstring."""
    global LIMIT
    if x < 0:
        return -1
    return 1
'''


def test_statements_skip_a_function_docstring_and_global():
    # the module docstring and annotation are stored when the module runs
    assert stmt_coverage.statements(SIGN) == {1, 3, 5, 8, 11, 12, 13}


def test_reports_the_branch_no_test_takes(tmp_path, monkeypatch, capsys):
    # a package whose one test never takes the negative branch, run through
    # pytest in this process
    package = tmp_path / "src" / "stmtcov_sign"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(SIGN)
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    (tmp_path / "test_stmtcov_sign.py").write_text(
        "from stmtcov_sign import sign\n\n\n"
        "def test_positive():\n    assert sign(3) == 1\n")
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    try:
        code = stmt_coverage.main(
            [str(tmp_path), "-q", "-p", "no:cacheprovider"], package=package)
    finally:
        for name in ("stmtcov_sign", "test_stmtcov_sign"):
            sys.modules.pop(name, None)
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[-2:] == ["pytest exit code 0",
                        "__init__.py\t7 statements, never ran: 12"]
