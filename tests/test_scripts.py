"""The code-line counter in scripts/code_lines.py, on small synthetic
modules."""

import importlib.util
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
