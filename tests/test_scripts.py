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


def test_lists_the_statements_outside_the_entry_points_that_never_ran(
        tmp_path, monkeypatch, capsys):
    # the sign package with an entry point of each kind, which no test in
    # this process can run: they are reported, but only the branch no test
    # takes is listed for the gate, and once a test takes it none is
    package = tmp_path / "src" / "stmtcov_gate"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        SIGN + '\n\nif __name__ == "__main__":\n    print(sign(-1))\n')
    (package / "__main__.py").write_text(
        "from stmtcov_gate import sign\n\nprint(sign(1))\n")
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    tests = "from stmtcov_gate import sign\n\n\ndef test_positive():\n" \
            "    assert sign(3) == 1\n"
    for negative, missed, ungated in (
            ("", "12, 17", ["__init__.py:12"]),
            ("\n\ndef test_negative():\n    assert sign(-3) == -1\n",
             "17", [])):
        (tmp_path / "test_stmtcov_gate.py").write_text(tests + negative)
        try:
            assert stmt_coverage.report(
                [str(tmp_path), "-q", "-p", "no:cacheprovider"],
                package=package) == (0, ungated)
        finally:
            for name in ("stmtcov_gate", "test_stmtcov_gate"):
                sys.modules.pop(name, None)
        assert capsys.readouterr().out.splitlines()[-2:] == [
            f"__init__.py\t9 statements, never ran: {missed}",
            "__main__.py\t2 statements, never ran: 1, 3"]


_KT_PATH = _PATH.parent / "kernel_timings.py"
_KT_SPEC = importlib.util.spec_from_file_location("kernel_timings", _KT_PATH)
kernel_timings = importlib.util.module_from_spec(_KT_SPEC)
_KT_SPEC.loader.exec_module(kernel_timings)


def test_kernel_timings_grid_is_the_bench_census_without_its_heavy_types():
    path = _PATH.parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    light = tuple(t for t in workloads.CENSUS_GRID
                  if t not in workloads.CENSUS_HEAVY)
    assert kernel_timings.LIGHT_GRID == light and len(light) == 59


def test_kernel_timings_prints_one_line_per_measure(monkeypatch, capsys):
    # the same measures on smaller inputs: each line is the measure, its
    # least time and the number of calls
    monkeypatch.setattr(kernel_timings, "WITNESSES", ((2, 4), (12, 3)))
    monkeypatch.setattr(kernel_timings, "SIX_SUMS", (4, 6))
    monkeypatch.setattr(kernel_timings, "LIGHT_GRID", ((3, 1), (5, 2)))
    monkeypatch.setattr(kernel_timings, "SCAN_ARGV",
                        ("scan", "--m", "2..9", "--n", "1..3"))
    monkeypatch.setattr(kernel_timings, "WIDE_SCAN_ARGV",
                        ("scan", "--m", "2..9", "--n", "1..5"))
    monkeypatch.setattr(kernel_timings, "DEEP_SCAN_ARGV",
                        ("scan", "--m", "2..9", "--n", "1..7"))
    monkeypatch.setattr(kernel_timings, "CERTIFICATE_TYPES",
                        ((21, 3), (94, 3)))
    monkeypatch.setattr(kernel_timings, "ROOT_ARGS", (-7, 2, 40))
    monkeypatch.setattr(kernel_timings, "CLASS_GROUP_TYPE", (94, 3))
    monkeypatch.setattr(kernel_timings, "REPORTS", ((100, 5),))
    assert kernel_timings.main() == 0
    lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert [name for name, _, _ in lines] == [
        "is_gbf witness {2,4}", "is_gbf witness {12,3}",
        "is_gbf content-6 sum {6,4}", "is_gbf content-6 sum {6,6}",
        "census {7,3}, cold", "census light grid (2 types), cold",
        "scan --m 2..9 --n 1..3, cold", "scan --m 2..9 --n 1..5, cold",
        "scan --m 2..9 --n 1..7, cold",
        "decide certificates draw (2 types), warm",
        "decide certificates draw (2 types), cold",
        "sqrt_mod -7 modulo 2^40", "decide {94,3}, cold",
        "report random {100,5}"]
    for _, ms, calls in lines:
        assert ms.endswith(" ms") and float(ms[:-3]) > 0
        assert calls in ("least of 20", "least of 10", "least of 5",
                         "least of 3")
