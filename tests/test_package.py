"""The public surface: every exported name exists, every value and result
type copies and pickles to an equal, still frozen value, and numpy loads
only at the first use of the table layer."""

import copy
import json
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest

import gbflab
from gbflab.cli import main
from gbflab.criteria import EXISTS, NOT_EXISTS, UNKNOWN, decide
from gbflab.cyclotomic import cyclotomic_poly, zeta_pow
from gbflab.gbf import FunctionTable, GbfType, lift_modulus, walsh
from gbflab.oracle import enumerate_gbfs

import referees as ref


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from gbflab import *", namespace)
    for name in gbflab.__all__:
        assert namespace[name] is getattr(gbflab, name), name
    assert len(set(gbflab.__all__)) == len(gbflab.__all__)


def _tables(value):
    """Every FunctionTable a value holds."""
    if isinstance(value, FunctionTable):
        return [value]
    return [w for w in (getattr(value, "witness", None),
                        *getattr(value, "witnesses", ())) if w is not None]


def _values():
    base = ref.seeded_even_even(4, 4, 3)
    big = lift_modulus(base, 2**61 + 1)
    assert base.array.dtype == "uint8" and big.array.dtype == object
    verdicts = [decide(GbfType(m, n)) for m, n in ((8, 3), (9, 3), (14, 1))]
    assert [v.kind for v in verdicts] == [EXISTS, NOT_EXISTS, UNKNOWN]
    census = enumerate_gbfs(GbfType(4, 1))
    assert census.witnesses
    return [base, big, zeta_pow(12, 5) + 3, walsh(base), cyclotomic_poly(12),
            GbfType(6, 2), *verdicts, census]


@pytest.mark.parametrize("duplicate", [
    lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"])
def test_values_copy_and_pickle_equal_and_frozen(duplicate):
    for value in _values():
        again = duplicate(value)
        assert type(again) is type(value) and again == value, value
        for table in _tables(again):
            assert not table.array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table.array[0] = 1
            assert table.values == tuple(table.array.tolist())


def test_value_fields_refuse_assignment():
    alpha = zeta_pow(12, 5)
    with pytest.raises(FrozenInstanceError):
        alpha.coeffs = (0,) * 12
    assert alpha in {alpha}
    for value in _values():
        # walsh(base) and cyclotomic_poly(12) are tuples: no fields to assign
        if isinstance(value, tuple):
            continue
        with pytest.raises(FrozenInstanceError):
            setattr(value, fields(value)[0].name, None)


# -- start-up: numpy loads at the table layer's first use --------------------
# The test process has imported numpy already, so each check runs in a fresh
# interpreter.

SRC = Path(gbflab.__file__).resolve().parents[1]

# runs each argv of sys.argv[1] through cli.main and prints, as JSON, the
# numpy modules loaded after the import and after each command, with each
# command's exit code and stdout
_CHILD = r"""
import contextlib, io, json, sys
import gbflab
from gbflab.cli import main

def loaded():
    return sorted(k for k in sys.modules if k == "numpy" or k.startswith("numpy."))

out = {"import": loaded(), "runs": []}
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    out["runs"].append([rc, buf.getvalue(), loaded()])
import numpy
out["bound"] = [m.np is numpy for m in (gbflab.gbf, gbflab.oracle)]
print(json.dumps(out))
"""


def _python(code, *args, cwd=None, stdin=None):
    """stdout of a fresh interpreter that runs code with gbflab on its path."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env=env, input=stdin, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def _in_process(argvs, capsys):
    """[exit code, stdout] of each argv run through cli.main here."""
    capsys.readouterr()
    runs = []
    for argv in argvs:
        rc = main(argv)
        runs.append([rc, capsys.readouterr().out])
    return runs


def test_criteria_paths_never_load_numpy(capsys):
    argvs = [["decide", "9", "3"], ["decide", "14", "1"], ["table", "p7"],
             ["table", "rp"], ["scan", "--m", "3..3", "--n", "1..5"]]
    out = json.loads(_python(_CHILD, json.dumps(argvs)))
    assert out["import"] == []
    assert [loaded for _, _, loaded in out["runs"]] == [[]] * len(argvs)
    assert [rc for rc, _, _ in out["runs"]] == [1, 2, 0, 0, 0]
    assert [run[:2] for run in out["runs"]] == _in_process(argvs, capsys)


def test_census_never_loads_numpy_ma():
    # np.unique of a table without an index asks numpy.ma whether it is
    # masked, and the first such call imports numpy.ma, several ms in a
    # fresh process; the census groups and dedupes without one, at every
    # witness cap, on types with hits and without
    code = """import sys
from gbflab.gbf import GbfType
from gbflab.oracle import enumerate_gbfs
for m, n in ((4, 2), (2, 3), (7, 3), (8, 3), (12, 1)):
    for cap in (0, 1, 4, 40):
        enumerate_gbfs(GbfType(m, n), budget=10**10, max_witnesses=cap)
print('numpy' in sys.modules, 'numpy.ma' in sys.modules)
"""
    assert _python(code).split() == [b"True", b"False"]


def test_table_paths_load_numpy_and_rebind_it(tmp_path, capsys, monkeypatch):
    argvs = [["decide", "4", "6", "--out", "w.json"], ["verify", "w.json"],
             ["oracle", "4", "2"]]
    (tmp_path / "child").mkdir()
    out = json.loads(_python(_CHILD, json.dumps(argvs), cwd=tmp_path / "child"))
    assert out["import"] == [] and all(loaded for _, _, loaded in out["runs"])
    assert out["bound"] == [True, True]
    monkeypatch.chdir(tmp_path)
    assert [run[:2] for run in out["runs"]] == _in_process(argvs, capsys)
    assert (tmp_path / "child" / "w.json").read_bytes() == \
        (tmp_path / "w.json").read_bytes()


def test_concurrent_first_use_of_the_table_layer():
    code = r"""
import threading
from gbflab import is_gbf, table
barrier, results = threading.Barrier(4), []

def first_use():
    barrier.wait()
    try:
        results.append(is_gbf(table(4, 2, [0, 0, 0, 2])))
    except BaseException as exc:
        results.append(repr(exc))

threads = [threading.Thread(target=first_use) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(results)
"""
    assert _python(code) == b"[True, True, True, True]\n"


def test_numpy_imported_first_is_bound_directly():
    # criteria builds no table, so it binds no np at all
    code = r"""
import numpy
import gbflab
from gbflab import _lazy, cli, criteria, cyclotomic, gbf, oracle
print(all(m.np is numpy for m in (_lazy, cli, cyclotomic, gbf, oracle))
      and not hasattr(criteria, "np"))
"""
    assert _python(code) == b"True\n"


def test_exists_verdict_unpickles_before_numpy_loads():
    verdict = decide(GbfType(4, 6))
    assert verdict.kind == EXISTS
    code = r"""
import pickle, sys
import gbflab
assert "numpy" not in sys.modules
verdict = pickle.loads(sys.stdin.buffer.read())
print(verdict.kind, gbflab.is_gbf(verdict.witness), verdict.witness.values)
"""
    got = _python(code, stdin=pickle.dumps(verdict)).decode().split(" ", 2)
    assert got == [EXISTS, "True", f"{verdict.witness.values}\n"]
