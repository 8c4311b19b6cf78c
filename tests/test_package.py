"""The public surface: every exported name exists, and every value and
result type copies and pickles to an equal, still frozen value."""

import copy
import pickle
from dataclasses import FrozenInstanceError, fields

import pytest

import gbflab
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
    assert base.array.dtype == "int64" and big.array.dtype == object
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
