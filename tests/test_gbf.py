"""Walsh spectra, the flatness test, and the constructions.

The independent route used throughout: recompute Walsh values as plain
ring-element sums and test |W(y)|^2 through CycInt arithmetic only
(referees.walsh_by_definition), then compare with the library verdict.
"""

import dataclasses
import hashlib
import json
import random
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from gbflab import cli, gbf
from gbflab.criteria import rule_exists
from gbflab.cyclotomic import CycInt, zeta_pow
from gbflab.gbf import (FunctionTable, GbfType, construct_boolean_bent,
                        construct_even_even, construct_mod4_from_bent,
                        direct_sum, first_flat_violation, is_gbf,
                        lift_modulus, table, walsh, walsh_matrix)
from gbflab.numtheory import euler_phi

import referees as ref

# the old FunctionTable, a frozen dataclass over a tuple, for its semantics
_TupleTable = dataclasses.make_dataclass(
    "FunctionTable", [("gbf_type", GbfType), ("values", tuple)], frozen=True)


def test_walsh_constant_table():
    for m, n in ((3, 2), (5, 1), (4, 3)):
        sp = walsh(table(m, n, [0] * (1 << n)))
        assert sp[0] == 1 << n
        assert all(w == 0 for w in sp[1:])


def test_walsh_matches_definition_random():
    rng = random.Random(2)
    for _ in range(25):
        m = rng.randrange(2, 9)
        n = rng.randrange(1, 4)
        f = table(m, n, [rng.randrange(m) for _ in range(1 << n)])
        direct = ref.walsh_by_definition(f)
        assert list(walsh(f)) == direct


def test_walsh_classic_bent():
    f = table(2, 2, [0, 0, 0, 1])
    for w in walsh(f):
        assert w.abs_square() == 4
    assert is_gbf(f)


def test_walsh_quaternary_pair():
    f = table(4, 1, [0, 1])
    sp = walsh(f)
    assert sp[0] == zeta_pow(4, 0) + zeta_pow(4, 1)
    assert sp[0].abs_square() == 2
    assert is_gbf(f)


def test_is_gbf_no_ternary_pair():
    # all 9 tables of the {3,1} space fail
    for a in range(3):
        for b in range(3):
            assert not is_gbf(table(3, 1, [a, b]))


def test_is_gbf_constant_fails():
    assert not is_gbf(table(5, 2, [3, 3, 3, 3]))
    violation = first_flat_violation(table(4, 2, [0, 0, 0, 0]))
    assert violation is not None and violation[0] == 0


def test_is_gbf_matches_definition_random():
    rng = random.Random(4)
    seen_flat = 0
    for _ in range(60):
        m = rng.randrange(2, 8)
        n = rng.randrange(1, 4)
        f = table(m, n, [rng.randrange(m) for _ in range(1 << n)])
        flat = ref.is_flat_by_definition(f)
        seen_flat += flat
        assert is_gbf(f) == flat
    # and on known flat tables
    assert ref.is_flat_by_definition(construct_even_even(6, 2))


def test_boolean_bent_construction():
    assert construct_boolean_bent(2).values == (0, 0, 0, 1)
    for n in (2, 4, 6):
        assert is_gbf(construct_boolean_bent(n))
    for n in range(2, 17, 2):       # direct sums against the bit formula
        assert construct_boolean_bent(n) == ref.boolean_bent(n)
    with pytest.raises(ValueError):
        construct_boolean_bent(3)


@pytest.mark.parametrize("n", [18, 20])
def test_boolean_bent_is_the_e2_witness(n):
    assert construct_boolean_bent(n) == rule_exists(GbfType(2, n))[0]


def test_boolean_bent_builds_no_table_but_its_own():
    # one direct sum of the pairs: no form on fewer variables is built
    construct_boolean_bent(20)
    tracemalloc.start()
    try:
        bent = construct_boolean_bent(20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * bent.array.nbytes


@pytest.mark.parametrize("m", [4, 200, 65540])
def test_even_even_builds_one_table_a_block_at_a_time(m):
    # the rows are selected a block at a time into the result's own dtype:
    # no whole parity matrix, widened g or selection sits beside it (3.04,
    # 4.04 and 1.28 times the result when they were built whole)
    construct_even_even(m, 20)
    tracemalloc.start()
    try:
        f = construct_even_even(m, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * f.array.nbytes


def test_even_even_construction():
    assert is_gbf(construct_even_even(6, 2))
    # m = 2 degenerates to the x.sigma(y) form, still a bent table
    assert is_gbf(construct_even_even(2, 2))
    assert is_gbf(ref.seeded_even_even(10, 4, 7))
    with pytest.raises(ValueError):
        construct_even_even(5, 2)
    with pytest.raises(ValueError):
        construct_even_even(6, 3)
    with pytest.raises(ValueError):
        construct_even_even(6, 2, sigma=[0, 0])
    with pytest.raises(ValueError, match="g must have 2 entries"):
        construct_even_even(6, 2, g=[0])


def test_even_even_arbitrary_g_sigma():
    rng = random.Random(31)
    for m, n in ((6, 2), (8, 4), (12, 2)):
        t = n // 2
        g = [rng.randrange(m) for _ in range(1 << t)]
        sigma = list(range(1 << t))
        rng.shuffle(sigma)
        assert is_gbf(construct_even_even(m, n, g=g, sigma=sigma))


def test_mod4_construction():
    assert construct_mod4_from_bent(construct_boolean_bent(2)).values == (0, 1)
    bigger = construct_mod4_from_bent(construct_boolean_bent(4))
    assert bigger.gbf_type == GbfType(4, 3)
    assert is_gbf(bigger)
    with pytest.raises(ValueError):
        construct_mod4_from_bent(table(2, 2, [0, 0, 0, 0]))
    with pytest.raises(ValueError):
        construct_mod4_from_bent(table(4, 2, [0, 0, 0, 1]))
    with pytest.raises(ValueError, match="at least 2 variables"):
        construct_mod4_from_bent(table(2, 1, [0, 1]))


def test_direct_sum():
    f41 = table(4, 1, [0, 1])
    s = direct_sum(f41, f41)
    assert s.gbf_type == GbfType(4, 2)
    assert is_gbf(s)
    b = construct_boolean_bent(2)
    assert is_gbf(direct_sum(b, b))
    with pytest.raises(ValueError):
        direct_sum(f41, b)


def test_lift_modulus():
    f = table(2, 2, [0, 0, 0, 1])
    assert lift_modulus(f, 1) is f
    with pytest.raises(ValueError):
        lift_modulus(f, 0)
    lifted = lift_modulus(f, 3)
    assert lifted.gbf_type == GbfType(6, 2)
    assert set(lifted.values) == {0, 3}
    assert is_gbf(lifted)
    assert is_gbf(lift_modulus(table(4, 1, [0, 1]), 2))
    # spectra agree entrywise under the root-of-unity identification
    base = walsh_matrix(f)
    up = walsh_matrix(lifted)
    for y in range(4):
        for c in range(2):
            assert base[y, c] == up[y, 3 * c]
        assert all(up[y, c] == 0 for c in range(6) if c % 3)


def test_lift_modulus_holds_one_new_table():
    # uint8 -> uint16: the values are cast with one copy, scaled in place
    f = rule_exists(GbfType(4, 20))[0]
    tracemalloc.start()
    try:
        lifted = lift_modulus(f, 1 << 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (f.array.dtype, lifted.array.dtype) == (np.uint8, np.uint16)
    assert peak <= 1.1 * lifted.array.nbytes


def test_parseval_and_inversion_random():
    rng = random.Random(8)
    for _ in range(40):
        m = rng.randrange(2, 13)
        n = rng.randrange(1, 5)
        f = table(m, n, [rng.randrange(m) for _ in range(1 << n)])
        sp = ref.walsh_by_definition(f)
        total = CycInt.zero(m)
        for w in sp:
            total = total + w.abs_square()
        assert total == 4 ** n
        # inversion: sum_y (-1)^(x.y) W(y) = 2^n zeta^f(x)
        for x in range(1 << n):
            acc = CycInt.zero(m)
            for y, w in enumerate(sp):
                acc = acc + (-w if (x & y).bit_count() & 1 else w)
            assert acc == (1 << n) * zeta_pow(m, f.values[x])


def test_constant_shift_invariance_even_m():
    rng = random.Random(12)
    for m in (2, 4, 6, 10):
        f = ref.seeded_even_even(m, 2, rng.randrange(999))
        for c in range(m):
            shifted = table(m, 2, [(v + c) % m for v in f.values])
            assert is_gbf(shifted)


def test_table_validation():
    with pytest.raises(ValueError):
        FunctionTable(GbfType(3, 2), (0, 1, 2))
    with pytest.raises(ValueError):
        FunctionTable(GbfType(3, 1), (0, 3))
    with pytest.raises(ValueError):
        GbfType(1, 1)
    with pytest.raises(ValueError):
        GbfType(4, 0)


@pytest.mark.parametrize("m,n", [(8.0, 3), (9.0, 3), (6, 2.0)])
def test_gbf_type_takes_integers_only(m, n):
    with pytest.raises(TypeError):
        GbfType(m, n)


def test_gbf_type_unwraps_numpy_integers():
    t = GbfType(np.int64(8), np.int32(3))
    assert type(t.m) is int and type(t.n) is int and t == GbfType(8, 3)
    assert hash(t) == hash(GbfType(8, 3)) and str(t) == "{8,3}"


@pytest.mark.parametrize("build", [
    lambda: table(4, 1, [0.9, 1.7]),
    lambda: CycInt(3, (0.5, 1.9, 0)),
    lambda: construct_even_even(4, 2, g=[0.5, 1.5]),
    lambda: construct_even_even(4, 2, sigma=[0.0, 1.0]),
    lambda: construct_even_even(4, 2, g=[0.5, 1.5], sigma=[0.2, 1.9])],
    ids=["table", "cycint", "g", "sigma", "g-and-sigma"])
def test_values_are_refused_not_truncated(build):
    # int() would read [0.9, 1.7] as the flat table (0, 1)
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("values", [
    [0.9, 1.7], (0, 1.0), np.array([0.9, 1.7]), np.array([0, 1], dtype=np.float32),
    np.array([0, 1j]), np.array([0.9, 1], dtype=object), [0.5, 2**69]],
    ids=["list", "tuple", "float64", "float32", "complex", "object",
         "beyond-int64"])
@pytest.mark.parametrize("m", [4, 2**70])
def test_function_table_refuses_non_integer_dtype(values, m):
    # the cast to int64 read [0.9, 1.7] as the flat table (0, 1)
    with pytest.raises(TypeError, match="must be integers"):
        FunctionTable(GbfType(m, 1), values)


def test_values_take_numpy_integers():
    assert table(4, 1, np.array([0, 7])).values == (0, 3)
    assert CycInt(3, np.array([1, 2, 3])).coeffs == (1, 2, 3)
    f = construct_even_even(4, 2, g=np.array([1, 2]), sigma=np.array([1, 0]))
    assert f.values == (1, 3, 2, 2) and is_gbf(f)


# -- the FunctionTable contract -------------------------------------------------


def test_function_table_equality_and_hash_as_tuple_table():
    rng = random.Random(31)
    tables = [_random_table(rng, m, n) for m, n in
              ((2, 1), (3, 2), (4, 2), (4, 3), (12, 4), (2**62, 2))]
    tables.append(lift_modulus(construct_boolean_bent(4), 2**62 + 1))
    for f in tables:
        old = _TupleTable(f.gbf_type, f.values)
        assert type(f.values) is tuple
        assert all(type(v) is int for v in f.values)
        assert hash(f) == hash(old)
        assert repr(f) == repr(old)
        again = FunctionTable(f.gbf_type, np.array(list(f.values), dtype=object))
        assert f == again and hash(f) == hash(again) and len({f, again}) == 1
        assert f != FunctionTable(GbfType(f.m + 1, f.n), f.values)
        bumped = list(f.values)
        bumped[-1] = (bumped[-1] + 1) % f.m
        assert f != FunctionTable(f.gbf_type, bumped)
        assert f != f.values and f != old


def test_function_table_array_is_read_only():
    f = table(4, 2, [0, 1, 2, 3])
    assert f.array.dtype == np.uint8 and f.values == (0, 1, 2, 3)
    with pytest.raises(ValueError, match="read-only"):
        f.array[0] = 1
    with pytest.raises(FrozenInstanceError):
        f.values = (0, 0, 0, 0)
    with pytest.raises(FrozenInstanceError):
        f.array = np.zeros(4, dtype=np.int64)
    # a numpy array passed in already in the table's dtype is frozen, not
    # copied
    mine = np.array([0, 1, 1, 0], dtype=np.uint8)
    g = FunctionTable(GbfType(2, 2), mine)
    assert g.array is mine
    with pytest.raises(ValueError, match="read-only"):
        mine[0] = 1
    assert g.values == (0, 1, 1, 0)


def test_function_table_object_array_above_2_62():
    base = ref.seeded_even_even(4, 4, 3)
    for l in (2**60 + 1, 2**61, 2**70):
        lifted = lift_modulus(base, l)
        assert lifted.m == 4 * l
        assert lifted.array.dtype == object
        assert lifted.values == tuple(l * v for v in base.values)
        assert all(type(v) is int for v in lifted.values)
        assert is_gbf(lifted) and is_gbf(base)
    # up to m = 2^62 the table is int64
    assert lift_modulus(base, 2**60).array.dtype == np.int64


@pytest.mark.parametrize("m", [3, 2**62, 2**62 + 1, 2**70])
def test_function_table_rejects_bad_length_and_range(m):
    t = GbfType(m, 2)
    with pytest.raises(ValueError, match="need 4 values, got 3"):
        FunctionTable(t, (0, 1, 2))
    with pytest.raises(ValueError, match="need 4 values, got 5"):
        FunctionTable(t, [0] * 5)
    for bad in (m, -1, m + 2**64, 2**200):
        with pytest.raises(ValueError, match=f"values must lie in 0..{m - 1}"):
            FunctionTable(t, (0, 1, 2, bad))


_DTYPE_EDGES = (255, 256, 257, 2**16, 2**16 + 1, 2**32, 2**32 + 1)


# int16 holds -1 and m at m = 255..257, and only -1 from m = 2^16 on;
# uint16 holds m up to 2^16 - 1, and never -1
@pytest.mark.parametrize("dtype, m", [
    *((dtype, m) for dtype in (np.int8, np.int16, np.int32, np.int64,
                               np.uint64, object) for m in _DTYPE_EDGES),
    *((np.uint16, m) for m in _DTYPE_EDGES if m < 1 << 16)])
def test_range_is_checked_before_the_narrowing_cast(dtype, m):
    # a cast first would wrap -1 to the largest value of the table's
    # unsigned dtype, which at m = 256, 2^16 or 2^32 lies in range.  Each
    # of -1 and m that the input dtype holds is refused (int8 holds no m
    # here, uint64 no -1), and m - 1 is kept when the input holds it
    t = GbfType(m, 2)
    held = [v for v in (-1, m) if dtype is object
            or np.iinfo(dtype).min <= v <= np.iinfo(dtype).max]
    assert held
    for bad in held:
        with pytest.raises(ValueError, match=f"values must lie in 0..{m - 1}"):
            FunctionTable(t, np.array([0, 1, bad, 0], dtype=dtype))
    if dtype is object or m - 1 <= np.iinfo(dtype).max:
        f = FunctionTable(t, np.array([0, m - 1, 1, m - 1], dtype=dtype))
        assert f.array.dtype == ref.table_dtype(m)
        assert f.values == (0, m - 1, 1, m - 1)


# -- flatness at the content modulus -------------------------------------------


def _random_table(rng, m, n):
    return table(m, n, [rng.randrange(m) for _ in range(1 << n)])


def test_content_modulus_keeps_verdict_and_failing_row():
    rng = random.Random(21)
    flat_seen = 0
    for _ in range(60):
        base_m = rng.randrange(2, 9)
        n = rng.randrange(1, 4)
        l = rng.randrange(2, 6)
        if base_m % 2 == 0 and n % 2 == 0 and rng.random() < 0.5:
            g = ref.seeded_even_even(base_m, n, rng.randrange(999))
        else:
            g = _random_table(rng, base_m, n)
        f = lift_modulus(g, l)          # every value a multiple of l | m
        flat = ref.is_flat_by_definition(f)
        flat_seen += flat
        assert is_gbf(f) == is_gbf(g) == flat == ref.is_flat_by_definition(g)
        bad_f, bad_g = first_flat_violation(f), first_flat_violation(g)
        assert (bad_f is None) == (bad_g is None)
        if bad_f is not None:
            assert bad_f[0] == bad_g[0]
    assert flat_seen


def test_content_modulus_report_is_taken_at_m():
    rng = random.Random(22)
    reported = 0
    for m, n, l in ((12, 2, 3), (12, 3, 4), (30, 2, 5), (8, 3, 2), (18, 2, 6)):
        for _ in range(4):
            f = lift_modulus(_random_table(rng, m // l, n), l)
            bad = first_flat_violation(f)
            if bad is None:
                assert ref.is_flat_by_definition(f)
                continue
            y, coeffs = bad
            reported += 1
            phi = euler_phi(m)
            assert len(coeffs) == phi
            want = walsh(f)[y].abs_square().coeffs
            assert coeffs == want[:phi] and not any(want[phi:])
            # and y is the first failing row by the definition
            target = 1 << n
            spectrum = ref.walsh_by_definition(f)
            assert all(w.abs_square() == target for w in spectrum[:y])
            assert spectrum[y].abs_square() != target
    assert reported >= 15


def test_content_modulus_all_zero_table():
    # its W(y) are the same integers at every modulus: tested over Z_2,
    # with no factorization of m, and reported at m below 2^30
    for m in (4, 6, 9, 15, 7, 35, 1000):
        for n in (1, 2, 3):
            f = table(m, n, [0] * (1 << n))
            assert gbf._first_nonflat(f)[1] == 2 and not is_gbf(f)
            assert first_flat_violation(f) == \
                (0, (4 ** n,) + (0,) * (euler_phi(m) - 1))
    for m in (2**63 + 1, 2**64):
        f = table(m, 1, [0, 0])
        assert gbf._first_nonflat(f)[1] == 2 and not is_gbf(f)
        with pytest.raises(ValueError, match=r"not flat at y=0; .* 2\^30"):
            first_flat_violation(f)


def test_content_modulus_cost_does_not_grow_with_m():
    # flat witnesses at moduli far beyond any walsh_matrix at modulus m
    huge = 2**64 + 2
    witness = construct_even_even(huge, 4)
    assert set(witness.values) == {0, huge // 2}
    assert is_gbf(witness)
    assert is_gbf(lift_modulus(construct_boolean_bent(6), 10**15))


def test_is_gbf_builds_no_report_at_m():
    # a report at m = 2*10^15 would need a row of length m
    assert not is_gbf(lift_modulus(table(2, 2, [0, 0, 0, 0]), 10**15))
    assert not is_gbf(lift_modulus(table(3, 1, [0, 1]), 10**15))
    assert is_gbf(lift_modulus(table(2, 2, [0, 0, 0, 1]), 10**15))


# -- the failing row against a brute-force referee ------------------------------


def _referee_violation(f, spectrum):
    """What first_flat_violation must return, from ring elements W(y) in
    Z[zeta_m]: the first y with |W(y)|^2 != 2^n and its canonical
    coefficients, or None."""
    phi = euler_phi(f.m)
    for y, w in enumerate(spectrum):
        square = w.abs_square()
        if square != 1 << f.n:
            assert not any(square.coeffs[phi:])
            return y, square.coeffs[:phi]
    return None


def _flat_at(c, n, rng):
    """A flat table of type {c, n}, or None when no construction covers it."""
    if c % 2 == 0 and n % 2 == 0:
        return ref.seeded_even_even(c, n, rng.randrange(999))
    if c == 4:
        return construct_mod4_from_bent(construct_boolean_bent(n + 1))
    return None


def _swapped(f, rng):
    """f with two different entries exchanged: W(0) is unchanged, so a
    failure, if any, is at a later row."""
    values = list(f.values)
    i = rng.randrange(len(values))
    j = rng.choice([j for j, v in enumerate(values) if v != values[i]])
    values[i], values[j] = values[j], values[i]
    return FunctionTable(f.gbf_type, values)


def _swapped_at(f, y):
    """f with f(0) exchanged for the first different f(j) whose index j has
    the one set bit of y = 2^t as its lowest: W(r) changes exactly at the
    rows r with j.r odd, the least of which is y.  So a flat f becomes a
    table whose least failing row is y, which it fails by a few units, far
    from any wrapping."""
    values = f.array.copy()
    j = next(j for j in range(y, len(values), 2 * y) if values[j] != values[0])
    values[[0, j]] = values[[j, 0]]
    return FunctionTable(f.gbf_type, values)


def _content_tables(rng, c, n):
    """Seeded tables of content modulus c: random, flat and swapped flat,
    lifted by l = 2, 3, 5, 1, 2 at n = 1..5, so that m = c * l."""
    random_c = list(_random_table(rng, c, n).values)
    random_c[1] = 1                         # content 1 at modulus c
    out = [table(c, n, random_c)]
    flat = _flat_at(c, n, rng)
    if flat is not None:
        out += [flat, _swapped(flat, rng)]
    return [lift_modulus(f, (1, 2, 3, 5)[n % 4]) for f in out]


@pytest.mark.parametrize("c", range(2, 13))
def test_failing_row_matches_referee_at_each_content_modulus(c):
    rng = random.Random(100 + c)
    verdicts = set()
    for n in range(1, 6):
        for f in _content_tables(rng, c, n):
            want = _referee_violation(f, ref.walsh_by_definition(f))
            assert first_flat_violation(f) == want, (f.gbf_type, c)
            assert is_gbf(f) == (want is None)
            verdicts.add(want is None)
    assert verdicts == ({False, True} if c % 2 == 0 else {False})


def _flat_rows_by_walsh_matrix(f, c):
    """(walsh_matrix of the quotient table f/l at c, the (2^n,) mask of its
    rows with |W(y)|^2 = 2^n) for a table whose values are multiples of
    l = m/c, c = 2 or 4: since zeta_m^(l u) = zeta_c^u, every W(y) is the
    same, and is row[0] - row[1] at c = 2, with coordinates row[0] - row[2]
    and row[1] - row[3] at c = 4."""
    mat = walsh_matrix(FunctionTable(GbfType(c, f.n), f.array // (f.m // c)))
    if c == 2:
        norm = (mat[:, 0] - mat[:, 1]) ** 2
    else:
        norm = (mat[:, 0] - mat[:, 2]) ** 2 + (mat[:, 1] - mat[:, 3]) ** 2
    return mat, norm == 1 << f.n


def _first_violation_by_walsh_matrix(f, c):
    """The same referee for a table whose values are multiples of l = m/c,
    c = 2 or 4, with W(y) read off the exact walsh_matrix rows at c
    (_flat_rows_by_walsh_matrix), column u spread into column l*u at m."""
    mat, flat = _flat_rows_by_walsh_matrix(f, c)
    bad = np.flatnonzero(~flat)
    if not len(bad):
        return None
    y = int(bad[0])
    rows = np.zeros((y + 1, f.m), np.int64)
    rows[:, ::f.m // c] = mat[:y + 1]
    return _referee_violation(f, [CycInt(f.m, row) for row in rows.tolist()])


@pytest.mark.parametrize("n", [15, 16])
def test_failing_row_matches_walsh_matrix_at_content_2_and_4(n):
    rng = random.Random(n)
    tables = [(_random_table(rng, 2, n), 2), (_random_table(rng, 4, n), 4)]
    for c in (2, 4):
        flat = _flat_at(c, n, rng)
        if flat is not None:
            tables += [(flat, c), (_swapped(flat, rng), c),
                       (lift_modulus(_swapped(flat, rng), 3), c)]
    if n % 2 == 0:
        tables.append((construct_boolean_bent(n), 2))
    later_rows = 0
    for f, c in tables:
        want = _first_violation_by_walsh_matrix(f, c)
        assert first_flat_violation(f) == want, f.gbf_type
        assert is_gbf(f) == (want is None)
        later_rows += want is not None and want[0] > 0
    assert later_rows


@pytest.mark.parametrize("rows,size", [
    (1, 1), (5, 5), (1 << 16, 1 << 16), ((1 << 16) + 1, (1 << 16) + 1),
    (1 << 17, 1 << 17), (1000, 3000 << 10), (4, 1 << 20), (3, 3 << 14),
    (1 << 18, 1 << 19), (12345, 12345 * 7)])
def test_blocks_cover_the_rows_once_in_order(rows, size):
    blocks = gbf._blocks(rows, size)
    starts = [b.start for b in blocks]
    assert starts[0] == 0 and blocks[-1].stop == rows
    assert [b.stop for b in blocks[:-1]] == starts[1:]
    width = size // rows
    for b in blocks:
        assert b.step is None and b.stop > b.start
        assert (b.stop - b.start) * width <= max(gbf._CHUNK, width)


@pytest.mark.parametrize("n", [17, 18])
def test_failing_row_matches_walsh_matrix_past_one_chunk(n):
    # tables of more than one chunk: the histogram, the gather (through a
    # lookup of v // l when m <= 2^n, by blocks of quotients when m > 2^n),
    # the norm and the signed report each take several chunks
    assert 1 << n > gbf._CHUNK
    rng = random.Random(n)
    tables = [(_random_table(rng, 4, n), 4)]
    for c in (2, 4):
        flat = _flat_at(c, n, rng)
        if flat is not None:
            tables += [(flat, c), (_swapped(flat, rng), c),
                       (lift_modulus(_swapped(flat, rng), 3), c)]
    later_rows = 0
    for f, c in tables:
        want = _first_violation_by_walsh_matrix(f, c)
        assert first_flat_violation(f) == want, f.gbf_type
        assert is_gbf(f) == (want is None)
        later_rows += want is not None and want[0] > 0
        # past m = 2^n, where the report at m would cost far more
        lifted = lift_modulus(f, (2**20 + 1) * 3 // (f.m // c))
        assert lifted.m > 1 << n
        assert gbf._first_nonflat(lifted)[:2] == (
            None if want is None else want[0], c)
    assert later_rows


@pytest.mark.parametrize("y", [0, 1, 0b1011, (1 << 20) - 1])
def test_signed_histogram_holds_no_table_sized_temporary(y):
    # no 2^n float64 sign vector and no intp copy of the table: each is
    # 8 MiB at n = 20, four times the bound
    n, m = 20, 12
    values = np.random.default_rng(y).integers(0, m, 1 << n)
    arr = FunctionTable(GbfType(m, n), values).array
    odd = np.bitwise_count(np.arange(1 << n) & y) & 1
    want = np.bincount(values, weights=1 - 2 * odd.astype(np.int64),
                       minlength=m)
    tracemalloc.start()
    try:
        got = gbf._histogram(arr, m, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert got.dtype == (np.int64 if y == 0 else np.float64)
    assert peak <= (8 << n) / 4


# -- row 0 from the value histogram ----------------------------------------------


def _kernel_calls(monkeypatch):
    """A list that grows by the (m, n) of each call of the batched kernel."""
    calls, kernel = [], gbf._flat_mask

    def counted(*args):
        calls.append(args[1:3])
        return kernel(*args)

    monkeypatch.setattr(gbf, "_flat_mask", counted)
    return calls


def _flat_of_content_1(c, n, rng):
    """A flat table of type {c, n} whose values share no factor with c:
    even n at even c, or odd n at c = 4."""
    if n % 2:
        return construct_mod4_from_bent(construct_boolean_bent(n + 1))
    size = 1 << n // 2
    g = [1] + [rng.randrange(c) for _ in range(size - 1)]
    return construct_even_even(c, n, g=g, sigma=rng.sample(range(size), size))


@pytest.mark.parametrize("m,n,l", [
    (2, 4, 1), (4, 3, 1), (6, 4, 1), (12, 4, 1), (100, 8, 1),
    (60, 6, 5), (100, 8, 25),           # content modulus below m
    (40, 4, 1), (100, 4, 1),            # m > 2^n: no histogram
    (60, 4, 5), (100, 4, 25),
    (6, 16, 1), (60, 16, 5),            # two split primes
])
def test_row_0_flat_but_later_row_not_matches_referee(monkeypatch, m, n, l):
    # a swap keeps the histogram, so W(0) stays flat and only the kernel
    # finds the failing row; it and its coefficients are the referee's.
    # Past m = 2^n the table goes to the kernel with no row-0 step.  At
    # n = 16 the kernel runs two exact tests, and the row is the least over
    # both
    rng = random.Random(f"{m}:{n}")
    c = m // l
    if n > 14:
        assert len(gbf._split_primes(c, n)) == 2
    flat = _flat_of_content_1(c, n, rng)
    calls = _kernel_calls(monkeypatch)
    later = 0
    for _ in range(4):
        f = lift_modulus(_swapped(flat, rng), l)
        assert f.gbf_type == GbfType(m, n)
        assert gbf._first_nonflat(f)[1:] == (c, None)   # no row-0 refusal
        # the exact rows of walsh_matrix, read only up to the failing one
        spectrum = (ref.walsh_by_definition(f) if n <= 4 else
                    (CycInt(m, row.tolist()) for row in walsh_matrix(f)))
        want = _referee_violation(f, spectrum)
        del calls[:]
        assert first_flat_violation(f) == want
        assert is_gbf(f) == (want is None)
        assert calls == [(c, n)] * 2
        later += want is not None
    assert later


def test_row_0_flat_but_later_row_not_at_huge_modulus(monkeypatch):
    # object arrays at m > 2^62 taken at content modulus 4 and 2: the
    # failing row is the referee's at the content modulus, where W(y) is
    # the same, and its report at m is refused by name
    rng = random.Random(5)
    calls = _kernel_calls(monkeypatch)
    later = 0
    for c, base in ((4, construct_mod4_from_bent(construct_boolean_bent(6))),
                    (2, construct_boolean_bent(4))):
        for _ in range(4):
            g = _swapped(base, rng)
            want = _referee_violation(g, ref.walsh_by_definition(g))
            f = lift_modulus(g, 2**62 + 1)
            assert f.array.dtype == object and gbf._first_nonflat(f)[1] == c
            del calls[:]
            assert is_gbf(f) == (want is None) and calls == [(c, g.n)]
            if want is not None:
                later += 1
                with pytest.raises(ValueError, match=rf"not flat at y={want[0]};"):
                    first_flat_violation(f)
    assert later


def test_row_0_failure_runs_no_kernel(monkeypatch):
    # a random table, and the all-zero table, still taken at modulus 2,
    # against the referee: at m <= 2^n the histogram refutes row 0 with no
    # kernel call, and its counts are the report's row; at m > 2^n, m > 2^62
    # too, the kernel finds row 0.  Either way the table is counted once
    rng = random.Random(6)
    calls = _kernel_calls(monkeypatch)
    counts, bincount = [], np.bincount

    def counted_bincount(*args, **kwargs):
        counts.append(args[0].size)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", counted_bincount)
    for m, n in ((2, 3), (4, 3), (6, 3), (12, 4), (100, 7), (12, 2), (100, 3)):
        zero = table(m, n, [0] * (1 << n))
        assert gbf._first_nonflat(zero)[1] == 2
        for f in (zero, _random_table(rng, m, n)):
            spectrum = ref.walsh_by_definition(f) if n <= 4 else walsh(f)
            want = _referee_violation(f, spectrum)
            y, c, hist = gbf._first_nonflat(f)
            assert y == 0 and (hist is None) == (m > 1 << n)
            del calls[:], counts[:]
            assert want[0] == 0 and first_flat_violation(f) == want
            assert counts == [1 << n]
            assert not is_gbf(f)
            assert calls == ([] if m <= 1 << n else [(c, n)] * 2)
    zero = table(2**64, 3, [0] * 8)
    assert gbf._first_nonflat(zero)[1] == 2
    del calls[:]
    assert not is_gbf(zero) and calls == [(2, 3)]


def test_report_is_the_abs_square_of_its_row():
    # the report's |W(y)|^2, the row's autocorrelation over its support,
    # against CycInt.abs_square of the same row up to m = 2000: seeded
    # random tables, refuted at row 0 from the histogram, with their signed
    # rows y > 0 as well, and seeded flat even-even tables swapped, whose
    # first failing row y > 0 is reported from a signed row
    rng = np.random.default_rng(15)
    for m, n in ((3, 4), (12, 6), (97, 7), (360, 9), (1000, 10), (2000, 11)):
        f = FunctionTable(GbfType(m, n), rng.integers(m, size=1 << n))
        y, got = first_flat_violation(f)
        row = gbf._histogram(f.array, m, y).tolist()
        assert y == 0 and got == \
            CycInt(m, row).abs_square().coeffs[:euler_phi(m)]
        for y in map(int, rng.integers(1, 1 << n, size=3)):
            row = gbf._histogram(f.array, m, y).astype(np.int64)
            got = CycInt(m, gbf._autocorrelation(row).tolist()).canonical()
            assert got.coeffs == CycInt(m, row.tolist()).abs_square().coeffs
    for m, n in ((6, 8), (100, 10), (2000, 10)):
        f = _swapped(ref.seeded_even_even(m, n, m), random.Random(m))
        y, got = first_flat_violation(f)
        row = gbf._histogram(f.array, m, y)
        assert y > 0 and (row < 0).any()
        assert got == CycInt(m, row.astype(np.int64).tolist()) \
            .abs_square().coeffs[:euler_phi(m)]


@pytest.mark.parametrize("m,size", [(8000, 5000), (1 << 20, 3000)])
def test_report_product_holds_a_block_of_pairs(m, size):
    # 25 and 9 million pairs of the support, taken a block at a time: beside
    # the length-m sums, at most a block of differences and one of products
    rng = np.random.default_rng(size)
    row = np.zeros(m, np.int64)
    row[rng.choice(m, size, replace=False)] = rng.integers(-9, 10, size)
    want = gbf._autocorrelation(row)
    tracemalloc.start()
    try:
        got = gbf._autocorrelation(row)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 2 * row.nbytes + 3 * gbf._CHUNK * 8


@pytest.mark.parametrize("l", [1, 3])
def test_row0_flat_matches_walsh_matrix(l):
    # seeded tables at m = 2..40 and n = 1..4, of random counts in random
    # order, uniform and flat, the values lifted by l: int16 coordinates
    # at m = 2 and 4, split primes otherwise.  The mask is |W(0)|^2 = 2^n
    # read off walsh_matrix, both for the (2^n, batch) array of tables, as
    # the census passes them, and for each table's distinct values weighted
    # by their counts, as _first_nonflat passes them
    rng, seen = np.random.default_rng(l), set()
    for m in range(2, 41):
        for n in (1, 2, 3, 4):
            tables = [rng.permutation(np.repeat(np.arange(m), rng.multinomial(
                1 << n, rng.dirichlet(np.full(m, 0.25))))) for _ in range(4)]
            tables += list(rng.integers(m, size=(2, 1 << n)))
            flat = _flat_at(m, n, random.Random(m * n))
            if flat is not None:
                tables.append(flat.array)
            tables = np.array(tables, dtype=np.int64).T
            got = gbf._low_rows_flat(l * tables, m, n, l)[0]
            assert got.shape == (tables.shape[1],)
            for column, ok in zip(tables.T, got):
                f = FunctionTable(GbfType(m, n), column)
                w0 = CycInt(m, walsh_matrix(f)[0].tolist())
                assert ok == (w0.abs_square() == 1 << n), (m, n, column)
                hist = np.bincount(column, minlength=m)
                values = np.flatnonzero(hist)
                row0 = gbf._low_rows_flat(l * values[:, None], m, n, l,
                                          counts=hist[values])
                assert row0.tolist() == [[ok]]
                seen.add((m in (2, 4), bool(ok)))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


# -- the batched kernel ---------------------------------------------------------


def _kernel_batch(rng, m, n):
    """Seeded tables of type {m, n}: three random ones, and a flat and a
    swapped flat one when a construction at m, or at 4 or 2 lifted to m,
    covers the type."""
    tables = [_random_table(rng, m, n) for _ in range(3)]
    for c in (m, 4, 2):
        flat = _flat_at(c, n, rng) if m % c == 0 else None
        if flat is not None:
            flat = lift_modulus(flat, m // c)
            return tables + [flat, _swapped(flat, rng)]
    return tables


def _spectra(tables, m, n):
    """(test, spectrum) for each test of _terms on a (2^n, batch) array of
    tables: the FWHT of its terms along their rows, laid out as the terms
    and as _flat takes it, (unit column, y, table, coordinate)."""
    for test, terms in gbf._terms(tables, m, n):
        gbf._fwht_inplace(terms.reshape(len(terms), 1 << n, -1))
        yield test, terms


@pytest.mark.parametrize("m", [2, 3, 4, 6, 12, 60])
def test_batched_kernel_matches_per_table_checks(m):
    rng = random.Random(200 + m)
    verdicts = set()
    for n in range(1, 6):
        batch = _kernel_batch(rng, m, n)
        tables = np.stack([f.array for f in batch], axis=1)
        # exact per row at every test: the fold onto all 2^n rows
        ok = gbf._low_rows_flat(tables, m, n, k=n)
        assert ok.shape == (1 << n, len(batch))
        assert np.array_equal(gbf._flat_mask(tables, m, n), ok)
        for f, rows in zip(batch, ok.T):
            bad = first_flat_violation(f)
            assert bool(rows.all()) == is_gbf(f) == (bad is None)
            if bad is not None:
                assert int(np.argmin(rows)) == bad[0]
            verdicts.add(bad is None)
    assert verdicts == ({False, True} if m % 2 == 0 else {False})


@pytest.mark.parametrize("c", [3, 5, 6, 7, 9, 10, 12, 15])
def test_slab_kernel_matches_walsh_matrix_per_column(c):
    # batches of widths 1, 2 and 3, and one whose terms pass a block, so
    # that the gather takes each unit column alone, of seeded tables at
    # content modulus c: random ones, and flat and swapped flat ones where a
    # construction covers {c, n}, each also lifted by 3.  The rows of
    # _flat_mask, and those of _low_rows_flat at k = 0, 1 and n, are the
    # exact flat rows of each column's walsh_matrix, by conjugates: up to
    # n = 14 the first split prime alone is exact per row
    rng = random.Random(4300 + c)
    phi = euler_phi(c)
    flat_rows = 0
    for n in (1, 2, 3, 6):
        pool = [_random_table(rng, c, n) for _ in range(3)]
        flat = _flat_at(c, n, rng)
        if flat is not None:
            pool += [flat, _swapped(flat, rng)]
        want = [_flat_by_conjugates(f, c)[1] for f in pool]
        wide = gbf._CHUNK // ((1 << n) * phi) + 1
        assert len(gbf._blocks(1 << n, (1 << n) * wide * phi)) > 1
        for width in (1, 2, 3, wide):
            pick = [rng.randrange(len(pool)) for _ in range(width)]
            tables = np.stack([pool[i].array for i in pick], axis=1)
            rows = np.stack([want[i] for i in pick], axis=1)
            flat_rows += int(rows.sum())
            for l in (1, 3):
                lifted = l * tables         # in the tables' own dtype
                assert np.array_equal(gbf._flat_mask(lifted, c, n, l), rows)
                for k in sorted({0, 1, n}):
                    got = gbf._low_rows_flat(lifted, c, n, l, k)
                    assert np.array_equal(got, rows[:1 << k]), (n, width, k)
    assert flat_rows or c % 2


@pytest.mark.parametrize("chunk", [1 << 16, 64])
@pytest.mark.parametrize("l", [1, 3])
@pytest.mark.parametrize("m", [2, 3, 4, 6, 12, 60])
def test_terms_by_value_match_the_exponents(m, l, chunk, monkeypatch):
    # a batch of more than m*l entries takes each entry's row of the terms
    # of the m*l values, unless those rows pass a block (m = 60, and m = 12
    # at l = 3, at a block of 64); a single entry, fewer, forms the
    # exponents k f(x) mod m.  Both give lookup[k (v // l) mod m]
    monkeypatch.setattr(gbf, "_CHUNK", chunk)
    rng = np.random.default_rng(m * l)
    for n in (1, 2, 3):
        cols, roots = gbf._root_powers(m, n)
        batch = l * rng.integers(m, size=(1 << n, 64))
        for tables in (batch, batch[:1, :1]):
            got = list(gbf._terms(tables, m, n, l))
            assert [test for test, _ in got] == [q for q, _ in roots]
            for (_, terms), (_, lookup) in zip(got, roots):
                # (unit column, x, table, coordinate), the unit columns
                # interleaved in each entry for the single short table
                want = lookup.reshape(m, -1)[cols[:, None, None]
                                             * (tables // l) % m]
                if tables.shape[1] == 1:
                    want = np.moveaxis(want, 0, 2).reshape(1, *tables.shape,
                                                           -1)
                assert terms.flags.c_contiguous
                assert np.array_equal(terms, want)


def test_terms_take_a_slab_per_unit_column_but_for_a_short_table():
    # at m = 6, two unit columns: a batch of tables, or one table of 2^14
    # rows or more, has a slab for each; one shorter table has one slab,
    # whose entries hold both columns
    rng = np.random.default_rng(6)
    for n, batch, shape in ((3, 2, (2, 8, 2, 1)), (13, 1, (1, 1 << 13, 1, 2)),
                            (14, 1, (2, 1 << 14, 1, 1))):
        _, terms = next(gbf._terms(rng.integers(6, size=(1 << n, batch)),
                                   6, n))
        assert terms.shape == shape and terms.flags.c_contiguous


@pytest.mark.parametrize("m,l,n", [(4, 1 << 12, 20), (12, 1 << 10, 16),
                                   (4, 1 << 17, 20), (1000, 1, 10)])
def test_terms_hold_at_most_two_blocks_beside_them(m, l, n):
    # the by-value lookup is built only when it fills at most a block, as
    # at the first two; at the last two (2^20 and 400,000 entries, a half
    # and all of the terms' size) each block forms its exponents, and at
    # most a block of quotients and one of exponents sit beside the terms
    rng = np.random.default_rng(m)
    tables = (l * rng.integers(m, size=(1 << n, 1))).astype(np.uint32)
    next(gbf._terms(tables[:1], m, n, l))       # builds _root_powers(m, n)
    tracemalloc.start()
    try:
        _, terms = next(gbf._terms(tables, m, n, l))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= terms.nbytes + 2 * gbf._CHUNK * 8


@pytest.mark.parametrize("m", [2, 3, 4, 6, 12, 60])
def test_spectra_add_over_disjoint_supports(m):
    # the identity the oracle rests on: a table made of two blocks of
    # disjoint support has the sum of their spectra minus the zero table's
    rng = random.Random(300 + m)
    for n in range(1, 6):
        rows = 1 << n
        values = np.array([rng.randrange(m) for _ in range(rows)])
        support = np.array([rng.random() < 0.5 for _ in range(rows)])
        a, b = np.where(support, values, 0), np.where(support, 0, values)
        zero = np.zeros(rows, dtype=np.int64)
        for test, spec in _spectra(np.stack([a, b, zero, values], 1), m, n):
            sa, sb, s0, whole = np.moveaxis(spec, 2, 0)
            assert np.array_equal(sa + sb - s0, whole), (n, test)


@pytest.mark.parametrize("n", [14, 16])
def test_single_table_check_peaks_below_three_matrices(n):
    # one split prime at n = 14, two at 16: the terms and _flat's temporary
    # are the two matrices a check needs; no matrix of exponents sits beside
    # them, and no test's terms last into the next test's gather
    f = ref.seeded_even_even(12, n, 3)
    assert is_gbf(f)                # builds the modulus-12 tables
    tracemalloc.start()
    try:
        assert is_gbf(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix = (1 << n) * euler_phi(12) * 8        # one (2^n, phi) int64
    assert peak < 2.5 * matrix


def test_split_prime_check_of_a_lifted_table_peaks_as_unlifted():
    # the flat content-6 {6,20} table, the direct sum of ten {6,2} tables
    # (4, 1, 0, 0), and the same table lifted by 2 to {12,20}, tested at
    # content modulus 6: the exponents are gathered a block at a time, and
    # the lifted table's quotients are folded into the lookup, so no
    # exponent or quotient table (8 MiB at n = 20) sits beside the terms;
    # only the folded lookup of 12 entries is added
    f = table(6, 2, [4, 1, 0, 0])
    for _ in range(9):
        f = direct_sum(f, table(6, 2, [4, 1, 0, 0]))
    peaks = []
    for g in (f, lift_modulus(f, 2)):
        assert gbf._first_nonflat(g)[1] == 6 and is_gbf(g)
        tracemalloc.start()
        try:
            assert is_gbf(g)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 4096


@pytest.mark.parametrize("build", [
    lambda: rule_exists(GbfType(4, 20))[0],
    lambda: rule_exists(GbfType(6, 20))[0],
    lambda: rule_exists(GbfType(12, 20))[0],
    lambda: ref.seeded_even_even(4, 20, 5)],     # content modulus 4
    ids=["{4,20}", "{6,20}", "{12,20}", "seeded {4,20}"])
def test_single_table_check_peaks_at_the_terms_and_fwht_scratch(build):
    # the histogram, the gather and the norm go a chunk at a time, so at
    # n = 20 nothing of the table's size is held beside the int32 terms
    # and the one scratch array of their FWHT
    f = build()
    c = gbf._first_nonflat(f)[1]
    assert is_gbf(f)
    tracemalloc.start()
    try:
        assert is_gbf(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    terms = (1 << f.n) * len(gbf._UNIT_COORDS[c][0]) * 4
    assert peak <= 1.1 * 2 * terms


@pytest.mark.parametrize("build", [
    lambda: rule_exists(GbfType(4, 20))[0],
    lambda: rule_exists(GbfType(6, 20))[0],
    lambda: rule_exists(GbfType(12, 20))[0],
    lambda: ref.seeded_even_even(4, 20, 5)],     # content modulus 4
    ids=["{4,20}", "{6,20}", "{12,20}", "seeded {4,20}"])
def test_single_table_check_peaks_at_the_int16_terms_and_scratch(build):
    # at content modulus 2 and 4 the terms and the FWHT scratch are int16,
    # half the int32 bound above
    f = build()
    c = gbf._first_nonflat(f)[1]
    assert is_gbf(f)
    tracemalloc.start()
    try:
        assert is_gbf(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    terms = (1 << f.n) * len(gbf._UNIT_COORDS[c][0]) * 2
    assert peak <= 1.1 * 2 * terms


# -- int16 coordinates at content modulus 2 and 4 -----------------------------


@pytest.mark.parametrize("build,c,digest", [
    (lambda: ref.wrapped_row(2), 2,
     "7816a38b131d39f67de79d117bd411f3327be6aa0122b7ecadf529256503f533"),
    (lambda: ref.wrapped_row(4), 4,
     "12e1a369e199b63eaa587c93c275c30db8b680cef04c14bf30a1dd1e06798819"),
    # the wrapped coordinate is the imaginary one: W(y) times zeta_4
    (lambda: FunctionTable(GbfType(4, 16), 2 * ref.wrapped_row(2).array + 1),
     4, "12e1a369e199b63eaa587c93c275c30db8b680cef04c14bf30a1dd1e06798819"),
    (lambda: lift_modulus(ref.wrapped_row(2), 6), 2,
     "c24b842af3aa0220f021d33230c396ce066926719abbac9f8de9357be398380c"),
], ids=["{2,16}", "{4,16}", "{4,16} imaginary", "{12,16} lifted"])
def test_row_that_wraps_into_flat_is_reported(monkeypatch, tmp_path, capsys,
                                              build, c, digest):
    # W(1) = -65280 is 256 mod 2^16, so row 1 passes in int16: is_gbf is
    # still false, by Parseval, and first_flat_violation and gbf verify
    # name y = 1, which the fold decides exactly, with one kernel call and
    # the pinned report byte for byte
    f = build()
    want = _first_violation_by_walsh_matrix(f, c)
    y, content, _ = gbf._first_nonflat(f)
    assert want[0] == 1 and y > 1 and content == c     # int16 alone
    calls = _kernel_calls(monkeypatch)
    assert not is_gbf(f) and calls == [(c, 16)]
    del calls[:]
    assert first_flat_violation(f) == want
    assert calls == [(c, 16)]
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"m": f.m, "n": f.n, "values": list(f.values)}))
    assert cli.main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("not flat at y=1: ")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", range(14, 19))
def test_int16_kernel_matches_walsh_matrix_at_content_2_and_4(n):
    # rule witnesses at m = 2 and 4 and lifted to 6 and 12, each also with
    # two entries swapped, which keeps row 0 flat, and random tables,
    # against the exact int64 walsh_matrix: the verdict, the least failing
    # row and its report.  The rules' witnesses at even n have content
    # modulus 2, so a product construction with random g stands in at 4
    rng = random.Random(1400 + n)
    rules = [found[0] for found in map(rule_exists, (
        GbfType(m, n) for m in (2, 4, 6, 12))) if found is not None]
    flat = list(rules)
    if n % 2 == 0:
        flat.append(ref.seeded_even_even(4, n, n))
    tables = [_random_table(rng, c, n) for c in (2, 4)] + flat
    tables += [_swapped(f, rng) for f in flat]
    # from n = 16 on, the witnesses at m = 4 and 12 swapped to fail first,
    # in int16 too, at row 2, 4 or 8: the fold decides the rows before it
    swaps = [(_swapped_at(f, y), y) for f in rules if f.m in (4, 12)
             for y in (2, 4, 8)] if n >= 16 else []
    tables += [f for f, _ in swaps]
    seen = set()
    for f in tables:
        c = gbf._first_nonflat(f)[1]
        want = _first_violation_by_walsh_matrix(f, c)
        assert first_flat_violation(f) == want, f.gbf_type
        assert is_gbf(f) == (want is None), f.gbf_type
        seen.add((c, None if want is None else want[0] > 0))
    for f, y in swaps:
        assert gbf._first_nonflat(f)[0] == first_flat_violation(f)[0] == y
    assert seen == {(2, False), (4, False), (4, None), (4, True)} | (
        {(2, None), (2, True)} if n % 2 == 0 else set())


def _fold_calls(monkeypatch):
    """A list that grows by the k of each call of _low_rows_flat without
    counts, a fold of a whole table: not the row-0 test from a histogram."""
    calls, fold = [], gbf._low_rows_flat

    def counted(tables, m, n, l=1, k=0, counts=None):
        if counts is None:
            calls.append(k)
        return fold(tables, m, n, l, k, counts)

    monkeypatch.setattr(gbf, "_low_rows_flat", counted)
    return calls


def test_int32_pass_runs_only_when_an_earlier_row_passed_in_int16_alone(
        monkeypatch):
    # a {4,16} witness with f(0) swapped for an f(j), j odd: row 1 fails.
    # Row 0 comes from the histogram, exactly, so row 1 is the least
    # failing row with no fold.  Lifted past m = 2^16, row 0 too is tested
    # in int16, and the fold of every x onto row 0 confirms row 1
    values = ref.seeded_even_even(4, 16, 7).array.copy()
    j = next(j for j in range(1, 1 << 16, 2) if values[j] != values[0])
    values[[0, j]] = values[[j, 0]]
    f = FunctionTable(GbfType(4, 16), values)
    want = _first_violation_by_walsh_matrix(f, 4)
    assert want[0] == 1
    folds = _fold_calls(monkeypatch)
    assert first_flat_violation(f) == want and folds == []
    lifted = lift_modulus(f, 3 << 15)
    assert gbf._first_nonflat(lifted)[:2] == (1, 4)
    assert first_flat_violation(lifted)[0] == 1 and folds == [0]
    # 65,408 ones and 128 zeros at {2,16}: W(0) = -65280, which wraps to
    # 256, and W(1) = 0.  The histogram refutes row 0; past m = 2^16 row 0
    # passes in int16, row 1 fails, and the fold finds row 0
    ones = np.ones(1 << 16, np.uint8)
    ones[:128] = 0
    g = FunctionTable(GbfType(2, 16), ones)
    assert _first_violation_by_walsh_matrix(g, 2)[0] == 0
    del folds[:]
    assert gbf._first_nonflat(g)[:2] == (0, 2)
    assert first_flat_violation(g)[0] == 0 and folds == []
    lifted = lift_modulus(g, 3 << 16)
    assert gbf._first_nonflat(lifted)[:2] == (1, 2) and not is_gbf(lifted)
    assert first_flat_violation(lifted)[0] == 0 and folds == [0]


@pytest.mark.parametrize("c", [2, 4])
def test_low_rows_flat_matches_walsh_matrix(c):
    # the fold onto the rows below 2^k, k = 0, 1 and n, on seeded random
    # {c,16} tables, the table whose row 1 wraps into flat and a swapped
    # flat table, each also lifted past m = 2^16, where every W(y) is the
    # same: its mask is the flat rows of walsh_matrix, exactly
    n = 16
    rng = random.Random(1600 + c)
    tables = [_random_table(rng, c, n) for _ in range(2)]
    tables += [ref.wrapped_row(c), _swapped(_flat_at(c, n, rng), rng)]
    flat_rows = 0
    for f in tables:
        want = _flat_rows_by_walsh_matrix(f, c)[1]
        flat_rows += int(want.sum())
        for g in (f, lift_modulus(f, 3 << 15)):
            for k in (0, 1, n):
                got = gbf._low_rows_flat(g.array[:, None], c, n, g.m // c,
                                         k)[:, 0]
                assert got.shape == (1 << k,)
                assert np.array_equal(got, want[:1 << k]), (g.gbf_type, k)
    assert flat_rows


@pytest.mark.parametrize("n,m,y", [(19, 4, 2), (19, 12, 4), (20, 4, 8),
                                   (20, 12, 2)])
def test_least_row_below_the_int16_failure_matches_walsh_matrix(
        monkeypatch, n, m, y):
    # a rule witness swapped to fail first at row y, in int16 too: one fold
    # onto the rows below 2^k = y decides the rows before it, and the row
    # and its report are the referee's
    f = _swapped_at(rule_exists(GbfType(m, n))[0], y)
    y16, c, _ = gbf._first_nonflat(f)
    assert y16 == y
    folds = _fold_calls(monkeypatch)
    assert first_flat_violation(f) == _first_violation_by_walsh_matrix(f, c)
    assert folds == [(y - 1).bit_length()]


def test_least_row_search_peaks_at_the_flatness_check():
    # a {4,20} witness swapped to fail first at row 2: the rows before it
    # are decided from a fold onto 2 rows, not from a second transform of
    # the whole table, so the search peaks where is_gbf does (an int32
    # transform of the whole table took twice that)
    f = _swapped_at(rule_exists(GbfType(4, 20))[0], 2)
    assert first_flat_violation(f)[0] == 2 and not is_gbf(f)
    peaks = []
    for check in (is_gbf, first_flat_violation):
        tracemalloc.start()
        try:
            check(f)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def _six_two_sum(pieces):
    """The flat content-6 {6, 2 pieces} table, the direct sum of that many
    {6,2} tables (4, 1, 0, 0)."""
    f = table(6, 2, [4, 1, 0, 0])
    for _ in range(pieces - 1):
        f = direct_sum(f, table(6, 2, [4, 1, 0, 0]))
    return f


def test_report_fold_holds_one_test_at_a_time():
    # the flat content-6 {6,20} table swapped to fail first at row 2^19,
    # whose report folds the table at k = 19, at each of two split primes:
    # the terms, their sums onto the rows below 2^19 and the FWHT's scratch
    # (16, 8 and 4 MiB), with no copy of the sums and nothing of one test
    # kept through the next (41 MiB when both were)
    f = _swapped_at(_six_two_sum(10), 1 << 19)
    assert len(gbf._split_primes(6, 20)) == 2
    assert first_flat_violation(f)[0] == 1 << 19
    tracemalloc.start()
    try:
        assert first_flat_violation(f)[0] == 1 << 19
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    terms = 2 * 8 << 20                 # two unit columns of 2^20 int64
    assert peak < 2 * terms


def _flat_by_conjugates(f, c):
    """(walsh_matrix of the quotient table f/l at c, the (2^n,) mask of its
    rows with |W(y)|^2 = 2^n) for a table whose values are multiples of
    l = m/c: every conjugate |W_k(y)|^2 - 2^n, k a unit of Z_c, from the
    exact rows as complex floats, within 0.5 of 0.  That is exact, since a
    nonzero algebraic integer has a nonzero integer norm, so some conjugate
    is at least 1 in absolute value."""
    mat = walsh_matrix(FunctionTable(GbfType(c, f.n), f.array // (f.m // c)))
    units = [k for k in range(1, c) if np.gcd(k, c) == 1]
    roots = np.exp(2j * np.pi * np.outer(np.arange(c), units) / c)
    return mat, (abs(abs(mat @ roots) ** 2 - (1 << f.n)) < 0.5).all(axis=1)


def _split_prime_tables(c, n):
    """Seeded {c, n} tables for the split-prime route past n = 14: a random
    one and, where a construction covers the type, a flat one (at c = 6 and
    even n the direct sum of {6,2} tables (4, 1, 0, 0); at c = 10 and 12 and
    even n even-even with a unit g; at c = 12 and odd n that sum lifted by 2
    beside the {4,1} table (0, 1) lifted by 3), also swapped to fail first
    at row 2, 8 and 2^(n-1)."""
    rng = random.Random(1500 + 20 * c + n)
    flat = []
    if c == 6 and n % 2 == 0:
        flat.append(_six_two_sum(n // 2))
    elif c in (10, 12) and n % 2 == 0:
        flat.append(_flat_of_content_1(c, n, rng))
    elif c == 12:
        flat.append(direct_sum(lift_modulus(_six_two_sum(n // 2), 2),
                               table(12, 1, [0, 3])))
    swapped = [_swapped_at(f, y) for f in flat for y in (2, 8, 1 << n - 1)]
    return [_random_table(rng, c, n)] + flat + swapped


@pytest.mark.parametrize("n", range(15, 19))
def test_split_prime_route_matches_conjugate_referee(n):
    # content modulus 3, 6, 10 and 12, each table also lifted by 5: the
    # verdict, the least failing row and its report are the referee's, the
    # report's coefficients those of CycInt(row).abs_square() at m.  The
    # first split prime alone decides each verdict; the fold at both
    # decides the rows before a failure
    seen = set()
    for c in (3, 6, 10, 12):
        for f in _split_prime_tables(c, n):
            mat, flat = _flat_by_conjugates(f, c)
            y = int(np.argmin(flat))
            for g in (f, lift_modulus(f, 5)):
                want = None
                if not flat.all():
                    row = np.zeros(g.m, np.int64)
                    row[::g.m // c] = mat[y]
                    want = y, _referee_violation(
                        g, [CycInt(g.m, row.tolist())])[1]
                assert np.gcd(g.m, np.gcd.reduce(g.array)) == g.m // c
                assert first_flat_violation(g) == want, (g.gbf_type, y)
                assert is_gbf(g) == (want is None)
            seen.add((c, None if flat.all() else y))
    assert {y for _, y in seen} >= {None, 0, 2, 8, 1 << n - 1}
    assert (12, None) in seen


def test_is_gbf_runs_one_transform_at_the_first_split_prime(monkeypatch):
    # the flat content-6 {6,16} table: two split primes decide each row
    # together, but the first, above 2^16, decides the whole table alone,
    # so one FWHT of its 2^16 rows runs, and row 0 takes none
    f = _six_two_sum(8)
    assert len(gbf._split_primes(6, 16)) == 2
    assert gbf._split_primes(6, 16)[0][0] > 1 << 16
    rows, fwht = [], gbf._fwht_inplace

    def recorded(mat):
        rows.append(mat.shape[-2])
        return fwht(mat)

    monkeypatch.setattr(gbf, "_fwht_inplace", recorded)
    assert is_gbf(f) and rows == [1 << 16]


def test_split_primes_refuse_a_modulus_with_none_above_2_to_the_n(
        monkeypatch):
    # with every prime above 2^10 hidden (and the search cut at 2^12, so
    # that it is short), the primes q = 1 (mod 6) below 2^10, 1021, 1009 and
    # 997, still have a product above 4^10, enough to decide each row, but
    # none of them decides a whole table alone: _split_primes refuses, with
    # the reason, and so does is_gbf, before any test.  Shown the primes
    # again, the verdict is the referee's
    f = _six_two_sum(5)
    real = gbf.is_probable_prime
    monkeypatch.setattr(gbf, "is_probable_prime",
                        lambda q: q <= 1 << 10 and real(q))
    monkeypatch.setattr(gbf, "_Q_LIMIT", 1 << 12)
    assert 1021 * 1009 * 997 > 4**10
    gbf._root_powers.cache_clear()
    try:
        with pytest.raises(ValueError, match=r"none above 2\^10: too few"):
            gbf._split_primes(6, 10)
        for g in (f, _swapped_at(f, 2)):
            with pytest.raises(ValueError, match=r"none above 2\^10"):
                is_gbf(g)
    finally:
        monkeypatch.undo()
        gbf._root_powers.cache_clear()
    assert is_gbf(f) and _flat_by_conjugates(f, 6)[1].all()
    assert first_flat_violation(_swapped_at(f, 2))[0] == 2


# -- the FWHT kernel -----------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
@pytest.mark.parametrize("inner", [1, 2, 3, 4, 6, 8, 4095, 4096, 5000])
def test_fwht_matches_the_referee_loop(inner, dtype):
    # every k <= 20 up to 2^20 entries.  With one entry a row, k = 14, 15,
    # 16 and 17 take 7 rounds of 2 bits, 5 of 3, 4 of 4 and 3, 3, 3, 4, 4;
    # with 3 or 4 entries, whole rows move in the copies, not words; k <= 13
    # and rows of 4095 entries or more run in place.  The referee runs in
    # int64, so in int16, from k = 15 on, the result is its value mod 2^16
    rng = np.random.default_rng([inner, np.dtype(dtype).itemsize])
    for k in range(21):
        if inner << k > 1 << 20:
            break
        mat = rng.integers(-1, 2, size=(1 << k, inner), dtype=dtype)
        want = ref.fwht(mat.astype(np.int64)).astype(dtype)
        assert gbf._fwht_inplace(mat) is mat
        assert np.array_equal(mat, want), k


@pytest.mark.parametrize("shape,dtype", [((1 << 18, 1), np.int32),
                                         ((1 << 17, 2), np.int32),
                                         ((1 << 14, 4), np.int64),
                                         ((3, 1 << 16, 1), np.int64)])
def test_fwht_holds_at_most_one_scratch_array(shape, dtype):
    # the rounds copy through one scratch array of a slab's size, the
    # whole input when it is one slab
    mat = np.ones(shape, dtype)
    tracemalloc.start()
    try:
        gbf._fwht_inplace(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * mat.nbytes // np.prod(shape[:-2], dtype=int)


@pytest.mark.parametrize("slabs,inner", [(2, 1), (3, 1), (6, 1), (2, 5),
                                         (4, 8)])
def test_fwht_transforms_each_slab_on_its_own(slabs, inner):
    # a (slabs, 2^k, inner) array is the referee's transform of each slab,
    # through the butterflies over every slab at once (small k, or long
    # rows) and through the rounds of each slab (k >= 14 at one entry a row)
    rng = np.random.default_rng([slabs, inner])
    for k in (0, 1, 3, 9, 12, 14, 16):
        if slabs * inner << k > 1 << 20:
            break
        mat = rng.integers(-3, 4, size=(slabs, 1 << k, inner))
        want = [ref.fwht(slab.copy()) for slab in mat]
        assert gbf._fwht_inplace(mat) is mat
        assert np.array_equal(mat, want), k


# -- the split primes of the exact flatness check ------------------------------

# p near 2^29 whose one prime q = 1 (mod p) below 2^30 is 2p + 1; no
# q = 1 (mod 10^9) below 2^30 is prime
NEAR_2_29 = 536870219
SPLIT_MODULI = [2, 4, 7, 12, 60, 97, 210, 3162, NEAR_2_29, 10**9]


@pytest.mark.parametrize("n", [1, 15, 16, 26])
@pytest.mark.parametrize("m", SPLIT_MODULI)
def test_split_primes(m, n):
    sympy = pytest.importorskip("sympy")
    try:
        primes = gbf._split_primes(m, n)
    except ValueError as exc:
        assert m >= NEAR_2_29 and "too few" in str(exc)
        # the refusal holds only where every such prime together falls short
        product = 1
        for q in range(m + 1, 2**30, m):
            product *= q if sympy.isprime(q) else 1
        assert product <= 4 ** n
        return
    product = 1
    for q, omega in primes:
        assert sympy.isprime(q) and q % m == 1 and q < 2**30
        assert pow(omega, m, q) == 1
        assert all(pow(omega, m // p, q) != 1 for p in sympy.primefactors(m))
        product *= q
    assert product > 4 ** n
    assert len(primes) == (1 if n <= 14 else 2)
    assert m < NEAR_2_29 or n == 1


@pytest.mark.parametrize("m", [2, 3, 7, 12, 97, 210, 3162])
def test_root_powers_own_exactly_m_entries(m):
    gbf._root_powers.cache_clear()
    for n in (1, 16):
        cols, roots = gbf._root_powers(m, n)
        assert not cols.flags.writeable
        if m == 2:
            # no split prime: the int16 coordinates of +1 and -1
            (test, coords), = roots
            assert test is None and cols.tolist() == [1]
            assert coords.dtype == np.int16 and coords.tolist() == [[1], [-1]]
            assert not coords.flags.writeable
            continue
        assert len(roots) == len(gbf._split_primes(m, n))
        for (q, pw), (_, omega) in zip(roots, gbf._split_primes(m, n)):
            assert pw.base is None and pw.shape == (m,) and pw.nbytes == 8 * m
            assert not pw.flags.writeable
            assert pw.tolist() == [pow(omega, j, q) for j in range(m)]


def test_table_refuses_n_beyond_guard():
    # n is refused before 1 << n: nothing of size 2^27 is built, so no
    # walsh matrix or spectrum of such a table can be asked for
    for n in (27, 10**9):
        with pytest.raises(ValueError, match="resource guard"):
            FunctionTable(GbfType(2, n), [])


def test_split_primes_refuse_modulus_limit():
    for m in (2**30, 2**30 + 3, 2**64):
        with pytest.raises(ValueError, match="not below 2\\^30"):
            gbf._split_primes(m, 1)


# -- numpy constructions against the loops they replaced ------------------------


def _boolean_bent_loop(n):
    vals = []
    for i in range(1 << n):
        acc = 0
        for t in range(0, n, 2):
            acc ^= (i >> t) & (i >> (t + 1)) & 1
        vals.append(acc)
    return tuple(vals)


def _even_even_loop(m, n, g, sigma):
    t = n // 2
    size = 1 << t
    vals = []
    for i in range(1 << n):
        x = i & (size - 1)
        y = i >> t
        dot = (x & sigma[y]).bit_count() & 1
        vals.append((g[y] + m // 2 * dot) % m)
    return tuple(vals)


def _mod4_loop(b):
    cases = {(0, 0): 0, (0, 1): 1, (1, 1): 2, (1, 0): 3}
    half = 1 << (b.n - 1)
    return tuple(cases[(b.values[x], b.values[x + half])] for x in range(half))


def _direct_sum_loop(f, g):
    return tuple((f.values[i] + g.values[j]) % f.m
                 for j in range(1 << g.n) for i in range(1 << f.n))


def _lift_loop(f, l):
    return tuple(l * v for v in f.values)


def _all_python_ints(f):
    return all(type(v) is int for v in f.values)


def test_constructions_match_loops():
    rng = random.Random(41)
    for n in range(2, 11, 2):
        bent = construct_boolean_bent(n)
        assert bent.values == _boolean_bent_loop(n) and _all_python_ints(bent)
        assert construct_mod4_from_bent(bent).values == _mod4_loop(bent)
        size = 1 << (n // 2)
        for m in (2, 4, 6, 10, 12, 2**64 + 2):
            assert construct_even_even(m, n).values == \
                _even_even_loop(m, n, [0] * size, list(range(size)))
            g = [rng.randrange(m) for _ in range(size)]
            sigma = list(range(size))
            rng.shuffle(sigma)
            got = construct_even_even(m, n, g=g, sigma=sigma)
            assert got.values == _even_even_loop(m, n, g, sigma)
            assert _all_python_ints(got)
            folded = ref.seeded_even_even(2, n, rng.randrange(999))
            assert construct_mod4_from_bent(folded).values == _mod4_loop(folded)


def test_direct_sum_and_lift_match_loops():
    rng = random.Random(42)
    for _ in range(30):
        m = rng.choice((2, 3, 5, 12, 2**70 + 1))
        n1, n2 = rng.randrange(1, 6), rng.randrange(1, 6)
        f, g = _random_table(rng, m, n1), _random_table(rng, m, n2)
        total = direct_sum(f, g)
        assert total.gbf_type == GbfType(m, n1 + n2)
        assert total.values == _direct_sum_loop(f, g)
        assert _all_python_ints(total)
        for l in (2, 7, 2**66):
            lifted = lift_modulus(f, l)
            assert lifted.gbf_type == GbfType(l * m, n1)
            assert lifted.values == _lift_loop(f, l)
            assert _all_python_ints(lifted)


def test_direct_sum_matches_loops_over_many_blocks(monkeypatch):
    # blocks of 64 entries cut the sum into blocks of g's rows, and a row
    # of more than 64 entries into blocks of f's values
    monkeypatch.setattr(gbf, "_CHUNK", 64)
    rng = random.Random(43)
    for m in (2, 200, 2**16 + 4, 2**62, 2**62 + 1, 2**70 + 1):
        for n1, n2 in ((3, 5), (7, 2), (8, 1), (1, 8), (5, 5)):
            f, g = _random_table(rng, m, n1), _random_table(rng, m, n2)
            total = direct_sum(f, g)
            assert total.array.dtype == gbf._value_dtype(m)
            assert total.values == _direct_sum_loop(f, g)
            assert _all_python_ints(total)


@pytest.mark.parametrize("m", [200, 4, 2**16 + 4])
def test_direct_sum_holds_one_table(m):
    # the sum in _value_dtype(2m) lives one block at a time beside the
    # result in _value_dtype(m)
    rng = np.random.default_rng(m)
    f, g = (FunctionTable(GbfType(m, 10), rng.integers(0, m, 1 << 10))
            for _ in range(2))
    tracemalloc.start()
    try:
        total = direct_sum(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total.gbf_type == GbfType(m, 20)
    assert peak <= 1.15 * total.array.nbytes
