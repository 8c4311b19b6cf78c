"""Walsh spectra, the flatness test, and the constructions.

The independent route used throughout: recompute Walsh values as plain
ring-element sums and test |W(y)|^2 through CycInt arithmetic only, then
compare with the library verdict.
"""

import dataclasses
import random
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from gbflab import gbf
from gbflab.cyclotomic import CycInt, phi_degree, zeta_pow
from gbflab.gbf import (FunctionTable, GbfType, construct_boolean_bent,
                        construct_even_even, construct_mod4_from_bent,
                        direct_sum, first_flat_violation, is_gbf,
                        lift_modulus, table, walsh, walsh_matrix)

# the old FunctionTable, a frozen dataclass over a tuple, for its semantics
_TupleTable = dataclasses.make_dataclass(
    "FunctionTable", [("gbf_type", GbfType), ("values", tuple)], frozen=True)


def _walsh_by_definition(f):
    """W(y) as a direct double sum of ring elements."""
    m, n = f.m, f.n
    out = []
    for y in range(1 << n):
        acc = CycInt.zero(m)
        for x, v in enumerate(f.values):
            term = zeta_pow(m, v)
            acc = acc + (-term if (x & y).bit_count() & 1 else term)
        out.append(acc)
    return out


def _is_flat_by_definition(f):
    target = 1 << f.n
    return all(w.abs_square() == target for w in _walsh_by_definition(f))


def test_walsh_constant_table():
    for m, n in ((3, 2), (5, 1), (4, 3)):
        sp = walsh(table(m, n, [0] * (1 << n)))
        assert sp.values[0] == 1 << n
        assert all(w == 0 for w in sp.values[1:])


def test_walsh_matches_definition_random():
    rng = random.Random(2)
    for _ in range(25):
        m = rng.randrange(2, 9)
        n = rng.randrange(1, 4)
        f = table(m, n, [rng.randrange(m) for _ in range(1 << n)])
        direct = _walsh_by_definition(f)
        assert list(walsh(f).values) == direct


def test_walsh_classic_bent():
    f = table(2, 2, [0, 0, 0, 1])
    for w in walsh(f).values:
        assert w.abs_square() == 4
    assert is_gbf(f)


def test_walsh_quaternary_pair():
    f = table(4, 1, [0, 1])
    sp = walsh(f)
    assert sp.values[0] == zeta_pow(4, 0) + zeta_pow(4, 1)
    assert sp.values[0].abs_square() == 2
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
        flat = _is_flat_by_definition(f)
        seen_flat += flat
        assert is_gbf(f) == flat
    # and on known flat tables
    assert _is_flat_by_definition(construct_even_even(6, 2))


def test_boolean_bent_construction():
    assert construct_boolean_bent(2).values == (0, 0, 0, 1)
    for n in (2, 4, 6):
        assert is_gbf(construct_boolean_bent(n))
    with pytest.raises(ValueError):
        construct_boolean_bent(3)


def test_even_even_construction():
    assert is_gbf(construct_even_even(6, 2))
    # m = 2 degenerates to the x.sigma(y) form, still a bent table
    assert is_gbf(construct_even_even(2, 2))
    assert is_gbf(construct_even_even(10, 4, seed=7))
    got = construct_even_even(10, 4, seed=7)
    again = construct_even_even(10, 4, seed=7)
    assert got.values == again.values
    with pytest.raises(ValueError):
        construct_even_even(5, 2)
    with pytest.raises(ValueError):
        construct_even_even(6, 3)
    with pytest.raises(ValueError):
        construct_even_even(6, 2, sigma=[0, 0])


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


def test_parseval_and_inversion_random():
    rng = random.Random(8)
    for _ in range(40):
        m = rng.randrange(2, 13)
        n = rng.randrange(1, 5)
        f = table(m, n, [rng.randrange(m) for _ in range(1 << n)])
        sp = _walsh_by_definition(f)
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
        f = construct_even_even(m, 2, seed=rng.randrange(999))
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
    assert f.array.dtype == np.int64 and f.values == (0, 1, 2, 3)
    with pytest.raises(ValueError, match="read-only"):
        f.array[0] = 1
    with pytest.raises(FrozenInstanceError):
        f.values = (0, 0, 0, 0)
    with pytest.raises(FrozenInstanceError):
        f.array = np.zeros(4, dtype=np.int64)
    # a numpy array passed in is frozen, not copied
    mine = np.array([0, 1, 1, 0])
    g = FunctionTable(GbfType(2, 2), mine)
    with pytest.raises(ValueError, match="read-only"):
        mine[0] = 1
    assert g.values == (0, 1, 1, 0)


def test_function_table_object_array_above_2_62():
    base = construct_even_even(4, 4, seed=3)
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
            g = construct_even_even(base_m, n, seed=rng.randrange(999))
        else:
            g = _random_table(rng, base_m, n)
        f = lift_modulus(g, l)          # every value a multiple of l | m
        flat = _is_flat_by_definition(f)
        flat_seen += flat
        assert is_gbf(f) == is_gbf(g) == flat == _is_flat_by_definition(g)
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
                assert _is_flat_by_definition(f)
                continue
            y, coeffs = bad
            reported += 1
            phi = phi_degree(m)
            assert len(coeffs) == phi
            want = walsh(f).values[y].abs_square().coeffs
            assert coeffs == want[:phi] and not any(want[phi:])
            # and y is the first failing row by the definition
            target = 1 << n
            spectrum = _walsh_by_definition(f)
            assert all(w.abs_square() == target for w in spectrum[:y])
            assert spectrum[y].abs_square() != target
    assert reported >= 15


def test_content_modulus_all_zero_table():
    # its W(y) are the same integers at every modulus: tested over Z_2,
    # with no factorization of m, and reported at m below 2^30
    for m in (4, 6, 9, 15, 7, 35, 1000):
        for n in (1, 2, 3):
            f = table(m, n, [0] * (1 << n))
            assert gbf._divide_content(f).m == 2 and not is_gbf(f)
            assert first_flat_violation(f) == \
                (0, (4 ** n,) + (0,) * (phi_degree(m) - 1))
    for m in (2**63 + 1, 2**64):
        f = table(m, 1, [0, 0])
        assert gbf._divide_content(f).m == 2 and not is_gbf(f)
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
    phi = phi_degree(f.m)
    for y, w in enumerate(spectrum):
        square = w.abs_square()
        if square != 1 << f.n:
            assert not any(square.coeffs[phi:])
            return y, square.coeffs[:phi]
    return None


def _flat_at(c, n, rng):
    """A flat table of type {c, n}, or None when no construction covers it."""
    if c % 2 == 0 and n % 2 == 0:
        return construct_even_even(c, n, seed=rng.randrange(999))
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
            want = _referee_violation(f, _walsh_by_definition(f))
            assert first_flat_violation(f) == want, (f.gbf_type, c)
            assert is_gbf(f) == (want is None)
            verdicts.add(want is None)
    assert verdicts == ({False, True} if c % 2 == 0 else {False})


def _first_violation_by_walsh_matrix(f, c):
    """The same referee for a table whose values are multiples of l = m/c,
    c = 2 or 4, with W(y) read off the exact walsh_matrix rows: since
    zeta_m^(l u) = zeta_c^u, W(y) is row[0] - row[l] at c = 2, and has
    coordinates row[0] - row[2l] and row[l] - row[3l] at c = 4."""
    mat, l = walsh_matrix(f), f.m // c
    if c == 2:
        norm = (mat[:, 0] - mat[:, l]) ** 2
    else:
        norm = (mat[:, 0] - mat[:, 2 * l]) ** 2 + (mat[:, l] - mat[:, 3 * l]) ** 2
    bad = np.flatnonzero(norm != 1 << f.n)
    if not len(bad):
        return None
    y = int(bad[0])
    return _referee_violation(f, [CycInt(f.m, row) for row in
                                  mat[:y + 1].tolist()])


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


@pytest.mark.parametrize("m", [2, 3, 4, 6, 12, 60])
def test_batched_kernel_matches_per_table_checks(m):
    rng = random.Random(200 + m)
    verdicts = set()
    for n in range(1, 6):
        batch = _kernel_batch(rng, m, n)
        tables = np.stack([f.array for f in batch], axis=1)
        ok = np.all([gbf._flat(test, spec, n)
                     for test, spec in gbf._spectra(tables, m, n)], axis=0)
        assert ok.shape == (1 << n, len(batch))
        for f, rows in zip(batch, ok.T):
            bad = first_flat_violation(f)
            assert bool(rows.all()) == is_gbf(f) == (bad is None)
            if bad is not None:
                assert int(np.argmin(rows)) == bad[0]
            verdicts.add(bad is None)
    assert verdicts == ({False, True} if m % 2 == 0 else {False})


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
        for test, spec in gbf._spectra(np.stack([a, b, zero, values], 1),
                                       m, n):
            sa, sb, s0, whole = np.moveaxis(spec, -1, 0)
            assert np.array_equal(sa + sb - s0, whole), (n, test)


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
        assert len(roots) == len(gbf._split_primes(m, n))
        for (q, pw), (_, omega) in zip(roots, gbf._split_primes(m, n)):
            assert pw.base is None and pw.shape == (m,) and pw.nbytes == 8 * m
            assert not pw.flags.writeable
            assert pw.tolist() == [pow(omega, j, q) for j in range(m)]
        assert not cols.flags.writeable


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
            folded = construct_even_even(2, n, seed=rng.randrange(999))
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
