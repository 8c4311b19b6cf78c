"""Exact ring arithmetic: hand values, algebraic laws, float shadow."""

import cmath
import random

import numpy as np
import pytest

from gbflab.cyclotomic import (CycInt, _binomials, cyclotomic_poly,
                               reduce_phi, reduction_rows, zeta_pow)
from gbflab.numtheory import euler_phi


# -- plain-list polynomial helpers, independent of the library ---------------

def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _divmod(num, den):
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for top in range(len(num) - 1, len(den) - 2, -1):
        c = num[top]
        assert c % den[-1] == 0
        c //= den[-1]
        q[top - (len(den) - 1)] = c
        for i, d in enumerate(den):
            num[top - (len(den) - 1) + i] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return q, num


def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)


def test_cyclotomic_poly_12_by_exact_division():
    # divide x^12 - 1 by the product of the divisor cyclotomics by hand
    prod = [1]
    for d in (1, 2, 3, 4, 6):
        prod = _mul(prod, list(cyclotomic_poly(d)))
    num = [-1] + [0] * 11 + [1]
    q, rem = _divmod(num, prod)
    assert rem == []
    got = cyclotomic_poly(12)
    assert len(got) - 1 == 4
    assert list(got) == q
    # zeta_12 is a root under canonical reduction
    z = zeta_pow(12, 1)
    acc = CycInt.zero(12)
    power = CycInt.from_int(12, 1)
    for c in got:
        acc = acc + power * c
        power = power * z
    assert acc == 0


def test_cyclotomic_degrees_match_totient():
    # degree of the m-th cyclotomic polynomial is Euler's phi
    for m in range(1, 60):
        assert len(cyclotomic_poly(m)) - 1 == euler_phi(m)


def test_product_of_all_divisor_cyclotomics():
    for m in (6, 8, 10, 15, 24):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                prod = _mul(prod, list(cyclotomic_poly(d)))
        assert prod == [-1] + [0] * (m - 1) + [1]


def test_cyclotomic_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in list(range(1, 301)) + [2310]:
        want = sympy.cyclotomic_poly(m, polys=True).all_coeffs()[::-1]
        assert list(cyclotomic_poly(m)) == want, m


def test_binomial_division_must_be_exact():
    # (x^3 - 1)(x^2 - 1)/(x^2 - 1)/(x^3 - 1) is 1; x^2 - 1 does not divide x^2
    one = np.array([1], dtype=object)
    assert _binomials(one, (3, 2), (2, 3)).tolist() == [1]
    with pytest.raises(AssertionError):
        _binomials(np.array([0, 0, 1], dtype=object), (), (2,))


def test_cyclotomic_poly_rejects_zero():
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


def test_zeta_pow_reduces_exponent():
    z = zeta_pow(5, 7)
    assert z.coeffs == (0, 0, 1, 0, 0)


def test_zeta2_is_minus_one():
    assert zeta_pow(2, 1).as_integer() == -1


def test_zeta6_cubed_is_minus_one():
    assert zeta_pow(6, 3).canonical() == -1


def test_add_mul_identities():
    rng = random.Random(11)
    for m in (1, 2, 3, 5, 8, 12):
        a = CycInt(m, [rng.randrange(-9, 10) for _ in range(m)])
        assert a + CycInt.zero(m) == a
        assert zeta_pow(m, 1) * zeta_pow(m, m - 1) == 1
        assert a * 1 == a
        assert a + (-a) == 0
        assert a - a == 0
        assert (a - 3) + 3 == a
    assert (zeta_pow(6, 1) - 3).coeffs == (-3, 1, 0, 0, 0, 0)


@pytest.mark.parametrize("m", [4, 12])
def test_integer_minus_element(m):
    # an int on the left of "-" goes through _coerce, as with "+" and "*"
    z = zeta_pow(m, 1)
    assert 3 - z == -(z - 3)
    assert (3 - z).coeffs == (3, -1) + (0,) * (m - 2)
    with pytest.raises(TypeError):
        "x" - z


def test_modulus_mismatch_is_usage_error():
    with pytest.raises(ValueError):
        zeta_pow(3, 1) + zeta_pow(4, 1)
    with pytest.raises(ValueError):
        zeta_pow(3, 1) * zeta_pow(4, 1)
    with pytest.raises(ValueError):
        zeta_pow(3, 1) - zeta_pow(4, 1)


def test_foreign_operands_and_bad_shapes_are_refused():
    a = zeta_pow(6, 1)
    for op in (lambda: a + "x", lambda: a - "x", lambda: a * "x",
               lambda: "x" * a):
        with pytest.raises(TypeError):
            op()
    assert a != "x" and not a == "x"
    assert repr(a) == "CycInt(6, (0, 1, 0, 0, 0, 0))"
    with pytest.raises(ValueError):
        zeta_pow(0, 1)
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        CycInt(0, ())
    with pytest.raises(ValueError, match="need exactly 3 coefficients"):
        CycInt(3, (1, 2))


def test_product_hand_convolution():
    a = zeta_pow(5, 0) + zeta_pow(5, 1)        # 1 + z
    b = zeta_pow(5, 0) + zeta_pow(5, 4)        # 1 + z^4
    want = CycInt(5, (2, 1, 0, 0, 1))          # 2 + z + z^4
    assert a * b == want


def test_galois_identity_and_group_law():
    rng = random.Random(7)
    for m in (3, 4, 5, 7, 9, 12):
        units = [a for a in range(1, m) if _gcd(a, m) == 1]
        for _ in range(20):
            alpha = CycInt(m, [rng.randrange(-5, 6) for _ in range(m)])
            assert alpha.galois(1) == alpha
            for a in units:
                for b in units:
                    assert alpha.galois(a).galois(b) == alpha.galois(a * b % m)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_galois_seven_a2_thrice_is_identity():
    rng = random.Random(3)
    alpha = CycInt(7, [rng.randrange(-9, 10) for _ in range(7)])
    assert alpha.galois(2).galois(2).galois(2) == alpha


def test_galois_requires_coprime():
    with pytest.raises(ValueError):
        zeta_pow(6, 1).galois(2)


def test_conj_is_galois_minus_one_and_involutive():
    rng = random.Random(5)
    for m in (3, 5, 8, 12):
        alpha = CycInt(m, [rng.randrange(-9, 10) for _ in range(m)])
        assert alpha.conj() == alpha.galois(m - 1)
        assert alpha.conj().conj() == alpha
    beta = CycInt(2, (4, -3))
    assert beta.conj() == beta


def test_canonical_vanishing_sums():
    assert CycInt(3, (1, 1, 1)) == 0
    assert CycInt(7, (1,) * 7) == 0
    # zeta_4^2 reduces to -1
    assert (zeta_pow(4, 1) * zeta_pow(4, 1)).as_integer() == -1


def test_canonical_idempotent_and_degree_bound():
    rng = random.Random(13)
    for m in (2, 3, 6, 10, 12):
        phi = euler_phi(m)
        for _ in range(20):
            alpha = CycInt(m, [rng.randrange(-20, 21) for _ in range(m)])
            red = alpha.canonical()
            assert red.canonical().coeffs == red.coeffs
            assert all(c == 0 for c in red.coeffs[phi:])


def test_canonical_respects_ring_structure():
    rng = random.Random(17)
    for m in (3, 5, 8, 12):
        for _ in range(20):
            a = CycInt(m, [rng.randrange(-9, 10) for _ in range(m)])
            b = CycInt(m, [rng.randrange(-9, 10) for _ in range(m)])
            assert (a * b).canonical() == (a.canonical() * b.canonical()).canonical()


def test_abs_square_examples():
    for m in (3, 4, 7, 12):
        for k in range(m):
            assert zeta_pow(m, k).abs_square() == 1
    assert (zeta_pow(4, 0) + zeta_pow(4, 1)).abs_square().as_integer() == 2
    assert (zeta_pow(3, 0) + zeta_pow(3, 1)).abs_square().as_integer() == 1


def test_as_integer():
    assert CycInt.zero(9).canonical().as_integer() == 0
    assert CycInt(3, (6, 1, 1)).as_integer() == 5     # 5 + (1 + z + z^2)
    assert zeta_pow(5, 1).as_integer() is None


def test_canonical_matches_reduction_rows():
    # row j of reduction_rows(m) is zeta^j in canonical form, so the
    # canonical form is the sum of the rows weighted by the coefficients
    # at m = 210 and 2310, Psi_m has 15 and 31 binomials
    rng = random.Random(29)
    for m in list(range(1, 61)) + [210, 2310]:
        rows = np.array(reduction_rows(m), dtype=object)
        phi = euler_phi(m)
        for _ in range(3):
            coeffs = [rng.randrange(-50, 51) if rng.random() < 0.5 else 0
                      for _ in range(m)]
            want = np.array(coeffs, dtype=object) @ rows
            assert CycInt(m, coeffs).canonical().coeffs == \
                tuple(want.tolist()) + (0,) * (m - phi), m


def test_reduce_phi_is_the_remainder_sympy_gives():
    # seeded elements at moduli of 1 to 5 distinct primes, coefficients
    # past 2^63, against sympy's remainder modulo Phi_m; zero maps to the
    # phi(m) zeros
    sympy = pytest.importorskip("sympy")
    ring, _ = sympy.polys.rings.ring("x", sympy.ZZ)
    rng = random.Random(31)
    for m in (7, 27, 45, 100, 105, 180, 210, 1155, 2310):
        phi = euler_phi(m)
        cyc = ring.from_dense(sympy.cyclotomic_poly(m, polys=True).all_coeffs())
        assert reduce_phi(m, [0] * m) == (0,) * phi
        for _ in range(2):
            coeffs = [rng.randrange(-2 ** 70, 2 ** 70) for _ in range(m)]
            want = (ring.from_dense(coeffs[::-1]) % cyc).to_dense()[::-1]
            got = reduce_phi(m, coeffs)
            assert len(got) == phi
            assert got == tuple(int(c) for c in want) + (0,) * (phi - len(want))


def test_reduction_rows_shape():
    for m in (1, 2, 9, 12):
        rows = reduction_rows(m)
        assert len(rows) == m
        assert all(len(r) == euler_phi(m) for r in rows)


def test_float_shadow():
    # numeric evaluation agrees with exact arithmetic (sanity only)
    rng = random.Random(23)
    for m in (3, 5, 8, 12):
        for _ in range(10):
            a = CycInt(m, [rng.randrange(-4, 5) for _ in range(m)])
            b = CycInt(m, [rng.randrange(-4, 5) for _ in range(m)])
            lhs = complex((a * b).canonical())
            rhs = complex(a) * complex(b)
            assert abs(lhs - rhs) < 1e-6
            sq = a.abs_square()
            assert abs(complex(sq) - abs(complex(a)) ** 2) < 1e-6
