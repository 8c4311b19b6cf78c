"""Exact arithmetic in Z[zeta_m], the ring of integers of the m-th cyclotomic field.

An element is held as a length-m integer coefficient vector on the powers
1, zeta, ..., zeta^(m-1); products are cyclic convolutions modulo x^m - 1 and
reduction modulo the m-th cyclotomic polynomial happens only at comparison
points (``canonical``).  Coefficients are arbitrary-precision integers, so
character sums of 2^n roots of unity and their products never overflow or
round.

Values are immutable after construction and every operation is a pure
function, so instances may be shared freely across threads.  The memo tables
for cyclotomic polynomials and reduction rows sit behind ``lru_cache``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from math import gcd


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial, coefficients in ascending degree.

    The zero polynomial is the empty tuple; otherwise the leading
    coefficient is nonzero.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @staticmethod
    def make(coeffs) -> "IntPoly":
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPoly(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if not self.coeffs or not other.coeffs:
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly.make(out)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def poly_divmod_exact(num: IntPoly, den: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Quotient and remainder over Z.  The divisor must be monic, which keeps
    every intermediate coefficient an integer."""
    if den.degree < 0 or den.coeffs[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num.coeffs)
    dd = den.degree
    if len(rem) <= dd:
        return IntPoly(()), IntPoly.make(rem)
    quot = [0] * (len(rem) - dd)
    terms = [(i, d) for i, d in enumerate(den.coeffs[:-1]) if d]
    for top in range(len(rem) - 1, dd - 1, -1):
        c = rem[top]
        if c:
            quot[top - dd] = c
            for i, d in terms:
                rem[top - dd + i] -= c * d
    return IntPoly.make(quot), IntPoly.make(rem[:dd])


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> IntPoly:
    """The m-th cyclotomic polynomial.

    Computed by exact division of x^m - 1 by the product of the cyclotomic
    polynomials of the proper divisors of m, entirely over Z.  The degree is
    Euler's phi(m).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return IntPoly((-1, 1))
    num = IntPoly.make([-1] + [0] * (m - 1) + [1])
    den = IntPoly((1,))
    for d in range(1, m):
        if m % d == 0:
            den = den * cyclotomic_poly(d)
    quot, rem = poly_divmod_exact(num, den)
    if rem.coeffs:
        raise AssertionError("division by divisor cyclotomics must be exact")
    return quot


def phi_degree(m: int) -> int:
    """Euler's totient of m, read off as the degree of the m-th cyclotomic
    polynomial."""
    return cyclotomic_poly(m).degree


@lru_cache(maxsize=None)
def reduction_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Row j is the canonical coefficient vector of zeta_m^j, i.e. x^j reduced
    modulo the m-th cyclotomic polynomial, for j = 0..m-1.  Each row has
    length phi(m)."""
    phi = cyclotomic_poly(m)
    deg = phi.degree
    low = phi.coeffs[:-1]
    rows = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(m):
        rows.append(tuple(cur))
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            for i, c in enumerate(low):
                if c:
                    cur[i] -= lead * c
    return tuple(rows)


class CycInt:
    """An element of Z[zeta_m] as a length-m integer vector over powers of
    zeta_m.

    Vectors are kept unreduced (indices run modulo m); ``canonical`` returns
    the unique representation supported on indices 0..phi(m)-1.  Equality and
    hashing compare canonical forms.
    """

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        cs = tuple(int(c) for c in coeffs)
        if len(cs) != modulus:
            raise ValueError(f"need exactly {modulus} coefficients, got {len(cs)}")
        self.modulus = modulus
        self.coeffs = cs

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero(m: int) -> "CycInt":
        return CycInt(m, (0,) * m)

    @staticmethod
    def from_int(m: int, value: int) -> "CycInt":
        return CycInt(m, (int(value),) + (0,) * (m - 1))

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycInt):
            if other.modulus != self.modulus:
                raise ValueError(
                    f"modulus mismatch: {self.modulus} vs {other.modulus}")
            return other
        if isinstance(other, int):
            return CycInt.from_int(self.modulus, other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return CycInt(self.modulus,
                      tuple(a + b for a, b in zip(self.coeffs, rhs.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return CycInt(self.modulus,
                      tuple(a - b for a, b in zip(self.coeffs, rhs.coeffs)))

    def __neg__(self):
        return CycInt(self.modulus, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        m = self.modulus
        out = [0] * m
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(rhs.coeffs):
                    if b:
                        k = i + j
                        if k >= m:
                            k -= m
                        out[k] += a * b
        return CycInt(m, out)

    __rmul__ = __mul__

    def galois(self, a: int) -> "CycInt":
        """Image under the automorphism zeta -> zeta^a; requires gcd(a, m) = 1.
        The coefficient at index i moves to index a*i mod m."""
        m = self.modulus
        if gcd(a, m) != 1:
            raise ValueError(f"galois exponent {a} not coprime to modulus {m}")
        out = [0] * m
        for i, c in enumerate(self.coeffs):
            if c:
                out[a * i % m] += c
        return CycInt(m, out)

    def conj(self) -> "CycInt":
        """Complex conjugation, zeta -> zeta^(-1).  Identity for m <= 2."""
        if self.modulus <= 2:
            return self
        return self.galois(self.modulus - 1)

    def canonical(self) -> "CycInt":
        """The unique representative supported on indices 0..phi(m)-1,
        obtained by exact remainder modulo the m-th cyclotomic polynomial.
        Idempotent; canonical forms agree exactly when the ring elements do."""
        m = self.modulus
        rem = poly_divmod_exact(IntPoly.make(self.coeffs), cyclotomic_poly(m))[1]
        return CycInt(m, rem.coeffs + (0,) * (m - len(rem.coeffs)))

    def abs_square(self) -> "CycInt":
        """The squared complex absolute value alpha * conj(alpha), in
        canonical form.  A rational integer whenever alpha is a character
        sum with flat spectrum."""
        return (self * self.conj()).canonical()

    def as_integer(self):
        """The value as a rational integer, or None when the canonical form
        has any nonzero coefficient beyond index 0."""
        red = self.canonical()
        if any(red.coeffs[1:]):
            return None
        return red.coeffs[0]

    # -- comparisons and misc -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CycInt):
            if other.modulus != self.modulus:
                return False
            return self.canonical().coeffs == other.canonical().coeffs
        if isinstance(other, int):
            red = self.canonical()
            return red.coeffs[0] == other and not any(red.coeffs[1:])
        return NotImplemented

    def __hash__(self):
        return hash((self.modulus, self.canonical().coeffs))

    def __complex__(self):
        m = self.modulus
        return sum((c * cmath.exp(2j * cmath.pi * i / m)
                    for i, c in enumerate(self.coeffs) if c), 0j)

    def __repr__(self):
        return f"CycInt({self.modulus}, {self.coeffs})"


def zeta_pow(m: int, k: int) -> CycInt:
    """zeta_m^k as a unit coefficient vector (exponent reduced mod m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    out = [0] * m
    out[k % m] = 1
    return CycInt(m, out)
