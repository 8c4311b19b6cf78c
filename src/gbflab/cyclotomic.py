"""Exact arithmetic in Z[zeta_m], the ring of integers of the m-th cyclotomic field.

An element is held as a length-m integer coefficient vector on the powers
1, zeta, ..., zeta^(m-1); products are cyclic convolutions modulo x^m - 1 and
reduction modulo the m-th cyclotomic polynomial Phi_m happens only at
comparison points (``canonical``).  Coefficients are Python integers, so
nothing overflows or rounds.  reduce_phi is the one reduction: it takes m
coefficients, a CycInt's or a numpy row's, to the phi(m) of the remainder,
which ``canonical`` pads to length m.

All reduction multiplies or exactly divides by binomials x^d - 1: with
Psi_m = (x^m - 1)/Phi_m, the product over e > 1 dividing rad(m) of
(x^(m/e) - 1)^(-mu(e)), Phi_m is (x^m - 1)/Psi_m and the canonical form of
a is ((a*Psi_m) mod (x^m - 1))/Psi_m.  That is at most 2^omega(m) - 1
binomials (511 for m < 2^30), each one pass over a numpy object array, so a
reduction costs O(2^omega(m) * m) integer operations.

CycInt is a frozen dataclass and every operation is pure, so values may be
shared across threads, copied and pickled.  ``lru_cache`` holds, per m, the
binomial exponents of Psi_m, Phi_m and the reduction rows.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from ._lazy import np
from .numtheory import factorize


@lru_cache(maxsize=None)
def _psi_binomials(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(up, down): Psi_m is prod(x^d - 1 for d in up) / prod(... in down),
    with d = m/e for squarefree e > 1 dividing m, in up when mu(e) = -1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    odd, even = [], [1]
    for p, _ in factorize(m) if m > 1 else ():
        odd, even = odd + [e * p for e in even], even + [e * p for e in odd]
    return tuple(m // e for e in odd), tuple(m // e for e in even[1:])


def _binomials(a: np.ndarray, mul, div) -> np.ndarray:
    """a times x^d - 1 for each d in mul, then divided exactly by x^d - 1 for
    each d in div: coefficient i of a/(x^d - 1) is minus the sum of a_j over
    j <= i, j = i (mod d), and those sums past its degree are the remainder."""
    for d in mul:
        grown = np.zeros(len(a) + d, dtype=object)
        grown[d:] = a
        grown[:len(a)] -= a
        a = grown
    for d in div:
        rows = -(-len(a) // d)
        sums = np.zeros(rows * d, dtype=object)
        sums[:len(a)] = a
        sums = np.cumsum(sums.reshape(rows, d), axis=0).reshape(-1)
        cut = max(len(a) - d, 0)
        if sums[cut:len(a)].any():
            raise AssertionError(f"division by x^{d} - 1 must be exact")
        a = -sums[:cut]
    return a


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients, in ascending degree, of the m-th cyclotomic polynomial
    (x^m - 1)/Psi_m, entirely over Z: the denominator binomials of Psi_m
    multiply x^m - 1 before the numerator ones divide it, so every division
    is exact.  Its degree is Euler's phi(m)."""
    up, down = _psi_binomials(m)
    a = np.zeros(m + 1, dtype=object)
    a[0], a[m] = -1, 1
    return tuple(_binomials(a, down, up).tolist())


def reduce_phi(m: int, coeffs) -> tuple[int, ...]:
    """The phi(m) coefficients of the remainder r of a modulo Phi_m, for
    the m coefficients of a on 1, x, ..., x^(m-1): a = q*Phi_m + r gives
    a*Psi_m = q*(x^m - 1) + r*Psi_m with deg(r*Psi_m) < m."""
    up, down = _psi_binomials(m)
    a = _binomials(np.array(coeffs, dtype=object), up, down)
    a[:len(a) - m] += a[m:]          # deg(a*Psi_m) < 2m - 1
    return tuple(_binomials(a[:m], down, up).tolist())


@lru_cache(maxsize=None)
def reduction_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Row j is the canonical coefficient vector of zeta_m^j, i.e. x^j reduced
    modulo the m-th cyclotomic polynomial, for j = 0..m-1.  Each row has
    length phi(m)."""
    low = cyclotomic_poly(m)[:-1]
    deg = len(low)
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


@dataclass(frozen=True, eq=False, repr=False)
class CycInt:
    """An element of Z[zeta_m] as a length-m integer vector over powers of
    zeta_m.

    Vectors are kept unreduced (indices run modulo m); ``canonical`` returns
    the unique representation supported on indices 0..phi(m)-1.  Equality and
    hashing compare canonical forms.
    """

    modulus: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        m = operator.index(self.modulus)
        if m < 1:
            raise ValueError("modulus must be >= 1")
        cs = tuple(map(operator.index, self.coeffs))
        if len(cs) != m:
            raise ValueError(f"need exactly {m} coefficients, got {len(cs)}")
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "coeffs", cs)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero(m: int) -> "CycInt":
        return CycInt(m, (0,) * m)

    @staticmethod
    def from_int(m: int, value: int) -> "CycInt":
        return CycInt(m, (value,) + (0,) * (m - 1))

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

    def __rsub__(self, other):
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs - self

    def __neg__(self):
        return CycInt(self.modulus, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        m = self.modulus
        terms = [(j, b) for j, b in enumerate(rhs.coeffs) if b]
        out = [0] * m
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[(i + j) % m] += a * b
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
        return self.galois(self.modulus - 1)

    def canonical(self) -> "CycInt":
        """The unique representative supported on indices 0..phi(m)-1, the
        remainder modulo Phi_m (reduce_phi) padded to length m.
        Idempotent; canonical forms agree exactly when the ring elements
        do."""
        r = reduce_phi(self.modulus, self.coeffs)
        return CycInt(self.modulus, r + (0,) * (self.modulus - len(r)))

    def abs_square(self) -> "CycInt":
        """The squared complex absolute value alpha * conj(alpha), in
        canonical form.  A rational integer whenever alpha is a character
        sum with flat spectrum."""
        return (self * self.conj()).canonical()

    def as_integer(self):
        """The value as a rational integer, or None when the canonical form
        has any nonzero coefficient beyond index 0."""
        red = self.canonical().coeffs
        return None if any(red[1:]) else red[0]

    # -- comparisons and misc -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CycInt):
            return (other.modulus == self.modulus and
                    self.canonical().coeffs == other.canonical().coeffs)
        if isinstance(other, int):
            return self.as_integer() == other
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
