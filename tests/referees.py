"""Slow, direct referees for the number theory in gbflab.numtheory, and
closed formulas for the Exists rules' base tables.

Most are the package's earlier algorithms, kept to check the fast ones at
small sizes: a scanner for a*x^2 + b*y^2 = N, a search over exponents on
top of it, a class number that visits every (a, b) with
|b| <= a <= sqrt(|D|/3), and the Hensel lift of a unit's square roots
modulo a prime power that inverts at each Newton step.  The C3-C5
section checks that the exponents are least at any class number: it
tries every exponent in turn with Cornacchia's algorithm and uses nothing
of the class group.  The last
section builds each rule's base from index bits, with no direct sum, and
draws seeded random product constructions, builds tables whose Walsh
coordinates wrap mod 2^16 into a flat-looking row, and states the dtype a
table is stored in at each modulus.  The one exact |W|^2 referee sums
W(y) over every x as ring elements and tests |W(y)|^2 = 2^n in CycInt
arithmetic.  The FWHT referee is the
package's earlier butterfly loop, one in-place stage per index bit.  The
census referee is the oracle's earlier enumeration, which tests the
arrangements of every multiset that passes row 0, with no unit orbits.
"""

from __future__ import annotations

import math
import operator
import random
from itertools import chain, combinations_with_replacement, islice

import numpy as np

from gbflab import numtheory as nt
from gbflab.cyclotomic import CycInt, zeta_pow
from gbflab.gbf import (FunctionTable, GbfType, _low_rows_flat,
                        construct_even_even, is_gbf)
from gbflab.oracle import (DEFAULT_BUDGET, OracleResult, _arrangements,
                           _tables)


def solve_ax2_by2(a: int, b: int, N: int):
    """Some nonnegative (x, y) with a*x^2 + b*y^2 = N, or None: the one
    with the least y.

    Searched as X^2 + ab*y^2 = aN with a | X (then x = X/a): y runs upward,
    each step takes one integer square root of a*(N - b*y^2), and only a
    perfect square is tested for divisibility by a.
    """
    if a < 1 or b < 1 or N < 1:
        raise ValueError("a, b and N must be >= 1")
    D, M = a * b, a * N
    y = 0
    while D * y * y <= M:
        rem = M - D * y * y
        X = math.isqrt(rem)
        if X * X == rem and X % a == 0:
            return (X // a, y)
        y += 1
    return None


def exponent_solutions(a: int, b: int, exps, multiplier: int = 1):
    """Yield (e, x, y) for each exponent e of ``exps``, in order, at which
    a*x^2 + b*y^2 = 2^(e+2) * multiplier is solvable, with the scanner's
    solution (x, y)."""
    for e in exps:
        sol = solve_ax2_by2(a, b, (1 << (e + 2)) * multiplier)
        if sol is not None:
            yield (e, *sol)


def class_number_by_forms(d: int) -> int:
    """Reduced forms of the field discriminant of Q(sqrt(-d)), squarefree
    d >= 1, counted over every |b| <= a <= sqrt(|D|/3): O(|D|) steps."""
    disc = -d if d % 4 == 3 else -4 * d
    h = 0
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + (a + disc) % 2, a + 1, 2):    # b = D (mod 2)
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue
            h += 1
        a += 1
    return h


# -- C3-C5 exponents by the scanner ------------------------------------------


def least_odd_r(a: int, b: int, h: int):
    """(r, x, y) at the least odd r <= h with a*x^2 + b*y^2 = 2^(r+2)
    solvable, or None."""
    return next(exponent_solutions(a, b, range(1, h + 1, 2)), None)


def c4_r2_scan(p1: int, p2: int, r1: int):
    """(r2 or None, r2 witness or None, even hits [[e, x, y], ...]) of C4's
    scan of x^2 + p1*y^2 = 2^(e+2)*p2 over 1 <= e <= r1, stopped at the
    first odd hit."""
    even = []
    for e, x, y in exponent_solutions(1, p1, range(1, r1 + 1), p2):
        if e % 2:
            return e, [x, y], even
        even.append([e, x, y])
    return None, None, even


def unit_sqrt_mod_hensel(u: int, p: int, k: int) -> list[int]:
    """Every root of x^2 = u (mod p^k) for u prime to p, ascending: the
    residues modulo 2^k when k <= 2, else Newton steps on x itself, from
    x^2 = u (mod p^j) to x - (x^2 - u)/(2x) modulo p^(2j), or modulo
    2^(2j-2) when p = 2, each with an inverse modulo the new power."""
    mod = p ** k
    if p == 2:
        if k <= 2:
            return [x for x in range(1, mod, 2) if (x * x - u) % mod == 0]
        if u % 8 != 1:
            return []
        x, j = 1, 3
        while j < k:
            j = min(2 * j - 2, k)
            x = (x - (x * x - u) // 2 * pow(x, -1, 1 << j)) % (1 << j)
        half = mod >> 1
        return sorted({x, mod - x, (x + half) % mod, (half - x) % mod})
    if pow(u, (p - 1) // 2, p) != 1:
        return []
    x, j = nt._sqrt_mod_prime(u % p, p), 1
    while j < k:
        j = min(2 * j, k)
        pj = p ** j
        x = (x - (x * x - u) * pow(2 * x, -1, pj)) % pj
    return sorted({x, mod - x})


# -- C3-C5 exponents by Cornacchia at every exponent ---------------------------
#
# gcd(x, y)^2 divides 2^(e+2) * multiplier, so a solution with gcd 2^j at e
# is 2^j times a primitive one at e - 2j: e is solvable exactly when some
# e' <= e of its parity, down to the least with 2^(e'+2) * multiplier >= 2,
# has a primitive solution.


def primitive_solutions(a: int, b: int, exp: int, multiplier: int = 1):
    """The primitive (x, y), x, y >= 0, of a*x^2 + b*y^2 =
    2^(exp+2) * multiplier, least y first, for a = 1 or an odd prime a not
    dividing b and multiplier 1 or an odd prime other than a:
    numtheory.cornacchia on X^2 + a*b*y^2 = a*2^(exp+2)*multiplier, keeping
    X = a*x."""
    factors = sorted((p, k) for p, k in ((2, exp + 2), (a, 1), (multiplier, 1))
                     if p > 1 and k > 0)
    return [(X // a, y) for X, y in nt.cornacchia(a * b, factors)
            if X % a == 0]


def least_odd_exponent(a: int, b: int, top: int, multiplier: int = 1):
    """(r, x, y) at the least odd r <= top at which a*x^2 + b*y^2 =
    2^(r+2) * multiplier is solvable, with its primitive solution of least
    y, or None.  The odd exponents from -1 up are tried in turn."""
    for e in range(-1, top + 1, 2):
        found = primitive_solutions(a, b, e, multiplier)
        if found:
            return (e, *found[0])
    return None


def solvable_even_exponents(a: int, b: int, stop: int, multiplier: int):
    """The even e with 2 <= e < stop at which a*x^2 + b*y^2 =
    2^(e+2) * multiplier is solvable, for an odd prime multiplier: every
    even e from the least with a primitive solution, e = -2 included."""
    first = next((e for e in range(-2, stop, 2)
                  if primitive_solutions(a, b, e, multiplier)), stop)
    return list(range(max(first, 2), stop, 2))


# -- Exists bases by bit formulas -----------------------------------------------


def boolean_bent(n: int) -> FunctionTable:
    """E2's base x1*x2 + x3*x4 + ...: bit 2k of i & (i >> 1) is
    x_(2k+1)*x_(2k+2), and the mask keeps the even bits."""
    i = np.arange(1 << n)
    pairs = i & (i >> 1) & (((1 << n) - 1) // 3)
    return FunctionTable(GbfType(2, n), np.bitwise_count(pairs) & 1)


def folded_mod4(n: int) -> FunctionTable:
    """E1's base at odd n: the pair (b(x, 0), b(x, 1)) of boolean_bent(n + 1),
    split at its top variable, as 2*b(x, 0) + (b(x, 0) xor b(x, 1)) mod 4."""
    b = boolean_bent(n + 1).array
    low, high = b[:1 << n], b[1 << n:]
    return FunctionTable(GbfType(4, n), 2 * low + (low ^ high))


def inner_product(c: int, n: int) -> FunctionTable:
    """E1's base at even n (c = 4) and E3's (c = 2): (c/2)*(x.y) with x the
    low n/2 bits of the index and y the high."""
    i = np.arange(1 << n)
    dot = np.bitwise_count(i & (i >> n // 2)) & 1
    return FunctionTable(GbfType(c, n), c // 2 * dot)


def seeded_even_even(m: int, n: int, seed) -> FunctionTable:
    """construct_even_even with g, then sigma, drawn from random.Random(seed)."""
    rng = random.Random(seed)
    size = 1 << n // 2
    g = [rng.randrange(m) for _ in range(size)]
    sigma = list(range(size))
    rng.shuffle(sigma)
    return construct_even_even(m, n, g=g, sigma=sigma)


def wrapped_row(c: int) -> FunctionTable:
    """A {c, 16} table, c = 2 or 4, not flat at row 1, whose row 1 passes
    the norm test when its coordinates are taken mod 2^16.  At c = 2,
    f = x1 + 1 except f = 0 at the first 128 points with x1 = 0: W(0) = 256
    and W(1) = -65280, which is 256 mod 2^16.  At c = 4 that table doubled,
    with two of those 128 points set to 1 and 3 and two other points with
    x1 = 0 set to 1 and 3: the four changes cancel in W(0) and W(1), which
    stay the same integers, and the content modulus is 4."""
    i = np.arange(1 << 16)
    even = np.flatnonzero(i & 1 == 0)
    values = (i & 1 ^ 1) * (c // 2)
    values[even[:128]] = 0
    if c == 4:
        values[even[[0, 1, 128, 129]]] = [1, 3, 1, 3]
    return FunctionTable(GbfType(c, 16), values)


# -- Walsh spectra by definition -----------------------------------------------


def walsh_by_definition(f):
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


def is_flat_by_definition(f):
    target = 1 << f.n
    return all(w.abs_square() == target for w in walsh_by_definition(f))


# -- the Walsh-Hadamard transform ----------------------------------------------

def table_dtype(m: int):
    """The dtype of a table's array at modulus m, the narrowest that holds
    m - 1: uint8, uint16 or uint32, int64 up to 2^62, objects beyond."""
    for bits, dtype in ((8, np.uint8), (16, np.uint16), (32, np.uint32),
                        (62, np.int64)):
        if m <= 1 << bits:
            return np.dtype(dtype)
    return np.dtype(object)


def fwht(mat: np.ndarray) -> np.ndarray:
    """gbf._fwht_inplace as it was before its rounds: the stage over each
    index bit in turn, low to high, in place along axis 0 of a C-contiguous
    (2^k, ...) array.  Returns mat."""
    flat = mat.reshape(-1, copy=False)
    inner = flat.size // mat.shape[0]
    while inner < flat.size:
        if inner < 8 and flat.size >= 1 << 11:
            halves = [(flat[j::2 * inner], flat[j + inner::2 * inner])
                      for j in range(inner)]
        else:
            view = flat.reshape(-1, 2, inner)
            halves = [(view[:, 0], view[:, 1])]
        for a, b in halves:
            a += b
            b *= -2
            b += a          # (a + b) - 2b = a - b
        inner *= 2
    return mat


# -- the census -----------------------------------------------------------------

def census(t: GbfType, budget: int = DEFAULT_BUDGET,
           max_witnesses: int = 4) -> OracleResult:
    """oracle.enumerate_gbfs as it was before unit orbits: the row-0 sieve
    over the multisets of the 2^n - 1 free values, then every arrangement
    of every multiset that passes tested at every row, in batches of about
    16 * 4096 terms, the first max_witnesses hits kept in odometer order
    and the rest rebuilt by constant shifts.  Both tests go through
    gbf._low_rows_flat, exact per row at every test of the kernel: row 0
    from the fold onto rows 0 and 1, every row from the k = n fold, not the
    census's k = 0 sum and _flat_mask."""
    budget = operator.index(budget)
    max_witnesses = operator.index(max_witnesses)
    if max_witnesses < 0:
        raise ValueError(f"max_witnesses is {max_witnesses}, not at least 0")
    m, n = t.m, t.n
    total = m ** (1 << n) if n < budget.bit_length().bit_length() else None
    if total is None or total > budget:
        raise ValueError(f"enumeration of {t} has {m}^(2^{n}) candidates, "
                         f"above the budget {budget}")
    rows = 1 << n

    per = max(1, 16 * 4096 // (rows * nt.euler_phi(m)))
    free = rows - 1
    multisets = combinations_with_replacement(range(m), free)
    passed = []
    for _ in range(0, math.comb(m + free - 1, free), per):
        batch = np.fromiter(chain.from_iterable(islice(multisets, per)),
                            np.int64).reshape(-1, free)
        ok = _low_rows_flat(_tables(batch), m, n, k=1)[0]
        passed.append(batch[ok])

    count = 0
    hits = np.empty((0, rows), np.int64)
    for batch in _arrangements(np.concatenate(passed), per):
        tables = _tables(batch)
        ok = _low_rows_flat(tables, m, n, k=n).all(axis=0)
        count += int(ok.sum())
        hits = np.concatenate([hits, tables[:, ok].T])
        hits = hits[np.lexsort(hits.T)[:max_witnesses]]
    witnesses = [FunctionTable(t, h) for h in hits]

    if len(witnesses) < max_witnesses:
        shifted = sorted((tuple((v + c) % m for v in w.values)
                          for c in range(1, m) for w in witnesses),
                         key=lambda v: v[::-1])
        witnesses += [FunctionTable(t, v)
                      for v in shifted[:max_witnesses - len(witnesses)]]

    for w in witnesses:
        if not is_gbf(w):
            raise AssertionError(f"witness failed independent verification: {w}")
    return OracleResult(t, total, count * m, tuple(witnesses))
