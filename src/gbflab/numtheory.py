"""Elementary and quadratic number theory behind the nonexistence criteria.

Factorization, multiplicative orders, 2-adic valuations, Jacobi symbols,
numerical-semigroup membership, one scanner for a*x^2 + b*y^2 = N with one
search over exponents on top of it, and imaginary quadratic class numbers.
Everything works over plain Python integers, without numpy: the semigroup's
reachable sums are the bits of one int.
All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from functools import lru_cache

TRIAL_DIVISION_BOUND = 10**6

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a base set that is deterministic below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Complete prime factorization as ((p1, a1), ...) with ascending primes.

    Trial division up to 10^6 with Miller-Rabin certification of any
    remaining cofactor; inputs whose cofactor is composite are out of the
    supported range and rejected.
    """
    if not 2 <= m <= 2**63 - 1:
        raise ValueError("m must satisfy 2 <= m <= 2**63 - 1")
    out = []
    rem = m
    p = 2
    while p <= TRIAL_DIVISION_BOUND and p * p <= rem:
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if rem > 1:
        if not is_probable_prime(rem):
            raise ValueError(
                f"cofactor {rem} is composite with factors beyond "
                f"{TRIAL_DIVISION_BOUND}; out of supported range")
        out.append((rem, 1))
    return tuple(out)


def euler_phi(m: int) -> int:
    if m == 1:
        return 1
    phi = 1
    for p, a in factorize(m):
        phi *= (p - 1) * p ** (a - 1)
    return phi


def odd_part(m: int) -> int:
    return m >> v2(m)


@lru_cache(maxsize=None)
def mult_order_2(mod: int) -> int:
    """Least f >= 1 with 2^f = 1 (mod mod), for odd mod >= 3.

    Starts from Euler's phi and strips prime factors while the power stays 1,
    which yields the exact order (it divides phi and the construction cannot
    stop early).
    """
    if mod < 3 or mod % 2 == 0:
        raise ValueError("modulus must be odd and >= 3")
    e = euler_phi(mod)
    for q, _ in factorize(e):
        while e % q == 0 and pow(2, e // q, mod) == 1:
            e //= q
    return e


def v2(d: int) -> int:
    """2-adic valuation: the largest r with 2^r dividing d (d >= 1)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return (d & -d).bit_length() - 1


def semiprimitive(m_odd: int):
    """Least l >= 1 with 2^l = -1 (mod m_odd), or None.

    Read off the order of 2: an l exists exactly when the order 2l is even
    and 2^l = -1, and then l is half the order.  (Equivalently, the 2-adic
    valuations of the orders of 2 modulo the prime divisors all equal the
    same r >= 1; the tests sweep that equivalence.)
    """
    if m_odd < 1 or m_odd % 2 == 0:
        raise ValueError("m_odd must be odd and >= 1")
    if m_odd == 1:
        return 1
    f = mult_order_2(m_odd)
    if f % 2 == 0 and pow(2, f // 2, m_odd) == m_odd - 1:
        return f // 2
    return None


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1; the Legendre symbol when n is an
    odd prime.  Negative a is reduced mod n first."""
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and >= 1")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def semigroup_member(target: int, gens):
    """Nonnegative coefficients (n1, ..., ns) with sum(ni * pi) == target over
    the given odd generators, or None when target is not representable.

    The sums reachable in 0..target are the bits of one int.  Each generator
    g closes them under +g by doubling shifts: after the shifts by g, 2g,
    ..., g*2^J <= target, the set is closed under +k*g for every
    k < 2^(J+1), which covers every k <= target/g.

    The witness is the greedy walk back from target through the reachable
    set, trying the smallest generator first.  Closure under each +g makes
    that walk take each generator in turn, in ascending order, as often as
    it can: i - k*g stays reachable up to some k and never after it.  So
    each run is found by bisection, and the vector is the lexicographically
    largest representation.
    """
    gens = tuple(sorted(set(int(g) for g in gens)))
    if not gens or any(g < 3 or g % 2 == 0 for g in gens):
        raise ValueError("generators must be a nonempty set of odd integers >= 3")
    if target < 1:
        raise ValueError("target must be >= 1")
    mask = (1 << (target + 1)) - 1
    reach = 1
    for g in gens:
        step = g
        while step <= target:
            reach |= (reach << step) & mask
            step <<= 1
    if not reach >> target & 1:
        return None
    reach = reach.to_bytes(target // 8 + 1, "little")
    counts = []
    i = target
    for g in gens:
        lo, hi = 0, i // g           # i - lo*g is reachable
        while lo < hi:
            mid = (lo + hi + 1) // 2
            j = i - mid * g
            if reach[j >> 3] >> (j & 7) & 1:
                lo = mid
            else:
                hi = mid - 1
        counts.append(lo)
        i -= lo * g
    return tuple(counts)


def solve_ax2_by2(a: int, b: int, N: int):
    """Some nonnegative (x, y) with a*x^2 + b*y^2 = N, or None.

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


@lru_cache(maxsize=None)
def class_number(d: int) -> int:
    """Class number of the imaginary quadratic field Q(sqrt(-d)) for
    squarefree d >= 1.

    Counts reduced primitive binary quadratic forms (a, b, c) of the field
    discriminant (-d when d = 3 mod 4, else -4d): b^2 - 4ac = disc,
    |b| <= a <= c, with b >= 0 whenever |b| = a or a = c.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if d > 1 and any(e > 1 for _, e in factorize(d)):
        raise ValueError(f"d = {d} is not squarefree")
    disc = -d if d % 4 == 3 else -4 * d
    h = 0
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a, a + 1):
            if (b - disc) % 2:
                continue
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue
            # squarefree d: disc is fundamental, so every form is primitive
            h += 1
        a += 1
    return h


def exponent_solutions(a: int, b: int, exps, multiplier: int = 1):
    """Yield (e, x, y) for each exponent e of ``exps``, in order, at which
    a*x^2 + b*y^2 = 2^(e+2) * multiplier is solvable, with the scanner's
    solution (x, y).

    The caller stops the search: at the first hit for a least exponent, or
    after a range it owes a finiteness argument for (in the intended uses,
    an order bound in an imaginary quadratic class group).
    """
    for e in exps:
        sol = solve_ax2_by2(a, b, (1 << (e + 2)) * multiplier)
        if sol is not None:
            yield (e, *sol)
