"""Slow, direct referees for the number theory in gbflab.numtheory.

They are the package's earlier algorithms, kept to check the fast ones at
small sizes: a scanner for a*x^2 + b*y^2 = N, a search over exponents on
top of it, and a class number that visits every (a, b) with
|b| <= a <= sqrt(|D|/3).
"""

from __future__ import annotations

import math


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
