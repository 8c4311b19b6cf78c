"""Elementary and quadratic number theory behind the nonexistence criteria.

Factorization, the order of 2 modulo an odd number, 2-adic valuations,
Jacobi symbols, numerical-semigroup membership, square roots modulo prime
powers, Cornacchia's algorithm for x^2 + d*y^2 = M, and the form class
group of an imaginary quadratic field: reduced forms, composition, powers,
orders, discrete logarithms and the exact class number.  Both orders, of 2
from phi(mod) and of a form class from the class number, come from one
routine, _order, which strips prime factors from a known multiple.
Every square root of a unit modulo a prime power comes from one rule,
Newton's iteration on the inverse square root, y -> y*(3 - u*y^2)/2: it
takes multiplications alone, with no inverse inside its loop.
Everything works over plain Python integers, without numpy; semigroup
membership searches residue classes modulo the generators, so its cost
does not grow with the target.
Every function ahead of the binary quadratic forms, and the forms' powers,
orders and logarithms inside their caches, take their integers through
operator.index: a float raises TypeError, and a numpy integer gives the
Python-int result.  Every cache is typed, so an entry that a
numpy integer made is never served to a float that compares equal to it.
All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import heapq
import math
import operator
from functools import lru_cache

TRIAL_DIVISION_BOUND = 10**6

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# no strong pseudoprime to all three lies below the bound (Jaeschke, "On
# strong pseudoprimes to several bases", Math. Comp. 61, 1993)
_MR_SMALL_BASES, _MR_SMALL_BOUND = (2, 7, 61), 4_759_123_141


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin, deterministic below 3.3e24: after trial division by
    the first twelve primes, bases 2, 7 and 61 below 4,759,123,141, those
    twelve primes as bases above.  A base that n divides is skipped: it
    would call n = 61 composite."""
    n = operator.index(n)
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
    for a in _MR_SMALL_BASES if n < _MR_SMALL_BOUND else _MR_BASES:
        if a % n == 0:
            continue
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


@lru_cache(maxsize=None, typed=True)
def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Complete prime factorization as ((p1, a1), ...) with ascending primes.

    Trial division up to 10^6.  Every prime below the last trial divisor
    p is divided out, so a cofactor below p^2 is prime; only a cofactor
    left when division stops at the bound is certified by Miller-Rabin.
    Inputs whose cofactor is composite are out of the supported range and
    rejected.
    """
    m = operator.index(m)
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
        if p * p <= rem and not is_probable_prime(rem):
            raise ValueError(
                f"cofactor {rem} is composite with factors beyond "
                f"{TRIAL_DIVISION_BOUND}; out of supported range")
        out.append((rem, 1))
    return tuple(out)


def euler_phi(m: int) -> int:
    if operator.index(m) == 1:
        return 1
    phi = 1
    for p, a in factorize(m):
        phi *= (p - 1) * p ** (a - 1)
    return phi


def odd_part(m: int) -> int:
    m = operator.index(m)
    return m >> v2(m)


def _order(is_one, e: int) -> int:
    """The order of a group element, given a multiple e >= 1 of that order,
    where is_one(k) says whether the element to the power k is the identity:
    each prime factor q of e is stripped while the power at e/q stays 1
    (Cohen, ch. 1).  The order divides every e that passes, and each
    strip stops only once q's power in e is q's power in the order, so the
    e that remains is the order."""
    for q, _ in (factorize(e) if e > 1 else ()):
        while e % q == 0 and is_one(e // q):
            e //= q
    return e


@lru_cache(maxsize=None, typed=True)
def mult_order_2(mod: int) -> int:
    """Least f >= 1 with 2^f = 1 (mod mod), for odd mod >= 3: the _order
    of 2 in the units modulo mod, from the multiple phi(mod)."""
    mod = operator.index(mod)
    if mod < 3 or mod % 2 == 0:
        raise ValueError("modulus must be odd and >= 3")
    return _order(lambda e: pow(2, e, mod) == 1, euler_phi(mod))


def v2(d: int) -> int:
    """2-adic valuation: the largest r with 2^r dividing d (d >= 1)."""
    d = operator.index(d)
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
    m_odd = operator.index(m_odd)
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
    a, n = operator.index(a), operator.index(n)
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
    the given odd generators p1 < ... < ps, or None when target is not
    representable: the lexicographically largest representation.

    Its n1 is as large as it can be, so target - n1*p1 is the least sum x
    <= target of p2..ps with x = target (mod p1), and n2..ns represent x
    in turn.  Each such x comes from a Dijkstra search over the residues
    modulo the generator whose coefficient it fixes, adding one larger
    generator at a time and never passing target (Böcker and Lipták,
    Algorithmica 48, 2007): the work is bounded by that generator's
    classes and by the sums up to target, not by target itself.  No class is
    assumed reachable, so generators need not be prime or coprime.
    """
    gens = sorted({operator.index(g) for g in gens})
    if not gens or any(g < 3 or g % 2 == 0 for g in gens):
        raise ValueError("generators must be a nonempty set of odd integers >= 3")
    target = operator.index(target)
    if target < 1:
        raise ValueError("target must be >= 1")
    counts = []
    for i, p in enumerate(gens):
        goal, least, heap = target % p, {0: 0}, [(0, 0)]
        while heap:
            x, r = heapq.heappop(heap)
            if r == goal:
                break
            # a stale x > least[r] offers nothing: least[r] went first
            for g in gens[i + 1:]:
                y = x + g
                if y <= target and y < least.get(s := y % p, y + 1):
                    least[s] = y
                    heapq.heappush(heap, (y, s))
        else:
            return None
        counts.append((target - x) // p)
        target = x
    return tuple(counts)


def _xgcd(a: int, b: int):
    """(g, u, v) with u*a + v*b = g = gcd(a, b)."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return a, u0, v0


def _sqrt_mod_prime(a: int, p: int) -> int:
    """A root of x^2 = a (mod p) for an odd prime p and a quadratic residue
    a, by Tonelli-Shanks."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:      # Euler's criterion
        z += 1
    c, t, x = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, x = t * c % p, x * b % p
    return x


def _unit_sqrt_mod(u: int, p: int, k: int) -> list[int]:
    """Every root of x^2 = u (mod p^k) for u prime to p, ascending.

    One rule: Newton's iteration on the inverse square root,
    y -> y*(3 - u*y^2)/2, keeps u*y^2 = 1 and doubles its precision, from
    j to 2j digits modulo an odd p and from j to 2j - 2 bits at p = 2, by
    multiplications alone; then x = u*y.  At 2 it starts from y = 1 modulo
    8, at an odd p from the inverse of the Tonelli-Shanks root modulo p."""
    mod = p ** k
    if p == 2:
        if u % min(mod, 8) != 1:
            return []
        y, j = 1, 3
        while j < k:
            j = min(2 * j - 2, k)
            y = y * ((3 - (u * y * y & (2 << j) - 1)) >> 1) & (1 << j) - 1
        # x + 2^(k-1) squares to u (mod 2^k) only when 2k - 2 >= k
        x, half = u * y % mod, mod >> 1 if k > 1 else 0
        return sorted({x, mod - x, (x + half) % mod, (half - x) % mod})
    if pow(u, (p - 1) // 2, p) != 1:               # Euler's criterion
        return []
    y, j = pow(_sqrt_mod_prime(u % p, p), -1, p), 1
    while j < k:
        j = min(2 * j, k)
        pj = p ** j
        y = y * (3 - u * y * y % pj) * (pj + 1 >> 1) % pj   # (pj+1)/2 = 1/2
    x = u * y % mod
    return sorted({x, mod - x})


def sqrt_mod(a: int, p: int, k: int = 1) -> list[int]:
    """Every root x in [0, p^k) of x^2 = a (mod p^k), ascending, for a prime
    p and k >= 1.  Roots of a unit come from Newton's iteration on the
    inverse square root (_unit_sqrt_mod); when p^v, v < k, is the exact
    power of p in a, v must be even and the roots are p^(v/2) times the
    roots of a/p^v modulo p^(k-v), taken modulo p^(k-v/2)."""
    a, p, k = operator.index(a), operator.index(p), operator.index(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    mod = p ** k
    a %= mod
    if a == 0:
        return list(range(0, mod, p ** ((k + 1) // 2)))
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    if v % 2:
        return []
    units = _unit_sqrt_mod(a, p, k - v)
    if not v:
        return units
    half, step = p ** (v // 2), p ** (k - v)
    return sorted(half * (y + j * step) for y in units for j in range(half))


def _crt_join(roots, mod: int, local, pk: int) -> list[int]:
    """The residues modulo mod*pk, for coprime mod and pk, that are some r
    of ``roots`` modulo mod and some s of ``local`` modulo pk."""
    inv = pow(mod, -1, pk)
    return [r + mod * ((s - r) * inv % pk) for r in roots for s in local]


def cornacchia(d: int, factors) -> list[tuple[int, int]]:
    """Every primitive solution (x, y), x, y >= 0, of x^2 + d*y^2 = M for
    d >= 1, where ``factors`` is the prime factorization ((p, k), ...) of
    M >= 2; sorted by y.

    Cornacchia's algorithm (Cohen, Alg. 1.5.2) over every root t of
    t^2 = -d (mod M): a primitive solution has x = t*y (mod M) for one such
    t, and x is then the first remainder below sqrt(M) in Euclid's algorithm
    on (M, t).  The roots t and M - t lead to the same remainders, so only
    t >= M/2 runs.  For d = 1 the unit i maps (x, y) to (y, x), which
    shares its t, so both are returned.
    """
    return list(_cornacchia(operator.index(d), tuple(
        (operator.index(p), operator.index(k)) for p, k in factors)))


@lru_cache(maxsize=None, typed=True)
def _cornacchia(d: int, factors) -> tuple[tuple[int, int], ...]:
    roots, M = [0], 1
    for p, k in factors:
        roots = _crt_join(roots, M, sqrt_mod(-d, p, k), p ** k)
        M *= p ** k
    if d < 1 or M < 2:
        raise ValueError("need d >= 1 and M >= 2")
    bound = math.isqrt(M)
    out = set()
    for t in roots:
        if 0 < t < M - t:
            continue
        a, b = M, t
        while b > bound:
            a, b = b, a % b
        rest = M - b * b
        if rest % d:
            continue
        y = math.isqrt(rest // d)
        if d * y * y == rest and math.gcd(b, y) == 1:
            out.add((b, y))
            if d == 1:
                out.add((y, b))
    return tuple(sorted(out, key=lambda s: s[::-1]))


# -- binary quadratic forms ------------------------------------------------------
#
# A positive definite form a*x^2 + b*xy + c*y^2 of discriminant
# D = b^2 - 4ac < 0 is the tuple (a, b, c).  Each class of the form class
# group has exactly one reduced form, so reduced tuples compare as classes.
# Powers, orders and logarithms are cached like class numbers: a report's
# re-validation derives them again.


def reduce_form(a: int, b: int, c: int) -> tuple[int, int, int]:
    """The reduced form equivalent to the positive definite form (a, b, c):
    -a < b <= a <= c, with b >= 0 when a = c (Cohen, Alg. 5.4.2)."""
    while True:
        k = (a - b) // (2 * a)         # x -> x + k*y puts b in (-a, a]
        b, c = b + 2 * a * k, c + k * (b + a * k)
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return a, b, c


def principal_form(disc: int) -> tuple[int, int, int]:
    """The identity of the form class group of discriminant disc < 0."""
    return (1, disc % 2, (disc % 2 - disc) // 4)


def compose_forms(f, g) -> tuple[int, int, int]:
    """The reduced composite of two forms of one discriminant (Dirichlet
    composition, as in Cohen, Alg. 5.4.7): with
    e = gcd(a1, a2, (b1+b2)/2) = u*a1 + v*a2 + w*(b1+b2)/2, the form
    (a1*a2/e^2, B, .) where B = (u*a1*b2 + v*a2*b1 + w*(b1*b2 + D)/2)/e."""
    a1, b1, c1 = f
    a2, b2, _ = g
    disc = b1 * b1 - 4 * a1 * c1
    e1, u1, v1 = _xgcd(a1, a2)
    e, x, w = _xgcd(e1, (b1 + b2) // 2)
    a3 = a1 * a2 // (e * e)
    b3 = ((x * u1 * a1 * b2 + x * v1 * a2 * b1 + w * (b1 * b2 + disc) // 2)
          // e) % (2 * a3)
    return reduce_form(a3, b3, (b3 * b3 - disc) // (4 * a3))


@lru_cache(maxsize=None, typed=True)
def form_pow(f, e: int) -> tuple[int, int, int]:
    """The reduced form of the class of f to the power e >= 0."""
    a, b, c = f = tuple(map(operator.index, f))
    e = operator.index(e)
    out = principal_form(b * b - 4 * a * c)
    while e:
        if e & 1:
            out = compose_forms(out, f)
        e >>= 1
        if e:
            f = compose_forms(f, f)
    return out


@lru_cache(maxsize=None, typed=True)
def form_order(f, h: int) -> int:
    """The order of the class of the reduced form f, given a multiple h >= 1
    of it such as the class number: the _order of f from h.  ValueError
    when f^h is not the identity, that is when the order does not divide
    h."""
    a, b, c = f = tuple(map(operator.index, f))
    h = operator.index(h)
    one = principal_form(b * b - 4 * a * c)
    if form_pow(f, h) != one:
        raise ValueError(f"the class of {f} has no order dividing {h}")
    return _order(lambda e: form_pow(f, e) == one, h)


@lru_cache(maxsize=None, typed=True)
def form_log(g, f, order: int):
    """The least k >= 0 with f^k = g, for a class f of the given order, or
    None when g is not a power of f: baby-step giant-step, O(sqrt(order))
    compositions."""
    g, order = tuple(map(operator.index, g)), operator.index(order)
    a, b, c = f = tuple(map(operator.index, f))
    step = math.isqrt(order - 1) + 1           # step^2 >= order
    x = principal_form(b * b - 4 * a * c)
    baby = {}
    for j in range(step):
        baby.setdefault(x, j)
        x = compose_forms(x, f)
    giant = reduce_form(x[0], -x[1], x[2])     # the inverse of f^step
    for i in range(step):
        j = baby.get(g)
        if j is not None:
            return i * step + j
        g = compose_forms(g, giant)
    return None


def _smallest_prime_factors(n: int) -> list[int]:
    spf = list(range(n + 1))
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            for j in range(p * p, n + 1, p):
                if spf[j] == j:
                    spf[j] = p
    return spf


@lru_cache(maxsize=None, typed=True)
def class_number(d: int) -> int:
    """Class number of the imaginary quadratic field Q(sqrt(-d)) for
    squarefree d >= 1.

    Counts reduced primitive forms (a, b, c) of the field discriminant
    D (-d when d = 3 mod 4, else -4d): b^2 - 4ac = D, -a < b <= a <= c,
    with b >= 0 when a = c.  For each a <= sqrt(|D|/3) only the b with
    b^2 = D (mod 4a) are visited.  That condition depends on b mod 2a only,
    so with a = 2^v * o, o odd, those b are the roots of D modulo o, joined
    by the Chinese remainder theorem to the roots modulo 2^(v+2) read mod
    2^(v+1).  The roots modulo o extend those modulo o / p^k, p the
    smallest prime factor of o from a sieve.  The count is exact and
    unconditional, in about sqrt(|D|) steps.
    """
    d = operator.index(d)
    if d < 1:
        raise ValueError("d must be >= 1")
    if d > 1 and any(e > 1 for _, e in factorize(d)):
        raise ValueError(f"d = {d} is not squarefree")
    disc = -d if d % 4 == 3 else -4 * d
    top = math.isqrt(-disc // 3)
    spf = _smallest_prime_factors(top)
    odd_roots = [None, [0]] + [None] * (top - 1)   # by odd o: roots mod o
    two_roots = []                                 # by v: roots mod 2^(v+1)
    h = 0
    for a in range(1, top + 1):
        v = (a & -a).bit_length() - 1
        o = a >> v
        if v == len(two_roots):
            two_roots.append(sorted({t % (2 << v)
                                     for t in sqrt_mod(disc, 2, v + 2)}))
        if odd_roots[o] is None:               # first visit: a = o
            p, k, rest = spf[o], 0, o
            while rest % p == 0:
                rest //= p
                k += 1
            base = odd_roots[rest]
            odd_roots[o] = base and _crt_join(
                base, rest, sqrt_mod(disc, p, k), o // rest)
        if not odd_roots[o] or not two_roots[v]:
            continue
        for b in _crt_join(odd_roots[o], o, two_roots[v], 2 << v):
            if b > a:                          # b mod 2a, into (-a, a]
                b -= 2 * a
            c = (b * b - disc) // (4 * a)
            if c > a or (c == a and b >= 0):
                # squarefree d: D is fundamental, every form primitive
                h += 1
    return h
