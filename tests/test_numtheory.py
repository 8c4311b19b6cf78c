"""Number theory layer: hand values, published anchors, brute-force oracles."""

import math
import random

import pytest

from gbflab import numtheory as nt

import referees as ref


def _brute_order_2(mod):
    t, k = 2 % mod, 1
    while t != 1:
        t = t * 2 % mod
        k += 1
    return k


def test_factorize_examples():
    assert nt.factorize(12) == ((2, 2), (3, 1))
    assert nt.factorize(7 * 7 * 13) == ((7, 2), (13, 1))
    assert nt.factorize(2 * 199 * 5) == ((2, 1), (5, 1), (199, 1))


def test_factorize_reconstructs():
    rng = random.Random(1)
    for _ in range(200):
        m = rng.randrange(2, 10**6)
        prod = 1
        last = 1
        for p, a in nt.factorize(m):
            assert p > last and nt.is_probable_prime(p)
            last = p
            prod *= p ** a
        assert prod == m


def test_factorize_bounds():
    assert not nt.is_probable_prime(1) and not nt.is_probable_prime(0)
    with pytest.raises(ValueError):
        nt.factorize(1)
    with pytest.raises(ValueError):
        nt.factorize(2**63)
    with pytest.raises(ValueError, match="composite"):   # both primes > 10^6
        nt.factorize((10**6 + 3) * (10**6 + 33))


def test_is_probable_prime_matches_sympy(monkeypatch):
    # every q = 1 (mod m) that the split primes of the census grid's moduli
    # scan, a seeded sample below 2^32, all n below 5000, the bases and
    # numbers near them, and strong pseudoprimes: 2047 to base 2, 25326001
    # to 2, 3 and 5, 3215031751 to 2, 3, 5 and 7, 4759123141, the least
    # to 2, 7 and 61, where the twelve bases take over, and the least to
    # the first five, six and seven primes
    sympy = pytest.importorskip("sympy")
    from gbflab import gbf
    scanned, probable_prime = [], nt.is_probable_prime
    monkeypatch.setattr(gbf, "is_probable_prime",
                        lambda q: scanned.append(q) or probable_prime(q))
    grid = ([(m, 1) for m in range(2, 41)] + [(m, 2) for m in range(2, 18)]
            + [(m, 3) for m in range(2, 8)])
    for m, n in grid:
        if m not in (2, 4):
            gbf._split_primes(m, n)
    rng = random.Random(61)
    sample = [rng.randrange(1 << 32) for _ in range(20000)]
    sample += [rng.randrange(1 << 16) | 1 for _ in range(2000)]
    near = [b + d for b in (2, 7, 61, 4759123141) for d in range(-6, 7)]
    pseudo = [2047, 25326001, 3215031751, 4759123141, 2152302898747,
              3474749660383, 341550071728321]
    assert len(scanned) > 700 and not any(map(sympy.isprime, pseudo))
    for q in scanned + sample + list(range(5000)) + near + pseudo:
        assert nt.is_probable_prime(q) == sympy.isprime(q), q


def test_factorize_certifies_only_a_cofactor_past_the_bound(monkeypatch):
    # every prime below the last trial divisor is divided out, so a cofactor
    # below its square is prime: below 10^12 Miller-Rabin never runs
    sympy = pytest.importorskip("sympy")
    calls, probable_prime = [], nt.is_probable_prime
    monkeypatch.setattr(nt, "is_probable_prime",
                        lambda n: calls.append(n) or probable_prime(n))
    factorize = nt.factorize.__wrapped__        # past the cache
    rng = random.Random(32)
    below = [rng.randrange(2, 10 ** rng.randrange(2, 13)) for _ in range(24)]
    below += [999983**2, 999979 * 999983, 2 * 499999999979]
    for m in below:
        assert dict(factorize(m)) == sympy.factorint(m), m
    assert calls == []
    # a prime cofactor at or above (10^6 + 1)^2, the square of the first
    # divisor past the bound, takes one call; 10^12 + 39 is prime and below it
    for m, certified in ((10**12 + 39, 0), (10**12 + 2000007, 1),
                         (3 * (2**61 - 1), 1)):
        calls.clear()
        assert factorize(m) == tuple(sorted(sympy.factorint(m).items()))
        assert len(calls) == certified, m
    calls.clear()
    with pytest.raises(ValueError, match="composite"):   # both primes > 10^6
        factorize((10**6 + 3) * (10**6 + 33))
    assert calls == [(10**6 + 3) * (10**6 + 33)]


def test_mult_order_2_examples():
    assert nt.mult_order_2(7) == 3
    assert nt.mult_order_2(17) == 8
    assert nt.mult_order_2(9) == _brute_order_2(9) == 6


def test_mult_order_2_rejects_even():
    with pytest.raises(ValueError):
        nt.mult_order_2(10)


def test_mult_order_2_minimality_small_range():
    # full brute-force comparison on a meaningful range
    for mod in range(3, 2001, 2):
        assert nt.mult_order_2(mod) == _brute_order_2(mod)


def test_mult_order_2_minimality_sweep():
    # 2^f = 1 with no proper divisor working is the same statement as
    # 2^j != 1 for every 1 <= j < f, since any such j would pull the true
    # order below f and the order divides f
    for mod in range(3, 10001, 2):
        f = nt.mult_order_2(mod)
        assert pow(2, f, mod) == 1
        for q, _ in nt.factorize(f):
            assert pow(2, f // q, mod) != 1


def test_order_divides_phi():
    for mod in range(3, 500, 2):
        assert nt.euler_phi(mod) % nt.mult_order_2(mod) == 0


def test_v2():
    assert nt.v2(8) == 3
    assert nt.v2(20) == 2
    assert nt.v2(99) == 0
    with pytest.raises(ValueError):
        nt.v2(0)


def test_semiprimitive_examples():
    assert nt.semiprimitive(3) == 1
    assert nt.semiprimitive(9) == 3          # 2^3 = 8 = -1 mod 9
    assert nt.semiprimitive(15) is None      # valuations 1 vs 2 disagree
    assert nt.semiprimitive(1) == 1
    with pytest.raises(ValueError):
        nt.semiprimitive(4)


def test_semiprimitive_matches_direct_scan():
    for m in range(3, 700, 2):
        found = None
        t = 2 % m
        for l in range(1, nt.euler_phi(m) + 1):
            if t == m - 1:
                found = l
                break
            t = t * 2 % m
        assert nt.semiprimitive(m) == found


def test_jacobi_published_values():
    assert nt.jacobi(2, 7) == 1
    assert nt.jacobi(29, 19) == -1
    assert nt.jacobi(-199, 5) == 1
    assert nt.jacobi(-199, 59) == -1
    assert nt.jacobi(0, 9) == 0
    assert nt.jacobi(5, 1) == 1


def test_jacobi_matches_euler_criterion():
    primes = [p for p in range(3, 503, 2) if nt.is_probable_prime(p)]
    for p in primes:
        for a in range(p):
            e = pow(a, (p - 1) // 2, p)
            want = -1 if e == p - 1 else e
            assert nt.jacobi(a, p) == want


def test_jacobi_rejects_even_modulus():
    with pytest.raises(ValueError):
        nt.jacobi(3, 8)


def test_order_lifting_for_non_wieferich_primes():
    # order mod p^l grows by a factor p per level, so phi(p^l)/f_l is constant
    primes = [p for p in range(3, 1000, 2) if nt.is_probable_prime(p)]
    for p in primes:
        assert pow(2, p - 1, p * p) != 1     # no Wieferich prime below 1000
        f1 = nt.mult_order_2(p)
        g1 = (p - 1) // f1
        for l in (2, 3):
            fl = nt.mult_order_2(p ** l)
            assert fl == p ** (l - 1) * f1
            assert nt.euler_phi(p ** l) // fl == g1


def _brute_semigroup(target, gens):
    # bounded enumeration over all coefficient vectors
    def rec(idx, left):
        if idx == len(gens):
            return () if left == 0 else None
        g = gens[idx]
        for c in range(left // g + 1):
            rest = rec(idx + 1, left - c * g)
            if rest is not None:
                return (c,) + rest
        return None

    return rec(0, target)


def _reach_table(limit, gens):
    # reach[i]: i is a nonnegative combination of gens
    reach = [True] + [False] * limit
    for g in gens:
        for i in range(g, limit + 1):
            if reach[i - g]:
                reach[i] = True
    return reach


def _greedy_walk(reach, target, gens):
    # back from target, each step by the smallest generator that stays
    # reachable
    if not reach[target]:
        return None
    gens = sorted(gens)
    counts = [0] * len(gens)
    i = target
    while i:
        idx = next(k for k, g in enumerate(gens) if i >= g and reach[i - g])
        counts[idx] += 1
        i -= gens[idx]
    return tuple(counts)


def test_semigroup_member_is_the_greedy_walk():
    # every C1 input with odd m < 1000 and odd n <= 11
    for m in range(3, 1000, 2):
        gens = [p for p, _ in nt.factorize(m)]
        reach = _reach_table(1 << 11, gens)
        for n in range(1, 12, 2):
            assert nt.semigroup_member(1 << n, gens) == \
                _greedy_walk(reach, 1 << n, gens), (m, n)
    rng = random.Random(12)
    for _ in range(200):
        gens = sorted({rng.randrange(3, 120, 2)
                       for _ in range(rng.randrange(1, 5))})
        target = rng.randrange(1, 3000)
        assert nt.semigroup_member(target, gens) == \
            _greedy_walk(_reach_table(target, gens), target, gens), gens
    target = 1 << 20
    assert nt.semigroup_member(target, [3, 5]) == \
        _greedy_walk(_reach_table(target, [3, 5]), target, [3, 5])


def test_semigroup_member_examples():
    assert nt.semigroup_member(64, [7, 13]) is None
    assert nt.semigroup_member(8, [3, 5]) == (1, 1)
    assert nt.semigroup_member(128, [7, 13]) == (9, 5)
    with pytest.raises(ValueError):
        nt.semigroup_member(8, [])
    with pytest.raises(ValueError):
        nt.semigroup_member(8, [4])
    with pytest.raises(ValueError):
        nt.semigroup_member(0, [3])


def test_semigroup_member_against_brute_force():
    gens_list = [(3,), (7,), (3, 5), (7, 13), (3, 5, 7), (5, 7, 11)]
    for gens in gens_list:
        for target in range(1, 513):
            got = nt.semigroup_member(target, gens)
            brute = _brute_semigroup(target, gens)
            assert (got is None) == (brute is None)
            if got is not None:
                assert sum(c * g for c, g in zip(got, gens)) == target


def test_semigroup_member_is_the_greedy_walk_at_wide_residue_searches():
    # 2-4 distinct odd generators up to 5000, so the residue search runs
    # over up to thousands of classes: primes, odd composites, and sets
    # that share a factor, against the DP referee at targets up to 2^15
    rng = random.Random(47)
    limit = 1 << 15
    outcomes = set()
    for case in range(96):
        k = rng.randrange(2, 5)
        if case % 3 == 0:
            gens = {nt.factorize(rng.randrange(3, 5000, 2))[-1][0]
                    for _ in range(k)}
        elif case % 3 == 1:
            gens = {rng.randrange(3, 5000, 2) for _ in range(k)}
        else:
            common = rng.choice((3, 5, 7))
            gens = {common * rng.randrange(1, 5000 // common, 2)
                    for _ in range(k)}
        gens = sorted(gens)
        reach = _reach_table(limit, gens)
        for target in [limit] + [rng.randrange(1, limit) for _ in range(4)]:
            got = nt.semigroup_member(target, gens)
            assert got == _greedy_walk(reach, target, gens), (target, gens)
            outcomes.add(got is None)
    assert outcomes == {True, False}


def test_semigroup_member_closed_forms_past_any_bitset():
    # over {3, 5} the largest multiple of 3 leaves the least x = 0 (mod 5)
    # with x = t (mod 3); one generator never divides a power of 2
    t = 2**200
    x = 5 * (t * pow(5, -1, 3) % 3)
    assert nt.semigroup_member(t, [3, 5]) == ((t - x) // 3, x // 5)
    assert nt.semigroup_member(t, [7]) is None


def test_semigroup_member_takes_integers_through_index():
    import numpy as np
    with pytest.raises(TypeError):
        nt.semigroup_member(8, [3.5, 5.9])
    got = nt.semigroup_member(np.int64(8), [3, 5])
    assert got == (1, 1) and all(type(c) is int for c in got)
    got = nt.semigroup_member(128, [np.int64(7), np.int32(13)])
    assert got == (9, 5) and all(type(c) is int for c in got)


def test_factorize_takes_integers_through_index():
    import numpy as np
    for _ in range(2):                         # the cache keeps no refusal
        with pytest.raises(TypeError):
            nt.factorize(12.0)
    got = nt.factorize(np.int64(12))
    assert got == ((2, 2), (3, 1))
    assert all(type(x) is int for pair in got for x in pair)


def _cast(value, kind):
    if isinstance(value, (tuple, list)):
        return type(value)(_cast(v, kind) for v in value)
    return kind(value)


def _leaves(value):
    if isinstance(value, (tuple, list)):
        return [leaf for v in value for leaf in _leaves(v)]
    return [value]


@pytest.mark.parametrize("name,args", [
    ("factorize", (12,)), ("euler_phi", (12,)), ("odd_part", (12,)),
    ("v2", (12,)), ("mult_order_2", (7,)), ("semiprimitive", (5,)),
    ("jacobi", (2, 7)), ("semigroup_member", (8, (3, 5))),
    ("sqrt_mod", (2, 7)), ("cornacchia", (7, ((2, 5),))),
    ("is_probable_prime", (97,)), ("class_number", (71,)),
    ("form_pow", ((2, 1, 4), 5)), ("form_order", ((2, 1, 4), 3)),
    ("form_log", ((2, -1, 4), (2, 1, 4), 3))])
def test_integers_go_through_index(name, args):
    # a numpy integer gives the Python-int result, with Python types; a
    # float raises TypeError, also straight after the numpy call has filled
    # a cache entry that compares equal to it
    import numpy as np
    fn = getattr(nt, name)
    want = fn(*args)
    got = fn(*_cast(args, np.int64))
    assert got == want
    assert [type(x) for x in _leaves(got)] == [type(x) for x in _leaves(want)]
    with pytest.raises(TypeError):
        fn(*_cast(args, float))


def test_solvers_examples():
    assert ref.solve_ax2_by2(1, 7, 8) == (1, 1)
    assert ref.solve_ax2_by2(1, 23, 32) == (3, 1)
    assert ref.solve_ax2_by2(1, 199, 2**7 * 5) == (21, 1)
    assert ref.solve_ax2_by2(1, 3, 5) is None
    assert ref.solve_ax2_by2(19, 29, 2**15) == (21, 29)
    assert ref.solve_ax2_by2(19, 29, 8) is None
    assert ref.solve_ax2_by2(3, 5, 8) == (1, 1)
    with pytest.raises(ValueError):
        ref.solve_ax2_by2(0, 1, 1)


def _brute_ax2_by2(a, b, N):
    # every y <= sqrt(N/b) and every x <= sqrt(N/a)
    return any(a * x * x + b * y * y == N
               for y in range(math.isqrt(N // b) + 1)
               for x in range(math.isqrt(N // a) + 1))


def test_solver_solutions_satisfy_equation():
    # every other a is not squarefree: there a square a*(N - b*y^2) = X^2
    # with a not dividing X must not count as a hit
    rng = random.Random(9)
    squareful = (4, 8, 9, 12, 16, 18, 25, 27)
    for i in range(300):
        a = squareful[i % 8] if i % 2 else rng.randrange(1, 30)
        b = rng.randrange(1, 30)
        N = rng.randrange(1, 4000)
        sol = ref.solve_ax2_by2(a, b, N)
        if sol is not None:
            x, y = sol
            assert a * x * x + b * y * y == N
        else:
            assert not _brute_ax2_by2(a, b, N), (a, b, N)
    assert ref.solve_ax2_by2(4, 3, 4) == (1, 0)
    assert ref.solve_ax2_by2(4, 3, 1) is None     # 4*1 = 2^2, 4 does not divide 2


def test_class_number_published_values():
    table = {7: 1, 23: 3, 31: 3, 47: 5, 71: 7, 79: 5, 103: 5, 127: 5,
             151: 7, 191: 13, 199: 9}
    for p, h in table.items():
        assert nt.class_number(p) == h
    assert nt.class_number(1) == 1
    assert nt.class_number(2) == 1
    assert nt.class_number(5) == 2
    assert nt.class_number(551) == 26


def test_class_number_rejects_non_squarefree():
    with pytest.raises(ValueError):
        nt.class_number(12)
    with pytest.raises(ValueError):
        nt.class_number(0)


def test_class_number_odd_for_p7_primes():
    for p in range(7, 500, 8):
        if nt.is_probable_prime(p):
            assert nt.class_number(p) % 2 == 1


def _squarefree(limit):
    return [d for d in range(1, limit)
            if d == 1 or all(e == 1 for _, e in nt.factorize(d))]


def test_class_number_matches_form_count_below_10_4():
    # the count over b^2 = D (mod 4a) against the count over every
    # |b| <= a <= sqrt(|D|/3)
    for d in _squarefree(10**4):
        assert nt.class_number(d) == ref.class_number_by_forms(d), d


def test_class_number_large_discriminants():
    # h(-p) for p = 2*10^8 + 3 and 10^9 + 7, where the form count over every
    # (a, b) makes about 10^8 and 6*10^8 steps; both are odd, as for every
    # prime p = 3 (mod 4), and divisible by the order of the prime form over
    # 2 that they split
    for d, h in ((200000003, 3840), (10**9 + 7, 26629)):
        assert nt.class_number(d) == h
        if d % 8 == 7:
            assert h % nt.form_order(nt.reduce_form(2, 1, (1 + d) // 8), h) == 0


# -- square roots, Cornacchia and forms ------------------------------------------


def test_sqrt_mod_matches_brute_force():
    for p, top in ((2, 9), (3, 6), (5, 4), (7, 3), (11, 2), (13, 2), (97, 1)):
        for k in range(1, top + 1):
            mod = p ** k
            roots = {}
            for x in range(mod):
                roots.setdefault(x * x % mod, []).append(x)
            for a in range(-mod, 2 * mod, 1 if mod < 200 else 7):
                assert nt.sqrt_mod(a, p, k) == roots.get(a % mod, []), (a, p, k)
    with pytest.raises(ValueError):
        nt.sqrt_mod(1, 3, 0)


def test_sqrt_mod_large_prime_powers():
    # Hensel lifting far beyond brute force: 4 roots modulo 2^k of a unit
    # = 1 (mod 8), 2 modulo an odd prime power, p^(v/2) times as many when
    # p^v divides a
    for a, p, k, count in ((-(10**9 + 7), 2, 3000, 4), (10**6, 10**9 + 7, 3, 2),
                           (2, 7, 40, 2), (9 * 7, 3, 12, 6), (-7 * 64, 2, 20, 32)):
        mod = p ** k
        roots = nt.sqrt_mod(a, p, k)
        assert len(roots) == count and roots == sorted(set(roots))
        assert all(0 <= x < mod and (x * x - a) % mod == 0 for x in roots)
    assert nt.sqrt_mod(3, 2, 10) == [] and nt.sqrt_mod(2, 3, 5) == []
    assert nt.sqrt_mod(3 * 25, 5, 4) == []        # odd power of p in a


def test_sqrt_mod_matches_sympy():
    ntheory = pytest.importorskip("sympy.ntheory")
    rng = random.Random(3)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7, 31, 10007))
        k = rng.randrange(1, 12 if p < 10 else 3)
        a = rng.randrange(p ** k)
        want = sorted(ntheory.sqrt_mod(a, p ** k, all_roots=True) or [])
        assert nt.sqrt_mod(a, p, k) == want, (a, p, k)


def _units_and_squares(rng, p, k, count):
    # random units modulo p^k, every other one a square so that roots exist
    mod = p ** k
    for i in range(count):
        x = rng.randrange(1, mod, 2) if p == 2 else rng.randrange(1, mod)
        if x % p:
            yield x * x % mod if i % 2 else x


def test_unit_sqrt_mod_matches_the_hensel_referee():
    # Newton on the inverse square root against the lift that inverts at
    # each step, at p = 2 up to 30,000 bits and at odd primes up to k = 40
    rng = random.Random(11)
    cases = [(2, k, 12) for k in range(1, 65)]
    cases += [(2, k, 2) for k in (1000, 4097, 30000)]
    cases += [(p, k, 6) for p in (3, 5, 7, 31, 10007) for k in range(1, 41)]
    for p, k, count in cases:
        for u in _units_and_squares(rng, p, k, count):
            assert nt._unit_sqrt_mod(u, p, k) == \
                ref.unit_sqrt_mod_hensel(u, p, k), (u, p, k)


def test_unit_sqrt_mod_inverts_at_most_once(monkeypatch):
    # no inverse at 2 and one, of the root modulo p, at an odd prime,
    # however many Newton steps the lift takes
    inverses = []

    def counting_pow(base, exp, mod=None):
        if exp == -1:
            inverses.append(mod)
        return pow(base, exp, mod)

    monkeypatch.setattr(nt, "pow", counting_pow, raising=False)
    roots = nt._unit_sqrt_mod(-(10**9 + 7) % (1 << 20_000), 2, 20_000)
    assert len(roots) == 4 and inverses == []
    u = pow(12345, 2, 10007 ** 40)
    roots = nt._unit_sqrt_mod(u, 10007, 40)
    assert len(roots) == 2 and inverses == [10007]


def _brute_primitive(d, M):
    return [(x, y) for y in range(math.isqrt(M // d) + 1)
            for x in [math.isqrt(M - d * y * y)]
            if x * x + d * y * y == M and math.gcd(x, y) == 1]


def test_cornacchia_finds_every_primitive_solution():
    # every d < 40 and M < 800, with all the roots of -d modulo M joined by
    # the Chinese remainder theorem; d = 1 has the extra unit i
    for d in range(1, 40):
        for M in range(2, 800):
            assert nt.cornacchia(d, nt.factorize(M)) == _brute_primitive(d, M), (d, M)
    assert nt.cornacchia(1, ((5, 2),)) == [(4, 3), (3, 4)]
    with pytest.raises(ValueError):
        nt.cornacchia(0, ((2, 3),))


def test_cornacchia_at_large_powers_of_2():
    # x^2 + p*y^2 = 2^(r+2) at the least odd r for p = 10^9 + 7; witness
    # coordinates of about r/2 bits
    p, r = 10**9 + 7, 26629
    sols = nt.cornacchia(p, ((2, r + 2),))
    assert sols and all(x * x + p * y * y == 1 << (r + 2) and x % 2 and y % 2
                        for x, y in sols)
    assert nt.cornacchia(p, ((2, r),)) == []


def test_cornacchia_matches_sympy():
    corn = pytest.importorskip("sympy.solvers.diophantine.diophantine")
    rng = random.Random(5)
    for _ in range(200):
        d = rng.randrange(2, 2000)
        factors = sorted({2: rng.randrange(3, 60),
                          rng.choice((1, 3, 5, 7, 11, 13)): 1}.items())
        factors = [(p, k) for p, k in factors if p > 1]
        M = math.prod(p ** k for p, k in factors)
        want = {s for s in corn.cornacchia(1, d, M) if math.gcd(*s) == 1}
        assert set(nt.cornacchia(d, factors)) == want, (d, M)


def _reduced_forms(d):
    disc = -d if d % 4 == 3 else -4 * d
    out = []
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):
            if (b * b - disc) % (4 * a) == 0:
                c = (b * b - disc) // (4 * a)
                if c > a or (c == a and b >= 0):
                    out.append((a, b, c))
        a += 1
    return disc, out


def test_form_class_group_laws():
    # for each squarefree d < 600: the reduced forms are fixed by reduction,
    # composition is commutative and associative with the principal form as
    # identity and (a, -b, c) as inverse, and form_order (given h or a
    # multiple of it) and form_log agree with repeated composition
    rng = random.Random(11)
    for d in _squarefree(600):
        disc, forms = _reduced_forms(d)
        one = nt.principal_form(disc)
        h = len(forms)
        assert one in forms and h == nt.class_number(d)
        for f in forms:
            assert nt.reduce_form(*f) == f
            powers = [one]
            while len(powers) == 1 or powers[-1] != one:
                powers.append(nt.compose_forms(powers[-1], f))
            order = len(powers) - 1
            assert nt.form_order(f, h) == order
            # and from the multiples k*h of the class number
            assert all(nt.form_order(f, k * h) == order for k in (2, 3, 4, 6))
            assert nt.form_pow(f, order + 2) == powers[2 % order]
            assert nt.compose_forms(f, nt.reduce_form(f[0], -f[1], f[2])) == one
            g = rng.choice(forms)
            log = nt.form_log(g, f, order)
            assert log == (powers.index(g) if g in powers[:order] else None)
            e = rng.choice(forms)
            assert nt.compose_forms(f, g) == nt.compose_forms(g, f)
            assert (nt.compose_forms(nt.compose_forms(f, g), e)
                    == nt.compose_forms(f, nt.compose_forms(g, e)))
    # an unreduced form and a multiple of the order
    assert nt.reduce_form(3, 7, 5) == nt.reduce_form(3, 1, 1) == (1, 1, 3)
    with pytest.raises(ValueError):
        nt.form_order((2, 1, 3), 2)                  # h(-23) = 3
    with pytest.raises(ValueError):
        nt.form_order(nt.reduce_form(2, 1, 3), 1)    # not principal


def _least_odd_r(a, b, k=1, *, bound):
    return next(ref.exponent_solutions(a, b, range(1, bound + 1, 2), k), None)


def test_min_odd_r_anchors():
    r, x, y = _least_odd_r(1, 47, bound=nt.class_number(47))
    assert r == 5 and x ** 2 + 47 * y ** 2 == 2 ** 7
    r, x, y = _least_odd_r(1, 199, 5, bound=9)
    assert r == 5 and x ** 2 + 199 * y ** 2 == 2 ** 7 * 5
    r, x, y = _least_odd_r(19, 29, bound=nt.class_number(19 * 29))
    assert r == 13 and 19 * x ** 2 + 29 * y ** 2 == 2 ** 15
    assert _least_odd_r(1, 199, 5, bound=3) is None


def test_exponent_solutions_yields_every_hit_in_order():
    # C4 at {710, 1}: the r2 scan up to r1 = 7 meets the even exponents 2
    # and 4 before r2 = 5
    hits = list(ref.exponent_solutions(1, 71, range(1, 8), 5))
    assert hits[:3] == [(2, 3, 1), (4, 6, 2), (5, 1, 3)]
    assert all(x * x + 71 * y * y == (1 << (e + 2)) * 5 for e, x, y in hits)
    assert [e for e, _, _ in hits] == [
        e for e in range(1, 8) if _brute_ax2_by2(1, 71, (1 << (e + 2)) * 5)]
    assert _least_odd_r(1, 71, bound=nt.class_number(71))[0] == 7


def test_min_odd_r_divides_class_number_for_reference_primes():
    for p in (7, 23, 31, 47, 71, 79, 103, 127, 151, 191, 199):
        h = nt.class_number(p)
        hit = _least_odd_r(1, p, bound=h)
        assert hit is not None and h % hit[0] == 0
        assert hit[0] > math.log2(p) - 2


def test_min_odd_r_matches_sympy_cornacchia():
    # with a and b odd, a solution at the least odd r is primitive (an even
    # pair would come from r - 2), so Cornacchia, which finds primitive
    # solutions only, is a complete referee there
    corn = pytest.importorskip("sympy.solvers.diophantine.diophantine")
    c3 = [(1, p, 1) for p in range(7, 200, 8) if nt.is_probable_prime(p)]
    c4 = [(1, p1, p2) for p1 in (7, 23, 47, 199) for p2 in (3, 5, 11, 13)]
    c5 = [(p1, p2, 1) for p1 in (3, 11, 19, 43) for p2 in (5, 13, 29, 37)]
    assert len(c3 + c4 + c5) == 44
    for a, b, k in c3 + c4 + c5:
        h = nt.class_number(a * b)
        hit = _least_odd_r(a, b, k, bound=h)
        want = next(((r, found) for r in range(1, h + 1, 2)
                     if (found := corn.cornacchia(a, b, (1 << (r + 2)) * k))),
                    None)
        if want is None:
            assert hit is None, (a, b, k)
        else:
            assert hit[0] == want[0] and hit[1:] in want[1], (a, b, k)


def test_odd_part():
    assert nt.odd_part(40) == 5
    assert nt.odd_part(7) == 7
    with pytest.raises(ValueError):
        nt.odd_part(0)
