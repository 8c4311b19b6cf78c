"""Acceptance suite: one test per criterion, each printing a PASS line.

All tolerances are zero; every assertion is on exact integers.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import json
import math
import random
import time
from pathlib import Path

from gbflab import numtheory as nt
from gbflab.cli import main, table_p7_rows, table_rp_rows
from gbflab.criteria import (C1, C3, C4, C5, EXISTS, NOT_EXISTS,
                             crit_lam_leung, decide)
from gbflab.cyclotomic import CycInt, zeta_pow
from gbflab.gbf import GbfType, table, walsh
from gbflab.oracle import DEFAULT_BUDGET, enumerate_gbfs


GOLDENS = (Path(__file__).resolve().parents[1]
           / "bench" / "goldens" / "goldens.json")


def _line(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


def test_a01_rp_table():
    start = time.time()
    rows = table_rp_rows()
    elapsed = time.time() - start
    want_p = (17, 41, 73, 89, 97, 113, 137, 193, 257, 1553, 1777, 65537)
    want_d = (8, 20, 9, 11, 48, 28, 68, 96, 16, 194, 74, 32)
    # the published r row prints 3 for p = 97, but its own d row gives
    # d_97 = 48 and the 2-adic valuation of 48 is 4; assert the valuation
    want_r = (3, 2, 0, 0, 4, 2, 2, 5, 4, 1, 1, 5)
    ok = (tuple(r[0] for r in rows) == want_p
          and tuple(r[1] for r in rows) == want_d
          and tuple(r[2] for r in rows) == want_r
          and elapsed < 1.0)
    _line("A01", ok, f"rp table, 12 columns, {elapsed:.2f}s")


def test_a02_p7_table():
    start = time.time()
    rows = table_p7_rows()
    elapsed = time.time() - start
    want = [(7, 1, 1, 1), (23, 1, 3, 3), (31, 3, 3, 3), (47, 1, 5, 5),
            (71, 1, 7, 7), (79, 1, 5, 5), (103, 1, 5, 5), (127, 9, 5, 5),
            (151, 5, 7, 7), (191, 1, 13, 13), (199, 1, 9, 9)]
    ok = rows == want and elapsed < 5.0
    _line("A02", ok, f"p7 table, 11 columns incl. h(-191)=13, {elapsed:.2f}s")


def test_a03_two_prime_semigroup_family():
    ok = True
    for a1 in (1, 2):
        for a2 in (1, 2):
            m = 7 ** a1 * 13 ** a2
            for n in range(1, 7):
                v = decide(GbfType(m, n))
                ok &= v.kind == NOT_EXISTS and v.report.criterion == C1
    boundary = crit_lam_leung(GbfType(7 * 13, 7))
    ok &= not boundary.fired
    ok &= boundary.quantities["semigroup"]["solution"] == [9, 5]
    _line("A03", ok, "7^a1*13^a2 excluded for n=1..6; boundary 128=9*7+5*13")


def test_a04_single_prime_field_descent_family():
    ok = True
    for n in (1, 3, 5, 7):
        v = decide(GbfType(2 * 199, n))
        q = v.report.quantities if v.report else {}
        ok &= (v.kind == NOT_EXISTS and v.report.criterion == C3
               and q["s"] == 1 and q["r"] == 9)
    for n in (1, 3, 5, 7, 9, 11):
        v = decide(GbfType(2 * 191, n))
        q = v.report.quantities if v.report else {}
        ok &= (v.kind == NOT_EXISTS and v.report.criterion == C3
               and q["r"] == 13)
    _line("A04", ok, "2*199 (s=1, r=9) for n<=7; 2*191 (r=13) for n<=11")


def test_a05_two_prime_field_descent_family():
    ok = True
    for n in (1, 3, 5, 7):
        v = decide(GbfType(2 * 199 * 59, n))
        q = v.report.quantities if v.report else {}
        ok &= (v.kind == NOT_EXISTS and v.report.criterion == C4
               and q["branch"] == "I")
    for n in (1, 3):
        v = decide(GbfType(2 * 199 * 5, n))
        q = v.report.quantities if v.report else {}
        ok &= (v.kind == NOT_EXISTS and v.report.criterion == C4
               and q["branch"] == "II" and q["r2"] == 5)
        x, y = q["r2_witness"]
        ok &= x * x + 199 * y * y == 2 ** 7 * 5 and (x, y) == (21, 1)
    _line("A05", ok, "2*199*59 branch I for n<=7; 2*199*5 branch II, r2=5")


def test_a06_three_five_family():
    ok = True
    for n in (1, 3, 5, 7, 9, 11):
        v = decide(GbfType(2 * 19 * 29, n))
        q = v.report.quantities if v.report else {}
        ok &= (v.kind == NOT_EXISTS and v.report.criterion == C5
               and q["s"] == 1 and q["r"] == 13)
        x, y = q["r_witness"]
        ok &= 19 * x * x + 29 * y * y == 2 ** 15
    _line("A06", ok, "2*19*29 (s=1, r=13) for odd n<=11, witness 19*441+29*841")


def test_a07_oracle_cross_validation_grid():
    start = time.time()
    grid = [(m, 1) for m in range(2, 41)] \
        + [(m, 2) for m in range(2, 41)] \
        + [(m, 3) for m in range(2, 10)] \
        + [(2, 4)]
    # {8,3} and {9,3} have 8^8 and 9^8 tables, above the default budget
    budgets = {(8, 3): 8 ** 8, (9, 3): 9 ** 8}
    # {8,3} as counted by the full enumeration of every table; {9,3} and
    # n = 2 beyond the golden as counted by the folded-autocorrelation
    # kernel the split-prime kernel replaced
    named = {(3, 1): 0, (2, 2): 8, (4, 1): 8, (6, 1): 0, (8, 3): 7168,
             (9, 3): 0, (30, 2): 5160, (32, 2): 5888, (34, 2): 6664,
             (36, 2): 7488, (38, 2): 8360, (40, 2): 9280}
    named.update({(m, 2): 0 for m in range(29, 41, 2)})
    # census of the benchmark's 61 cells (n <= 3), recorded by it (read-only)
    with open(GOLDENS, encoding="utf-8") as fh:
        census = json.load(fh)["oracle-census"]
    ok = True
    cells = compared = 0
    for m, n in grid:
        t = GbfType(m, n)
        res = enumerate_gbfs(t, budget=budgets.get((m, n), DEFAULT_BUDGET))
        want = census.get(f"{m} {n}")
        if want is not None:
            ok &= (res.total_candidates, res.gbf_count,
                   [list(w.values) for w in res.witnesses]) == (
                       want["total"], want["count"], want["witnesses"])
            compared += 1
        verdict = decide(t)
        if verdict.kind == EXISTS:
            ok &= res.gbf_count >= 1
        elif verdict.kind == NOT_EXISTS:
            ok &= res.gbf_count == 0
        if (m, n) in named:
            ok &= res.gbf_count == named[(m, n)]
        cells += 1
    elapsed = time.time() - start
    ok &= compared == len(census) and elapsed < 600
    _line("A07", ok, f"oracle vs engine on {cells} cells, census equal to "
          f"the golden on {compared}, {elapsed:.1f}s")


def test_a08_construction_suite(tmp_path):
    cells = [(m, n) for m in (2, 4, 6, 8, 10, 12) for n in (2, 4, 6)]
    cells += [(m, n) for m in (4, 8) for n in (1, 2, 3, 4, 5)]
    passed = 0
    for m, n in cells:
        path = tmp_path / f"w_{m}_{n}.json"
        built = main(["construct", str(m), str(n), "--out", str(path)])
        verified = main(["verify", str(path)])
        passed += built == 0 and verified == 0
    ok = passed == len(cells)
    _line("A08", ok, f"construct+verify on {passed}/{len(cells)} cells")


def test_a09_property_suites():
    ok = True

    # Parseval and inversion on 200 seeded random tables
    rng = random.Random(2024)
    for _ in range(200):
        m = rng.randrange(2, 13)
        n = rng.randrange(1, 5)
        f = table(m, n, [rng.randrange(m) for _ in range(1 << n)])
        sp = walsh(f)
        total = CycInt.zero(m)
        for w in sp:
            total = total + w.abs_square()
        ok &= total == 4 ** n
        for x in range(1 << n):
            acc = CycInt.zero(m)
            for y, w in enumerate(sp):
                acc = acc + (-w if (x & y).bit_count() & 1 else w)
            ok &= acc == (1 << n) * zeta_pow(m, f.values[x])

    # Galois group law on 100 random elements per modulus
    for m in (3, 4, 5, 7, 9, 12):
        units = [a for a in range(1, m) if math.gcd(a, m) == 1]
        for _ in range(100):
            alpha = CycInt(m, [rng.randrange(-9, 10) for _ in range(m)])
            for a in units:
                for b in units:
                    ok &= alpha.galois(a).galois(b) == alpha.galois(a * b % m)

    # semigroup reachability equals bounded brute force up to 512
    def brute(target, gens):
        def rec(idx, left):
            if idx == len(gens):
                return left == 0
            g = gens[idx]
            return any(rec(idx + 1, left - c * g)
                       for c in range(left // g + 1))
        return rec(0, target)

    for gens in ((3,), (7, 13), (3, 5, 7), (5, 7, 11)):
        for target in range(1, 513):
            ok &= (nt.semigroup_member(target, gens) is not None) == \
                brute(target, gens)

    # semiprimitive: honest power iteration vs the per-prime valuation test
    for m in range(3, 10001, 2):
        t, found = 2 % m, False
        while t != 1:
            if t == m - 1:
                found = True
                break
            t = t * 2 % m
        vals = {nt.v2(nt.mult_order_2(p)) for p, _ in nt.factorize(m)}
        by_val = len(vals) == 1 and min(vals) >= 1
        ok &= found == by_val
        ok &= (nt.semiprimitive(m) is not None) == found

    # class numbers odd for p = 7 mod 8 up to 500; r divides h
    for p in range(7, 500, 8):
        if nt.is_probable_prime(p):
            ok &= nt.class_number(p) % 2 == 1
    for p, _, h, r in [(7, 1, 1, 1), (23, 1, 3, 3), (31, 3, 3, 3),
                       (47, 1, 5, 5), (71, 1, 7, 7), (79, 1, 5, 5),
                       (103, 1, 5, 5), (127, 9, 5, 5), (151, 5, 7, 7),
                       (191, 1, 13, 13), (199, 1, 9, 9)]:
        ok &= nt.class_number(p) == h and h % r == 0
        ok &= nt.form_order(nt.reduce_form(2, 1, (1 + p) // 8), h) == r
        ok &= bool(nt.cornacchia(p, ((2, r + 2),)))

    _line("A09", ok, "Parseval/inversion, Galois law, semigroup, "
                     "semiprimitive sweep to 10^4, class numbers")


def _qualifying_cells(limit=300):
    """Types excluded for every odd n by the concluding checklist:
    (A) odd prime powers; (B) twice a prime power, p = 3,5 mod 8 or
    p = 1 mod 8 with even order of 2; (C) twice p1^a1 p2^a2 with
    (p1, p2) = (3, 5) mod 8 and (p2/p1) = 1; (D) twice a product of primes
    all 3 mod 8 or all 5 mod 8."""
    out = set()
    for m in range(3, limit + 1):
        half = m // 2 if m % 2 == 0 else None
        if m % 2 == 1:
            if len(nt.factorize(m)) == 1:
                out.add(m)                                   # (A)
            continue
        if half is None or half % 2 == 0 or half < 3:
            continue
        factors = nt.factorize(half)
        primes = [p for p, _ in factors]
        if len(factors) == 1:
            p = primes[0]
            if p % 8 in (3, 5) or (p % 8 == 1
                                   and nt.mult_order_2(p) % 2 == 0):
                out.add(m)                                   # (B)
        if len(factors) == 2:
            p3 = [p for p in primes if p % 8 == 3]
            p5 = [p for p in primes if p % 8 == 5]
            if len(p3) == 1 and len(p5) == 1 \
                    and nt.jacobi(p5[0], p3[0]) == 1:
                out.add(m)                                   # (C)
        if all(p % 8 == 3 for p in primes) or all(p % 8 == 5 for p in primes):
            out.add(m)                                       # (D)
    return sorted(out)


def test_a10_conclusion_checklist():
    cells = _qualifying_cells(300)
    ok = len(cells) > 0
    bad = []
    for m in cells:
        for n in (1, 3, 5, 7, 9):
            v = decide(GbfType(m, n))
            if v.kind != NOT_EXISTS:
                bad.append((m, n, v.kind))
                ok = False
    _line("A10", ok, f"{len(cells)} qualifying m <= 300, odd n <= 9 all "
                     f"NotExists{'; offenders: ' + str(bad[:5]) if bad else ''}")
