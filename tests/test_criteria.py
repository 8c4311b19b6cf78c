"""The decision engine: rule dispatch, criterion firing, report integrity."""

import copy
import dataclasses
import json
import random
import time
import tracemalloc

import pytest

from gbflab import criteria, gbf, numtheory as nt
from gbflab.cli import verdict_to_dict
from gbflab.criteria import (C1, C2, C3, C4, C5, EXISTS, MAX_N, NOT_EXISTS,
                             UNKNOWN, crit_lam_leung, crit_p3_x_p5, crit_p7,
                             crit_p7_x_p35, crit_semiprimitive, decide,
                             report_from_dict, revalidate_report, rule_exists,
                             summarize_report)
from gbflab.gbf import (GbfType, construct_boolean_bent, construct_even_even,
                        direct_sum, is_gbf, lift_modulus, table)

import referees as ref


def test_rule_exists_examples():
    w, rule = rule_exists(GbfType(6, 2))
    assert rule == "E3" and is_gbf(w)
    w, rule = rule_exists(GbfType(8, 3))
    assert rule == "E1" and w.gbf_type == GbfType(8, 3) and is_gbf(w)
    assert rule_exists(GbfType(2, 3)) is None
    assert rule_exists(GbfType(3, 2)) is None
    assert rule_exists(GbfType(15, 3)) is None
    w, rule = rule_exists(GbfType(2, 4))
    assert rule == "E2" and is_gbf(w)
    w, rule = rule_exists(GbfType(4, 5))
    assert rule == "E1" and is_gbf(w)


def test_decide_guards():
    with pytest.raises(ValueError):
        decide(GbfType(4, 25))
    # refused before any table is built (2^25 values at n = 25)
    with pytest.raises(ValueError, match="resource guard"):
        rule_exists(GbfType(4, 25))
    with pytest.raises(ValueError):
        GbfType(1, 3)


def test_decide_examples():
    v = decide(GbfType(4, 5))
    assert v.kind == EXISTS and v.rule == "E1" and is_gbf(v.witness)

    v = decide(GbfType(9, 3))
    assert v.kind == NOT_EXISTS and v.report.criterion == C1

    v = decide(GbfType(2 * 199, 7))
    assert v.kind == NOT_EXISTS and v.report.criterion == C3
    q = v.report.quantities
    assert q["s"] == 1 and q["r"] == 9

    v = decide(GbfType(14, 1))
    assert v.kind == UNKNOWN
    assert {rep.criterion for rep in v.attempts} == {C2, C3}


def test_c1_examples():
    assert crit_lam_leung(GbfType(7 ** 2 * 13, 6)).fired
    rep = crit_lam_leung(GbfType(3 * 5, 3))
    assert not rep.fired
    assert rep.quantities["semigroup"]["solution"] == [1, 1]
    for p, a in ((3, 2), (7, 1), (11, 3)):
        for n in range(1, 7):
            assert crit_lam_leung(GbfType(p ** a, n)).fired
    assert crit_lam_leung(GbfType(6, 1)) is None
    # 2^24 is not a multiple of the prime 1000003
    rep = crit_lam_leung(GbfType(1000003, 24))
    assert rep.fired and rep.quantities["semigroup"]["solution"] is None


def test_c1_records_the_closed_form_at_n24():
    # over {3, 5}: the largest multiple of 3 leaves x = 5*(t*5^-1 mod 3)
    t = 1 << 24
    x = 5 * (t * pow(5, -1, 3) % 3)
    rep = crit_lam_leung(GbfType(15, 24))
    assert not rep.fired
    assert rep.quantities["semigroup"] == {
        "target": t, "generators": [3, 5],
        "solution": [(t - x) // 3, x // 5]}


def test_c1_boundary_at_n7():
    rep = crit_lam_leung(GbfType(7 * 13, 7))
    assert not rep.fired
    assert rep.quantities["semigroup"]["solution"] == [9, 5]


def test_c2_examples():
    rep = crit_semiprimitive(GbfType(6, 3))
    assert rep.fired and rep.quantities["l"] == 1 and rep.quantities["case"] == "I"

    rep = crit_semiprimitive(GbfType(2 * 5 * 13, 1))
    assert rep.fired
    assert rep.quantities["case"] == "II"
    assert [row[2] for row in rep.quantities["prime_table"]] == [2, 2]

    rep = crit_semiprimitive(GbfType(2 * 7, 3))
    assert rep is not None and not rep.fired
    rep = next(rep for rep in decide(GbfType(14, 1)).attempts
               if rep.criterion == C2)
    assert summarize_report(rep) == "no power of 2 is -1 mod 7"

    assert crit_semiprimitive(GbfType(6, 2)) is None        # even n
    assert crit_semiprimitive(GbfType(12, 3)) is None       # 4 | m
    assert crit_semiprimitive(GbfType(2, 3)) is None        # odd part 1


def test_c3_examples():
    rep = crit_p7(GbfType(2 * 47, 3))
    assert rep.fired and rep.quantities["s"] == 1 and rep.quantities["r"] == 5

    rep = crit_p7(GbfType(2 * 191, 11))
    assert rep.fired and rep.quantities["r"] == 13

    rep = crit_p7(GbfType(2 * 7, 1))
    assert rep is not None and not rep.fired
    assert rep.quantities["r"] == 1

    # divisor propagation: stated at {2 p^l, n}, concluded for odd p^l input
    rep = crit_p7(GbfType(199, 3))
    assert rep.fired and rep.propagated
    assert rep.covers == [[398, 3]]

    assert crit_p7(GbfType(2 * 17, 3)) is None     # p = 1 mod 8
    assert crit_p7(GbfType(2 * 7 * 13, 3)) is None  # two primes


def test_c3_order_taken_at_prime_power():
    rep = crit_p7(GbfType(2 * 7 ** 2, 1))
    q = rep.quantities
    assert q["order_modulus"] == 49
    assert q["f"] == nt.mult_order_2(49) == 21
    assert q["g"] == 2 and q["s"] == 1


def test_c4_examples():
    rep = crit_p7_x_p35(GbfType(2 * 199 * 59, 7))
    assert rep.fired
    q = rep.quantities
    assert q["branch"] == "I" and q["s"] == 1 and q["r1"] == 9

    rep = crit_p7_x_p35(GbfType(2 * 199 * 5, 3))
    assert rep.fired
    q = rep.quantities
    assert q["branch"] == "II" and q["r2"] == 5 and q["r"] == 5
    x, y = q["r2_witness"]
    assert x * x + 199 * y * y == 2 ** 7 * 5
    assert q["r2_even_hits"] and q["r2_even_hits"][0][0] == 4

    rep = crit_p7_x_p35(GbfType(2 * 199 * 5, 5))
    assert rep is not None and not rep.fired

    assert crit_p7_x_p35(GbfType(2 * 199, 3)) is None       # one prime
    assert crit_p7_x_p35(GbfType(2 * 199 * 17, 3)) is None  # p2 = 1 mod 8


def test_c5_examples():
    rep = crit_p3_x_p5(GbfType(2 * 19 * 29, 11))
    assert rep.fired
    q = rep.quantities
    assert q["branch"] == "II" and q["s"] == 1 and q["r"] == 13
    x, y = q["r_witness"]
    assert 19 * x * x + 29 * y * y == 2 ** 15

    rep = crit_p3_x_p5(GbfType(2 * 19 * 29, 13))
    assert rep is not None and not rep.fired

    rep = crit_p3_x_p5(GbfType(2 * 3 * 5, 1))
    q = rep.quantities
    assert q["branch"] == "II" and q["r"] == 1          # 3 + 5 = 2^3
    assert not rep.fired                                 # need n < 1

    rep = crit_p3_x_p5(GbfType(2 * 11 * 5, 7))
    assert rep.fired and rep.quantities["branch"] == "I"

    assert crit_p3_x_p5(GbfType(2 * 3 * 7, 1)) is None


# -- the class group route against the exponent scanner --------------------------


def _scanned_or_searched(a, b, h):
    """(r, x, y) at the least odd r <= h with a*x^2 + b*y^2 = 2^(r+2)
    solvable, or None: the scanner while its 2^(r/2) steps stay small, else
    Cornacchia at each odd r in turn."""
    if h <= 45:
        return ref.least_odd_r(a, b, h)
    return ref.least_odd_exponent(a, b, h)


def _recorded_r(q, key="r"):
    return (q[key], *q[key + "_witness"]) if key in q else None


def test_odd_part_criteria_apply_on_a_partition_of_the_classes():
    # m in {m0, 2*m0} for seeded odd m0 < 10^4 and every n <= 11: C2 applies
    # at every odd n, and C3-C5 by the classes modulo 8 of m0's primes, at
    # most one of them; C3 alone states {2*m0, n}, propagated to m = m0
    sympy = pytest.importorskip("sympy")
    rng = random.Random(48)
    for m0 in [1, 3, 7, 15, 21, 35, 49] + rng.sample(range(3, 10**4, 2), 300):
        classes = sorted(p % 8 for p in sympy.factorint(m0))
        shape = {C3: len(classes) == 1 and classes[0] == 7,
                 C4: len(classes) == 2 and classes[1] == 7
                 and classes[0] in (3, 5),
                 C5: classes == [3, 5]}
        assert sum(shape.values()) <= 1
        for m in (m0, 2 * m0) if m0 > 1 else (2,):
            for n in range(1, 12):
                t = GbfType(m, n)
                c2 = crit_semiprimitive(t)
                assert (c2 is not None) == (n % 2 == 1 and m0 > 1)
                for criterion, crit in ((C3, crit_p7), (C4, crit_p7_x_p35),
                                        (C5, crit_p3_x_p5)):
                    rep = crit(t)
                    assert (rep is not None) == (n % 2 == 1
                                                 and shape[criterion])
                    if rep is not None:
                        assert (rep.covers, rep.propagated) == (
                            ([[2 * m0, n]], m == m0) if criterion == C3
                            else ([[m0, n], [2 * m0, n]], False))
                if c2 is not None:
                    assert c2.covers == [[m0, n], [2 * m0, n]]
                    assert not c2.propagated


def test_c3_r_matches_exponent_referee():
    # every p = 7 (mod 8) below 3000 with h <= 60: the scanner up to h = 45
    # (its cost doubles every two steps of r), odd exponents by Cornacchia
    # above
    count = 0
    for p in range(7, 3000, 8):
        if not nt.is_probable_prime(p) or nt.class_number(p) > 60:
            continue
        h = nt.class_number(p)
        rep = crit_p7(GbfType(2 * p, 1))
        want = _scanned_or_searched(1, p, h)
        assert _recorded_r(rep.quantities) == want, p
        if want is None:
            assert f"abstain: no odd r <= {h} found" in rep.notes
        count += 1
    assert count == 107


def test_c5_branch_ii_r_matches_scanner():
    # the first 40 primes p1 = 3 and p2 = 5 (mod 8) with (p2/p1) = -1 and
    # h(-p1*p2) <= 60: r = o/2 for the order o of the prime form over 2
    p1s = [p for p in range(3, 2000, 8) if nt.is_probable_prime(p)][:40]
    p2s = [p for p in range(5, 2000, 8) if nt.is_probable_prime(p)][:40]
    count = 0
    for p1 in p1s:
        for p2 in p2s:
            if nt.jacobi(p2, p1) != -1 or nt.class_number(p1 * p2) > 60:
                continue
            h = nt.class_number(p1 * p2)
            q = crit_p3_x_p5(GbfType(2 * p1 * p2, 1)).quantities
            assert q["branch"] == "II"
            assert _recorded_r(q) == ref.least_odd_r(p1, p2, h), (p1, p2)
            count += 1
    assert count == 113


def _admitted_c4_pairs():
    # (p1, p2) of every C4 odd part m0 < 10^4 with h(-p1) <= 40, the pairs
    # of the certificates workload
    pairs = set()
    for m0 in range(3, 10**4, 2):
        fs = nt.factorize(m0)
        if len(fs) == 2 and sorted(p % 8 for p, _ in fs) in ([3, 7], [5, 7]):
            p1, p2 = sorted((p for p, _ in fs), key=lambda p: p % 8 != 7)
            if nt.class_number(p1) <= 40:
                pairs.add((p1, p2))
    return sorted(pairs)


def test_c4_r1_r2_and_even_hits_match_scanner():
    # r2 as a discrete logarithm and the even hits as 2^((e - e0)/2) times
    # one Cornacchia solution at e0, against the scan of every e <= r1
    pairs = _admitted_c4_pairs()
    assert len(pairs) == 522
    hits = 0
    for p1, p2 in pairs:
        q = crit_p7_x_p35(GbfType(2 * p1 * p2, 1)).quantities
        want = ref.least_odd_r(1, p1, nt.class_number(p1))
        assert _recorded_r(q, "r1") == want, (p1, p2)
        if want is None:
            continue
        r2, witness, even = ref.c4_r2_scan(p1, p2, want[0])
        assert q["r2"] == r2 and q.get("r2_witness") == witness, (p1, p2)
        assert q["r2_even_hits"] == even, (p1, p2)
        hits += len(even)
    assert hits == 262


def _held_out_odd_parts():
    # (odd part m0 < 10^4, d) for every m0 whose C3-C5 exponent lives in
    # the class group of Q(sqrt(-d)) with h > 40: the odd parts the
    # certificates workload holds out
    out = []
    for m0 in range(3, 10**4, 2):
        fs = nt.factorize(m0)
        classes = sorted(p % 8 for p, _ in fs)
        primes = sorted((p for p, _ in fs), key=lambda p: p % 8 != 7)
        if classes in ([7], [3, 7], [5, 7]):
            d = primes[0]
        elif classes == [3, 5]:
            d = primes[0] * primes[1]
        else:
            continue
        if nt.class_number(d) > 40:
            out.append((m0, d))
    return out


def test_exponents_are_least_on_the_held_out_odd_parts():
    # the class group route against Cornacchia at every exponent below the
    # recorded one, where the scanner cannot reach: r (C3, C5 branch II) or
    # r1 (C4) is the least odd exponent up to h, C4's r2 the least odd one
    # of its own equation up to r1, and its even hits every solvable even
    # exponent below r2.  h itself is checked on a sample.
    held_out = _held_out_odd_parts()
    assert len(held_out) == 404
    checked, largest, hits = [], 0, 0
    for m0, d in held_out:
        rep = next(rep for rep in decide(GbfType(2 * m0, 1)).attempts
                   if rep.criterion in (C3, C4, C5))
        q = rep.quantities
        if "class_number" not in q:     # abstained before the exponent
            continue
        a, b = (q["p1"], q["p2"]) if rep.criterion == C5 else (1, d)
        key = "r1" if rep.criterion == C4 else "r"
        want = ref.least_odd_exponent(a, b, q["class_number"]["h"])
        assert _recorded_r(q, key) == want, m0
        checked.append((m0, d, q["class_number"]["h"]))
        largest = max(largest, want[0] if want else 0)
        if rep.criterion != C4 or want is None:
            continue
        r1, p2 = want[0], q["p2"]
        r2 = ref.least_odd_exponent(1, d, r1, p2)
        assert (q["r2"], q.get("r2_witness")) == (
            (r2[0], list(r2[1:])) if r2 else (None, None)), m0
        even = ref.solvable_even_exponents(1, d, r2[0] if r2 else r1 + 1, p2)
        assert [e for e, _, _ in q["r2_even_hits"]] == even, m0
        hits += len(even)
    assert (len(checked), largest, hits) == (299, 139, 171)
    for m0, d, h in random.Random(21).sample(checked, 40):
        assert h == ref.class_number_by_forms(d), m0


@pytest.mark.parametrize("m,n,criterion", [
    (200206, 1, C3), (2080798, 1, C5), (18958, 11, C3), (17994, 1, C4),
    (12526, 7, C3)])
def test_former_hang_types_answer_within_a_second(m, n, criterion):
    # the exponent scanner gave no answer within 20 s on each of these
    start = time.perf_counter()
    v = decide(GbfType(m, n))
    elapsed = time.perf_counter() - start
    assert v.kind == NOT_EXISTS and v.report.criterion == criterion
    assert revalidate_report(report_from_dict(v.report.to_dict()))
    assert elapsed < 1.0


def test_first_fired_wins_and_others_recorded():
    v = decide(GbfType(9, 3))
    assert v.report.criterion == C1
    assert C2 in v.report.also_applicable


def test_scan_rows_are_the_verdicts_decide_gives():
    # the rule, the report that fires, re-validated, or the number decide
    # lists as attempts, on every type of a small grid
    want = []
    for m in range(2, 120):
        for n in range(1, 7):
            v = decide(GbfType(m, n))
            if v.kind == EXISTS:
                ident, detail = v.rule, criteria.describe_rule(v.rule, m, n)
            elif v.kind == NOT_EXISTS:
                ident, detail = v.report.criterion, summarize_report(v.report)
            else:
                ident, detail = "", f"{len(v.attempts)} criteria inconclusive"
            want.append((m, n, v.kind, ident, detail))
    assert {row[2] for row in want} == {EXISTS, NOT_EXISTS, UNKNOWN}
    assert list(criteria.scan_rows(range(2, 120), range(1, 7))) == want


def test_reports_revalidate():
    cases = [(9, 3), (6, 1), (2 * 47, 3), (2 * 199 * 5, 3), (2 * 19 * 29, 5),
             (2 * 5 * 13, 1), (91, 6), (2 * 9 * 13, 1)]
    for m, n in cases:
        v = decide(GbfType(m, n))
        if v.kind == NOT_EXISTS:
            assert revalidate_report(v.report)
            # round trip through plain dicts
            assert revalidate_report(report_from_dict(v.report.to_dict()))


def test_revalidation_catches_tampering():
    rep = copy.deepcopy(decide(GbfType(2 * 47, 3)).report)
    rep.quantities["r"] = 7
    with pytest.raises(ValueError):
        revalidate_report(rep)


def _forge_c5_branch_one(q, rep):
    q["branch"] = "I"
    q["jacobi"] = {"a": 1, "n": 3, "value": 1}
    rep.fired, rep.excluded = True, {"parity": "odd", "all": True}


def _forge_c5_small_s(q, rep):
    q["g"], q["s"] = 2, 1
    rep.fired = True
    rep.excluded = {"parity": "odd", "num": q["r"], "den": 1}


def _forge_c4_branch_one(q, rep):
    q["jacobi"] = {"a": 2, "n": 3, "value": -1}
    q["branch"] = "I"
    rep.fired = True
    rep.excluded = {"parity": "odd", "num": q["r1"], "den": q["s"]}


def _forge_c3_class_number(q, rep):
    q["class_number"] = {"d": 71, "h": 7}


def _forge_c3_range(q, rep):
    rep.fired = True
    rep.excluded = {"parity": "odd", "num": 3, "den": 1}


def _forge_c3_order_modulus(q, rep):
    q["order_modulus"] = 178481         # 2^23 - 1 = 47 * 178481


def _forge_c4_even_hit(q, rep):
    q["r2_even_hits"][0][1] += 1


def _forge_c4_class_number(q, rep):
    q["class_number"] = {"d": 367, "h": 9}     # h(199) = 9 as well


def _forge_c5_class_number(q, rep):
    q["class_number"]["d"] = 1


# a JSON float or bool where an integer belongs: each satisfies every
# recorded equation (81.0 + 47.0 == 128, True + 7 * True == 8)
def _forge_float_r(q, rep):
    q["r"] = float(q["r"])


def _forge_bool_r(q, rep):
    q["r"] = True


def _forge_float_witness(q, rep):
    q["r_witness"] = [float(v) for v in q["r_witness"]]


def _forge_bool_witness(q, rep):
    q["r_witness"] = [True, True]


def _forge_float_r1(q, rep):
    q["r1"] = float(q["r1"])


def _forge_bool_r1(q, rep):
    q["r1"] = True


def _forge_float_even_hit(q, rep):
    q["r2_even_hits"][0][0] = float(q["r2_even_hits"][0][0])


def _forge_bool_even_hit(q, rep):
    q["r2_even_hits"][0][1:] = [True, True]


def _forge_float_c4_r(q, rep):
    q["r"] = float(q["r"])


def _forge_float_c4_s(q, rep):
    q["s"] = float(q["s"])
    rep.excluded["den"] = float(rep.excluded["den"])


def _forge_float_c4_g(q, rep):
    q["g"] = float(q["g"])


def _forge_float_class_number(q, rep):
    q["class_number"] = {k: float(v) for k, v in q["class_number"].items()}


def _forge_no_witness(q, rep):
    q["r_witness"] = None


def _forge_float_m(q, rep):
    rep.m = float(rep.m)


def _forge_note(q, rep):
    rep.notes.append("checked by hand")


def _forge_extra_key(q, rep):
    q["h_bound"] = q["class_number"]["h"]


# each forgery keeps every recorded equation true; all but c3-range detach
# some recorded input from m and n.  c5-symbol-inputs, c5-orders,
# c4-symbol-inputs and c3-range claim NotExists where the verdict is Unknown.
@pytest.mark.parametrize("m,n,criterion,forge", [
    (1102, 13, C5, _forge_c5_branch_one),
    (1342, 3, C5, _forge_c5_small_s),
    (138, 1, C4, _forge_c4_branch_one),
    (94, 3, C3, _forge_c3_class_number),
    (94, 3, C3, _forge_c3_order_modulus),
    (14, 1, C3, _forge_c3_range),
    (2 * 199 * 5, 3, C4, _forge_c4_even_hit),
    (2 * 199 * 59, 7, C4, _forge_c4_class_number),
    (2 * 19 * 29, 11, C5, _forge_c5_class_number),
    (94, 3, C3, _forge_float_r),
    (14, 1, C3, _forge_bool_r),
    (94, 3, C3, _forge_float_witness),
    (14, 1, C3, _forge_bool_witness),
    (1990, 3, C4, _forge_float_r1),
    (42, 1, C4, _forge_bool_r1),
    (1990, 3, C4, _forge_float_even_hit),
    (282, 1, C4, _forge_bool_even_hit),
    (282, 1, C4, _forge_float_c4_r),
    (282, 1, C4, _forge_float_c4_s),
    (282, 1, C4, _forge_float_c4_g),
    (94, 3, C3, _forge_float_class_number),
    (94, 3, C3, _forge_no_witness),
    (94, 3, C3, _forge_float_m),
    (94, 3, C3, _forge_note),
    (94, 3, C3, _forge_extra_key),
], ids=["c5-symbol-inputs", "c5-orders", "c4-symbol-inputs",
        "c3-class-number-field", "c3-order-modulus", "c3-range", "c4-even-hit",
        "c4-class-number-field", "c5-class-number-field", "c3-float-r",
        "c3-bool-r", "c3-float-witness", "c3-bool-witness", "c4-float-r1",
        "c4-bool-r1", "c4-float-even-hit", "c4-bool-even-hit", "c4-float-r",
        "c4-float-s", "c4-float-g", "c3-float-class-number", "c3-no-witness",
        "c3-float-m", "c3-appended-note", "c3-extra-key"])
def test_revalidation_catches_forgery(m, n, criterion, forge):
    v = decide(GbfType(m, n))
    honest = next(rep for rep in v.attempts if rep.criterion == criterion)
    rep = copy.deepcopy(honest)
    forge(rep.quantities, rep)
    with pytest.raises(ValueError):
        revalidate_report(rep)


@pytest.mark.parametrize("data", [
    None, [], "report", {},
    {"criterion": C1, "m": 9, "n": 3, "fired": True},
    {**crit_lam_leung(GbfType(9, 3)).to_dict(), "extra": 1},
], ids=["none", "list", "str", "empty", "missing-keys", "extra-key"])
def test_report_from_dict_rejects_malformed(data):
    with pytest.raises(ValueError):
        report_from_dict(data)


@pytest.mark.parametrize("n", [0, -1, MAX_N + 1])
def test_revalidation_refuses_n_out_of_range_first(n, monkeypatch):
    # refused before the semigroup search for the target 2^n would start
    rep = crit_lam_leung(GbfType(9, 3))
    rep.n = n
    rep.quantities["semigroup"]["target"] = 1 << max(n, 0)

    def no_work(*args, **kwargs):
        raise AssertionError("re-validation started work")
    monkeypatch.setattr(nt, "factorize", no_work)
    monkeypatch.setattr(nt, "semigroup_member", no_work)
    with pytest.raises(ValueError):
        revalidate_report(rep)


def test_to_dict_holds_the_reports_own_values():
    rep = decide(GbfType(2 * 199 * 5, 3)).report
    data = rep.to_dict()
    assert all(data[f.name] is getattr(rep, f.name)
               for f in dataclasses.fields(rep))
    assert data == dataclasses.asdict(rep)


def _poison(value):
    """Add a key to every dict and an entry to every list nested in value."""
    if isinstance(value, dict):
        for v in list(value.values()):
            _poison(v)
        value["poison"] = None
    elif isinstance(value, list):
        for v in list(value):
            _poison(v)
        value.append("poison")


def test_a_mutated_certificate_changes_no_later_decision():
    # a report shares its values with the certificate, so no report may
    # hold an object a cache hands out again
    rng = random.Random("certificates:21")
    types = [(rng.randrange(3, 10**4, 2) * rng.choice((1, 2)),
              rng.choice((1, 3, 5, 7, 9, 11))) for _ in range(300)]

    def certificate(m, n):
        return json.dumps(verdict_to_dict(m, n, decide(GbfType(m, n))))

    before = [certificate(m, n) for m, n in types]
    criteria_seen = set()
    for m, n in types:
        for rep in decide(GbfType(m, n)).attempts:
            _poison(rep.to_dict())
            assert "poison" in rep.quantities and rep.covers[-1] == "poison"
            criteria_seen.add(rep.criterion)
    assert criteria_seen == {C1, C2, C3, C4, C5}
    assert [certificate(m, n) for m, n in types] == before


def test_every_attempt_revalidates():
    # non-firing reports too: with the r/s range they record, without it,
    # and after a JSON round trip
    for m0 in range(3, 400, 2):
        for m in (m0, 2 * m0):
            for n in range(1, 12, 2):
                for rep in decide(GbfType(m, n)).attempts:
                    data = rep.to_dict()
                    assert revalidate_report(report_from_dict(data))
                    if rep.fired:
                        continue
                    data = json.loads(json.dumps(data))
                    assert revalidate_report(report_from_dict(data))
                    assert revalidate_report(report_from_dict(
                        {**data, "excluded": None}))


@pytest.mark.parametrize("crit,m,n", [
    (crit_lam_leung, 9, 3), (crit_semiprimitive, 6, 1), (crit_p7, 94, 3),
    (crit_p7_x_p35, 1990, 3), (crit_p3_x_p5, 1102, 11),
    (crit_p3_x_p5, 110, 7)])
def test_firing_report_needs_its_range(crit, m, n):
    rep = crit(GbfType(m, n))
    assert rep.fired and revalidate_report(rep)
    with pytest.raises(ValueError):
        revalidate_report(dataclasses.replace(rep, excluded=None))


def test_criterion_abstains_on_internal_failure(monkeypatch):
    # an order without an odd r, or no solution at the order, must abstain,
    # never conclude
    for name, fake, note in (
            ("form_order", lambda f, h: 2, "abstain: no odd r <= 5 found"),
            ("cornacchia", lambda d, factors: [],
             "abstain: no solution at r = 5")):
        with monkeypatch.context() as patch:
            patch.setattr(nt, name, fake)
            rep = crit_p7(GbfType(2 * 47, 3))
        assert rep is not None and not rep.fired
        assert note in rep.notes


def _wrong_witness(d, factors):
    # x = d, y = 1 solves none of the equations; for C5 (d = p1*p2) the
    # filter on X = p1*x keeps it
    return [(d, 1)]


def _wrong_r2_hit(d, factors, corn=nt.cornacchia):
    # x^2 + 199*y^2 = 2^(e+2)*5 in C4 at {1990, 3}; r1 is solved honestly
    return [(d, 1)] if (5, 1) in factors else corn(d, factors)


def _wrong_semigroup_sum(target, gens, member=nt.semigroup_member):
    return (0,) * len(gens) if member(target, gens) else None


@pytest.mark.parametrize("name,fake,crit,m,n", [
    ("cornacchia", _wrong_witness, crit_p7, 2 * 47, 3),
    ("cornacchia", _wrong_witness, crit_p3_x_p5, 2 * 19 * 29, 11),
    ("cornacchia", _wrong_r2_hit, crit_p7_x_p35, 2 * 199 * 5, 3),
    ("semigroup_member", _wrong_semigroup_sum, crit_lam_leung, 3 * 5, 3),
], ids=["c3-r-witness", "c5-r-witness", "c4-r2-hit", "c1-semigroup-sum"])
def test_criterion_abstains_on_failed_witness(monkeypatch, name, fake, crit,
                                              m, n):
    # a witness that fails its equation must abstain, never conclude
    monkeypatch.setattr(nt, name, fake)
    rep = crit(GbfType(m, n))
    assert rep is not None and not rep.fired
    assert any("abstain" in note for note in rep.notes)


def test_c4_abstains_when_r2_has_no_solution(monkeypatch):
    # branch II at {1990, 3}: r1 is solved honestly, but no Cornacchia call
    # with the multiplier p2 = 5 finds a solution, so r2 has no witness
    assert crit_p7_x_p35(GbfType(1990, 3)).quantities["branch"] == "II"
    solutions = criteria._two_adic_solutions
    monkeypatch.setattr(
        criteria, "_two_adic_solutions",
        lambda a, b, exp, multiplier=1:
            [] if multiplier > 1 else solutions(a, b, exp))
    rep = crit_p7_x_p35(GbfType(1990, 3))
    assert not rep.fired and rep.excluded is None
    assert "abstain: no solution at r2" in rep.notes
    assert summarize_report(rep) == "abstained"


def test_decide_deterministic():
    for m, n in ((9, 3), (14, 1), (8, 3), (2 * 19 * 29, 7)):
        a = decide(GbfType(m, n))
        b = decide(GbfType(m, n))
        assert a.kind == b.kind
        if a.report:
            assert a.report.to_dict() == b.report.to_dict()
        if a.witness:
            assert a.witness == b.witness


def test_monotone_consistency_small_grid():
    # nonexistence at m forbids existence at every divisor of m
    verdicts = {}
    for m in range(2, 61):
        for n in range(1, 5):
            verdicts[(m, n)] = decide(GbfType(m, n)).kind
    for (m, n), kind in verdicts.items():
        if kind != NOT_EXISTS:
            continue
        for d in range(2, m + 1):
            if m % d == 0:
                assert verdicts[(d, n)] != EXISTS, (m, d, n)


def test_unknown_is_first_class():
    v = decide(GbfType(14, 1))
    assert v.kind == UNKNOWN and v.witness is None and v.report is None
    assert all(not rep.fired for rep in v.attempts)


def test_verdict_attempts_cannot_change_in_place():
    for m, n in ((14, 1), (9, 3)):
        v = decide(GbfType(m, n))
        assert isinstance(v.attempts, tuple) and v.attempts
        with pytest.raises(AttributeError):
            v.attempts.clear()
        with pytest.raises(TypeError):
            v.attempts[0] = None
    assert decide(GbfType(8, 3)).attempts == ()


def test_verdicts_hash_by_kind_witness_and_rule():
    # report and attempts hold mutable reports: equality compares them, the
    # hash leaves them out
    first, second = decide(GbfType(9, 3)), decide(GbfType(9, 3))
    assert first.kind == NOT_EXISTS and first == second
    assert hash(first) == hash(second) and len({first, second}) == 1
    exists, unknown = decide(GbfType(8, 3)), decide(GbfType(14, 1))
    assert (exists.kind, unknown.kind) == (EXISTS, UNKNOWN)
    assert len({exists, unknown, first}) == 3


def test_rule_exists_refuses_a_base_that_fails_verification(monkeypatch):
    monkeypatch.setattr(criteria, "is_gbf", lambda f: False)
    criteria._pieces.cache_clear()
    with pytest.raises(AssertionError,
                       match="construction E1 failed exact verification"):
        rule_exists(GbfType(8, 3))


def test_rule_exists_recovers_once_the_failing_check_is_undone(monkeypatch):
    # lru_cache keeps no exception: a failed piece check is not remembered
    criteria._pieces.cache_clear()
    with monkeypatch.context() as patched:
        patched.setattr(criteria, "is_gbf", lambda f: False)
        with pytest.raises(AssertionError,
                           match="construction E3 failed exact verification"):
            rule_exists(GbfType(6, 4))
    w, rule = rule_exists(GbfType(6, 4))
    assert rule == "E3" and w == lift_modulus(ref.inner_product(2, 4), 3)


_WIDE_E1 = (2**62, 2**62 + 4, 2**63 - 4)   # int64 at 2^62, objects above


def _folded(n):
    # E1 at odd n by the public constructors: 2*Q'(x') + x_n, x alone at n = 1
    top = table(4, 1, [0, 1])
    if n == 1:
        return top
    return direct_sum(lift_modulus(construct_boolean_bent(n - 1), 2), top)


# each rule's base by its bit formula (no gbf construction), by the public
# constructors and, as a table the witness must not lift, by the formula of
# the other pairing of variables; its rule; the type whose witness lifts it
# at every n, and the moduli past int64 whose witnesses lift it at n <= 12
_BASE_SHAPES = {
    "E1 even n": (lambda n: ref.inner_product(4, n),
                  lambda n: construct_even_even(4, n),
                  lambda n: lift_modulus(ref.boolean_bent(n), 2), "E1", 12,
                  _WIDE_E1, range(2, 17, 2)),
    "E1 odd n": (ref.folded_mod4, _folded,
                 lambda n: direct_sum(ref.inner_product(4, n - 1),
                                      table(4, 1, [0, 1])), "E1", 12,
                 _WIDE_E1, range(1, 17, 2)),
    "E2": (ref.boolean_bent, construct_boolean_bent,
           lambda n: ref.inner_product(2, n), "E2", 2, (), range(2, 17, 2)),
    "E3": (lambda n: ref.inner_product(2, n),
           lambda n: construct_even_even(2, n), ref.boolean_bent, "E3", 6, (),
           range(2, 17, 2)),
}


@pytest.mark.parametrize("shape", _BASE_SHAPES)
def test_each_base_is_the_sum_of_its_flat_pieces(shape):
    # the witness equals the referee formula and the constructor route,
    # lifted, in values and in dtype: how a fault in either the pieces or a
    # constructor shows
    formula, construct, other, rule, m, wide, ns = _BASE_SHAPES[shape]
    for n in ns:
        base = formula(n)
        c = base.m
        assert is_gbf(base), n              # the full kernel as referee
        for mm in (m,) + (wide if n <= 12 else ()):
            witness, got = rule_exists(GbfType(mm, n))
            lifted = lift_modulus(base, mm // c)
            assert got == rule and witness == lifted, (mm, n)
            assert witness.array.dtype == lifted.array.dtype == \
                ref.table_dtype(mm), (mm, n)
            assert witness == lift_modulus(construct(n), mm // c), (mm, n)
            if n >= 4:                      # the pairing is checked too
                assert witness != lift_modulus(other(n), mm // c), (mm, n)


@pytest.mark.parametrize("m,n", [(2, 16), (12, 17), (6, 20), (100, 20)])
def test_rule_exists_peaks_below_one_and_a_quarter_witnesses(m, n):
    # the uint8 base is cast once into the witness's dtype and scaled in
    # place, so no more than the witness, its uint8 base (an eighth of it)
    # and the piece check's small tables are held at once
    rule_exists(GbfType(m, n))
    criteria._pieces.cache_clear()
    tracemalloc.start()
    try:
        witness = rule_exists(GbfType(m, n))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * witness.array.nbytes


@pytest.mark.parametrize("m", [1000, 2**20, 2**40])
def test_rule_exists_sums_wide_witnesses_in_their_own_dtype(m):
    # uint16, uint32 and int64 witnesses: no uint8 base is held beside
    # them, which would be a half, a quarter or an eighth of the witness
    n = 18
    rule_exists(GbfType(m, n))
    tracemalloc.start()
    try:
        witness = rule_exists(GbfType(m, n))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness.array.dtype == ref.table_dtype(m)
    assert peak <= 1.1 * witness.array.nbytes


def test_rule_exists_builds_one_table_per_witness(monkeypatch):
    # no table at the base modulus and no lift copy: the witness is the
    # only table built once the pieces are checked
    assert criteria.FunctionTable is gbf.FunctionTable
    criteria._pieces("E1", 4)
    built, lifts, init = [], [], gbf.FunctionTable.__init__

    def counted(self, gbf_type, values):
        built.append(gbf_type)
        init(self, gbf_type, values)

    monkeypatch.setattr(gbf.FunctionTable, "__init__", counted)
    monkeypatch.setattr(gbf, "lift_modulus",
                        lambda f, l: lifts.append(l) or f)
    witness, rule = rule_exists(GbfType(12, 17))
    assert rule == "E1" and witness.gbf_type == GbfType(12, 17)
    assert built == [GbfType(12, 17)] and lifts == []


def test_decide_runs_no_fwht_larger_than_a_piece(monkeypatch):
    rows, fwht = [], gbf._fwht_inplace

    def recorded(mat):
        rows.append(mat.shape[-2])
        return fwht(mat)

    monkeypatch.setattr(gbf, "_fwht_inplace", recorded)
    criteria._pieces.cache_clear()
    v = decide(GbfType(4, 18))
    assert v.kind == EXISTS and v.witness.n == 18
    assert rows and max(rows) <= 4


@pytest.mark.parametrize("crit,m,n", [(crit_p7_x_p35, 2 * 199 * 5, 3),
                                      (crit_p3_x_p5, 2 * 19 * 29, 11)])
def test_two_prime_criteria_abstain_on_degenerate_residue_symbol(
        monkeypatch, crit, m, n):
    assert crit(GbfType(m, n)).fired
    monkeypatch.setattr(nt, "jacobi", lambda a, b: 0)
    rep = crit(GbfType(m, n))
    assert not rep.fired and rep.excluded is None
    assert "abstain: degenerate residue symbol" in rep.notes
    assert rep.quantities["jacobi"]["value"] == 0


@pytest.mark.parametrize("crit,m,n,order,note", [
    (crit_p7, 94, 3, 2,
     "abstain: order f=2 fails the parity/divisibility sanity check"),
    (crit_p7_x_p35, 1990, 3, 1,
     "abstain: g=792, s=396 fail the parity sanity check"),
    (crit_p3_x_p5, 1102, 11, 1,
     "abstain: g=504, s=252 fail the parity sanity check")])
def test_criteria_abstain_on_a_failed_order_check(
        monkeypatch, crit, m, n, order, note):
    # p = 7 (mod 8) makes the order of 2 odd and g = 2 (mod 4), so these
    # checks fail only under a wrong order
    assert crit(GbfType(m, n)).fired
    monkeypatch.setattr(nt, "mult_order_2", lambda mod: order)
    rep = crit(GbfType(m, n))
    assert rep.fired is False and rep.excluded is None
    assert note in rep.notes
    assert summarize_report(rep) == "abstained"


@pytest.mark.parametrize("m,n,criterion,summary", [
    (46, 5, C3, "p=23, s=1, r=3; excludes odd n < 3/1"),
    (1990, 5, C4, "branch II, s=1, r1=9, r2=5; excludes odd n < 5/1"),
    (1102, 13, C5, "branch II, s=1, r=13; excludes odd n < 13/1")])
def test_summary_states_the_recorded_range(m, n, criterion, summary):
    # a report that reaches r records its range whether it fires or not
    rep = next(rep for rep in decide(GbfType(m, n)).attempts
               if rep.criterion == criterion)
    assert not rep.fired and summarize_report(rep) == summary
    assert summarize_report(dataclasses.replace(rep, excluded=None)) == \
        "abstained"


def test_revalidation_refuses_a_foreign_criterion_or_type():
    rep = crit_p7(GbfType(94, 3))
    for criterion in ("C9-Unknown", 3, None):
        with pytest.raises(ValueError, match="unknown criterion id"):
            revalidate_report(dataclasses.replace(rep, criterion=criterion))
    with pytest.raises(ValueError, match=r"\{15,3\} is outside C3-P7"):
        revalidate_report(dataclasses.replace(rep, m=15, n=3))


def test_revalidation_refuses_a_list_of_another_length():
    rep = report_from_dict(crit_p7(GbfType(94, 3)).to_dict())
    rep.quantities["r_witness"].append(0)
    with pytest.raises(ValueError, match="quantities differs"):
        revalidate_report(rep)
