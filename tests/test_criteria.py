"""The decision engine: rule dispatch, criterion firing, report integrity."""

import dataclasses
import json

import pytest

from gbflab import criteria, numtheory as nt
from gbflab.criteria import (C1, C2, C3, C4, C5, EXISTS, MAX_N, NOT_EXISTS,
                             UNKNOWN, crit_lam_leung, crit_p3_x_p5, crit_p7,
                             crit_p7_x_p35, crit_semiprimitive, decide,
                             report_from_dict, revalidate_report, rule_exists)
from gbflab.gbf import GbfType, is_gbf


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


def test_first_fired_wins_and_others_recorded():
    v = decide(GbfType(9, 3))
    assert v.report.criterion == C1
    assert C2 in v.report.also_applicable


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
    v = decide(GbfType(2 * 47, 3))
    rep = report_from_dict(v.report.to_dict())
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
], ids=["c5-symbol-inputs", "c5-orders", "c4-symbol-inputs",
        "c3-class-number-field", "c3-order-modulus", "c3-range", "c4-even-hit",
        "c4-class-number-field", "c5-class-number-field", "c3-float-r",
        "c3-bool-r", "c3-float-witness", "c3-bool-witness", "c4-float-r1",
        "c4-bool-r1", "c4-float-even-hit", "c4-bool-even-hit", "c4-float-r",
        "c4-float-s", "c4-float-g", "c3-float-class-number", "c3-no-witness",
        "c3-float-m", "c3-appended-note"])
def test_revalidation_catches_forgery(m, n, criterion, forge):
    v = decide(GbfType(m, n))
    honest = next(rep for rep in v.attempts if rep.criterion == criterion)
    rep = report_from_dict(honest.to_dict())
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
    # refused before the semigroup sweep over 0..2^n would start
    rep = crit_lam_leung(GbfType(9, 3))
    rep.n = n
    rep.quantities["semigroup"]["target"] = 1 << max(n, 0)

    def no_work(*args, **kwargs):
        raise AssertionError("re-validation started work")
    monkeypatch.setattr(nt, "factorize", no_work)
    monkeypatch.setattr(nt, "semigroup_member", no_work)
    with pytest.raises(ValueError):
        revalidate_report(rep)


def test_to_dict_shares_no_mutable_object():
    def containers(value):
        if isinstance(value, (dict, list)):
            yield id(value)
            for v in (value.values() if isinstance(value, dict) else value):
                yield from containers(v)

    rep = decide(GbfType(2 * 199 * 5, 3)).report
    fields = [getattr(rep, f.name) for f in dataclasses.fields(rep)]
    ours = {i for v in fields for i in containers(v)}
    assert ours.isdisjoint(containers(rep.to_dict()))
    assert rep.to_dict() == dataclasses.asdict(rep)


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
    # a missing r within the bound must abstain, never conclude
    monkeypatch.setattr(nt, "exponent_solutions", lambda *a, **k: iter(()))
    rep = crit_p7(GbfType(2 * 47, 3))
    assert rep is not None and not rep.fired
    assert any("abstain" in note for note in rep.notes)


def _wrong_r(*args, **kwargs):
    yield (1, 1, 1)


def _wrong_r2_hit(a, b, N, solve=nt.solve_ax2_by2):
    # x^2 + 199*y^2 = 2^(e+2)*5 in C4 at {1990, 3}; r1 is solved honestly
    return (1, 1) if N % 5 == 0 else solve(a, b, N)


def _wrong_semigroup_sum(target, gens, member=nt.semigroup_member):
    return (0,) * len(gens) if member(target, gens) else None


@pytest.mark.parametrize("name,fake,crit,m,n", [
    ("exponent_solutions", _wrong_r, crit_p7, 2 * 47, 3),
    ("exponent_solutions", _wrong_r, crit_p3_x_p5, 2 * 19 * 29, 11),
    ("solve_ax2_by2", _wrong_r2_hit, crit_p7_x_p35, 2 * 199 * 5, 3),
    ("semigroup_member", _wrong_semigroup_sum, crit_lam_leung, 3 * 5, 3),
], ids=["c3-r-witness", "c5-r-witness", "c4-r2-hit", "c1-semigroup-sum"])
def test_criterion_abstains_on_failed_witness(monkeypatch, name, fake, crit,
                                              m, n):
    # a witness that fails its equation must abstain, never conclude
    monkeypatch.setattr(nt, name, fake)
    rep = crit(GbfType(m, n))
    assert rep is not None and not rep.fired
    assert any("abstain" in note for note in rep.notes)


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


def test_rule_exists_refuses_a_base_that_fails_verification(monkeypatch):
    monkeypatch.setattr(criteria, "is_gbf", lambda f: False)
    monkeypatch.setattr(criteria, "_FLAT_BASES", set())
    with pytest.raises(AssertionError,
                       match="construction E1 failed exact verification"):
        rule_exists(GbfType(8, 3))


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
