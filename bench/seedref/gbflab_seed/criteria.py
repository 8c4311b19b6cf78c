"""The decision engine: existence rules and nonexistence criteria, combined
into a Verdict carrying a machine-checkable report.

Criterion and rule identifiers form a frozen vocabulary so downstream
scripts stay stable:

    E1  flat witness for 4 | m, any n (quaternary route, lifted)
    E2  flat witness for m = 2, even n (quadratic boolean form)
    E3  flat witness for even m and even n (product construction)
    C1-LamLeung       2^n not representable over the odd prime divisors
    C2-Semiprimitive  some power of 2 is -1 modulo the odd part
    C3-P7             single prime p = 7 (mod 8): odd n below r/s excluded
    C4-P7xP35         primes (7, 3-or-5 mod 8): odd n below r1/s or r/s
    C5-P3xP5          primes (3, 5 mod 8): all odd n, or odd n below r/s
    DIV-Propagation   nonexistence transferred to a divisor type

Nonexistence conclusions transfer downward to divisors (a flat table mod a
divisor lifts to one mod the multiple), which is how criteria stated at
{2*m0, n} cover odd inputs m0.  decide() re-validates every report before
returning NotExists, so a criterion abstains rather than conclude whenever
any internal sanity check fails.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import gcd, lcm

from . import numtheory as nt
from .gbf import (FunctionTable, GbfType, construct_boolean_bent,
                  construct_even_even, construct_mod4_from_bent, is_gbf,
                  lift_modulus)

C1 = "C1-LamLeung"
C2 = "C2-Semiprimitive"
C3 = "C3-P7"
C4 = "C4-P7xP35"
C5 = "C5-P3xP5"
DIV = "DIV-Propagation"

CRITERIA = (C1, C2, C3, C4, C5)
RULES = ("E1", "E2", "E3")

EXISTS = "exists"
NOT_EXISTS = "not_exists"
UNKNOWN = "unknown"

MAX_N = 24  # resource guard for decide()


@dataclass
class CriterionReport:
    """Every intermediate quantity behind one criterion evaluation.

    ``quantities`` holds the symbol values in JSON-native form; the keys per
    criterion are fixed (see the crit_* functions).  ``covers`` lists the
    types the fired statement is about; ``propagated`` marks that the input
    type is a proper divisor of the stated one.  ``excluded`` describes the
    n-range the firing rules out: {"n": k} for a single exponent,
    {"parity": "odd", "all": true} for every odd n, or
    {"parity": "odd", "num": r, "den": s} for odd n with n*s < r.
    """

    criterion: str
    m: int
    n: int
    fired: bool
    covers: list = field(default_factory=list)
    propagated: bool = False
    quantities: dict = field(default_factory=dict)
    excluded: dict | None = None
    notes: list = field(default_factory=list)
    also_applicable: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def report_from_dict(data: dict) -> CriterionReport:
    return CriterionReport(**data)


@dataclass
class Verdict:
    """Engine output: Exists with a verified witness and the rule that built
    it, NotExists with a re-validated report, or Unknown with every
    applicable-but-inconclusive report."""

    kind: str
    witness: FunctionTable | None = None
    rule: str | None = None
    report: CriterionReport | None = None
    attempts: list = field(default_factory=list)


def _base_quantities(m: int, m_odd: int):
    factors = [[p, a] for p, a in nt.factorize(m_odd)] if m_odd > 1 else []
    return {"m_odd": m_odd, "factors": factors}


def _covered_shape(m: int):
    """(m_odd, ok): ok when m is the odd part or exactly twice it, the only
    shapes the odd-part criteria conclude about."""
    m_odd = nt.odd_part(m)
    return m_odd, m in (m_odd, 2 * m_odd)


# -- existence ---------------------------------------------------------------


def rule_exists(t: GbfType):
    """A verified flat witness for t when one of the rules applies, with the
    rule id; None otherwise.

    E2: m = 2, even n.  E1: 4 | m, any n, built at modulus 4 (product
    construction for even n, quaternary folding of a boolean witness for odd
    n) and lifted by m/4.  E3: remaining even m with even n.
    """
    m, n = t.m, t.n
    if m == 2:
        if n % 2:
            return None
        witness, rule = construct_boolean_bent(n), "E2"
    elif m % 4 == 0:
        if n % 2 == 0:
            base = construct_even_even(4, n)
        else:
            base = construct_mod4_from_bent(construct_boolean_bent(n + 1))
        witness, rule = lift_modulus(base, m // 4), "E1"
    elif m % 2 == 0 and n % 2 == 0:
        witness, rule = construct_even_even(m, n), "E3"
    else:
        return None
    if not is_gbf(witness):  # pragma: no cover - constructions are proven flat
        raise AssertionError(f"construction {rule} failed exact verification")
    return witness, rule


def describe_rule(rule: str, m: int, n: int) -> str:
    if rule == "E2":
        return "quadratic boolean form"
    if rule == "E3":
        return "product construction (g=0, sigma=id)"
    if n % 2 == 0:
        body = f"product construction at {{4,{n}}}"
    else:
        body = f"quaternary folding of a boolean witness on {n + 1} variables"
    lift = m // 4
    return body + (f", lifted by {lift}" if lift > 1 else "")


# -- nonexistence criteria ----------------------------------------------------


def crit_lam_leung(t: GbfType):
    """C1: for odd m, a flat table forces 2^n to be a nonnegative integer
    combination of the prime divisors of m; fires when the semigroup
    membership fails."""
    m, n = t.m, t.n
    if m % 2 == 0 or m < 3:
        return None
    gens = [p for p, _ in nt.factorize(m)]
    target = 1 << n
    solution = nt.semigroup_member(target, gens)
    fired = solution is None
    rep = CriterionReport(
        criterion=C1, m=m, n=n, fired=fired,
        covers=[[m, n]],
        quantities={**_base_quantities(m, m),
                    "semigroup": {"target": target,
                                  "generators": gens,
                                  "solution": list(solution) if solution else None}},
        excluded={"n": n} if fired else None)
    return rep


def crit_semiprimitive(t: GbfType):
    """C2: fires when some power of 2 is -1 modulo the odd part m0 >= 3,
    excluding every odd n for both {m0, n} and {2*m0, n}.  The report carries
    the per-prime order table behind the equivalent same-valuation test."""
    m, n = t.m, t.n
    if n % 2 == 0:
        return None
    m_odd, ok = _covered_shape(m)
    if not ok or m_odd < 3:
        return None
    prime_table = [[p, nt.mult_order_2(p), nt.v2(nt.mult_order_2(p))]
                   for p, _ in nt.factorize(m_odd)]
    l = nt.semiprimitive(m_odd)
    fired = l is not None
    quantities = {**_base_quantities(m, m_odd),
                  "prime_table": prime_table,
                  "l": l}
    if fired:
        quantities["order_modulus"] = m_odd
        quantities["order"] = 2 * l
        shared = prime_table[0][2]
        quantities["shared_valuation"] = shared
        quantities["case"] = "I" if shared == 1 else "II" if shared == 2 else "III"
    rep = CriterionReport(
        criterion=C2, m=m, n=n, fired=fired,
        covers=[[m_odd, n], [2 * m_odd, n]],
        quantities=quantities,
        excluded={"parity": "odd", "all": True} if fired else None)
    return rep


def crit_p7(t: GbfType):
    """C3: odd part p^l with p = 7 (mod 8).  With f the order of 2 modulo
    p^l, g = phi(p^l)/f, s = g/2 and r the least odd exponent with
    x^2 + p*y^2 = 2^(r+2) solvable (bounded by the class number of
    Q(sqrt(-p))), every odd n < r/s is excluded for {2*p^l, n}, hence for
    the divisor {p^l, n}."""
    m, n = t.m, t.n
    if n % 2 == 0:
        return None
    m_odd, ok = _covered_shape(m)
    if not ok or m_odd < 3:
        return None
    factors = nt.factorize(m_odd)
    if len(factors) != 1:
        return None
    p, l = factors[0]
    if p % 8 != 7:
        return None
    rep = CriterionReport(criterion=C3, m=m, n=n, fired=False,
                          covers=[[2 * m_odd, n]],
                          propagated=(m == m_odd),
                          quantities=_base_quantities(m, m_odd))
    if m == m_odd:
        rep.notes.append(
            f"{DIV}: statement at {{{2 * m_odd},{n}}} transfers to the "
            f"divisor type {{{m},{n}}}")
    q = rep.quantities
    q["p"] = p
    q["exponent"] = l
    f = nt.mult_order_2(m_odd)
    q["f"] = f
    q["order_modulus"] = m_odd
    phi = nt.euler_phi(m_odd)
    if f % 2 == 0 or phi % f:
        rep.notes.append(f"abstain: order f={f} fails the parity/divisibility "
                         f"sanity check")
        return rep
    g = phi // f
    s = g // 2
    q["g"], q["s"] = g, s
    if g % 2 or s % 2 == 0:
        rep.notes.append(f"abstain: g={g}, s={s} fail the parity sanity check")
        return rep
    h = nt.class_number(p)
    q["class_number"] = {"d": p, "h": h}
    sol = nt.min_odd_r(p, bound=h)
    if sol is None:
        rep.notes.append(f"abstain: no odd r <= {h} found")
        return rep
    q["r"] = sol.r
    q["r_witness"] = [sol.x, sol.y]
    rep.fired = n * s < sol.r
    rep.excluded = {"parity": "odd", "num": sol.r, "den": s}
    return rep


def _two_prime_orders(factors):
    """Shared order bookkeeping for the two-prime criteria: orders are taken
    modulo the full prime powers, and g = phi(m0)/lcm(f1, f2) is cross-checked
    against the product form g1*g2*gcd(f1, f2)."""
    (p1, a1), (p2, a2) = factors
    mod1, mod2 = p1 ** a1, p2 ** a2
    f1, f2 = nt.mult_order_2(mod1), nt.mult_order_2(mod2)
    g1, g2 = nt.euler_phi(mod1) // f1, nt.euler_phi(mod2) // f2
    g = (nt.euler_phi(mod1) * nt.euler_phi(mod2)) // lcm(f1, f2)
    if g != g1 * g2 * gcd(f1, f2):  # pragma: no cover - identity of integers
        raise AssertionError("order bookkeeping mismatch")
    return {"p1": p1, "a1": a1, "p2": p2, "a2": a2,
            "order_moduli": [mod1, mod2],
            "f1": f1, "f2": f2, "g1": g1, "g2": g2, "g": g}


def crit_p7_x_p35(t: GbfType):
    """C4: odd part p1^a1 * p2^a2 with p1 = 7 and p2 = 3 or 5 (mod 8).

    r1 is the least odd exponent with x^2 + p1*y^2 = 2^(r+2) solvable
    (bounded by the class number of Q(sqrt(-p1))); r2 the least odd exponent
    with x^2 + p1*y^2 = 2^(r+2)*p2 solvable, scanned only up to r1 since a
    finite r2 never exceeds r1, with even-exponent hits recorded for
    diagnostics.  Branch I ((-p1/p2) = -1) excludes odd n < r1/s; branch II
    ((-p1/p2) = +1) excludes odd n < min(r1, r2)/s.
    """
    m, n = t.m, t.n
    if n % 2 == 0:
        return None
    m_odd, ok = _covered_shape(m)
    if not ok or m_odd < 3:
        return None
    factors = nt.factorize(m_odd)
    if len(factors) != 2:
        return None
    by_class7 = [fa for fa in factors if fa[0] % 8 == 7]
    by_class35 = [fa for fa in factors if fa[0] % 8 in (3, 5)]
    if len(by_class7) != 1 or len(by_class35) != 1:
        return None
    rep = CriterionReport(criterion=C4, m=m, n=n, fired=False,
                          covers=[[m_odd, n], [2 * m_odd, n]],
                          quantities=_base_quantities(m, m_odd))
    q = rep.quantities
    q.update(_two_prime_orders((by_class7[0], by_class35[0])))
    p1, p2 = q["p1"], q["p2"]
    g, s = q["g"], q["g"] // 2
    q["s"] = s
    if g % 2 or s % 2 == 0:
        rep.notes.append(f"abstain: g={g}, s={s} fail the parity sanity check")
        return rep
    jac = nt.jacobi(-p1, p2)
    q["jacobi"] = {"a": -p1, "n": p2, "value": jac}
    if jac == 0:  # pragma: no cover - p1, p2 distinct primes
        rep.notes.append("abstain: degenerate residue symbol")
        return rep
    h = nt.class_number(p1)
    q["class_number"] = {"d": p1, "h": h}
    sol1 = nt.min_odd_r(p1, bound=h)
    if sol1 is None:
        rep.notes.append(f"abstain: no odd r1 <= {h} found")
        return rep
    r1 = sol1.r
    q["r1"] = r1
    q["r1_witness"] = [sol1.x, sol1.y]
    r2 = None
    even_hits = []
    for exp in range(1, r1 + 1):
        hit = nt.solve_x2_Dy2(p1, (1 << (exp + 2)) * p2)
        if hit is None:
            continue
        if exp % 2:
            r2 = exp
            q["r2_witness"] = [hit[0], hit[1]]
            break
        even_hits.append([exp, hit[0], hit[1]])
    q["r2"] = r2                       # None encodes "no finite r2"
    q["r2_even_hits"] = even_hits
    if even_hits and r2 is not None:
        rep.notes.append(
            f"even exponent {even_hits[0][0]} solvable; consistent with "
            f"r2 = r1 - {even_hits[0][0]} = {r1 - even_hits[0][0]}")
    r = r1 if r2 is None else min(r1, r2)
    q["r"] = r
    branch = "I" if jac == -1 else "II"
    q["branch"] = branch
    eff = r1 if branch == "I" else r
    rep.fired = n * s < eff
    rep.excluded = {"parity": "odd", "num": eff, "den": s}
    return rep


def crit_p3_x_p5(t: GbfType):
    """C5: odd part p1^a1 * p2^a2 with p1 = 3 and p2 = 5 (mod 8).

    Branch I ((p2/p1) = +1) excludes every odd n.  Branch II computes the
    least odd r with p1*x^2 + p2*y^2 = 2^(r+2) solvable, bounded by the class
    number of Q(sqrt(-p1*p2)) (r is half the order of a prime over 2 in that
    class group), and excludes odd n < r/s.
    """
    m, n = t.m, t.n
    if n % 2 == 0:
        return None
    m_odd, ok = _covered_shape(m)
    if not ok or m_odd < 3:
        return None
    factors = nt.factorize(m_odd)
    if len(factors) != 2:
        return None
    by_class3 = [fa for fa in factors if fa[0] % 8 == 3]
    by_class5 = [fa for fa in factors if fa[0] % 8 == 5]
    if len(by_class3) != 1 or len(by_class5) != 1:
        return None
    rep = CriterionReport(criterion=C5, m=m, n=n, fired=False,
                          covers=[[m_odd, n], [2 * m_odd, n]],
                          quantities=_base_quantities(m, m_odd))
    q = rep.quantities
    q.update(_two_prime_orders((by_class3[0], by_class5[0])))
    p1, p2 = q["p1"], q["p2"]
    g, s = q["g"], q["g"] // 2
    q["s"] = s
    if g % 2 or s % 2 == 0:
        rep.notes.append(f"abstain: g={g}, s={s} fail the parity sanity check")
        return rep
    jac = nt.jacobi(p2, p1)
    q["jacobi"] = {"a": p2, "n": p1, "value": jac}
    if jac == 0:  # pragma: no cover - p1, p2 distinct primes
        rep.notes.append("abstain: degenerate residue symbol")
        return rep
    q["branch"] = "I" if jac == 1 else "II"
    if jac == 1:
        rep.fired = True
        rep.excluded = {"parity": "odd", "all": True}
        return rep
    h = nt.class_number(p1 * p2)
    q["class_number"] = {"d": p1 * p2, "h": h}
    sol = nt.min_odd_r((p1, p2), bound=h)
    if sol is None:
        rep.notes.append(f"abstain: no odd r <= {h} found")
        return rep
    q["r"] = sol.r
    q["r_witness"] = [sol.x, sol.y]
    rep.fired = n * s < sol.r
    rep.excluded = {"parity": "odd", "num": sol.r, "den": s}
    return rep


_CRITERIA_FUNCS = (crit_lam_leung, crit_semiprimitive, crit_p7,
                   crit_p7_x_p35, crit_p3_x_p5)


# -- report re-validation ------------------------------------------------------


def _check(cond: bool, message: str):
    if not cond:
        raise ValueError(f"report re-validation failed: {message}")


def _revalidate_excluded(rep: CriterionReport):
    exc = rep.excluded
    _check(rep.fired == (exc is not None), "excluded range presence")
    if exc is None:
        return
    if "n" in exc:
        _check(exc["n"] == rep.n, "single-exponent range")
    elif exc.get("all"):
        _check(rep.n % 2 == 1, "odd-parity range")
    else:
        _check(rep.n % 2 == 1 and rep.n * exc["den"] < exc["num"],
               "n below the stated r/s bound")


def revalidate_report(rep: CriterionReport) -> bool:
    """Recompute every recorded equation, symbol and inequality of a report;
    raises ValueError on the first mismatch, returns True otherwise."""
    q = rep.quantities
    m_odd = q["m_odd"]
    _check(nt.odd_part(rep.m) == m_odd, "odd part")
    if q["factors"]:
        _check([[p, a] for p, a in nt.factorize(m_odd)] == q["factors"],
               "factorization")

    if rep.criterion == C1:
        sg = q["semigroup"]
        _check(sg["target"] == 1 << rep.n, "semigroup target")
        _check(sg["generators"] == [p for p, _ in nt.factorize(rep.m)],
               "semigroup generators")
        sol = nt.semigroup_member(sg["target"], sg["generators"])
        if sg["solution"] is None:
            _check(sol is None and rep.fired, "non-representability")
        else:
            _check(not rep.fired, "representable but fired")
            _check(sum(c * p for c, p in zip(sg["solution"], sg["generators"]))
                   == sg["target"], "semigroup certificate")
    elif rep.criterion == C2:
        for p, d, r in q["prime_table"]:
            _check(nt.mult_order_2(p) == d and nt.v2(d) == r,
                   f"prime table row for {p}")
        if rep.fired:
            l = q["l"]
            _check(pow(2, l, m_odd) == m_odd - 1, "2^l = -1")
            _check(l == nt.mult_order_2(m_odd) // 2, "l minimality")
            vals = {r for _, _, r in q["prime_table"]}
            _check(len(vals) == 1 and min(vals) >= 1, "shared valuation")
        else:
            _check(q["l"] is None, "no l recorded")
    elif rep.criterion == C3:
        p, l = q["p"], q["exponent"]
        _check(p % 8 == 7 and p ** l == m_odd, "prime power shape")
        if "r" in q:
            f, g, s = q["f"], q["g"], q["s"]
            _check(nt.mult_order_2(q["order_modulus"]) == f, "order of 2")
            _check(f * g == nt.euler_phi(m_odd) and g == 2 * s and s % 2 == 1,
                   "g and s bookkeeping")
            h = q["class_number"]
            _check(nt.class_number(h["d"]) == h["h"], "class number")
            r = q["r"]
            x, y = q["r_witness"]
            _check(r % 2 == 1 and r <= h["h"], "r odd and bounded")
            _check(x * x + p * y * y == 1 << (r + 2), "r witness equation")
            for rr in range(1, r, 2):
                _check(nt.solve_x2_Dy2(p, 1 << (rr + 2)) is None,
                       "r minimality")
            _check(rep.fired == (rep.n * s < r), "firing inequality")
    elif rep.criterion == C4:
        p1, p2 = q["p1"], q["p2"]
        _check(p1 % 8 == 7 and p2 % 8 in (3, 5), "residue classes")
        _check(p1 ** q["a1"] * p2 ** q["a2"] == m_odd, "factor shape")
        mod1, mod2 = q["order_moduli"]
        _check(nt.mult_order_2(mod1) == q["f1"]
               and nt.mult_order_2(mod2) == q["f2"], "orders of 2")
        _check(q["g"] == (nt.euler_phi(mod1) * nt.euler_phi(mod2))
               // lcm(q["f1"], q["f2"]), "g bookkeeping")
        if "branch" in q:
            s = q["s"]
            _check(q["g"] == 2 * s and s % 2 == 1, "s bookkeeping")
            jac = q["jacobi"]
            _check(nt.jacobi(jac["a"], jac["n"]) == jac["value"],
                   "residue symbol")
            _check(q["branch"] == ("I" if jac["value"] == -1 else "II"),
                   "branch selection")
            r1 = q["r1"]
            x, y = q["r1_witness"]
            _check(x * x + p1 * y * y == 1 << (r1 + 2), "r1 witness equation")
            for rr in range(1, r1, 2):
                _check(nt.solve_x2_Dy2(p1, 1 << (rr + 2)) is None,
                       "r1 minimality")
            _check(r1 <= q["class_number"]["h"]
                   and nt.class_number(p1) == q["class_number"]["h"],
                   "r1 bound")
            r2 = q["r2"]
            if r2 is not None:
                x2, y2 = q["r2_witness"]
                _check(r2 % 2 == 1 and r2 <= r1, "r2 odd and bounded by r1")
                _check(x2 * x2 + p1 * y2 * y2 == (1 << (r2 + 2)) * p2,
                       "r2 witness equation")
                for rr in range(1, r2, 2):
                    _check(nt.solve_x2_Dy2(p1, (1 << (rr + 2)) * p2) is None,
                           "r2 minimality")
            else:
                for rr in range(1, r1 + 1, 2):
                    _check(nt.solve_x2_Dy2(p1, (1 << (rr + 2)) * p2) is None,
                           "r2 infinite within the r1 scan")
            eff = r1 if q["branch"] == "I" else q["r"]
            _check(q["r"] == (r1 if r2 is None else min(r1, r2)), "r value")
            _check(rep.fired == (rep.n * s < eff), "firing inequality")
    elif rep.criterion == C5:
        p1, p2 = q["p1"], q["p2"]
        _check(p1 % 8 == 3 and p2 % 8 == 5, "residue classes")
        _check(p1 ** q["a1"] * p2 ** q["a2"] == m_odd, "factor shape")
        if "branch" in q:
            s = q["s"]
            _check(q["g"] == 2 * s and s % 2 == 1, "s bookkeeping")
            jac = q["jacobi"]
            _check(nt.jacobi(jac["a"], jac["n"]) == jac["value"],
                   "residue symbol")
            if q["branch"] == "I":
                _check(jac["value"] == 1 and rep.fired, "branch I firing")
            else:
                _check(jac["value"] == -1, "branch II symbol")
                r = q["r"]
                x, y = q["r_witness"]
                _check(p1 * x * x + p2 * y * y == 1 << (r + 2),
                       "r witness equation")
                for rr in range(1, r, 2):
                    _check(nt.solve_ax2_by2(p1, p2, 1 << (rr + 2)) is None,
                           "r minimality")
                _check(r <= q["class_number"]["h"]
                       and nt.class_number(p1 * p2) == q["class_number"]["h"],
                       "r bound")
                _check(rep.fired == (rep.n * s < r), "firing inequality")
    else:
        raise ValueError(f"unknown criterion id {rep.criterion!r}")
    _revalidate_excluded(rep)
    return True


# -- the engine ----------------------------------------------------------------


def decide(t: GbfType) -> Verdict:
    """Decide existence of a flat-spectrum table of type t.

    Existence rules run first; then each nonexistence criterion is evaluated
    (C1 through C5, in that fixed order).  The first firing criterion gives
    the verdict, with any other firing ones listed in its report as also
    applicable; when nothing concludes, the verdict is Unknown and carries
    every applicable report.  Deterministic: identical inputs give identical
    verdicts and reports.
    """
    if t.n > MAX_N:
        raise ValueError(f"n = {t.n} beyond the resource guard ({MAX_N})")
    found = rule_exists(t)
    if found is not None:
        witness, rule = found
        return Verdict(EXISTS, witness=witness, rule=rule)
    reports = [rep for rep in (fn(t) for fn in _CRITERIA_FUNCS)
               if rep is not None]
    fired = [rep for rep in reports if rep.fired]
    if fired:
        chosen = fired[0]
        chosen.also_applicable = [rep.criterion for rep in fired[1:]]
        revalidate_report(chosen)
        return Verdict(NOT_EXISTS, report=chosen, attempts=reports)
    return Verdict(UNKNOWN, attempts=reports)


def summarize_report(rep: CriterionReport) -> str:
    """One-line human summary of why a criterion fired (or did not)."""
    q = rep.quantities
    if rep.criterion == C1:
        sg = q["semigroup"]
        gens = ",".join(str(g) for g in sg["generators"])
        if rep.fired:
            return f"2^{rep.n}={sg['target']} not representable over {{{gens}}}"
        return f"2^{rep.n}={sg['target']} representable over {{{gens}}}"
    if rep.criterion == C2:
        if rep.fired:
            return (f"2^{q['l']} = -1 (mod {q['m_odd']}); "
                    f"case {q['case']}; all odd n excluded")
        return f"no power of 2 is -1 mod {q['m_odd']}"
    if rep.criterion == C3:
        if "r" not in q:
            return "abstained"
        return (f"p={q['p']}, s={q['s']}, r={q['r']}; "
                f"excludes odd n < {q['r']}/{q['s']}")
    if rep.criterion == C4:
        if "branch" not in q or "r1" not in q:
            return "abstained"
        eff = q["r1"] if q["branch"] == "I" else q["r"]
        return (f"branch {q['branch']}, s={q['s']}, r1={q['r1']}, "
                f"r2={'inf' if q['r2'] is None else q['r2']}; "
                f"excludes odd n < {eff}/{q['s']}")
    if rep.criterion == C5:
        if "branch" not in q:
            return "abstained"
        if q["branch"] == "I":
            return (f"branch I: ({q['p2']}/{q['p1']}) = 1; "
                    f"all odd n excluded")
        if "r" not in q:
            return "abstained"
        return (f"branch II, s={q['s']}, r={q['r']}; "
                f"excludes odd n < {q['r']}/{q['s']}")
    return ""
