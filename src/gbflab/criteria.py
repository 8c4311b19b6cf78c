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
{2*m0, n} cover odd inputs m0.  A criterion abstains rather than conclude
whenever any internal sanity check fails, a witness equation included.
C3-C5 find every exponent r through one search, numtheory's
exponent_solutions: the least odd r below a class number, and C4's scan
for r2 with its even-exponent hits.
decide() re-validates every report before returning NotExists: the report is
derived again from its m and n and must match the one returned exactly.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from math import lcm

from . import numtheory as nt
from .gbf import (FunctionTable, GbfType, _fold_mod4, construct_boolean_bent,
                  construct_even_even, is_gbf, lift_modulus)

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
        """A JSON-native copy (tuples become lists) that shares no mutable
        object with the report."""
        return {key: _json_copy(getattr(self, key)) for key in _REPORT_FIELDS}


_REPORT_FIELDS = tuple(f.name for f in fields(CriterionReport))


def _json_copy(value):
    if isinstance(value, dict):
        return {k: _json_copy(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_copy(v) for v in value]
    return value


def report_from_dict(data) -> CriterionReport:
    """The report a ``to_dict()`` mapping describes; ValueError unless data
    is a mapping with exactly the report's keys."""
    if not isinstance(data, Mapping) or set(data) != set(_REPORT_FIELDS):
        raise ValueError("a report is a mapping with exactly the keys "
                         + ", ".join(_REPORT_FIELDS))
    return CriterionReport(**data)


@dataclass(frozen=True)
class Verdict:
    """Engine output: Exists with a verified witness and the rule that built
    it, NotExists with a re-validated report, or Unknown with every
    applicable-but-inconclusive report."""

    kind: str
    witness: FunctionTable | None = None
    rule: str | None = None
    report: CriterionReport | None = None
    attempts: list = field(default_factory=list)


def _base_quantities(m_odd: int, factors):
    return {"m_odd": m_odd, "factors": [[p, a] for p, a in factors]}


# -- existence ---------------------------------------------------------------


# (rule, n) whose base table passed the exact flatness check in this
# process.  A lift has the same content-modulus table as its base, so that
# check is also the check of every witness the rule builds at n.
_FLAT_BASES: set[tuple[str, int]] = set()


def rule_exists(t: GbfType):
    """A verified flat witness for t when one of the rules applies, with the
    rule id; None otherwise.

    E2: m = 2, even n.  E1: 4 | m, any n, built at modulus 4 (product
    construction for even n, quaternary folding of a boolean witness for odd
    n) and lifted by m/4.  E3: remaining even m with even n, the product
    construction at modulus 2 lifted by m/2.  Each base table depends on the
    rule and n only, and is verified once per process.
    """
    m, n = t.m, t.n
    if m == 2 and n % 2 == 0:
        rule, base = "E2", construct_boolean_bent(n)
    elif m % 4 == 0:
        rule = "E1"
        base = (construct_even_even(4, n) if n % 2 == 0
                else _fold_mod4(construct_boolean_bent(n + 1)))
    elif m % 2 == 0 and n % 2 == 0:
        rule, base = "E3", construct_even_even(2, n)
    else:
        return None
    if (rule, n) not in _FLAT_BASES:
        if not is_gbf(base):  # unreachable: the constructions are flat
            raise AssertionError(f"construction {rule} failed exact verification")
        _FLAT_BASES.add((rule, n))
    return lift_modulus(base, m // base.m), rule


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


# -- steps shared by the odd-part criteria C2-C5 -------------------------------
#
# Each step records its quantities in the report and returns the step's
# value, or None after an abstain note, in which case the criterion must not
# fire.


def _odd_part_gate(t: GbfType, classes=None):
    """(m0, prime powers of m0) when n is odd and m is its odd part m0 >= 3
    or 2*m0, and m0 has, if ``classes`` is given, one prime p with p mod 8 in
    each classes[i] and no other (the powers then in that order); else None."""
    m_odd = nt.odd_part(t.m)
    if t.n % 2 == 0 or t.m not in (m_odd, 2 * m_odd) or m_odd < 3:
        return None
    factors = nt.factorize(m_odd)
    if classes is None:
        return m_odd, factors
    by_class = [[fa for fa in factors if fa[0] % 8 in c] for c in classes]
    if len(factors) != len(classes) or any(len(fs) != 1 for fs in by_class):
        return None
    return m_odd, [fs[0] for fs in by_class]


def _two_prime_orders(factors):
    """Shared order bookkeeping for the two-prime criteria: orders are taken
    modulo the full prime powers, and g = phi(m0)/lcm(f1, f2), which is
    g1*g2*gcd(f1, f2)."""
    (p1, a1), (p2, a2) = factors
    mod1, mod2 = p1 ** a1, p2 ** a2
    f1, f2 = nt.mult_order_2(mod1), nt.mult_order_2(mod2)
    g1, g2 = nt.euler_phi(mod1) // f1, nt.euler_phi(mod2) // f2
    g = (nt.euler_phi(mod1) * nt.euler_phi(mod2)) // lcm(f1, f2)
    return {"p1": p1, "a1": a1, "p2": p2, "a2": a2,
            "order_moduli": [mod1, mod2],
            "f1": f1, "f2": f2, "g1": g1, "g2": g2, "g": g}


def _two_prime_report(t: GbfType, criterion: str, classes):
    """(report, s or None) for C4 or C5 with both prime powers, their orders
    and the g/s step recorded; (None, None) when t is off shape."""
    gate = _odd_part_gate(t, classes)
    if gate is None:
        return None, None
    m_odd, shape = gate
    rep = CriterionReport(criterion=criterion, m=t.m, n=t.n, fired=False,
                          covers=[[m_odd, t.n], [2 * m_odd, t.n]],
                          quantities=_base_quantities(m_odd, sorted(shape)))
    rep.quantities.update(_two_prime_orders(shape))
    return rep, _split_g(rep, rep.quantities["g"])


def _split_g(rep: CriterionReport, g: int):
    """Record g and s = g/2; s if it is odd, else None after a note."""
    s = g // 2
    rep.quantities["g"], rep.quantities["s"] = g, s
    if g % 2 or s % 2 == 0:
        rep.notes.append(f"abstain: g={g}, s={s} fail the parity sanity check")
        return None
    return s


def _residue_symbol(rep: CriterionReport, a: int, n: int):
    """Record the Jacobi symbol (a/n); its value, or None if it vanishes."""
    value = nt.jacobi(a, n)
    rep.quantities["jacobi"] = {"a": a, "n": n, "value": value}
    if value == 0:  # unreachable: p1, p2 are distinct primes
        rep.notes.append("abstain: degenerate residue symbol")
        return None
    return value


def _solves(rep: CriterionReport, a: int, b: int, exp: int, x: int, y: int,
            multiplier: int = 1) -> bool:
    """Whether a*x^2 + b*y^2 = 2^(exp+2)*multiplier; if not, an abstain note."""
    if a * x * x + b * y * y == (1 << (exp + 2)) * multiplier:
        return True
    rep.notes.append(f"abstain: ({x}, {y}) fails {a}*x^2 + {b}*y^2 = "
                     f"2^{exp + 2}*{multiplier}")
    return False


def _least_odd_r(rep: CriterionReport, a: int, b: int, key: str = "r"):
    """Record the class number h of Q(sqrt(-a*b)) and the least odd r <= h
    at which a*x^2 + b*y^2 = 2^(r+2) is solvable, with its witness, under
    ``key``; r, or None after an abstain note."""
    q = rep.quantities
    h = nt.class_number(a * b)
    q["class_number"] = {"d": a * b, "h": h}
    hit = next(nt.exponent_solutions(a, b, range(1, h + 1, 2)), None)
    if hit is None:
        rep.notes.append(f"abstain: no odd {key} <= {h} found")
        return None
    r, x, y = hit
    if not _solves(rep, a, b, r, x, y):
        return None
    q[key] = r
    q[f"{key}_witness"] = [x, y]
    return r


_ALL_ODD = {"parity": "odd", "all": True}


def _odd_below(num: int, den: int) -> dict:
    """The excluded range of odd n with n*den < num."""
    return {"parity": "odd", "num": num, "den": den}


def _fire_below(rep: CriterionReport, num: int, den: int):
    rep.fired = rep.n * den < num
    rep.excluded = _odd_below(num, den)
    return rep


def _range_text(excluded: dict) -> str:
    if excluded.get("all"):
        return "all odd n excluded"
    return f"excludes odd n < {excluded['num']}/{excluded['den']}"


# -- nonexistence criteria ----------------------------------------------------
#
# Each criterion is two functions side by side: crit_* evaluates it and
# _summary_* states its report in one line.


def crit_lam_leung(t: GbfType):
    """C1: for odd m, a flat table forces 2^n to be a nonnegative integer
    combination of the prime divisors of m; fires when the semigroup
    membership fails."""
    m, n = t.m, t.n
    if m % 2 == 0 or m < 3:
        return None
    factors = nt.factorize(m)
    gens = [p for p, _ in factors]
    target = 1 << n
    solution = nt.semigroup_member(target, gens)
    fired = solution is None
    rep = CriterionReport(
        criterion=C1, m=m, n=n, fired=fired,
        covers=[[m, n]],
        quantities={**_base_quantities(m, factors),
                    "semigroup": {"target": target,
                                  "generators": gens,
                                  "solution": list(solution) if solution else None}},
        excluded={"n": n} if fired else None)
    if solution and sum(c * p for c, p in zip(solution, gens)) != target:
        rep.notes.append(f"abstain: the solution does not sum to 2^{n}")
    return rep


def _summary_lam_leung(rep: CriterionReport) -> str:
    sg = rep.quantities["semigroup"]
    gens = ",".join(str(g) for g in sg["generators"])
    verb = "not representable" if rep.fired else "representable"
    return f"2^{rep.n}={sg['target']} {verb} over {{{gens}}}"


def _prime_table(factors) -> list:
    return [[p, nt.mult_order_2(p), nt.v2(nt.mult_order_2(p))]
            for p, _ in factors]


def _semiprimitive_order(m_odd: int, l: int, prime_table) -> dict:
    """What a firing C2 report adds: the order 2l of 2 and the case."""
    shared = prime_table[0][2]
    return {"order_modulus": m_odd, "order": 2 * l, "shared_valuation": shared,
            "case": {1: "I", 2: "II"}.get(shared, "III")}


def crit_semiprimitive(t: GbfType):
    """C2: fires when some power of 2 is -1 modulo the odd part m0 >= 3,
    excluding every odd n for both {m0, n} and {2*m0, n}.  The report carries
    the per-prime order table behind the equivalent same-valuation test."""
    gate = _odd_part_gate(t)
    if gate is None:
        return None
    m_odd, factors = gate
    prime_table = _prime_table(factors)
    l = nt.semiprimitive(m_odd)
    fired = l is not None
    quantities = {**_base_quantities(m_odd, factors),
                  "prime_table": prime_table,
                  "l": l}
    if fired:
        quantities.update(_semiprimitive_order(m_odd, l, prime_table))
    return CriterionReport(
        criterion=C2, m=t.m, n=t.n, fired=fired,
        covers=[[m_odd, t.n], [2 * m_odd, t.n]],
        quantities=quantities,
        excluded=dict(_ALL_ODD) if fired else None)


def _summary_semiprimitive(rep: CriterionReport) -> str:
    q = rep.quantities
    if not rep.fired:
        return f"no power of 2 is -1 mod {q['m_odd']}"
    return (f"2^{q['l']} = -1 (mod {q['m_odd']}); case {q['case']}; "
            + _range_text(_ALL_ODD))


def crit_p7(t: GbfType):
    """C3: odd part p^l with p = 7 (mod 8).  With f the order of 2 modulo
    p^l, g = phi(p^l)/f, s = g/2 and r the least odd exponent with
    x^2 + p*y^2 = 2^(r+2) solvable (bounded by the class number of
    Q(sqrt(-p))), every odd n < r/s is excluded for {2*p^l, n}, hence for
    the divisor {p^l, n}."""
    m, n = t.m, t.n
    gate = _odd_part_gate(t, ((7,),))
    if gate is None:
        return None
    m_odd, factors = gate
    p, l = factors[0]
    rep = CriterionReport(criterion=C3, m=m, n=n, fired=False,
                          covers=[[2 * m_odd, n]],
                          propagated=(m == m_odd),
                          quantities=_base_quantities(m_odd, factors))
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
    s = _split_g(rep, phi // f)
    r = s and _least_odd_r(rep, 1, p)
    return _fire_below(rep, r, s) if r else rep


def _summary_p7(rep: CriterionReport) -> str:
    q = rep.quantities
    if "r" not in q:
        return "abstained"
    return (f"p={q['p']}, s={q['s']}, r={q['r']}; "
            + _range_text(_odd_below(q["r"], q["s"])))


def _p7_x_p35_bound(q: dict) -> int:
    """C4's r/s numerator: r1 in branch I, min(r1, r2) in branch II."""
    return q["r1"] if q["branch"] == "I" else q["r"]


def crit_p7_x_p35(t: GbfType):
    """C4: odd part p1^a1 * p2^a2 with p1 = 7 and p2 = 3 or 5 (mod 8).

    r1 is the least odd exponent with x^2 + p1*y^2 = 2^(r+2) solvable
    (bounded by the class number of Q(sqrt(-p1))); r2 the least odd exponent
    with x^2 + p1*y^2 = 2^(r+2)*p2 solvable, scanned only up to r1 since a
    finite r2 never exceeds r1, with even-exponent hits recorded for
    diagnostics.  Branch I ((-p1/p2) = -1) excludes odd n < r1/s; branch II
    ((-p1/p2) = +1) excludes odd n < min(r1, r2)/s.
    """
    rep, s = _two_prime_report(t, C4, ((7,), (3, 5)))
    if rep is None:
        return None
    q = rep.quantities
    p1, p2 = q["p1"], q["p2"]
    jac = s and _residue_symbol(rep, -p1, p2)
    r1 = jac and _least_odd_r(rep, 1, p1, "r1")
    if not r1:
        return rep
    r2 = None
    even_hits = []
    for exp, x, y in nt.exponent_solutions(1, p1, range(1, r1 + 1), p2):
        if not _solves(rep, 1, p1, exp, x, y, p2):
            return rep
        if exp % 2:
            r2 = exp
            q["r2_witness"] = [x, y]
            break
        even_hits.append([exp, x, y])
    q["r2"] = r2                       # None encodes "no finite r2"
    q["r2_even_hits"] = even_hits
    if even_hits and r2 is not None:
        rep.notes.append(
            f"even exponent {even_hits[0][0]} solvable; consistent with "
            f"r2 = r1 - {even_hits[0][0]} = {r1 - even_hits[0][0]}")
    q["r"] = r1 if r2 is None else min(r1, r2)
    q["branch"] = "I" if jac == -1 else "II"
    return _fire_below(rep, _p7_x_p35_bound(q), s)


def _summary_p7_x_p35(rep: CriterionReport) -> str:
    q = rep.quantities
    if "branch" not in q or "r1" not in q:
        return "abstained"
    return (f"branch {q['branch']}, s={q['s']}, r1={q['r1']}, "
            f"r2={'inf' if q['r2'] is None else q['r2']}; "
            + _range_text(_odd_below(_p7_x_p35_bound(q), q["s"])))


def crit_p3_x_p5(t: GbfType):
    """C5: odd part p1^a1 * p2^a2 with p1 = 3 and p2 = 5 (mod 8).

    Branch I ((p2/p1) = +1) excludes every odd n.  Branch II computes the
    least odd r with p1*x^2 + p2*y^2 = 2^(r+2) solvable, bounded by the class
    number of Q(sqrt(-p1*p2)) (r is half the order of a prime over 2 in that
    class group), and excludes odd n < r/s.
    """
    rep, s = _two_prime_report(t, C5, ((3,), (5,)))
    if rep is None:
        return None
    q = rep.quantities
    p1, p2 = q["p1"], q["p2"]
    jac = s and _residue_symbol(rep, p2, p1)
    if not jac:
        return rep
    q["branch"] = "I" if jac == 1 else "II"
    if jac == 1:
        rep.fired = True
        rep.excluded = dict(_ALL_ODD)
        return rep
    r = _least_odd_r(rep, p1, p2)
    return _fire_below(rep, r, s) if r else rep


def _summary_p3_x_p5(rep: CriterionReport) -> str:
    q = rep.quantities
    if q.get("branch") == "I":
        return (f"branch I: ({q['p2']}/{q['p1']}) = 1; "
                + _range_text(_ALL_ODD))
    if "r" not in q:
        return "abstained"
    return (f"branch II, s={q['s']}, r={q['r']}; "
            + _range_text(_odd_below(q["r"], q["s"])))


# criterion id -> (evaluation, summary of its reports), in evaluation order.
# Re-validation calls the evaluation from here, not through _CRITERIA_FUNCS,
# so wrapping that tuple sees only the calls decide() makes.
_REPORT_PARTS = {
    C1: (crit_lam_leung, _summary_lam_leung),
    C2: (crit_semiprimitive, _summary_semiprimitive),
    C3: (crit_p7, _summary_p7),
    C4: (crit_p7_x_p35, _summary_p7_x_p35),
    C5: (crit_p3_x_p5, _summary_p3_x_p5),
}

_CRITERIA_FUNCS = tuple(crit for crit, _ in _REPORT_PARTS.values())


# -- report re-validation ------------------------------------------------------


_COMPARED_FIELDS = tuple(f for f in _REPORT_FIELDS if f != "also_applicable")


def _refused(reason: str) -> ValueError:
    return ValueError(f"report re-validation failed: {reason}")


def _same_json(a, b) -> bool:
    """Equal as JSON values of the same types: a float or bool never equals
    an int, and the order of dict keys does not matter."""
    kind = type(a)
    if kind is not type(b):
        return False
    if kind is dict:
        if a.keys() != b.keys():
            return False
        for key, value in a.items():
            if not _same_json(value, b[key]):
                return False
        return True
    if kind is list:
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if not _same_json(x, y):
                return False
        return True
    return a == b


def revalidate_report(rep: CriterionReport) -> bool:
    """Derive the report again from its m and n with its own criterion and
    require every field but ``also_applicable`` to equal the derived one,
    with the same JSON types.  A report that does not fire may leave its
    excluded range out.  Raises ValueError on the first mismatch, returns
    True otherwise."""
    parts = (_REPORT_PARTS.get(rep.criterion)
             if isinstance(rep.criterion, str) else None)
    if parts is None:
        raise _refused(f"unknown criterion id {rep.criterion!r}")
    m, n = rep.m, rep.n
    if not (type(m) is int and type(n) is int and m >= 2 and 1 <= n <= MAX_N):
        raise _refused(f"m and n must be integers with m >= 2 and "
                       f"1 <= n <= {MAX_N}")
    derived = parts[0](GbfType(m, n))
    if derived is None:
        raise _refused(f"{{{m},{n}}} is outside {rep.criterion}")
    if not derived.fired and rep.excluded is None:
        derived.excluded = None
    for key in _COMPARED_FIELDS:
        if not _same_json(getattr(rep, key), getattr(derived, key)):
            raise _refused(f"{key} differs from the derived report")
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
    parts = _REPORT_PARTS.get(rep.criterion)
    return parts[1](rep) if parts else ""
