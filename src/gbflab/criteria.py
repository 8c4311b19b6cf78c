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

The existence side is a rule on (m, n) alone, chosen by exists_rule with
no table built; its pieces, the 1- and 2-variable tables at the base
modulus 2 or 4, go through the exact kernel once per rule and process.
rule_exists builds the witness from that choice when one is asked for:
gbf sums the pieces in the witness's dtype and scales the sum in place
by m/c, which keeps it flat.  This module holds no table code.

Nonexistence conclusions transfer downward to divisors (a flat table mod a
divisor lifts to one mod the multiple), which is how criteria stated at
{2*m0, n} cover odd inputs m0.  C2-C5 are stated on the odd part m0 through
the classes modulo 8 of its primes, and each starts from one report head,
_odd_part_report: the gate (odd n, m = m0 or 2*m0, m0 >= 3, and for C3-C5
one prime of m0 in each class the criterion names) and the unfired report
covering {m0, n} and {2*m0, n}; C3 alone narrows that to {2*m0, n}.  A
criterion abstains rather than conclude whenever any internal sanity check
fails, a witness equation included, and summarize_report reads every C3-C5
report with no excluded range as "abstained".
C3-C5 read every exponent r off the form class group of Q(sqrt(-d)),
d = 7 (mod 8), where 2 splits into the prime forms P and its inverse: the
least odd r is the order of [P] or half of it, C4's r2 is a discrete
logarithm to the base [P], and each witness comes from one Cornacchia call.
applicable_reports gives the criteria's reports in their fixed order, one
at a time: decide() reads them all, and scan_rows, the rows of gbf scan,
stops at the first that fires.  Either re-validates that report before it
stands as NotExists: the report is derived again from its m and n and must
match exactly.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import lru_cache
from math import lcm

from . import numtheory as nt
from .gbf import FunctionTable, GbfType, _pair_sum, is_gbf, table

C1 = "C1-LamLeung"
C2 = "C2-Semiprimitive"
C3 = "C3-P7"
C4 = "C4-P7xP35"
C5 = "C5-P3xP5"
DIV = "DIV-Propagation"

EXISTS = "exists"
NOT_EXISTS = "not_exists"
UNKNOWN = "unknown"

MAX_N = 24  # resource guard: rule_exists, hence decide, refuses larger n


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
        """The report's fields by name, holding the report's own values, not
        copies: they are JSON-native already."""
        return {key: getattr(self, key) for key in _REPORT_FIELDS}


_REPORT_FIELDS = tuple(f.name for f in fields(CriterionReport))


def report_from_dict(data) -> CriterionReport:
    """The report a ``to_dict()`` mapping describes, holding the mapping's
    own values; ValueError unless data is a mapping with exactly the
    report's keys."""
    if not isinstance(data, Mapping) or set(data) != set(_REPORT_FIELDS):
        raise ValueError("a report is a mapping with exactly the keys "
                         + ", ".join(_REPORT_FIELDS))
    return CriterionReport(**data)


@dataclass(frozen=True)
class Verdict:
    """Engine output: Exists with a verified witness and the rule that built
    it, NotExists with a re-validated report, or Unknown with every
    applicable-but-inconclusive report.  Equality compares every field;
    the hash leaves out report and attempts, which need not be hashable."""

    kind: str
    witness: FunctionTable | None = None
    rule: str | None = None
    report: CriterionReport | None = field(default=None, hash=False)
    attempts: tuple = field(default=(), hash=False)


def _base_quantities(m_odd: int, factors):
    return {"m_odd": m_odd, "factors": [[p, a] for p, a in factors]}


# -- existence ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _pieces(rule: str, c: int):
    """(pair, top) as read-only uint8 arrays: P = (c/2)*x*y on two
    variables at rule's base modulus c, and x on one variable at modulus 4.
    Each goes through the exact kernel once per rule and process; lru_cache
    keeps no exception, so a failure is raised again at the next call."""
    pieces = table(c, 2, [0, 0, 0, c // 2]), table(4, 1, [0, 1])
    if not all(is_gbf(piece) for piece in pieces):  # unreachable: they are flat
        raise AssertionError(f"construction {rule} failed exact verification")
    return tuple(piece.array for piece in pieces)


def exists_rule(t: GbfType):
    """(rule, c, split) when one of the existence rules covers t: the rule
    id, the base modulus c of its witness and whether its pairs split the
    index in halves; None otherwise.  No table is built, but the rule's
    pieces have passed the exact kernel (_pieces), so the rule stands for
    a flat witness that rule_exists would build.  Refuses n > MAX_N.

    E2: m = 2, even n, the quadratic form x1*x2 + x3*x4 + ...  E1: 4 | m,
    any n, built at modulus 4 and lifted by m/4: for even n the product
    construction, for odd n 2*Q'(x') + x_n, twice the form on the low n - 1
    variables plus x on the top one (x alone at n = 1).  E3: remaining
    even m with even n, the product construction at modulus 2 lifted by
    m/2.
    """
    m, n = t.m, t.n
    if n > MAX_N:
        raise ValueError(f"n = {n} beyond the resource guard ({MAX_N})")
    if m == 2 and n % 2 == 0:
        rule, c, split = "E2", 2, False
    elif m % 4 == 0:
        rule, c, split = "E1", 4, n % 2 == 0
    elif m % 2 == 0 and n % 2 == 0:
        rule, c, split = "E3", 2, True
    else:
        return None
    _pieces(rule, c)
    return rule, c, split


def rule_exists(t: GbfType):
    """A flat witness for t when exists_rule covers it, with the rule id;
    None otherwise.  Refuses n > MAX_N.

    Each base at its modulus c is the direct sum of P on each pair of
    variables and, at odd n, x on the top variable x_n, with the pieces
    the exact kernel checked (_pieces).  The pairs are adjacent bits, or,
    for the product construction, bit i of the low half with bit i of the
    high half.  gbf._pair_sum sums the pieces into the witness, scaled by
    m/c, and it is flat because every piece is; no FWHT runs over its 2^n
    rows.
    """
    found = exists_rule(t)
    if found is None:
        return None
    rule, c, split = found
    return _pair_sum(t, c, *_pieces(rule, c), split), rule


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
# _odd_part_report gates C2-C5 and gives each its report head.  Each later
# step records its quantities in that report and returns the step's value,
# or None after an abstain note, in which case the criterion must not fire.


def _odd_part_report(t: GbfType, criterion: str, classes=None):
    """(report, prime powers of m0) when n is odd and m is its odd part
    m0 >= 3 or 2*m0, and m0 has, if ``classes`` is given, one prime p with
    p mod 8 in each classes[i] and no other (the powers then in that
    order); else None.  The report is the criterion's unfired head: it
    covers {m0, n} and {2*m0, n} and records m0 and its factorization."""
    m_odd = nt.odd_part(t.m)
    if t.n % 2 == 0 or t.m not in (m_odd, 2 * m_odd) or m_odd < 3:
        return None
    shape = factors = nt.factorize(m_odd)
    if classes is not None:
        if len(factors) != len(classes):
            return None
        by_class = [[fa for fa in factors if fa[0] % 8 in c] for c in classes]
        if any(len(fs) != 1 for fs in by_class):
            return None
        shape = [fs[0] for fs in by_class]
    return CriterionReport(criterion=criterion, m=t.m, n=t.n, fired=False,
                           covers=[[m_odd, t.n], [2 * m_odd, t.n]],
                           quantities=_base_quantities(m_odd, factors)), shape


def _two_prime_report(t: GbfType, criterion: str, classes):
    """(report, s or None) for C4 or C5 with both prime powers, their orders
    and the g/s step recorded; (None, None) when t is off shape.  Orders are
    taken modulo the full prime powers, and g = phi(m0)/lcm(f1, f2), which
    is g1*g2*gcd(f1, f2)."""
    head = _odd_part_report(t, criterion, classes)
    if head is None:
        return None, None
    rep, ((p1, a1), (p2, a2)) = head
    mod1, mod2 = p1 ** a1, p2 ** a2
    f1, f2 = nt.mult_order_2(mod1), nt.mult_order_2(mod2)
    rep.quantities.update(
        p1=p1, a1=a1, p2=p2, a2=a2, order_moduli=[mod1, mod2], f1=f1, f2=f2,
        g1=nt.euler_phi(mod1) // f1, g2=nt.euler_phi(mod2) // f2)
    return rep, _split_g(rep, nt.euler_phi(mod1 * mod2) // lcm(f1, f2))


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


def _two_adic_solutions(a: int, b: int, exp: int, multiplier: int = 1):
    """The primitive (x, y) with a*x^2 + b*y^2 = 2^(exp+2)*multiplier,
    exp >= -2, for a = 1 or an odd prime a and an odd prime or 1 as
    multiplier, least y first: Cornacchia for X^2 + a*b*y^2 = a*N, keeping
    X = a*x."""
    factors = tuple((p, k) for p, k in ((2, exp + 2), (a, 1), (multiplier, 1))
                    if p > 1 and k > 0)
    return [(x // a, y) for x, y in nt.cornacchia(a * b, factors)
            if x % a == 0]


def _least_odd_r(rep: CriterionReport, a: int, b: int, key: str = "r"):
    """Record the class number h of Q(sqrt(-a*b)) and the least odd r <= h
    at which a*x^2 + b*y^2 = 2^(r+2) is solvable, with its witness of least
    y, under ``key``; r, or None after an abstain note.

    Here d = a*b = 7 (mod 8) (a = 1 for C3 and C4, a = p1 for C5), so 2
    splits: P = (2, 1, (1+d)/8) and its inverse are the prime forms over 2.
    With x = 2u + v and y = v, a solution with x and y odd (every solution
    at the least odd r: an even pair comes from r - 2) is a primitive
    representation of 2^r by T = (a, a, (a+b)/4), so [T] = [P]^(+-r); [T]
    has order at most 2 (T is the principal form when a = 1).  With o the
    order of [P], the least odd r is o when o is odd, or o/2 when that is
    odd, provided [P]^r = [T]; no other odd r works.
    """
    q = rep.quantities
    d = a * b
    h = nt.class_number(d)
    q["class_number"] = {"d": d, "h": h}
    prime_over_2 = nt.reduce_form(2, 1, (1 + d) // 8)
    o = nt.form_order(prime_over_2, h)
    r = o if o % 2 else o // 2
    if r % 2 == 0 or (nt.form_pow(prime_over_2, r)
                      != nt.reduce_form(a, a, (a + b) // 4)):
        rep.notes.append(f"abstain: no odd {key} <= {h} found")
        return None
    solutions = _two_adic_solutions(a, b, r)
    if not solutions:
        rep.notes.append(f"abstain: no solution at {key} = {r}")
        return None
    x, y = solutions[0]
    if not _solves(rep, a, b, r, x, y):
        return None
    q[key] = r
    q[f"{key}_witness"] = [x, y]
    return r


def _r2_hits(p1: int, p2: int, r1: int):
    """(r2, its witness, even hits [[e, x, y], ...]) for x^2 + p1*y^2 =
    2^(e+2)*p2, 1 <= e <= r1, in branch II ((-p1/p2) = 1); (None, None, [])
    when no e is solvable, and None when a Cornacchia call finds nothing.

    For e >= 1 a solution with x and y odd is an element of norm 2^e * p2
    in Q(sqrt(-p1)) prime to 2, so e = +-k (mod r1), where k is the discrete
    logarithm of the prime form Q over p2 to the base [P] of order r1; an
    even pair comes from e - 2, down to x^2 + p1*y^2 = p2 (e = -2), which
    is solvable exactly when Q is principal (k = 0).  So r2 is the odd one
    of k and r1 - k (r1 when k = 0), and the solvable even e below r2 are
    e0, e0 + 2, ..., with e0 the even one (-2 when k = 0); there the
    solutions are 2^((e - e0)/2) times the primitive ones at e0.
    """
    b = nt.sqrt_mod(-p1, p2)[0]
    b = b if b % 2 else p2 - b
    k = nt.form_log(nt.reduce_form(p2, b, (b * b + p1) // (4 * p2)),
                    nt.reduce_form(2, 1, (1 + p1) // 8), r1)
    if k is None:
        return None, None, []
    r2, e0 = (k, r1 - k) if k % 2 else (r1 - k, k or -2)
    hits = range(max(e0, 2), r2, 2)
    top = _two_adic_solutions(1, p1, r2, p2)
    base = _two_adic_solutions(1, p1, e0, p2) if hits else [(0, 0)]
    if not top or not base:
        return None
    x0, y0 = base[0]
    return r2, list(top[0]), [[e, x0 << (e - e0) // 2, y0 << (e - e0) // 2]
                              for e in hits]


_ALL_ODD = {"parity": "odd", "all": True}


def _fire_below(rep: CriterionReport, num: int, den: int):
    """Record the range of odd n with n*den < num, fired or not."""
    rep.fired = rep.n * den < num
    rep.excluded = {"parity": "odd", "num": num, "den": den}
    return rep


def _range_text(excluded: dict) -> str:
    if excluded.get("all"):
        return "all odd n excluded"
    return f"excludes odd n < {excluded['num']}/{excluded['den']}"


# -- nonexistence criteria ----------------------------------------------------
#
# Each criterion is two functions side by side: crit_* evaluates it and
# _summary_* states its report in one line; summarize_report answers for a
# C3-C5 report with no excluded range before any _summary_* runs.


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


def crit_semiprimitive(t: GbfType):
    """C2: fires when some power of 2 is -1 modulo the odd part m0 >= 3,
    excluding every odd n for both {m0, n} and {2*m0, n}.  The report carries
    the per-prime order table behind the equivalent same-valuation test."""
    head = _odd_part_report(t, C2)
    if head is None:
        return None
    rep, factors = head
    q = rep.quantities
    q["prime_table"] = [[p, d, nt.v2(d)]
                        for p, _ in factors for d in [nt.mult_order_2(p)]]
    q["l"] = l = nt.semiprimitive(q["m_odd"])
    if l is not None:
        shared = q["prime_table"][0][2]
        q.update(order_modulus=q["m_odd"], order=2 * l,
                 shared_valuation=shared,
                 case={1: "I", 2: "II"}.get(shared, "III"))
        rep.fired, rep.excluded = True, dict(_ALL_ODD)
    return rep


def _summary_semiprimitive(rep: CriterionReport) -> str:
    q = rep.quantities
    if not rep.fired:
        return f"no power of 2 is -1 mod {q['m_odd']}"
    return (f"2^{q['l']} = -1 (mod {q['m_odd']}); case {q['case']}; "
            + _range_text(rep.excluded))


def crit_p7(t: GbfType):
    """C3: odd part p^l with p = 7 (mod 8).  With f the order of 2 modulo
    p^l, g = phi(p^l)/f, s = g/2 and r the least odd exponent with
    x^2 + p*y^2 = 2^(r+2) solvable (bounded by the class number of
    Q(sqrt(-p))), every odd n < r/s is excluded for {2*p^l, n}, hence for
    the divisor {p^l, n}."""
    head = _odd_part_report(t, C3, ((7,),))
    if head is None:
        return None
    rep, [(p, l)] = head
    q = rep.quantities
    m_odd, n = q["m_odd"], t.n
    rep.covers, rep.propagated = [[2 * m_odd, n]], t.m == m_odd
    if rep.propagated:
        rep.notes.append(
            f"{DIV}: statement at {{{2 * m_odd},{n}}} transfers to the "
            f"divisor type {{{m_odd},{n}}}")
    f = nt.mult_order_2(m_odd)
    q.update(p=p, exponent=l, f=f, order_modulus=m_odd)
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
    return f"p={q['p']}, s={q['s']}, r={q['r']}; " + _range_text(rep.excluded)


def crit_p7_x_p35(t: GbfType):
    """C4: odd part p1^a1 * p2^a2 with p1 = 7 and p2 = 3 or 5 (mod 8).

    r1 is the least odd exponent with x^2 + p1*y^2 = 2^(r+2) solvable
    (bounded by the class number of Q(sqrt(-p1))); r2 the least odd exponent
    with x^2 + p1*y^2 = 2^(r+2)*p2 solvable, a discrete logarithm in the
    class group that never exceeds r1, with the even-exponent hits below it
    recorded for diagnostics.  Branch I ((-p1/p2) = -1, p2 inert: nothing
    is solvable) excludes odd n < r1/s; branch II ((-p1/p2) = +1) excludes
    odd n < min(r1, r2)/s.
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
    found = _r2_hits(p1, p2, r1) if jac == 1 else (None, None, [])
    if found is None:
        rep.notes.append("abstain: no solution at r2")
        return rep
    r2, witness, even_hits = found
    for exp, x, y in even_hits + ([[r2, *witness]] if witness else []):
        if not _solves(rep, 1, p1, exp, x, y, p2):
            return rep
    if witness:
        q["r2_witness"] = witness
    q["r2"] = r2                       # None encodes "no finite r2"
    q["r2_even_hits"] = even_hits
    if even_hits:
        rep.notes.append(
            f"even exponent {even_hits[0][0]} solvable; consistent with "
            f"r2 = r1 - {even_hits[0][0]} = {r1 - even_hits[0][0]}")
    q["r"] = r1 if r2 is None else min(r1, r2)
    q["branch"] = "I" if jac == -1 else "II"
    return _fire_below(rep, q["r"], s)


def _summary_p7_x_p35(rep: CriterionReport) -> str:
    q = rep.quantities
    return (f"branch {q['branch']}, s={q['s']}, r1={q['r1']}, "
            f"r2={'inf' if q['r2'] is None else q['r2']}; "
            + _range_text(rep.excluded))


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
    head = (f"branch I: ({q['p2']}/{q['p1']}) = 1" if q["branch"] == "I"
            else f"branch II, s={q['s']}, r={q['r']}")
    return f"{head}; " + _range_text(rep.excluded)


# criterion id -> (evaluation, summary of its reports), in evaluation order.
# Re-validation calls the evaluation from here, not through _CRITERIA_FUNCS,
# so wrapping that tuple sees only the calls applicable_reports makes.
_REPORT_PARTS = {
    C1: (crit_lam_leung, _summary_lam_leung),
    C2: (crit_semiprimitive, _summary_semiprimitive),
    C3: (crit_p7, _summary_p7),
    C4: (crit_p7_x_p35, _summary_p7_x_p35),
    C5: (crit_p3_x_p5, _summary_p3_x_p5),
}

_CRITERIA_FUNCS = tuple(crit for crit, _ in _REPORT_PARTS.values())


def applicable_reports(t: GbfType):
    """The report of each nonexistence criterion that applies to t, C1
    through C5 in the order of _CRITERIA_FUNCS, read at each call; the
    criteria that return None are skipped.  A generator: a caller that
    stops at a report evaluates no criterion after it."""
    for crit in _CRITERIA_FUNCS:
        rep = crit(t)
        if rep is not None:
            yield rep


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

    Existence rules run first; then every report of applicable_reports is
    read (C1 through C5, in that fixed order).  The first firing criterion
    gives the verdict, re-validated, with any other firing ones listed in
    its report as also applicable; when nothing concludes, the verdict is
    Unknown and carries every applicable report.  Deterministic: identical
    inputs give identical verdicts and reports.
    """
    found = rule_exists(t)
    if found is not None:
        witness, rule = found
        return Verdict(EXISTS, witness=witness, rule=rule)
    reports = list(applicable_reports(t))
    fired = [rep for rep in reports if rep.fired]
    if fired:
        chosen = fired[0]
        chosen.also_applicable = [rep.criterion for rep in fired[1:]]
        revalidate_report(chosen)
        return Verdict(NOT_EXISTS, report=chosen, attempts=tuple(reports))
    return Verdict(UNKNOWN, attempts=tuple(reports))


def scan_rows(m_span, n_span):
    """(m, n, verdict, criterion, detail) for each type, m outermost, as
    decide gives it.  A type an existence rule covers is read from
    exists_rule alone, with no witness built, since decide tries the rules
    first.  Otherwise the first report of applicable_reports that fires,
    re-validated as decide re-validates it, gives the row, with no
    criterion after it evaluated; where none fires, the row counts the
    reports that apply."""
    for m in m_span:
        for n in n_span:
            t = GbfType(m, n)
            found = exists_rule(t)
            if found is not None:
                yield m, n, EXISTS, found[0], describe_rule(found[0], m, n)
                continue
            tried = 0
            for rep in applicable_reports(t):
                if rep.fired:
                    revalidate_report(rep)
                    yield (m, n, NOT_EXISTS, rep.criterion,
                           summarize_report(rep))
                    break
                tried += 1
            else:
                yield m, n, UNKNOWN, "", f"{tried} criteria inconclusive"


def summarize_report(rep: CriterionReport) -> str:
    """One-line human summary of why a criterion fired (or did not).  A
    C3-C5 report with no excluded range, an abstain or a report stripped of
    its range, reads "abstained"; any other report goes to its criterion's
    _summary_*, and one of an unknown criterion reads ""."""
    if rep.excluded is None and rep.criterion in (C3, C4, C5):
        return "abstained"
    parts = _REPORT_PARTS.get(rep.criterion)
    return parts[1](rep) if parts else ""
