"""Seeded inputs for the four benchmark workloads and the known-failure probe.

Every generator is a pure function of the seed.  Nothing here imports the
program: inputs must not change when the code under test does.
"""

from __future__ import annotations

import json
import random
from math import gcd
from pathlib import Path

DEFAULT_SEED = 2
HELD_OUT_SEED = 7          # kept out of tuning; quote gains on it too

WORKLOADS = ("exists-witness", "certificates", "scan-grid", "oracle-census")

# exists-witness: every rule, a ladder in n (16..18) and one large lifted m.
# Types with n = 20 or m >= 200 cost 2-7 s per decide/verify/verify triple,
# too long to repeat each op several times in a run; {400,16} and
# {1000,16} exhaust the memory cap and belong to the probe.
EXISTS_TYPES = ((2, 16), (4, 18), (6, 18), (12, 17), (100, 12))

# certificates: odd n with m = m0 or 2*m0, odd 3 <= m0 < 10^4; no existence
# rule covers these types.
CERT_M0_LIMIT = 10**4
CERT_N_VALUES = (1, 3, 5, 7, 9, 11)
# min_odd_r scans r up to the class number h, and its cost doubles every
# two steps of r, so h bounds an op's cost.  Types whose criterion search is
# bounded by h > CERT_H_LIMIT may hang at the seed; they are held out of the
# timed workload and run in the probe instead.
CERT_H_LIMIT = 40

SCAN_ARGV = ("scan", "--m", "2..600", "--n", "1..4")

CENSUS_GRID = tuple([(m, 1) for m in range(2, 41)]
                    + [(m, 2) for m in range(2, 18)]
                    + [(m, 3) for m in range(2, 8)])
# 7.4 of the 8.3 M census candidates and about 7 of the 8 s of a pass; an
# untraced run times them in fewer passes than the cheap types
CENSUS_HEAVY = ((6, 3), (7, 3))

# known failures at the seed, run only by the probe
NAMED_HANGS = ((2 * 100103, 1), (2 * 1019 * 1021, 1))
OOM_TYPES = ((400, 16), (1000, 16))
PROBE_DRAW = 300

DEADLINE_S = {"exists-witness": 60.0, "certificates": 2.0,
              "scan-grid": 60.0, "oracle-census": 60.0}
MEMORY_CAP = 1 << 30


# -- certificate shapes ---------------------------------------------------------


def _factor(m: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def _class_number(d: int) -> int:
    """Reduced primitive forms of discriminant -d (d = 3 mod 4) or -4d."""
    disc = -d if d % 4 == 3 else -4 * d
    h, a = 0, 1
    while 3 * a * a <= -disc:
        for b in range(-a, a + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (b < 0 and (-b == a or a == c)):
                continue
            if gcd(gcd(a, abs(b)), c) == 1:
                h += 1
        a += 1
    return h


def search_discriminant(m0: int):
    """(criterion, d) when C3, C4 or C5 searches for odd part m0 with a bound
    from the class number of d, else (None, None)."""
    fs = _factor(m0)
    classes = sorted(p % 8 for p, _ in fs)
    if len(fs) == 1 and classes == [7]:
        return "C3", fs[0][0]
    if len(fs) == 2 and classes in ([3, 7], [5, 7]):
        return "C4", next(p for p, _ in fs if p % 8 == 7)
    if len(fs) == 2 and classes == [3, 5]:
        return "C5", fs[0][0] * fs[1][0]
    return None, None


_SEARCH: dict[int, tuple] = {}


def search(m0: int) -> tuple:
    """(criterion, d, class number of d) of odd part m0; (None, 0, 0) when
    no criterion searches."""
    if m0 not in _SEARCH:
        crit, d = search_discriminant(m0)
        _SEARCH[m0] = (crit, d, _class_number(d)) if crit else (None, 0, 0)
    return _SEARCH[m0]


def admitted(m0: int) -> bool:
    return search(m0)[2] <= CERT_H_LIMIT


def in_certificate_domain(m: int, n: int) -> bool:
    m0 = m if m % 2 else m // 2
    return (n in CERT_N_VALUES and m0 % 2 == 1 and 3 <= m0 < CERT_M0_LIMIT
            and admitted(m0))


def certificate_domain():
    """Every admitted certificates type, the key set of its goldens."""
    return [(m0 * k, n) for m0 in range(3, CERT_M0_LIMIT, 2) if admitted(m0)
            for k in (1, 2) for n in CERT_N_VALUES]


def draw_certificate_types(seed: int):
    """One seeded type per admitted odd part m0: m0 or 2*m0, with a seeded
    n, in a seeded order.  The cost of a type depends mostly on m0 (through
    the criterion and the discriminant it searches), so every seed gets
    nearly the same costs, the few expensive m0 included."""
    rng = random.Random(f"certificates:{seed}")
    out = [(m0 * rng.choice((1, 2)), rng.choice(CERT_N_VALUES))
           for m0 in range(3, CERT_M0_LIMIT, 2) if admitted(m0)]
    rng.shuffle(out)
    return out


def draw_probe_types(seed: int, count: int):
    """``count`` seeded types from the whole domain, held-out ones included."""
    rng = random.Random(f"probe:{seed}")
    return [(rng.randrange(3, CERT_M0_LIMIT, 2) * rng.choice((1, 2)),
             rng.choice(CERT_N_VALUES)) for _ in range(count)]


# -- exists-witness random tables ----------------------------------------------


def random_table(seed: int, m: int, n: int) -> list[int]:
    """Seeded table of type {m, n} with value 1 at index 1, so its values
    share no common factor with m."""
    rng = random.Random(f"table:{seed}:{m}:{n}")
    values = [rng.randrange(m) for _ in range(1 << n)]
    values[1] = 1
    return values


# -- op lists -------------------------------------------------------------------


def build_ops(workload: str, seed: int, work_dir: Path) -> list[dict]:
    """The op list of one pass.  Writes the random tables that
    exists-witness verifies into work_dir."""
    dl = DEADLINE_S[workload]
    if workload == "exists-witness":
        ops = []
        for m, n in EXISTS_TYPES:
            wit = work_dir / f"witness_{m}x{n}.json"
            rnd = work_dir / f"random_{m}x{n}.json"
            rnd.write_text(json.dumps({"m": m, "n": n,
                                       "values": random_table(seed, m, n)}))
            rel_w, rel_r = (str(p.relative_to(work_dir.parent)) for p in (wit, rnd))
            ops.append({"kind": "cli", "key": f"decide {m} {n}", "deadline": dl,
                        "argv": ["decide", str(m), str(n), "--out", rel_w],
                        "out_file": rel_w})
            ops.append({"kind": "cli", "key": f"verify {m} {n}", "deadline": dl,
                        "argv": ["verify", rel_w]})
            ops.append({"kind": "cli", "key": f"verify-random {m} {n}",
                        "deadline": dl, "argv": ["verify", rel_r],
                        "referee": {"m": m, "n": n, "file": rel_r}})
        return ops
    if workload == "certificates":
        return [{"kind": "decide", "key": f"{m} {n}", "m": m, "n": n,
                 "deadline": dl}
                for m, n in draw_certificate_types(seed)]
    if workload == "scan-grid":
        return [{"kind": "scan", "key": " ".join(SCAN_ARGV), "deadline": dl,
                 "argv": list(SCAN_ARGV)}]
    if workload == "oracle-census":
        # one op is one candidate table: m ** (2 ** n) of them per type
        return [{"kind": "census", "key": f"{m} {n}", "m": m, "n": n,
                 "deadline": dl, "heavy": (m, n) in CENSUS_HEAVY,
                 "ops": m ** (1 << n)}
                for m, n in CENSUS_GRID]
    raise ValueError(f"unknown workload {workload!r}")


def build_probe_ops(seed: int) -> list[dict]:
    """Known failures at the seed: the named hangs, the OOM types, and a
    whole-domain certificates draw under the certificates deadline.  Every
    op is a decide whose full verdict is kept, so an op without a golden can
    be re-validated."""
    types = [(t, DEADLINE_S["certificates"]) for t in NAMED_HANGS]
    types += [(t, DEADLINE_S["exists-witness"]) for t in OOM_TYPES]
    types += [(t, DEADLINE_S["certificates"])
              for t in draw_probe_types(seed, PROBE_DRAW)]
    return [{"kind": "decide", "key": f"{m} {n}", "m": m, "n": n,
             "deadline": dl, "full": True} for (m, n), dl in types]
