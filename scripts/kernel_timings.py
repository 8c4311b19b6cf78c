"""Time the flatness kernel and the census in this process, and print the
least of several calls of each.

    python scripts/kernel_timings.py

The package is src/gbflab beside this script's directory.  The measures:

- is_gbf of the rule witnesses of {2,16}, {4,18}, {6,18} and {12,17}, the
  int16 route at content modulus 2 and 4;
- is_gbf of the flat content-6 direct sums of the {6,2} table (4, 1, 0,
  0) at n = 16, 18 and 20, the split-prime route on one large table;
- enumerate_gbfs of {7,3}, and of each type of the light census grid (n
  = 1 with m <= 40, n = 2 with m <= 17, n = 3 with m <= 5) in turn, each
  call with every cache of the package cleared first: the split-prime
  route on small batches;
- gbf scan --m 2..600 --n 1..4 through cli.main, its output dropped, each
  call with every cache of the package cleared first: the rules, the
  criteria and the small tables of the scan-grid bench workload; and
  likewise gbf scan --m 2..600 --n 1..11, the grid the README times cold,
  and gbf scan --m 2..600 --n 1..24, where C1's targets reach 2^24, in
  fewer calls;
- decide, verdict_to_dict and json.dumps of one seeded certificates-shaped
  type per odd m0 < 10^4 (random.Random(0): m0 or 2*m0, odd n <= 11, so
  no existence rule applies and C1-C5 with re-validation do the work),
  4,999 types a call, warm and with every cache of the package cleared
  before each call;
- the class-group layer: sqrt_mod of -100000000063 modulo 2^145983, the
  2-adic root behind C3's witness at {200000000126,1}, which no cache
  holds; and decide of {2000000014,1}, C3 with its class number and
  Cornacchia's witness, each call with every cache of the package cleared
  first;
- first_flat_violation, verify's report, of the seeded random {1000,11},
  {4000,13} and {30030,6} tables (numpy default_rng(0)): row 0 refuted
  from the histogram, then |W(0)|^2 over the table's distinct values,
  reduced modulo Phi_m; 30030 has six distinct prime factors, so at
  {30030,6} the reduction is most of the time.

Each table is built and checked once before it is timed.  A line is the
measure, the least time in ms, and the number of calls it is the least of.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gbflab import cli, criteria, cyclotomic, gbf, numtheory, oracle  # noqa: E402
from gbflab._lazy import np  # noqa: E402
from gbflab.cli import verdict_to_dict  # noqa: E402
from gbflab.criteria import decide, rule_exists  # noqa: E402
from gbflab.gbf import (FunctionTable, GbfType, direct_sum,  # noqa: E402
                        first_flat_violation, is_gbf, table)
from gbflab.oracle import enumerate_gbfs  # noqa: E402

WITNESSES = ((2, 16), (4, 18), (6, 18), (12, 17))
SIX_SUMS = (16, 18, 20)
LIGHT_GRID = tuple([(m, 1) for m in range(2, 41)]
                   + [(m, 2) for m in range(2, 18)]
                   + [(m, 3) for m in range(2, 6)])
SCAN_ARGV = ("scan", "--m", "2..600", "--n", "1..4")
WIDE_SCAN_ARGV = ("scan", "--m", "2..600", "--n", "1..11")
DEEP_SCAN_ARGV = ("scan", "--m", "2..600", "--n", "1..24")
_RNG = random.Random(0)
CERTIFICATE_TYPES = tuple((m0 * _RNG.choice((1, 2)), _RNG.randrange(1, 12, 2))
                          for m0 in range(3, 10**4, 2))
ROOT_ARGS = (-100000000063, 2, 145983)
CLASS_GROUP_TYPE = (2000000014, 1)
REPORTS = ((1000, 11), (4000, 13), (30030, 6))


def _clear_caches() -> None:
    """Empty every lru_cache of the package."""
    for module in (criteria, cyclotomic, gbf, numtheory, oracle):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _least_ms(call, repeats: int, cold: bool = False) -> float:
    """The least wall time of repeats calls, in ms, each after the caches
    are cleared when cold."""
    best = float("inf")
    for _ in range(repeats):
        if cold:
            _clear_caches()
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _six_sum(n: int):
    """The flat {6,n} table, the direct sum of n/2 {6,2} tables (4, 1, 0, 0)."""
    piece = f = table(6, 2, [4, 1, 0, 0])
    for _ in range(n // 2 - 1):
        f = direct_sum(f, piece)
    return f


def _grid() -> None:
    for m, n in LIGHT_GRID:
        _clear_caches()
        enumerate_gbfs(GbfType(m, n))


def _scan(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0


def _certificates() -> None:
    for m, n in CERTIFICATE_TYPES:
        json.dumps(verdict_to_dict(m, n, decide(GbfType(m, n))))


def main() -> int:
    rows = []
    for m, n in WITNESSES:
        f = rule_exists(GbfType(m, n))[0]
        assert is_gbf(f)
        rows.append((f"is_gbf witness {{{m},{n}}}", _least_ms(
            lambda: is_gbf(f), 20), 20))
    for n in SIX_SUMS:
        f = _six_sum(n)
        assert is_gbf(f)
        repeats = 20 if n < 20 else 5
        rows.append((f"is_gbf content-6 sum {{6,{n}}}", _least_ms(
            lambda: is_gbf(f), repeats), repeats))
    assert enumerate_gbfs(GbfType(7, 3)).gbf_count == 0
    rows.append(("census {7,3}, cold", _least_ms(
        lambda: enumerate_gbfs(GbfType(7, 3)), 20, cold=True), 20))
    rows.append((f"census light grid ({len(LIGHT_GRID)} types), cold",
                 _least_ms(_grid, 10), 10))
    for argv, repeats in ((SCAN_ARGV, 10), (WIDE_SCAN_ARGV, 10),
                          (DEEP_SCAN_ARGV, 3)):
        _scan(argv)
        rows.append((" ".join(argv) + ", cold",
                     _least_ms(lambda: _scan(argv), repeats, cold=True),
                     repeats))
    label = f"decide certificates draw ({len(CERTIFICATE_TYPES)} types)"
    _certificates()
    rows.append((label + ", warm", _least_ms(_certificates, 5), 5))
    rows.append((label + ", cold", _least_ms(_certificates, 3, cold=True), 3))
    a, p, k = ROOT_ARGS
    assert len(numtheory.sqrt_mod(a, p, k)) == 4
    rows.append((f"sqrt_mod {a} modulo {p}^{k}", _least_ms(
        lambda: numtheory.sqrt_mod(a, p, k), 3), 3))
    t = GbfType(*CLASS_GROUP_TYPE)
    rows.append((f"decide {{{t.m},{t.n}}}, cold", _least_ms(
        lambda: decide(t), 3, cold=True), 3))
    for m, n in REPORTS:
        f = FunctionTable(GbfType(m, n), np.random.default_rng(0).integers(
            m, size=1 << n))
        assert first_flat_violation(f)[0] == 0
        rows.append((f"report random {{{m},{n}}}", _least_ms(
            lambda: first_flat_violation(f), 10), 10))
    for name, ms, repeats in rows:
        print(f"{name}\t{ms:.3f} ms\tleast of {repeats}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
