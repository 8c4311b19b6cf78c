"""Exhaustive census of tiny types: the independent referee.

Every flat table among the m^(2^n) is counted exactly; counts are ground
truth the engine's verdicts are checked against.  Since f and f + c are
flat together, only the tables with f(2^n - 1) = 0 are tested.  Row 0,
W(0) = sum_v count(v) zeta^v, depends only on a table's value multiset,
so it is tested once per multiset of the free values (1,716 at {7,3},
for 823,543 tables).  A unit k of Z_m maps flat tables to flat tables
(f -> k*f), so the multisets that pass come in orbits, and every row is
tested only for the distinct arrangements of the least multiset of each
orbit (1,260 at {7,3}, for the 5,040 of all 8 that pass), each hit
counted once per multiset of its orbit: the 5.7 million tables of {7,3}
take a few milliseconds.
"""

import sys
import time

from gbflab import GbfType, decide, enumerate_gbfs

print(f"{'type':>7} {'flat':>6} {'of':>9}  engine verdict")
for m, n in [(2, 2), (3, 1), (4, 1), (5, 1), (6, 1), (8, 1), (3, 2),
             (4, 2), (5, 2), (2, 3), (4, 3)]:
    res = enumerate_gbfs(GbfType(m, n))
    verdict = decide(GbfType(m, n)).kind
    print(f"{{{m},{n}}}".rjust(7), f"{res.gbf_count:>6} {res.total_candidates:>9}  {verdict}")

print("\nsample witnesses for {4,1}:",
      [w.values for w in enumerate_gbfs(GbfType(4, 1)).witnesses])

t0 = time.time()
res = enumerate_gbfs(GbfType(7, 3))
print(f"\n{{7,3}}: {res.gbf_count} flat of {res.total_candidates}, "
      f"matching the NotExists verdict")
# the time goes to stderr, so stdout is the same on every run and host
print(f"{{7,3}} census: {time.time() - t0:.1f}s", file=sys.stderr)
