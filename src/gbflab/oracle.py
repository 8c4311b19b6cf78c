"""Exhaustive ground truth: count every flat table of a tiny type exactly,
and report the count plus sample witnesses.

Tables are ordered as odometer readings (index 0 varies fastest, f(2^n - 1)
is the most significant digit).  Adding a constant c to every value
multiplies every W(y) by zeta^c, so f and f + c are flat together: each
flat table is g + c for exactly one flat g with g(2^n - 1) = 0.  Only those
tables are tested, and the count is m times theirs.

Each table is tested in two stages.  Row 0 of a spectrum is
W(0) = sum_v count(v) zeta^v, so it depends only on the table's value
multiset.  The multisets of the 2^n - 1 free values are enumerated in
order, and a slice of them goes as a batch of tables, each multiset's
values in sorted order over the fixed 0, through gbf._low_rows_flat at
k = 0, the flatness kernel's exact test of its low rows, which sums each
table's terms with no FWHT.  Of the multisets that pass, one per orbit of
the units of Z_m has its distinct arrangements tested at every row, in
_flat_mask batches.  For a unit k, zeta -> zeta^k is an automorphism of
Q(zeta_m) that takes W(y) of f to W(y) of k*f and keeps |W(y)|^2 = 2^n,
so f and k*f are flat together, k*f keeps f(2^n - 1) = 0, and k maps the
arrangements of a multiset M one to one onto those of k*M.  The sieve
therefore passes whole orbits; of each, the least sorted row is tested,
and each of its hits counts once for every multiset of its orbit, phi(m)
over the number of units that fix it.  A sorted multiset's run shape, the
lengths of its runs of equal values, fixes its orderings, which are built
once per shape and gathered for every multiset of that shape.  The W(0)
test is exact per row, so a table that fails at row 0 is not flat, and
_flat_mask's one test is exact for a whole table, so the hits and their
count are those of testing every row of every table.  At {7,3} the sieve
tests the 1,716 multisets of the 7 free values in place of their 823,543
tables; 8 pass, in two orbits of sizes 2 and 6, the 1,260 arrangements of
the two least are tested at every row in place of the 5,040 of all 8, and
none is flat.
The multisets and the arrangements are each taken in slices of
gbf._per_block tables, whose terms fill about one block of the kernel, so
memory stays that of one batch.

Witnesses are the first hits of the full odometer order.  The hits with
f(2^n - 1) = 0 are the images k*h of the tested hits h over the units k:
each batch's images join those kept so far, one lexsort, over the tables
read from f(2^n - 1) down, sorts them as odometer readings, a row equal
to the one before it is dropped as a repeat, and the first max_witnesses
are kept.  When the tables with
f(2^n - 1) = 0 hold fewer hits than asked for, every one of them is in
hand, and the hits with top value c = 1, 2, ... are those plus c: one
sort of all those shifts as odometer readings gives the rest in order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import (chain, combinations, combinations_with_replacement,
                       islice)
from math import comb

from . import gbf
from ._lazy import np
from .gbf import (FunctionTable, GbfType, _flat_mask, _low_rows_flat,
                  _per_block, is_gbf)

DEFAULT_BUDGET = 10**7


@dataclass(frozen=True)
class OracleResult:
    gbf_type: GbfType
    total_candidates: int
    gbf_count: int
    witnesses: tuple[FunctionTable, ...]


def _tables(free: np.ndarray) -> np.ndarray:
    """The (2^n, count) tables, one per column, of a (count, 2^n - 1) array
    of free values, with f(2^n - 1) = 0, in the dtype of free."""
    tables = np.zeros((free.shape[1] + 1, len(free)), free.dtype)
    tables[:-1] = free.T
    return tables


@lru_cache(maxsize=None)
def _orderings(runs: tuple[int, ...]) -> np.ndarray:
    """The distinct orderings of a sorted row with these run lengths, as a
    read-only (count, sum(runs)) array of indices into that row: ordering
    j puts row[idx[j, x]] at place x, and a run is indexed by its first
    entry.  Each run in turn takes every choice of its places among those
    so far, the earlier runs keeping their order in the places left, so
    there are sum(runs)! / prod(runs[i]!) orderings, all distinct."""
    idx = np.zeros((1, 0), dtype=np.intp)
    for r in runs:
        start, width = idx.shape[1], idx.shape[1] + r
        places = (np.array(list(combinations(range(width), r)))[:, :, None]
                  == np.arange(width)).any(axis=1)
        out = np.full((len(idx), *places.shape), start, dtype=np.intp)
        out[:, ~places] = np.tile(idx, len(places))
        idx = out.reshape(-1, width)
    idx.setflags(write=False)
    return idx


def _arrangements(rows: np.ndarray, size: int):
    """Every distinct ordering of each of a (count, width) array of sorted
    rows, in slices of at most size rows: the rows of each run shape
    gather the _orderings of that shape.  A shape is the row's run
    boundaries, packed into bytes and read as one scalar, so that shapes
    are grouped by np.unique of a 1-D array, several times faster than of
    the rows of booleans."""
    bounds = np.ones((len(rows), rows.shape[1] + 1), bool)
    bounds[:, 1:-1] = rows[:, 1:] != rows[:, :-1]
    packed = np.packbits(bounds, axis=1)
    _, first, shape_of = np.unique(packed.view(f"V{packed.shape[1]}")[:, 0],
                                   return_index=True, return_inverse=True)
    for s, bound in enumerate(bounds[first]):
        same = rows[shape_of == s]
        order = _orderings(tuple(np.diff(np.flatnonzero(bound)).tolist()))
        total = len(same) * len(order)
        for lo in range(0, total, size):
            i, j = np.divmod(np.arange(lo, min(lo + size, total)), len(order))
            yield same[i[:, None], order[j]]


def _orbits(rows: np.ndarray, units: np.ndarray, m: int):
    """(least, size) for a (count, width) array of sorted rows: whether each
    row is the least of its sorted images sort(k*row mod m) over the units
    k, and how many distinct images it has, phi(m) over the number of units
    that fix it.  An image and its row compare at the first place they
    differ, and are equal when that difference is 0."""
    diff = np.sort(units[:, None, None] * rows % m, axis=2) - rows
    diff = diff.reshape(-1, rows.shape[1])
    lead = diff[np.arange(len(diff)), (diff != 0).argmax(axis=1)]
    lead = lead.reshape(len(units), -1)
    return (lead >= 0).all(axis=0), len(units) // (lead == 0).sum(axis=0)


def enumerate_gbfs(t: GbfType, budget: int = DEFAULT_BUDGET,
                   max_witnesses: int = 4) -> OracleResult:
    """Exact census of flat-spectrum tables of type t.

    Refuses when m^(2^n) exceeds the budget, and, with gbf's exact
    flatness check, a modulus at or above 2^30.  The cost is the row-0
    sieve over the C(m + 2^n - 2, 2^n - 1) multisets of the free values,
    then every row of the arrangements of one passing multiset per orbit
    of the units: 1,716 multisets and 1,260 tables at {7,3}, 980 tables
    at {4,3}, 80,570 at {12,3} and 53,690 at {16,3}.
    Witnesses are the first ``max_witnesses`` hits in odometer order over
    all m^(2^n) tables and are re-verified by is_gbf before returning:
    not an independent test, but the same _low_rows_flat and _flat_mask
    kernel run on each witness alone at its content modulus, through the
    single-table search.  ``budget`` and ``max_witnesses`` must be
    integers, and ``max_witnesses`` at least 0.
    """
    budget = operator.index(budget)
    max_witnesses = operator.index(max_witnesses)
    if max_witnesses < 0:
        raise ValueError(f"max_witnesses is {max_witnesses}, not at least 0")
    m, n = t.m, t.n
    # from n = B on, B the bit length of the budget's bit length, 2^n
    # exceeds the budget's bit length, so m^(2^n) >= 2^(2^n) > budget: such
    # n is refused before any power is taken
    total = m ** (1 << n) if n < budget.bit_length().bit_length() else None
    if total is None or total > budget:
        raise ValueError(f"enumeration of {t} has {m}^(2^{n}) candidates, "
                         f"above the budget {budget}")
    rows = 1 << n

    # the kernel refuses an unsupported m here, before anything of size m
    # is built: combinations_with_replacement copies range(m) to a tuple.
    # A slice of multisets and a batch of tables hold per tables each
    per = _per_block(m, n)
    units = np.flatnonzero(np.gcd(np.arange(m), m) == 1)
    free = rows - 1
    multisets = combinations_with_replacement(range(m), free)
    passed = []
    for _ in range(0, comb(m + free - 1, free), per):
        batch = np.fromiter(chain.from_iterable(islice(multisets, per)),
                            gbf._value_dtype(m)).reshape(-1, free)
        # W(0) of each multiset's own table, its free values and the fixed 0
        ok = _low_rows_flat(_tables(batch), m, n)[0]
        # one multiset of each orbit of the units: W(0) of k*f is the
        # image of W(0) of f under zeta -> zeta^k, so the orbit passes with it
        batch = batch[ok]
        passed.append(batch[_orbits(batch, units, m)[0]])

    count = 0
    # hits as odometer readings, most significant digit f(rows-1) first, so
    # that their order as rows is odometer order
    hits = np.empty((0, rows), np.int64)
    for batch in _arrangements(np.concatenate(passed), per):
        tables = _tables(batch)
        ok = _flat_mask(tables, m, n).all(axis=0)
        # each hit stands for one hit of every multiset in its orbit
        count += int(_orbits(np.sort(batch[ok], axis=1), units, m)[1].sum())
        if max_witnesses:
            # the hits with f(rows-1) = 0 are the images k*h of these, and
            # the first ones are kept with no repeats: sorted as odometer
            # readings, a row is a repeat when it equals the one before
            found = units[:, None, None] * tables[::-1, ok].T % m
            hits = np.concatenate([hits, found.reshape(-1, rows)])
            hits = hits[np.lexsort(hits.T[::-1])]
            new = np.ones(len(hits), bool)
            new[1:] = (hits[1:] != hits[:-1]).any(axis=1)
            hits = hits[new][:max_witnesses]

    # fewer hits than max_witnesses with f(rows-1) = 0: all are in hand, and
    # the hits with f(rows-1) = c > 0 are them plus c, next in odometer order
    if len(hits) < max_witnesses:
        shifted = (np.add.outer(np.arange(1, m), hits) % m).reshape(-1, rows)
        hits = np.concatenate([hits, shifted[np.lexsort(shifted.T[::-1])]])
    witnesses = [FunctionTable(t, h[::-1]) for h in hits[:max_witnesses]]

    for w in witnesses:
        # the same kernel at the content modulus, one table at a time:
        # unreachable while it agrees with the batched census at m
        if not is_gbf(w):
            raise AssertionError(f"witness failed independent verification: {w}")
    return OracleResult(t, total, count * m, tuple(witnesses))
