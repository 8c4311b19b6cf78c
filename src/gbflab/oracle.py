"""Exhaustive ground truth: count every flat table of a tiny type exactly,
and report the count plus sample witnesses.

Tables are ordered as odometer readings (index 0 varies fastest, f(2^n - 1)
is the most significant digit).  Adding a constant c to every value
multiplies every W(y) by zeta^c, so f and f + c are flat together: each
flat table is g + c for exactly one flat g with g(2^n - 1) = 0.  Only those
tables are tested, and the count is m times theirs.  They are the first
m^(2^n - 1) readings of the full odometer, so the enumeration walks them in
the same order.  Each is the sum of a fast block, its b fastest digits,
and a slow block, the other free digits.  W is linear in the terms
zeta^f(x), so its spectrum is the sum of the two blocks' spectra minus the
zero table's.  gbf's batched kernel gives every fast block's spectrum once,
and the slow blocks' a batch at a time.

Each table is then tested in two stages.  Row 0 of a spectrum is
W(0) = sum_v count(v) zeta^v, so it depends only on the block's value
multiset, and the row-0 sieve runs once per pair of a slow and a fast
multiset: it adds row 0 of one representative of each and puts the sum
through every test of gbf's flatness check.  A boolean lookup maps the
pairs that pass onto the (slow reading, fast block) pairs, row-major, so
the survivors come out in odometer order; they are tested at every row
in numpy batches.  Each test is exact per row, so a table that fails at
row 0 is not flat, and the hits, their count and their order are those
of testing every row of every table.  At {7,3} the sieve tests the
210 x 84 pairs of multisets of the 2,401 fast blocks and 343 slow
readings in place of their 823,543 tables; 5,040 tables pass row 0 and
none is flat.  The pair table, the lookup and the survivors are each taken
in slices sized from _BATCH_TARGET, so memory stays that of one batch.

Witnesses are the first hits of the full odometer order.  When the tables
with f(2^n - 1) = 0 hold fewer hits than asked for, every one of them is in
hand, and the hits with top value c = 1, 2, ... are those plus c: one sort
of all those shifts as odometer readings gives the rest in order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from ._lazy import np
from .gbf import FunctionTable, GbfType, _flat, _spectra, is_gbf

DEFAULT_BUDGET = 10**7
_BATCH_TARGET = 4096


@dataclass(frozen=True)
class OracleResult:
    gbf_type: GbfType
    total_candidates: int
    gbf_count: int
    witnesses: tuple[FunctionTable, ...]


def _odometer(m: int, readings, width: int) -> np.ndarray:
    """The digits of odometer readings over Z_m, digit 0 the fastest, as
    a (width, len(readings)) int64 array: one table per column."""
    digits = np.empty((width, len(readings)), dtype=np.int64)
    for row in digits:
        readings, row[:] = np.divmod(readings, m)
    return digits


def _multisets(m: int, digits: np.ndarray):
    """(reps, classes) for the value multisets of the columns of a digit
    array, the digits of distinct odometer readings: classes[j] numbers the
    multiset of column j, and reps[i] is the first column holding multiset
    i.  A multiset is keyed by the odometer reading of its sorted digits:
    exact, and below m^len(digits).  With fewer than two digits no two
    columns share a multiset, and none is keyed."""
    if len(digits) < 2:
        return np.arange(digits.shape[1]), np.arange(digits.shape[1])
    keys = np.sort(digits, axis=0).T @ m ** np.arange(len(digits))
    _, reps, classes = np.unique(keys, return_index=True, return_inverse=True)
    return reps, classes


def _row0_sieve(fast, fast_reps, slow, slow_reps, n: int) -> np.ndarray:
    """The (len(slow_reps), len(fast_reps)) mask of the pairs of a slow and
    a fast multiset whose summed row 0 passes every test.  Row 0 of every
    fast representative is added to that of a slice of slow ones: about
    2 * _BATCH_TARGET int64 entries a slice, and at least one slow one.
    When every fast block is its own representative, as at n = 1, row 0
    of the fast spectra is a view, not a gathered copy."""
    # blocks of two or more digits share multisets (0, 1 and 1, 0), so a
    # representative for each block means _multisets' arange of one digit
    if len(fast_reps) == fast[0][1].shape[2]:
        fast_reps = slice(None)
    fast0 = [spec[:, :1, fast_reps] for _, spec in fast]
    slow0 = [spec[:, 0, slow_reps, None] for spec in slow]
    k, _, width = fast0[0].shape
    step = max(1, 2 * _BATCH_TARGET // (k * width))
    passes = np.empty((len(slow_reps), width), dtype=bool)
    for lo in range(0, len(passes), step):
        passes[lo:lo + step] = np.all(
            [_flat(test, (f0 + s0[:, lo:lo + step]).reshape(k, 1, -1), n)
             for (test, _), f0, s0 in zip(fast, fast0, slow0)],
            axis=(0, 1)).reshape(-1, width)
    return passes


def _survivors(passes: np.ndarray, slow_class, fast_class):
    """(readings, blocks): the indices of the (slow reading, fast block)
    pairs whose multisets pass the sieve, at most len(fast_class) pairs at
    a time.  The pairs are looked up about 16 * _BATCH_TARGET at a time,
    row-major over (reading, block), which is odometer order."""
    nb = len(fast_class)
    per = max(1, 16 * _BATCH_TARGET // nb)
    for lo in range(0, len(slow_class), per):
        js, vs = np.divmod(np.flatnonzero(
            passes[slow_class[lo:lo + per]][:, fast_class]), nb)
        js += lo
        for i in range(0, len(js), nb):
            yield js[i:i + nb], vs[i:i + nb]


def enumerate_gbfs(t: GbfType, budget: int = DEFAULT_BUDGET,
                   max_witnesses: int = 4) -> OracleResult:
    """Exact census of flat-spectrum tables of type t.

    Refuses when m^(2^n) exceeds the budget, and, with gbf's exact
    flatness check, a modulus at or above 2^30.
    Witnesses are the first ``max_witnesses`` hits in odometer order over
    all m^(2^n) tables and are re-verified through the independent
    per-table test before returning.  ``budget`` and ``max_witnesses``
    must be integers, and ``max_witnesses`` at least 0.
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

    # f(rows-1) stays 0: the fast block is the b fastest of the free
    # digits, the slow block the others, read in batches
    free = rows - 1
    b = 1
    while b < free and m ** (b + 1) <= _BATCH_TARGET:
        b += 1
    nb = m ** b
    slow_total = m ** (free - b)
    # the kernel refuses an unsupported m here, before any block is built
    zero = [spec for _, spec in _spectra(np.zeros((rows, 1), np.int64), m, n)]
    fast_tables = _odometer(m, np.arange(nb), rows)
    fast = [(test, np.ascontiguousarray(spec))
            for test, spec in _spectra(fast_tables, m, n)]
    fast_reps, fast_class = _multisets(m, fast_tables[:b])

    count = 0
    witnesses: list[FunctionTable] = []
    for start in range(0, slow_total, _BATCH_TARGET):
        readings = np.arange(start, min(start + _BATCH_TARGET, slow_total))
        slow_tables = _odometer(m, readings * nb, rows)
        slow = [spec - z for (_, spec), z
                in zip(_spectra(slow_tables, m, n), zero)]
        slow_reps, slow_class = _multisets(m, slow_tables[b:free])
        passes = _row0_sieve(fast, fast_reps, slow, slow_reps, n)
        for j, v in _survivors(passes, slow_class, fast_class):
            ok = np.all([_flat(test, spec[..., v] + s[..., j], n)
                         for (test, spec), s in zip(fast, slow)], axis=(0, 1))
            count += int(ok.sum())
            need = max_witnesses - len(witnesses)
            for jj, vv in zip(j[ok][:need], v[ok][:need]):
                witnesses.append(FunctionTable(
                    t, fast_tables[:, vv] + slow_tables[:, jj]))

    # fewer hits than max_witnesses with f(rows-1) = 0: all are in hand, and
    # the hits with f(rows-1) = c > 0 are them plus c, next in odometer order
    if len(witnesses) < max_witnesses:
        shifted = sorted((tuple((v + c) % m for v in w.values)
                          for c in range(1, m) for w in witnesses),
                         key=lambda v: v[::-1])
        witnesses += [FunctionTable(t, v)
                      for v in shifted[:max_witnesses - len(witnesses)]]

    for w in witnesses:
        if not is_gbf(w):  # unreachable while the two routes agree
            raise AssertionError(f"witness failed independent verification: {w}")
    return OracleResult(t, total, count * m, tuple(witnesses))
