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
the slow blocks' a batch at a time, and its flatness check tests every fast
block against one slow block as one numpy batch.

Witnesses are the first hits of the full odometer order.  When the tables
with f(2^n - 1) = 0 hold fewer hits than asked for, every one of them is in
hand, and the hits with top value c = 1, 2, ... are those plus c, block
after block, each block sorted as odometer readings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gbf import FunctionTable, GbfType, _flat, _spectra, is_gbf

DEFAULT_BUDGET = 10**7
_BATCH_TARGET = 4096


@dataclass(frozen=True)
class OracleResult:
    gbf_type: GbfType
    total_candidates: int
    gbf_count: int
    witnesses: list = field(default_factory=list)


def _odometer(m: int, readings, width: int) -> np.ndarray:
    """The digits of odometer readings over Z_m, digit 0 the fastest, as
    a (width, len(readings)) int64 array: one table per column."""
    digits = np.empty((width, len(readings)), dtype=np.int64)
    for row in digits:
        readings, row[:] = np.divmod(readings, m)
    return digits


def enumerate_gbfs(t: GbfType, budget: int = DEFAULT_BUDGET,
                   max_witnesses: int = 4) -> OracleResult:
    """Exact census of flat-spectrum tables of type t.

    Refuses when m^(2^n) exceeds the budget, stating the budget required,
    and, with gbf's exact flatness check, a modulus at or above 2^30.
    Witnesses are the first ``max_witnesses`` hits in odometer order over
    all m^(2^n) tables and are re-verified through the independent
    per-table test before returning.
    """
    m, n = t.m, t.n
    rows = 1 << n
    total = m ** rows
    if total > budget:
        raise ValueError(
            f"enumeration of {t} has m^(2^n) = {total} candidates, above "
            f"the budget {budget}; pass budget >= {total}")

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
    fast_tables = _odometer(m, range(nb), rows)
    fast = [(test, np.ascontiguousarray(spec))
            for test, spec in _spectra(fast_tables, m, n)]
    # one reused sum per test: a fresh one each step refaults its pages
    bufs = [np.empty_like(spec) for _, spec in fast]

    count = 0
    witnesses: list[FunctionTable] = []
    for start in range(0, slow_total, _BATCH_TARGET):
        readings = np.arange(start, min(start + _BATCH_TARGET, slow_total))
        slow_tables = _odometer(m, readings * nb, rows)
        slow = [spec - z for (_, spec), z
                in zip(_spectra(slow_tables, m, n), zero)]
        for j in range(len(readings)):
            ok = np.all([_flat(test, np.add(spec, s[..., j, None], out=buf), n)
                         for (test, spec), s, buf in zip(fast, slow, bufs)],
                        axis=(0, 1))
            hits = int(ok.sum())
            if not hits:
                continue
            count += hits
            for v in np.flatnonzero(ok)[:max_witnesses - len(witnesses)]:
                witnesses.append(FunctionTable(
                    t, fast_tables[:, v] + slow_tables[:, j]))

    # fewer hits than max_witnesses with f(rows-1) = 0: all are in hand, and
    # the hits with f(rows-1) = c are them plus c, next in odometer order
    reduced = [w.values for w in witnesses]
    for c in range(1, m):
        if len(witnesses) >= max_witnesses:
            break
        block = sorted((tuple((v + c) % m for v in values)
                        for values in reduced), key=lambda v: v[::-1])
        witnesses += [FunctionTable(t, v)
                      for v in block[:max_witnesses - len(witnesses)]]

    for w in witnesses:
        if not is_gbf(w):  # unreachable while the two routes agree
            raise AssertionError(f"witness failed independent verification: {w}")
    return OracleResult(t, total, count * m, witnesses)
