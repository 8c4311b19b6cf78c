"""Exhaustive ground truth: count every flat table of a tiny type exactly,
and report the count plus sample witnesses.

Tables are ordered as odometer readings (index 0 varies fastest, f(2^n - 1)
is the most significant digit).  Adding a constant c to every value
multiplies every W(y) by zeta^c, so f and f + c are flat together: each
flat table is g + c for exactly one flat g with g(2^n - 1) = 0.  Only those
tables are tested, and the count is m times theirs.  They are the first
m^(2^n - 1) readings of the full odometer, so the enumeration walks them in
the same order.  Each step changes a single table entry, so the 2^n
unreduced spectrum rows are updated incrementally (entry x flips W(y) by
(-1)^(x.y) between the old and new coefficient); a block of the
fastest-varying digits is additionally evaluated as one numpy batch, tested
through gbf's exact int64 flatness check in byte-sized chunks.  A type whose
spectra fall outside that check's proven int64 envelope is refused with the
reason stated.

Witnesses are the first hits of the full odometer order.  When the tables
with f(2^n - 1) = 0 hold fewer hits than asked for, every one of them is in
hand, and the hits with top value c = 1, 2, ... are those plus c, block
after block, each block sorted as odometer readings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .gbf import (FunctionTable, GbfType, _flat_chunks, _int64_reduction,
                  is_gbf)

DEFAULT_BUDGET = 10**7
_BATCH_TARGET = 4096


@dataclass
class OracleResult:
    gbf_type: GbfType
    total_candidates: int
    gbf_count: int
    witnesses: list = field(default_factory=list)


def _sign_table(rows: int) -> np.ndarray:
    """sgn[x, y] = (-1)^(x.y) over index bits."""
    xs = np.arange(rows)
    parity = np.bitwise_count(xs[:, None] & xs[None, :])
    return np.where(parity & 1, -1, 1).astype(np.int64)


def _decode(index: int, m: int, width: int) -> list[int]:
    digits = []
    for _ in range(width):
        digits.append(index % m)
        index //= m
    return digits


def enumerate_gbfs(t: GbfType, budget: int = DEFAULT_BUDGET,
                   max_witnesses: int = 4) -> OracleResult:
    """Exact census of flat-spectrum tables of type t.

    Refuses when m^(2^n) exceeds the budget, stating the budget required,
    and when exact int64 flatness checks are not proven for the type.
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

    # every coefficient of a table's spectrum is bounded by rows
    red = _int64_reduction(m, rows)
    if red is None:
        raise ValueError(
            f"enumeration of {t} lies outside the proven int64 envelope of "
            f"the exact flatness check")

    sgn = _sign_table(rows)

    # f(rows-1) stays 0: batch the b fastest of the free digits, the rest
    # of them advance by odometer
    free = rows - 1
    b = 1
    while b < free and m ** (b + 1) <= _BATCH_TARGET:
        b += 1
    nb = m ** b
    delta = np.zeros((nb, rows, m), dtype=np.int64)
    for pos in range(b):
        digit = (np.arange(nb) // m ** pos) % m
        for v in range(m):
            delta[digit == v, :, v] += sgn[pos][None, :]

    spectrum = np.zeros((rows, m), dtype=np.int64)
    spectrum[:, 0] = sgn[b:].sum(axis=0)

    count = 0
    witnesses: list[FunctionTable] = []
    digits = [0] * (rows - b)      # the last one, f(rows-1), never moves
    while True:
        cand = spectrum[None, :, :] + delta
        ok = np.concatenate([ok for _, ok in _flat_chunks(cand, rows, red)])
        hits = int(ok.sum())
        if hits:
            count += hits
            if len(witnesses) < max_witnesses:
                for vidx in np.flatnonzero(ok):
                    values = _decode(int(vidx), m, b) + digits
                    witnesses.append(FunctionTable(t, tuple(values)))
                    if len(witnesses) == max_witnesses:
                        break
        # advance the prefix odometer, updating the affected spectrum column
        j = 0
        while j < free - b:
            pos = b + j
            old = digits[j]
            spectrum[:, old] -= sgn[pos]
            if old + 1 < m:
                digits[j] = old + 1
                spectrum[:, old + 1] += sgn[pos]
                break
            digits[j] = 0
            spectrum[:, 0] += sgn[pos]
            j += 1
        else:
            break

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
        if not is_gbf(w):  # pragma: no cover - the two routes agree
            raise AssertionError(f"witness failed independent verification: {w}")
    return OracleResult(t, total, count * m, witnesses)


def spot_check(t: GbfType, samples: int, seed=0):
    """Seeded random tables with exact verdicts, as (table, flat) pairs.

    When the whole space has at most ``samples`` tables the check degenerates
    to full enumeration in odometer order, so reruns are reproducible either
    way.
    """
    m, n = t.m, t.n
    rows = 1 << n
    total = m ** rows
    out = []
    if total <= samples:
        for index in range(total):
            ft = FunctionTable(t, tuple(_decode(index, m, rows)))
            out.append((ft, is_gbf(ft)))
        return out
    rng = random.Random(seed)
    for _ in range(samples):
        ft = FunctionTable(t, tuple(rng.randrange(m) for _ in range(rows)))
        out.append((ft, is_gbf(ft)))
    return out
