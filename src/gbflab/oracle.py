"""Exhaustive ground truth: count every flat table of a tiny type exactly,
and report the count plus sample witnesses.

Tables are ordered as odometer readings (index 0 varies fastest, f(2^n - 1)
is the most significant digit).  Adding a constant c to every value
multiplies every W(y) by zeta^c, so f and f + c are flat together: each
flat table is g + c for exactly one flat g with g(2^n - 1) = 0.  Only those
tables are tested, and the count is m times theirs.  They are the first
m^(2^n - 1) readings of the full odometer, so the enumeration walks them in
the same order.  The spectra are gbf's residue spectra, W(y) at the m-th
roots of unity of F_q for its split primes q, tested by its exact flatness
check.  Each step changes one table entry x, which adds (-1)^(x.y) times
the change of its term to row y; a block of the fastest-varying digits is
evaluated as one numpy batch.

Witnesses are the first hits of the full odometer order.  When the tables
with f(2^n - 1) = 0 hold fewer hits than asked for, every one of them is in
hand, and the hits with top value c = 1, 2, ... are those plus c, block
after block, each block sorted as odometer readings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .gbf import (FunctionTable, GbfType, _flat_rows, _fwht_inplace,
                  _root_powers, is_gbf)

DEFAULT_BUDGET = 10**7
_BATCH_TARGET = 4096


@dataclass
class OracleResult:
    gbf_type: GbfType
    total_candidates: int
    gbf_count: int
    witnesses: list = field(default_factory=list)


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

    cols, roots = _root_powers(m, n)
    # powers[p, j, v] = omega^(cols[j] * v) mod q for the p-th split prime
    powers = np.stack([pw[np.multiply.outer(cols, np.arange(m)) % m]
                       for _, pw in roots])
    sgn = _fwht_inplace(np.eye(rows, dtype=np.int64))  # (-1)^(x.y) at x, y

    # f(rows-1) stays 0: batch the b fastest of the free digits, the rest
    # of them advance by odometer
    free = rows - 1
    b = 1
    while b < free and m ** (b + 1) <= _BATCH_TARGET:
        b += 1
    nb = m ** b
    delta = np.zeros((len(roots), len(cols), nb, rows), dtype=np.int64)
    for pos in range(b):
        digit = (np.arange(nb) // m ** pos) % m
        delta += powers[:, :, digit, None] * sgn[pos]

    # every other digit is 0, and omega^0 = 1
    spectrum = powers[:, :, :1] * sgn[b:].sum(axis=0)

    count = 0
    witnesses: list[FunctionTable] = []
    digits = [0] * (rows - b)      # the last one, f(rows-1), never moves
    while True:
        ok = np.all([_flat_rows(s[:, None] + d, q, n) for (q, _), s, d
                     in zip(roots, spectrum, delta)], axis=(0, 2))
        hits = int(ok.sum())
        if hits:
            count += hits
            if len(witnesses) < max_witnesses:
                for vidx in np.flatnonzero(ok):
                    values = _decode(int(vidx), m, b) + digits
                    witnesses.append(FunctionTable(t, tuple(values)))
                    if len(witnesses) == max_witnesses:
                        break
        # advance the prefix odometer, updating the spectra by the changed term
        j = 0
        while j < free - b:
            pos, old = b + j, digits[j]
            new = digits[j] = (old + 1) % m
            spectrum += (powers[..., [new]] - powers[..., [old]]) * sgn[pos]
            if new:
                break
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
