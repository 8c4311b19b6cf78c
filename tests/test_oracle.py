"""Exhaustive enumeration against an independent per-table route."""

import importlib.util
import random
import re
import time
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from math import comb, factorial, gcd, prod
from pathlib import Path

import numpy as np
import pytest

import referees as ref
from gbflab import cli, gbf, oracle
from gbflab.cyclotomic import CycInt, zeta_pow
from gbflab.gbf import GbfType, is_gbf, table
from gbflab.oracle import OracleResult, enumerate_gbfs


def _brute_census(m, n, max_witnesses):
    """(count, total, first max_witnesses hits) over every table in odometer
    order (index 0 varies fastest)."""
    count = 0
    witnesses = []
    size = 1 << n
    total = m ** size
    for index in range(total):
        i, digits = index, []
        for _ in range(size):
            digits.append(i % m)
            i //= m
        if ref.is_flat_by_definition(table(m, n, digits)):
            count += 1
            if len(witnesses) < max_witnesses:
                witnesses.append(tuple(digits))
    return count, total, witnesses


@pytest.mark.parametrize("m,n,expected", [(2, 2, 8), (3, 1, 0), (4, 1, 8),
                                          (6, 1, 0), (2, 1, 0), (5, 1, 0)])
def test_enumerate_known_counts(m, n, expected):
    res = enumerate_gbfs(GbfType(m, n))
    assert res.gbf_count == expected
    assert res.total_candidates == m ** (1 << n)
    for w in res.witnesses:
        assert ref.is_flat_by_definition(w)


# {4,1} has 2 hits with f(1) = 0, so 3 or more witnesses are rebuilt from
# the shifted blocks f(1) = 1, 2, 3; {2,2} with 8 orders a block of n = 2
CENSUS_CASES = [(2, 2, 4), (3, 1, 4), (4, 1, 4), (6, 1, 4), (5, 1, 4),
                (7, 1, 4), (2, 3, 4), (3, 2, 4), (8, 1, 4), (4, 2, 4),
                (4, 1, 1), (4, 1, 3), (4, 1, 5), (4, 1, 8), (2, 2, 8)]


@pytest.mark.parametrize(
    "m,n,max_witnesses", CENSUS_CASES,
    ids=[f"{m}-{n}" + (f"-{w}" if w != 4 else "") for m, n, w in CENSUS_CASES])
def test_enumerate_matches_independent_census(m, n, max_witnesses):
    res = enumerate_gbfs(GbfType(m, n), max_witnesses=max_witnesses)
    count, total, witnesses = _brute_census(m, n, max_witnesses)
    assert res.gbf_count == count and res.total_candidates == total
    assert [w.values for w in res.witnesses] == witnesses


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 2), (6, 2), (2, 3)])
def test_enumerate_matches_census_across_slow_batches(m, n, monkeypatch):
    # a block of 64 entries cuts the multisets of {3,2}, {4,2} and {6,2},
    # and the arrangements of the last two, into several slices, where the
    # default takes each in one
    monkeypatch.setattr(gbf, "_CHUNK", 64)
    res = enumerate_gbfs(GbfType(m, n), max_witnesses=5)
    count, total, witnesses = _brute_census(m, n, 5)
    assert res.gbf_count == count and res.total_candidates == total
    assert [w.values for w in res.witnesses] == witnesses


def _row0_flat_by_histogram(m, n):
    """The tables whose W(0) = sum_v count(v) zeta^v has |W(0)|^2 = 2^n,
    counted over the histograms by CycInt arithmetic: each histogram is
    taken by multinomially many tables."""
    size = 1 << n
    flat = 0
    for values in combinations_with_replacement(range(m), size):
        hist = Counter(values)
        w0 = sum((zeta_pow(m, v) * c for v, c in hist.items()),
                 CycInt.zero(m))
        if w0.abs_square() == size:
            flat += factorial(size) // prod(map(factorial, hist.values()))
    return flat


def _unit_images(m, values):
    """The distinct sorted images sort(k*values mod m) over the units k of
    Z_m: the orbit of the multiset of values."""
    return {tuple(sorted(k * v % m for v in values))
            for k in range(1, m) if gcd(k, m) == 1}


def _full_row_tables(monkeypatch):
    """A list that collects every table the oracle tests at every row, as
    a tuple of its values, once per table."""
    recorded, tested = oracle._flat_mask, []

    def every_row(tables, m, n):
        tested.extend(map(tuple, tables.T.tolist()))
        return recorded(tables, m, n)

    monkeypatch.setattr(oracle, "_flat_mask", every_row)
    return tested


ROW_0_CASES = [(4, 3, 7840, 896, 980), (6, 2, 204, 168, 19), (3, 2, 18, 0, 3),
               (7, 3, 35280, 0, 1260)]


@pytest.mark.parametrize("m,n,row0_flat,flat,tested", ROW_0_CASES,
                         ids=["-".join(map(str, c[:4])) for c in ROW_0_CASES])
def test_row_0_survivors_are_tested_at_every_row(m, n, row0_flat, flat,
                                                 tested, monkeypatch):
    # the tables tested at every row are the arrangements of one multiset
    # per orbit of the units, the least sorted one: each stands for its
    # multiset's orbit, and weighted by the orbit's size they are exactly
    # the oracle's tables whose row 0 is flat, more of them than are flat.
    # It tests tables with f(2^n - 1) = 0 only, and adding a constant keeps
    # |W(0)|, so they stand for one in m of the row-0 flat tables
    tables = _full_row_tables(monkeypatch)
    res = enumerate_gbfs(GbfType(m, n))
    assert len(set(tables)) == len(tables) == tested
    weight = 0
    for f in tables:
        orbit = _unit_images(m, f[:-1])
        assert f[-1] == 0 and tuple(sorted(f[:-1])) == min(orbit)
        weight += len(orbit)
    assert _row0_flat_by_histogram(m, n) == row0_flat == weight * m
    assert res.gbf_count == flat < row0_flat


@pytest.mark.parametrize("m,n,arrangements,bound", [
    (12, 3, 80570, 9 * 10**4), (16, 3, 53690, 6 * 10**4)])
def test_unit_orbits_cut_the_full_row_tables(m, n, arrangements, bound,
                                             monkeypatch):
    # without orbits every row is tested for 276,640 tables at {12,3} and
    # 208,600 at {16,3}: each multiset that passes row 0, not one per orbit
    tables = _full_row_tables(monkeypatch)
    enumerate_gbfs(GbfType(m, n), budget=10**10, max_witnesses=0)
    assert len(tables) == arrangements <= bound


def test_row_0_sieve_runs_once_per_multiset(monkeypatch):
    # row 0 of a spectrum depends only on the table's value multiset: at
    # {7,3} the sieve tests the C(13, 7) = 1,716 multisets of the 7 free
    # values, not the 823,543 tables with f(7) = 0
    recorded, widths = gbf._flat, Counter()

    def row_0(test, spec, n):
        if spec.shape[1] == 1:
            widths[test] += spec.shape[2]
        return recorded(test, spec, n)

    monkeypatch.setattr(gbf, "_flat", row_0)
    assert enumerate_gbfs(GbfType(7, 3)).gbf_count == 0
    assert list(widths.values()) == [comb(13, 7)] == [1716]


def test_census_sieve_hands_row0_flat_each_multisets_table(monkeypatch):
    # the sieve passes the kernel's W(0) test the (2^n, batch) tables of
    # its multisets, the free values over the fixed 0, and no counts: at
    # {3162,1}, 2 rows a table and 3,162 multisets in all
    shapes, recorded = [], oracle._row0_flat

    def row_0(tables, m, n, l=1, counts=None):
        assert tables.ndim == 2 and not tables[-1].any()
        assert (m, n, l, counts) == (3162, 1, 1, None)
        shapes.append(tables.shape)
        return recorded(tables, m, n)

    monkeypatch.setattr(oracle, "_row0_flat", row_0)
    assert enumerate_gbfs(GbfType(3162, 1)).gbf_count == 0
    assert {rows for rows, _ in shapes} == {2}
    assert sum(batch for _, batch in shapes) == 3162


def _arranged(rows, size):
    """Every row _arrangements yields for a (count, width) array of sorted
    rows, each slice at most size rows."""
    out = []
    for batch in oracle._arrangements(np.array(rows).reshape(len(rows), -1),
                                      size):
        assert 0 < len(batch) <= size
        out += map(tuple, batch.tolist())
    return out


def test_arrangements_are_the_distinct_permutations():
    rng = random.Random(27)
    for _ in range(60):
        width = rng.randrange(1, 8)
        row = tuple(sorted(rng.randrange(rng.randrange(1, 6))
                           for _ in range(width)))
        got = _arranged([row], rng.choice((1, 5, 64, 5040)))
        assert len(got) == len(set(got))
        assert set(got) == set(permutations(row)), row
    # several rows of one run shape and of others, sliced across rows
    rows = [(0, 0, 1), (2, 3, 3), (1, 2, 3), (0, 0, 0), (4, 4, 5)]
    got = _arranged(rows, 4)
    assert len(got) == len(set(got))
    assert set(got) == {p for row in rows for p in permutations(row)}


def test_arrangements_of_binary_rows_of_width_15():
    # the run shapes of {2,4}: up to C(15, 7) = 6,435 orderings of one row
    for ones in range(16):
        row = (0,) * (15 - ones) + (1,) * ones
        got = _arranged([row], 4096)
        assert len(got) == comb(15, ones)
        assert len(set(got)) == len(got)
        assert all(tuple(sorted(r)) == row for r in got)


def test_sliced_census_matches_default(monkeypatch):
    # 1,960 of the 16,384 tables tested at {4,3} pass row 0; a block of 64
    # entries cuts its 120 multisets and the arrangements of those that pass
    # into many slices, with the same hits in the same order
    default = enumerate_gbfs(GbfType(4, 3), max_witnesses=40)
    monkeypatch.setattr(gbf, "_CHUNK", 64)
    assert enumerate_gbfs(GbfType(4, 3), max_witnesses=40) == default
    assert default.gbf_count == 896


def test_census_slices_follow_the_package_block_size(monkeypatch):
    # gbf._CHUNK is read at each call: at {4,3} one table gathers 8 x 2
    # terms, so a block of 64 entries takes 4 multisets a slice and 4
    # tables a batch, where the default takes the 120 multisets at once
    widths = []

    def tables(free):
        widths.append(len(free))
        return oracle_tables(free)

    oracle_tables = oracle._tables
    monkeypatch.setattr(oracle, "_tables", tables)
    default = enumerate_gbfs(GbfType(4, 3), max_witnesses=40)
    assert widths[0] == 120 and max(widths) > 4
    widths.clear()
    monkeypatch.setattr(gbf, "_CHUNK", 64)
    assert enumerate_gbfs(GbfType(4, 3), max_witnesses=40) == default
    assert widths[:30] == [4] * 30 and max(widths) == 4


def _census_grid():
    """The oracle-census types of the benchmark, from bench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CENSUS_GRID


REFEREE_TYPES = _census_grid() + ((8, 3), (12, 3), (16, 3))


@lru_cache(maxsize=None)
def _referee(m, n):
    return ref.census(GbfType(m, n), budget=10**10, max_witnesses=40)


def _referee_at(m, n, max_witnesses):
    # the first max_witnesses hits in odometer order are a prefix of the
    # first 40
    want = _referee(m, n)
    return OracleResult(want.gbf_type, want.total_candidates, want.gbf_count,
                        want.witnesses[:max_witnesses])


@pytest.mark.parametrize("m,n", REFEREE_TYPES,
                         ids=[f"{m}-{n}" for m, n in REFEREE_TYPES])
def test_unit_orbits_match_the_referee_census(m, n):
    # the census over unit orbits against the one that tests every multiset
    # passing row 0: counts, totals and witnesses, at each witness cap
    for cap in (0, 1, 4, 40):
        assert enumerate_gbfs(GbfType(m, n), budget=10**10,
                              max_witnesses=cap) == _referee_at(m, n, cap)
    if m ** (1 << n) <= oracle.DEFAULT_BUDGET:   # the referee at a cap of 4
        assert ref.census(GbfType(m, n), max_witnesses=4) == _referee_at(
            m, n, 4)


def test_unit_orbits_match_the_referee_in_small_slices(monkeypatch):
    # a block of 64 entries slices the sieve and the arrangements of every
    # grid type with n > 1 into several pieces; {8,3} and above would take
    # seconds of one-multiset slices
    monkeypatch.setattr(gbf, "_CHUNK", 64)
    for m, n in _census_grid():
        assert enumerate_gbfs(GbfType(m, n), budget=10**10,
                              max_witnesses=40) == _referee_at(m, n, 40)


def _affine(values, n, rng):
    """f(Ax + b) for a seeded invertible A over F_2 and a seeded b, with A
    given by the images of the index bits."""
    while True:
        cols = [rng.randrange(1, 1 << n) for _ in range(n)]
        image = [0] * (1 << n)
        for x in range(1 << n):
            for i in range(n):
                if x >> i & 1:
                    image[x] ^= cols[i]
        if len(set(image)) == 1 << n:
            break
    b = rng.randrange(1 << n)
    return [values[image[x] ^ b] for x in range(1 << n)]


@pytest.mark.parametrize("m,n", [(4, 3), (8, 3), (16, 3)])
def test_census_witnesses_stay_flat_under_units_and_affine_maps(m, n):
    # zeta -> zeta^k maps W(y) of f to that of k*f, and x -> Ax + b
    # permutes the spectrum and changes signs: both keep flatness
    rng = random.Random(m * 100 + n)
    res = enumerate_gbfs(GbfType(m, n), budget=10**10, max_witnesses=8)
    assert len(res.witnesses) == 8
    for w in res.witnesses:
        images = [[k * v % m for v in w.values]
                  for k in range(1, m) if gcd(k, m) == 1]
        images += [_affine(w.values, n, rng) for _ in range(6)]
        for values in images:
            assert is_gbf(table(m, n, values)), values
            if m == 4:
                assert ref.is_flat_by_definition(table(m, n, values))


def test_result_is_a_hashable_value():
    res = enumerate_gbfs(GbfType(4, 1))
    assert hash(res) == hash(enumerate_gbfs(GbfType(4, 1)))
    assert isinstance(res.witnesses, tuple) and len(res.witnesses) == 4
    with pytest.raises(AttributeError):
        res.witnesses.clear()
    with pytest.raises(FrozenInstanceError):
        res.witnesses = ()


def test_enumerate_witness_order_deterministic():
    a = enumerate_gbfs(GbfType(2, 2))
    b = enumerate_gbfs(GbfType(2, 2))
    assert [w.values for w in a.witnesses] == [w.values for w in b.witnesses]
    assert a.gbf_count == b.gbf_count
    # odometer order: index 0 varies fastest
    assert a.witnesses[0].values == (1, 0, 0, 0)


def test_refusal_at_modulus_limit(tmp_path, capsys):
    # a table with content 1 is tested at m itself, past the split primes
    path = tmp_path / "w.json"
    path.write_text('{"m": 1073741827, "n": 2, "values": [0, 1, 2, 3]}')
    assert cli.main(["verify", str(path)]) == 3
    assert "not below 2^30" in capsys.readouterr().err
    with pytest.raises(ValueError, match="not below 2\\^30"):
        enumerate_gbfs(GbfType(2**30, 1), budget=2**60)


# W(0) = zeta^a + zeta^b and W(1) = zeta^a - zeta^b have |W|^2 = 2 exactly
# when zeta^(a - b) = +-i: 2m flat tables when 4 | m, none otherwise
N1_MODULI = [2, 3, 4, 5, 6, 8, 12, 30, 36, 60, 97, 100, 210, 256, 500, 999,
             1000, 1331, 2000, 2310, 3000, 3160, 3162]


@pytest.mark.parametrize("m", N1_MODULI)
def test_enumerate_n1_closed_form(m):
    res = enumerate_gbfs(GbfType(m, 1))
    assert res.gbf_count == (2 * m if m % 4 == 0 else 0)


def test_enumerate_memory_is_bounded():
    # {60,1}: one unchunked batch of 3600 candidates gathers 107 MiB;
    # {53,2}: its 26,235 multisets of 3 free values, gathered unsliced at
    # 52 unit columns, take 42 MiB; {56,2} has the most multisets under the
    # default budget, 30,856, and {2,4} the most arrangements of one, up
    # to 6,435, of which 8,008 are tested at every row
    for t in (GbfType(60, 1), GbfType(53, 2), GbfType(56, 2), GbfType(2, 4)):
        enumerate_gbfs(t)           # builds the modulus-m tables
        tracemalloc.start()
        try:
            enumerate_gbfs(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, t


def test_enumerate_budget_refusal():
    with pytest.raises(ValueError, match="budget"):
        enumerate_gbfs(GbfType(5, 3), budget=1000)
    with pytest.raises(ValueError, match=re.escape("7^(2^4) candidates")):
        enumerate_gbfs(GbfType(7, 4), budget=10)
    # m^(2^n) of tens of thousands of digits or more: neither computed nor
    # written out
    for m, n in ((3, 16), (1000, 24), (2, 40)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(
                f"{m}^(2^{n}) candidates, above the budget")):
            enumerate_gbfs(GbfType(m, n))
        assert time.perf_counter() - start < 1


def test_enumerate_refuses_malformed_counts():
    # as a slice bound a negative cap would drop hits from the end, and a
    # float budget has no exact bit length
    for cap in (-1, -3):
        with pytest.raises(ValueError, match="max_witnesses is"):
            enumerate_gbfs(GbfType(4, 2), max_witnesses=cap)
    for kwargs in ({"budget": 1e7}, {"max_witnesses": 2.0}):
        with pytest.raises(TypeError):
            enumerate_gbfs(GbfType(4, 2), **kwargs)
    res = enumerate_gbfs(GbfType(4, 2), max_witnesses=0)
    assert res.witnesses == () and res.gbf_count == 64


def test_count_divisible_by_m_for_even_m():
    # adding a constant to all values is a free flatness-preserving action
    for m, n in ((2, 2), (4, 1), (6, 1)):
        res = enumerate_gbfs(GbfType(m, n))
        assert res.gbf_count % m == 0


def test_witness_cap():
    res = enumerate_gbfs(GbfType(2, 2), max_witnesses=2)
    assert len(res.witnesses) == 2 and res.gbf_count == 8


def test_shifted_and_translated_witness_stays_flat():
    from gbflab.criteria import rule_exists
    witness, _ = rule_exists(GbfType(4, 3))
    rng = random.Random(77)
    for _ in range(20):
        c = rng.randrange(4)
        shifted = table(4, 3, [(v + c) % 4 for v in witness.values])
        assert ref.is_flat_by_definition(shifted)
        # translating the argument is also free
        a = rng.randrange(8)
        moved = table(4, 3, [witness.values[x ^ a] for x in range(8)])
        assert ref.is_flat_by_definition(moved)


def test_enumerate_refuses_a_witness_that_fails_reverification(monkeypatch):
    monkeypatch.setattr(oracle, "is_gbf", lambda f: False)
    with pytest.raises(AssertionError,
                       match="witness failed independent verification"):
        enumerate_gbfs(GbfType(4, 1))
