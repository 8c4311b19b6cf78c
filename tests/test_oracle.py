"""Exhaustive enumeration against an independent per-table route."""

import random
import tracemalloc

import pytest

from gbflab import cli, oracle
from gbflab.cyclotomic import CycInt, zeta_pow
from gbflab.gbf import GbfType, table
from gbflab.oracle import enumerate_gbfs


def _flat_by_ring_arithmetic(f):
    """Independent flatness check built only on CycInt primitives."""
    m, n = f.m, f.n
    target = 1 << n
    for y in range(1 << n):
        acc = CycInt.zero(m)
        for x, v in enumerate(f.values):
            term = zeta_pow(m, v)
            acc = acc + (-term if (x & y).bit_count() & 1 else term)
        if acc.abs_square() != target:
            return False
    return True


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
        if _flat_by_ring_arithmetic(table(m, n, digits)):
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
        assert _flat_by_ring_arithmetic(w)


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
    # a batch target of 4 leaves a slow block of several readings, read in
    # more than one batch, where the default keeps every one of these types
    # in a single fast block
    monkeypatch.setattr(oracle, "_BATCH_TARGET", 4)
    res = enumerate_gbfs(GbfType(m, n), max_witnesses=5)
    count, total, witnesses = _brute_census(m, n, 5)
    assert res.gbf_count == count and res.total_candidates == total
    assert [w.values for w in res.witnesses] == witnesses


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
    t = GbfType(60, 1)
    enumerate_gbfs(t)               # builds the modulus-60 tables
    tracemalloc.start()
    try:
        enumerate_gbfs(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one unchunked batch of 3600 candidates gathers 107 MiB
    assert peak < 16 * 2**20


def test_enumerate_budget_refusal():
    with pytest.raises(ValueError, match="budget"):
        enumerate_gbfs(GbfType(5, 3), budget=1000)
    with pytest.raises(ValueError, match=str(7 ** 16)):
        enumerate_gbfs(GbfType(7, 4), budget=10)


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
        assert _flat_by_ring_arithmetic(shifted)
        # translating the argument is also free
        a = rng.randrange(8)
        moved = table(4, 3, [witness.values[x ^ a] for x in range(8)])
        assert _flat_by_ring_arithmetic(moved)


def test_enumerate_refuses_a_witness_that_fails_reverification(monkeypatch):
    monkeypatch.setattr(oracle, "is_gbf", lambda f: False)
    with pytest.raises(AssertionError,
                       match="witness failed independent verification"):
        enumerate_gbfs(GbfType(4, 1))
