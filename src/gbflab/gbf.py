"""Function tables on Z_2^n with values in Z_m, exact Walsh spectra, the
flat-spectrum (generalized bent) test, and every construction: the
boolean quadratic form, the product, the quaternary folding, the direct
sum, the modulus lift, and the witnesses of rules E1-E3.

Index convention, fixed across the whole package and the witness file
format: table index i encodes the point x = (x_1, ..., x_n) with x_j equal
to bit j-1 of i, so x_1 is the least significant bit.

The value types are frozen dataclasses.  A table holds its 2^n residues as
one read-only numpy array in the narrowest dtype that holds m - 1: uint8,
uint16 or uint32, int64 up to m = 2^62, and Python integers (an object
array) beyond; a copied or unpickled table is checked and frozen again.
Every layer works on that array, widening it before any arithmetic that
could pass m; the tuple ``values`` is built only when asked for.  numpy is
loaded by the first table built or read, not at import.

Every direct sum is built by _sum_table, which alone decides the index
layout of a sum: direct_sum adds two tables through it, and _pair_sum
sums 1- and 2-variable pieces through it into the E1-E3 witnesses and
construct_boolean_bent, in the table's own dtype, scaled in place.

One batched kernel decides flatness, and answers two questions.  Is a
whole table flat?  _flat_mask takes a (2^n, batch) array of tables
through the first exact test of _terms, one FWHT and _flat, to the mask
of the rows that pass it.  Which of its rows below 2^k are flat?
_low_rows_flat answers exactly, at every test of _terms, from the terms
summed onto those rows.  At modulus 2 or 4, Z[zeta] is Z or Z[i]: one
FWHT of the signed unit coordinates of zeta^f(x), in int16 with wrapping
arithmetic, gives every coordinate of every W(y) mod 2^16, with no prime,
and re^2 + im^2 = 2^n is tested in int64 on those signed values.  Every
other modulus is tested at the m-th roots of unity of F_q for the split
primes q of _split_primes, whose product exceeds 4^n, so that together
they decide each row.  is_gbf and first_flat_violation test one table at
its content modulus m/l, l = gcd(m, values), which is 2 or 4 for every
witness of rules E1, E2 and E3; the oracle, blocks of tables at m.
Both routes gather their terms in _terms from one cached lookup per test,
_root_powers: by value, each entry taking its terms at every unit column
from a lookup of those of every value, when the tables have more entries
than values and that lookup fills at most a block, else by exponent.
The terms lie in one contiguous (slab, x, table, entry) array, from the
gather through the FWHT to _flat, with no transposed view.  At a split
prime each unit column k is its own slab of the omega^(k f(x)), so every
modular step walks memory with unit stride, and a large slab's rows are
8-byte words that the FWHT's copies move whole: in process on a 2-core
VM, an int64 FWHT of the two columns of one table took 1.3 ms as slabs
against 2.3-2.5 ms with the columns interleaved in each entry at n = 16,
and 7.6-8.4 against 15-16 ms at 18.  Two cases keep one slab whose
entries hold every column instead.  The int16 route has one unit column,
whose entries are its two coordinates: its FWHT moves 4-byte rows as
words, where two slabs of 2-byte rows take twice the word moves (one
table: 0.42-0.59 ms interleaved against 0.63-0.96 ms as slabs at n = 16,
0.93-1.33 against 1.37-2.08 ms at 17, 1.88-2.70 against 2.39-3.91 ms at
18; within 10 % at 20).  And a single table of fewer than 2^14 rows,
too short for the FWHT's rounds, interleaves its unit columns: as slabs,
the butterflies of its short stages run over short runs of one column at
a time, where interleaved they run over every column at once, and
is_gbf of random tables took about twice as long in slabs at {4099,11},
{65537,8} and {30030,12} (303-335 against 157-181 ms at {4099,11}).
_CHUNK is the package's one block size, and _blocks its one rule: every
chunked pass (histograms, the gathers of the terms, the norm test,
direct_sum, the witness writer of the command line) takes the row blocks
of _blocks, about _CHUNK entries each, each into its slice of one output,
and _per_block sizes the oracle's census slices to a block; a table of one
block or less takes one numpy call per step.
Every FWHT is one _fwht_inplace call, along the rows of each slab of its
leading axes.  On a large slab with short rows it runs the butterflies in
rounds over runs of at least 2^12 entries, a slab at a time, rotating the
index bits between rounds through one scratch array of a slab's size; any
other array, such as an oracle block, takes one set of butterflies in
place across all its slabs, since no stage's blocks straddle two.

One test is exact for a whole table, by Parseval.  In int16, a row that
fails is not flat: a flat row has coordinates at most 2^13 in absolute
value, since n <= 26, so they fit int16 and are tested as they are.  A row
that passes has signed coordinates that solve re^2 + im^2 = 2^n, each at
most 2^13 in absolute value; any other integer of the same class mod 2^16
is at least 2^16 - 2^13 = 57344 in absolute value, and 57344^2 > 2^26 >=
2^n.  So a passing row has |W(y)|^2 >= 2^n, with equality only when its
coordinates are exact.  Parseval gives sum_y |W(y)|^2 = 4^n, so when all
2^n rows of a table pass, every one is exactly flat.  At one split prime
q > 2^n the argument runs on the trace.  alpha_y = |W(y)|^2 - 2^n is a
real algebraic integer whose conjugates |W_k(y)|^2 - 2^n are at least
-2^n, and Parseval at each conjugate gives sum_y alpha_y = 0.  When every
row passes mod q, q divides each alpha_y, since q splits completely and
the test covers every prime above it; so gamma_y = alpha_y/q + 1 is an
algebraic integer with every conjugate positive, of norm at least 1, and
by AM-GM its trace is at least phi(m), with equality only at gamma_y = 1.
The gamma_y sum to 2^n, so their traces sum to phi(m) 2^n: each is
exactly phi(m), and every alpha_y = 0 (Siegel, Ann. of Math. 46, 1945,
for sharper forms of the trace bound).  _split_primes refuses a modulus
whose largest split prime is not above 2^n.  So _flat_mask's one test
makes is_gbf and the oracle's per-table verdicts exact, and a row that
fails it is not flat.

A single row that passes one test, though, need not be flat.  In int16,
from n = 16 on, a coordinate of W(y) can reach 57344 in absolute value,
and a non-flat row can pass by wrapping: the {2,16} table f = x1 + 1,
except f = 0 at 128 points with x1 = 0, has W(0) = 256 and W(1) = -65280,
which is 256 mod 2^16.  One split prime is below 4^n from n = 15 on, so
its row test alone is exact only up to n = 14.  That matters only where
the least failing row is asked for, and there _low_rows_flat decides the
rows before the first failure exactly, at every test.

A single table goes through _first_nonflat, the one search behind both.
When m <= 2^n, it decides row 0 first: one histogram of the values gives
l, and _low_rows_flat at k = 0 the distinct values with their counts as
weights, at O(m phi(m)) cost, never more than the kernel's own terms.  A
row 0 that fails there is not flat, and since 0 is the least index, it is
then the first failing y, with no FWHT run.  When row 0 passes, or when
m > 2^n, where l comes from a gcd pass and the table goes straight to the
kernel, every row goes through _flat_mask as a batch of one, and y is its
least failing row.  That row is not flat, so is_gbf stops there;
first_flat_violation needs the least one, by one rule at every content
modulus and every n.  When a row before y passed one test alone (any row
but a row 0 decided from the histogram), the rows r < 2^k, 2^k >= y,
depend on x only through its low k index bits: each test's terms summed
over the high n - k bits, in int64, and a k-stage FWHT give their W(r)
exactly, and the least failing one among them, or y itself, is reported.
Only one full-size transform runs per table.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, prod

from ._lazy import np
from .cyclotomic import CycInt, reduce_phi
from .numtheory import factorize, is_probable_prime

_MAX_N = 26              # walsh matrices have 2^n rows; guard memory
_Q_LIMIT = 1 << 30       # split primes stay below it: FWHT sums fit int64
_INT64_SAFE = 2**62


@dataclass(frozen=True)
class GbfType:
    """The pair {m, n} of integers: values in Z_m, arguments in Z_2^n."""

    m: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "m", operator.index(self.m))
        object.__setattr__(self, "n", operator.index(self.n))
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    def __str__(self):
        return f"{{{self.m},{self.n}}}"


def _value_dtype(bound: int):
    """The narrowest dtype for values below bound: uint8, uint16 or uint32,
    int64 up to 2^62, else Python integers (object arrays) so that no value
    wraps.  A table at m is stored in _value_dtype(m); arithmetic whose
    results stay below B widens into _value_dtype(B) first."""
    if bound <= 1 << 32:
        return np.min_scalar_type(bound - 1)
    return np.int64 if bound <= _INT64_SAFE else object


def _out_of_range(values: np.ndarray, m: int) -> bool:
    """Whether an array of integers holds a value outside 0..m-1, checked
    in its own dtype, since a cast done first would wrap -1 into range:
    both ends, or only the top one for an unsigned dtype."""
    return ((values.dtype.kind != "u" and int(values.min()) < 0)
            or int(values.max()) >= m)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class FunctionTable:
    """A map Z_2^n -> Z_m stored as a read-only array of 2^n residues.

    ``array`` is uint8, uint16 or uint32, the narrowest that holds m - 1,
    int64 up to m = 2^62, and an object array of Python integers beyond
    (_value_dtype(m)).  A numpy array passed in that already has this dtype
    is frozen and shared; any other is range-checked in its own dtype and
    cast into a new array.  Values that are not integers (a float or
    complex dtype, or a float in an object array) raise TypeError instead
    of being truncated, and n > _MAX_N raises ValueError before anything
    is allocated.
    ``values`` is the same table as a tuple of Python integers, built on
    first use; equality, hashing and repr are those of a frozen dataclass
    with fields ``gbf_type`` and ``values``.  A copy or an unpickled table
    is built again through the constructor, so it is checked and read-only."""

    gbf_type: GbfType
    array: np.ndarray

    def __init__(self, gbf_type: GbfType, values):
        m, n = gbf_type.m, gbf_type.n
        if n > _MAX_N:      # before 1 << n: at n = 10^9 that alone is 125 MB
            raise ValueError(f"n = {n} beyond the supported resource guard")
        values = np.asarray(values)
        # a cast would truncate floats: refuse by dtype, scanning values only
        # in an object array (Python integers beyond int64)
        kind = values.dtype.kind
        if kind not in "biuO" or kind == "O" and not all(
                isinstance(v, (int, np.integer)) for v in values.flat):
            raise TypeError(f"table values must be integers, not {values.dtype}")
        if values.shape != (1 << n,):
            raise ValueError(f"need {1 << n} values, got {len(values)}")
        if _out_of_range(values, m):
            raise ValueError(f"values must lie in 0..{m - 1}")
        arr = values.astype(_value_dtype(m), copy=False)
        arr.setflags(write=False)
        object.__setattr__(self, "gbf_type", gbf_type)
        object.__setattr__(self, "array", arr)

    def __reduce__(self):
        return self.__class__, (self.gbf_type, self.array)

    @cached_property
    def values(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    @property
    def m(self) -> int:
        return self.gbf_type.m

    @property
    def n(self) -> int:
        return self.gbf_type.n

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.gbf_type == other.gbf_type
                and np.array_equal(self.array, other.array))

    def __hash__(self):
        return hash((self.gbf_type, self.values))

    def __repr__(self):
        return f"FunctionTable(gbf_type={self.gbf_type!r}, values={self.values!r})"


def table(m: int, n: int, values) -> FunctionTable:
    """Build a FunctionTable, reducing the given values mod m."""
    return FunctionTable(GbfType(m, n), [operator.index(v) % m for v in values])


_LONG_RUN = 1 << 12      # butterfly runs this long cost numpy least per entry
# index bits per rotation: its copy reads 2^t rows at once, a power-of-two
# stride apart, and past 2^4 of them they evict each other from the caches
_MAX_ROUND = 4


def _butterflies(flat: np.ndarray, run: int, stop: int) -> None:
    """The stages of flat whose halves are runs of run, 2 run, ... entries,
    below stop, a power-of-two multiple of run that divides flat.size:
    each pairs the halves a, b of blocks of rows and makes them (a + b,
    a - b) through a += b; b *= -2; b += a.  A block is at most stop
    entries, so each slab of stop entries is transformed on its own.  In
    an array of 2^11 entries or more, while a run is shorter than 8, the
    stage goes as `run` strided 1-D pairs, which numpy loops over faster
    than over many short runs; in a smaller one the extra calls cost more
    than they save."""
    while run < stop:
        if run < 8 and flat.size >= 1 << 11:
            halves = [(flat[j::2 * run], flat[j + run::2 * run])
                      for j in range(run)]
        else:
            view = flat.reshape(-1, 2, run)
            halves = [(view[:, 0], view[:, 1])]
        for a, b in halves:
            a += b
            b *= -2
            b += a          # (a + b) - 2b = a - b
        run *= 2


def _as_rows(flat: np.ndarray, rows: int) -> np.ndarray:
    """flat as `rows` rows, each one unsigned word when its entries fill 1,
    2, 4 or 8 bytes, so that a transposed copy moves whole rows."""
    width = flat.size // rows * flat.itemsize
    if width in (1, 2, 4, 8):
        return flat.view(f"u{width}")
    return flat.reshape(rows, -1)


def _fwht_inplace(mat: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard butterfly along axis -2 of a
    C-contiguous (..., 2^k, inner) array, in place, each slab of the
    leading axes on its own: out[..., y, :] = sum_x (-1)^(x.y) in[..., x,
    :].  Returns mat.

    The stage over index bit b pairs runs of inner 2^b entries.  Below
    _LONG_RUN entries a run costs numpy several times more per entry.  So
    when at least three stages run short and at least two, `span`, run
    long, each slab goes in rounds, after Bailey's four-step FFT: a round
    runs the stages over the top t index bits, t at most span and
    _MAX_ROUND, so every run is long; then one transposed copy rotates the
    index bits up by t, bringing the next t bits to the top.  The widths
    sum to k, so the last rotation restores the row order.  The copies
    alternate between the slab and one scratch array of a slab's size;
    when the rounds are odd in number, one plain copy brings the result
    back.  Otherwise one set of butterflies runs over every slab at once,
    since no stage's blocks straddle two: with fewer short stages the
    copies cost more than they save, and a small array has too few long
    bits to rotate into."""
    rows, inner = mat.shape[-2:]
    slab = rows * inner
    flat = mat.reshape(-1, copy=False)
    k = rows.bit_length() - 1
    short = 0
    while short < k and inner << short < _LONG_RUN:
        short += 1
    span = k - short
    if short < 3 or span < 2:
        _butterflies(flat, inner, slab)
        return mat
    count = -(-k // min(span, _MAX_ROUND))
    scratch = np.empty(slab, flat.dtype)
    for part in flat.reshape(-1, slab):
        src, dst = part, scratch
        for i in range(count):
            t = (k + i) // count    # widths as even as can be, summing to k
            _butterflies(src, inner << (k - t), slab)
            np.copyto(_as_rows(dst, rows).reshape(rows >> t, 1 << t, -1),
                      _as_rows(src, rows).reshape(1 << t, rows >> t, -1)
                      .swapaxes(0, 1))
            src, dst = dst, src
        if count % 2:
            np.copyto(part, src)
    return mat


def walsh_matrix(f: FunctionTable) -> np.ndarray:
    """The spectrum as an exact int64 matrix: row y holds the coefficient
    vector of W(y) = sum_x (-1)^(x.y) zeta^f(x) over powers of zeta_m.
    Entries are bounded by 2^n, so int64 never wraps within the n guard."""
    m, n = f.m, f.n
    rows = 1 << n
    mat = np.zeros((rows, m), dtype=np.int64)
    mat[np.arange(rows), f.array] = 1
    return _fwht_inplace(mat)


def walsh(f: FunctionTable) -> tuple[CycInt, ...]:
    """Exact Walsh spectrum, W(y) at index y under the shared bit convention;
    W(0) is the plain character sum over the table."""
    return tuple(CycInt(f.m, row) for row in walsh_matrix(f).tolist())


def _split_primes(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """((q, omega), ...): primes q = 1 (mod m) below 2^30, largest first,
    until their product Q exceeds 4^n, each with an omega of order m mod q
    (one prime for n <= 14, two up to n = _MAX_N).  Refuses, before any
    allocation of size m, m >= 2^30, an m with too few such primes, and
    one whose largest such prime is not above 2^n.

    Together they decide |W(y)|^2 = 2^n exactly, row by row.  q splits
    completely in Z[zeta_m]: zeta -> omega^k over the units k of Z_m maps
    Z[zeta_m]/(q) onto F_q^phi(m), taking W(y) to W_k(y) = sum_x
    (-1)^(x.y) omega^(k f(x)) and its conjugate to W_(m-k)(y).  So q
    divides alpha = |W(y)|^2 - 2^n when W_k W_(m-k) = 2^n mod q at every
    unit k, and Q does when every q does.  Each conjugate of alpha is
    |W'|^2 - 2^n with W' the Walsh value of some k f, so |W'| <= 2^n and
    the conjugate lies below 4^n in absolute value.  A nonzero alpha would
    have Q^phi(m) <= |N(alpha)| < 4^(n phi(m)), against Q > 4^n: so
    alpha = 0.  The first prime alone, being above 2^n, decides a whole
    table (module docstring), which is all _flat_mask asks of it.
    """
    if m >= _Q_LIMIT:
        raise ValueError(f"modulus {m} is not below 2^30 = {_Q_LIMIT}, the "
                         f"limit of the exact flatness check")
    found = []
    for q in range((_Q_LIMIT - 2) // m * m + 1, 1, -m):
        if prod(found) > 4 ** n:
            break
        if is_probable_prime(q):
            found.append(q)
    if prod(found) <= 4 ** n or found[0] <= 1 << n:
        raise ValueError(f"the primes q = 1 (mod {m}) below 2^30 have "
                         f"product {prod(found)}, not above 4^{n}, or none "
                         f"above 2^{n}: too few for the exact flatness check")
    out = []
    for q in found:
        # g^((q-1)/m) has order m when no g^((q-1)/p), p | m, is 1
        g = 2
        while any(pow(g, (q - 1) // p, q) == 1 for p, _ in factorize(m)):
            g += 1
        out.append((q, pow(g, (q - 1) // m, q)))
    return tuple(out)


# the signed coordinates of zeta^v, v in Z_m, in Z (m = 2) and Z[i] (m = 4)
_UNIT_COORDS = {2: [[1], [-1]], 4: [[1, 0], [0, 1], [-1, 0], [0, -1]]}


@lru_cache(maxsize=None)
def _root_powers(m: int, n: int):
    """(cols, ((test, lookup), ...)): the exact tests at modulus m, each
    with the lookup whose entry j is the image of zeta^j, so that unit
    column k of zeta^v is lookup[k v mod m].  At m = 2 or 4, cols is [1]
    and the one test is None, with the int16 coordinates _UNIT_COORDS[m]
    in Z or Z[i], whose FWHT gives W(y) mod 2^16 (module docstring).
    Otherwise cols holds the units k < m/2 of Z_m, then their mirrors
    m - k, and each test is a prime q of _split_primes(m, n), with lookup
    pw[j] = omega^j mod q.  The cached arrays are read-only."""
    if m in _UNIT_COORDS:
        cols = np.ones(1, np.uint8)     # the exponents keep the table's dtype
        roots = [(None, np.array(_UNIT_COORDS[m], dtype=np.int16))]
    else:
        roots = []
        for q, omega in _split_primes(m, n):
            pw = np.empty(m, dtype=np.int64)
            pw[0] = 1
            k = 1
            while k < m:            # pw[k:2k] = omega^k pw[:k], in place
                step = min(k, m - k)
                out = pw[k:k + step]
                np.multiply(pw[:step], pow(omega, k, q), out=out)
                out %= q
                k += step
            roots.append((q, pw))
        units = np.flatnonzero(np.gcd(np.arange(m // 2 + 1), m) == 1)
        cols = np.concatenate([units, m - units])
    for arr in (cols, *(lookup for _, lookup in roots)):
        arr.setflags(write=False)
    return cols, tuple(roots)


_CHUNK = 1 << 16         # entries a block of any chunked pass takes


def _blocks(rows: int, size: int):
    """The slices, in order, of the rows of an array of size entries that
    cut it into blocks of about _CHUNK entries: each at least one row, the
    last one clipped.  _CHUNK is read at each call."""
    step = max(1, _CHUNK * rows // size)
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _per_block(m: int, n: int) -> int:
    """How many tables of type {m,n} gather about one block of _CHUNK terms
    at modulus m, read at each call: each entry has lookup.size // m terms
    per unit column.  Refuses an unsupported m through _root_powers, before
    anything of size m is built."""
    cols, [(_, lookup), *_] = _root_powers(m, n)
    return max(1, _CHUNK // ((1 << n) * len(cols) * (lookup.size // m)))


def _histogram(arr: np.ndarray, m: int, y: int = 0) -> np.ndarray:
    """The length-m count of each value of a table, the value at x
    weighted by (-1)^(x.y): int64 counts at y = 0, else float64 sums,
    exact below 2^53.  Taken over the blocks of _blocks, since bincount
    first casts a read-only or narrow input whole; one bincount at y = 0
    when the table is one block or less."""
    if y == 0 and len(arr) <= _CHUNK:
        return np.bincount(arr, minlength=m)
    row = np.zeros(m, dtype=np.float64 if y else np.int64)
    for block in _blocks(len(arr), len(arr)):
        signs = None if y == 0 else np.where(np.bitwise_count(
            np.arange(block.start, block.stop) & y) & 1, -1., 1.)
        row += np.bincount(arr[block], weights=signs, minlength=m)
    return row


def _quotient(tables: np.ndarray, l: int) -> np.ndarray:
    """tables // l as indices, tables itself when l = 1; computed in intp,
    since l may not fit a narrow dtype (the all-zero table has l = m)."""
    if l == 1:
        return tables
    if tables.dtype == object:
        return (tables // l).astype(np.intp)
    return np.floor_divide(tables, l, dtype=np.intp)


def _terms(tables, m: int, n: int, l: int = 1):
    """(test, terms) for each exact test of _root_powers(m, n) on a
    (rows, batch) array of tables, one per column, whose values are l
    times residues mod m, read as f(x) = v // l.  terms is a contiguous
    (slab, x, table, entry) array holding, for each x and table, the
    image of zeta^f(x) at each unit column k of cols: omega^(k f(x)) mod
    q at a split prime, the int16 coordinates at m = 2 or 4, where cols
    is [1].  Each unit column is its own slab, with one entry, when the
    batch holds several tables or the tables have at least 2^14 rows;
    otherwise there is one slab, whose entries hold every unit column in
    the order of cols (module docstring).
    The terms are gathered a block at a time, by a take that clips rather
    than buffering its output, so each block is contiguous: slabs of a
    block or less each are taken whole, as many in one take as fill
    about _CHUNK entries, and a longer slab a block of its rows at a
    time, both by _blocks.
    When the tables have more entries than the m*l values, so that some
    value recurs, and a lookup of the terms of the m*l values at every
    unit column, row j those of j // l, fills at most a block, each entry
    v indexes that lookup, built once per test: a block is a take of the
    tables themselves, as intp, with no exponent or quotient formed,
    about ten times faster per term than the exponents.  Otherwise the
    exponents k f(x) of a block, of the quotient by l, are reduced mod m
    in place (at m = 2 or 4, where cols is [1], they are the residues
    f(x) themselves), gathered and dropped before the next block.  Either
    way the terms never sit beside more than a block of lookup, exponents
    or quotients."""
    cols, roots = _root_powers(m, n)
    slabs = tables.shape[1] > 1 or len(tables) >= 4 * _LONG_RUN
    for test, lookup in roots:
        lookup = lookup.reshape(m, -1)
        by_value = m * l < tables.size and lookup.size * l * cols.size <= _CHUNK
        width = lookup.shape[1]         # the coordinates of one term
        terms = np.empty((len(cols), *tables.shape, width) if slabs
                         else (1, *tables.shape, len(cols) * width),
                         lookup.dtype)
        if by_value:            # (slab, value, its terms in the slab)
            lookup = np.repeat(lookup[np.arange(m) * cols[:, None] % m], l, 1)
            if not slabs:
                lookup = lookup.swapaxes(0, 1).reshape(1, m * l, -1)
        # a slab of a block or less is taken whole, with as many others as
        # fill a block; a longer one, a block of its rows at a time
        groups = _blocks(len(terms), terms.size)
        for block in _blocks(len(tables), terms[0].size):
            index = (tables[block].astype(np.intp, copy=False) if by_value
                     else _quotient(tables[block], l))
            for group in groups:
                out = terms[group, block]
                if by_value:
                    source, exps = lookup[group], index
                else:
                    source = lookup
                    exps = (np.multiply.outer(cols[group], index) if slabs
                            else np.multiply.outer(index, cols)[None])
                    if len(cols) > 1:       # k f(x) < m at k = 1
                        exps %= m
                    out = out.reshape(*exps.shape, -1)
                source.take(exps, axis=-2, out=out, mode="clip")
                del exps, out   # out views terms: it would keep them alive
            del index
        yield test, terms
        del terms       # so the next test's gather is not made beside it


def _flat(test, spec: np.ndarray, n: int) -> np.ndarray:
    """The (2^n, batch) mask of |W(y)|^2 = 2^n for a test of _terms and its
    spectrum spec, laid out as the terms, (slab, y, table, entry), and
    read as it lies: re^2 + im^2 = 2^n in int64, of the signed coordinates
    as given (mod 2^16 in int16), or W_k W_(m-k) = 2^n (mod q) at each unit
    k < m/2, whose mirror m - k is the unit column half the columns on,
    overwriting spec.  A row that fails is not flat.  A row that passes is flat when
    every row of its table passes, and in any case when it passes every
    test of _terms (module docstring).  x mod q is x - x // q * q, several
    times faster in numpy; products of residues stay below q^2 < 2^60.  The
    temporaries stay about _CHUNK entries, and each piece is contiguous in
    every slab: the rows go in blocks, all of them at once when two slabs
    hold a block or less, and the pairs of columns k, m - k in groups that
    fill a block."""
    blocks = _blocks(spec.shape[1], min(len(spec), 2) * spec[0].size)
    if test is None:                    # the one slab of coordinates
        mask = np.empty(spec.shape[1:3], dtype=bool)
        for block in blocks:
            norm = np.square(spec[0, block, ..., 0], dtype=np.int64)
            if spec.shape[-1] == 2:
                norm += np.square(spec[0, block, ..., 1], dtype=np.int64)
            mask[block] = norm == 1 << n
        return mask
    # the unit columns k < m/2, then their mirrors, whether slabs or the
    # entries of one slab
    cols = spec.transpose(0, 3, 1, 2).reshape(2, -1, *spec.shape[1:3])
    groups = _blocks(cols.shape[1], cols[:, :, blocks[0]].size)
    mask = np.ones(spec.shape[1:3], dtype=bool)
    for block in blocks:
        for group in groups:
            part = cols[:, group, block]
            part -= part // test * test
            low = part[0]
            low *= part[1]
            low -= low // test * test
            mask[block] &= (low == (1 << n) % test).all(axis=0)
    return mask


def _flat_mask(tables, m: int, n: int, l: int = 1) -> np.ndarray:
    """The (2^n, batch) mask of the rows of a (2^n, batch) array of tables,
    l times residues mod m as _terms takes them, that pass the first test
    of _terms.  Its terms go through one FWHT along the rows of each slab,
    which is linear: at m = 2 or 4 it gives the coordinates of W(y) in Z
    or Z[i] mod 2^16, the butterflies wrapping in int16; otherwise unit
    column k holds W_k(y) mod q, residues below 2^30 summed over 2^26 rows
    staying below 2^56.  _flat then tests the spectrum as it lies.  A row
    that fails is not flat, and when every row of a table passes, the
    table is flat, at either test (module docstring): the first split
    prime exceeds 2^n, or _split_primes refuses."""
    test, terms = next(_terms(tables, m, n, l))
    _fwht_inplace(terms.reshape(len(terms), len(tables), -1))
    return _flat(test, terms, n)


def _low_rows_flat(tables, m: int, n: int, l: int = 1, k: int = 0,
                   counts=None) -> np.ndarray:
    """The exact (2^k, batch) mask of |W(r)|^2 = 2^n over the rows r < 2^k
    of a (2^n, batch) array of tables, l times residues mod m as _terms
    takes them: each row passes every test of _terms, which together are
    exact per row.  (-1)^(x.r) depends on x only through its low k index
    bits, so W(r) is the k-stage FWHT of each test's terms summed over the
    high n - k bits, in int64, where every partial sum stays below 2^56;
    at k = 0 it is W(0), the plain sum, and no FWHT runs.  Given counts, a
    weight for each row of a (rows, batch) array, W(0) is counts @ terms
    instead: one table's distinct values weighted by how often each
    occurs, O(rows phi(m)) however long the table.  numpy adds one row into
    the next fastest when rows are long, so the sums go first, in each
    slab, over rows of at least _LONG_RUN entries, a power-of-two
    multiple of the terms of the x < 2^k whatever their width, then over
    the few rows left: at n = 24 and k = 1, 18 ms instead of 160 ms.  A
    slab of one such row is summed in one pass, twice as fast on a census
    batch; when a long row holds just the terms of the x < 2^k, the first
    pass is the whole sum, with no copy of it.  Each test's terms and sums
    are dropped before the next test's are gathered."""
    ok = True
    for test, terms in _terms(tables, m, n, l):
        slabs = len(terms)
        if counts is None:
            row = terms[0].size >> n - k    # a slab's terms of the x < 2^k
            low = terms.reshape(slabs, -1, row << min(
                n - k, ((_LONG_RUN - 1) // row).bit_length()))
            if low.shape[1] > 1:        # a slab of two long rows or more
                low = low.sum(axis=1, dtype=np.int64)
            if low.size > slabs * row:  # rows of the x < 2^k left to add
                low = low.reshape(slabs, -1, row).sum(axis=1, dtype=np.int64)
            else:
                low = low.astype(np.int64, copy=False)
        else:
            low = counts @ terms.reshape(slabs, len(tables), -1)
        del terms
        spec = low.reshape(slabs, 1 << k, tables.shape[1], -1)
        if k:
            _fwht_inplace(low.reshape(slabs, 1 << k, -1))
        ok = ok & _flat(test, spec, n)
        del low, spec   # so the next test's sum is not made beside them
    return ok


def _first_nonflat(f: FunctionTable):
    """(y, c, hist) for one table: y is a row whose |W(y)|^2 differs from
    2^n, or None; c is the content modulus m/l, l = gcd(m, values); hist
    is the length-m histogram of f's values when it refutes row 0, and None
    otherwise.  y is the least row that fails the first test of _terms,
    and the least failing row whenever the rows before it were decided
    exactly: y = 0, or y = 1 with row 0 decided from the histogram.

    The table is tested at c, on the quotients v/l, which have the same
    Walsh values as complex numbers, since zeta_m^(l*v) = zeta_c^v; an
    all-zero table, whose W(y) are the same integers at every modulus, is
    taken at c = 2, never 1.  An unsupported c is refused by _terms
    before any quotient is taken.

    When m <= 2^n, one histogram gives l with no gcd pass, and its
    distinct values, weighted by their counts, give W(0) exactly through
    _low_rows_flat: when it fails, 0 is the least failing y, with no FWHT.
    Otherwise every row is tested by _flat_mask as a batch of one, the
    table going in with l, so no quotient table is built: None is exact,
    and so is any failing row, but a row before it passed one test alone
    (first_flat_violation settles those rows)."""
    m, n, arr = f.m, f.n, f.array
    hist = None
    if m <= arr.size:
        hist = _histogram(arr, m)
        values = np.flatnonzero(hist)
    l = gcd(m, int(np.gcd.reduce(arr if hist is None else values)))
    c = max(m // l, 2)
    if hist is not None:
        if not _low_rows_flat(values[:, None], c, n, l,
                              counts=hist[values])[0, 0]:
            return 0, c, hist
        del hist, values    # each up to 2^n entries, freed before the FWHT
    ok = _flat_mask(arr[:, None], c, n, l)[:, 0]
    return (None if ok.all() else int(np.argmin(ok))), c, None


def _autocorrelation(row: np.ndarray) -> np.ndarray:
    """The cyclic autocorrelation of a length-m int64 row, out[d] = sum of
    row[a]*row[b] over the a, b with a - b = d (mod m): the coefficients of
    alpha * conj(alpha) for the alpha whose coefficients are the row.  It
    runs over the row's support V alone, O(|V|^2) products in numpy, exact
    in int64 for a row of a Walsh value, whose products and sums are at
    most 4^n <= 2^52.  Each pair a > b adds its product at a - b, taken
    by np.add.at in blocks of _blocks, about _CHUNK pairs each: the rows a
    of a block against the b before it, then the pairs within it; a pair
    a < b lands at m - (b - a), the mirror of its swap, and a = b at 0."""
    support = np.flatnonzero(row)
    h = row[support]
    half = np.zeros(len(row), np.int64)     # the pairs a > b, at a - b
    # a row of W(y) = 0 has no support, and no block
    for block in _blocks(len(support), len(support) ** 2 or 1):
        a, ha, lo = support[block], h[block], block.start
        np.add.at(half, np.subtract.outer(a, support[:lo]),
                  np.multiply.outer(ha, h[:lo]))
        i, j = np.tril_indices(len(a), -1)
        np.add.at(half, a[i] - a[j], ha[i] * ha[j])
    out = np.empty_like(half)
    out[0] = h @ h
    np.add(half[1:], half[:0:-1], out=out[1:])
    return out


def first_flat_violation(f: FunctionTable):
    """None when every Walsh value satisfies |W(y)|^2 = 2^n exactly;
    otherwise (y, canonical coefficients of |W(y)|^2 in Z[zeta_m]) for the
    first failing y in index order.

    _first_nonflat finds a failing y at the content modulus m/l, l =
    gcd(m, values), where every W(y) is the same complex number, so y does
    not depend on l.  When a row before it passed one test alone (any row
    but a row 0 decided from the histogram), _low_rows_flat decides the
    rows below 2^k >= y exactly from the table folded onto them, and the
    least of them that fails, or else y, is reported: one full-size
    transform in all.
    Only the reported row is built at m, and so is refused for m at or above
    2^30: when row 0 was refuted from the histogram it is that histogram,
    otherwise one _histogram (signed when y > 0).  |W(y)|^2 is that row's
    _autocorrelation over its support, reduced by cyclotomic.reduce_phi."""
    y, c, hist = _first_nonflat(f)
    if y is None:
        return None
    # the rows before y passed, row 0 exactly when it came from the
    # histogram, the others one test alone; argmin over a trailing False
    # gives the first failing row, or y when none fails
    if y > (f.m <= f.array.size):
        low = _low_rows_flat(f.array[:, None], c, f.n, f.m // c,
                             (y - 1).bit_length())[:y, 0]
        y = int(np.argmin(np.append(low, False)))
    if f.m >= _Q_LIMIT:
        raise ValueError(f"not flat at y={y}; its report needs m = {f.m} "
                         f"coefficients, not below 2^30 = {_Q_LIMIT}")
    row = _histogram(f.array, f.m, y) if hist is None else hist
    square = _autocorrelation(row.astype(np.int64, copy=False))
    return y, reduce_phi(f.m, square)


def is_gbf(f: FunctionTable) -> bool:
    """Exact flatness test: true when |W(y)|^2 equals 2^n for every y.
    Decided by _first_nonflat at the content modulus, with no report built
    at m and no search for the least failing row, so one transform in all,
    int16 at content modulus 2 or 4."""
    return _first_nonflat(f)[0] is None


# -- constructions -----------------------------------------------------------


def _sum_table(pieces, dtype):
    """The (rows, cols) table of the sums of pieces, each a (rows, cols)
    array on the index bits above those of the pieces before it, as a new
    array of dtype.  The halves are summed on their own and joined in one
    array, so the result is never built beside a part a quarter its size:
    the high half is broadcast into it and the low half added in place,
    since numpy buffers each broadcast operand of an add."""
    if len(pieces) == 1:
        return pieces[0].astype(dtype)
    half = len(pieces) // 2
    high, low = (_sum_table(pieces[half:], dtype),
                 _sum_table(pieces[:half], dtype))
    out = np.empty((len(high), len(low), high.shape[1], low.shape[1]),
                   dtype=dtype)
    out[...] = high[:, None, :, None]
    out += low[None, :, None, :]
    return out.reshape(len(high) * len(low), -1)


def _pair_sum(t: GbfType, c: int, pair, top=None, split: bool = False):
    """The table on t of (m/c)*F, F the direct sum mod c, c = 2 or 4, of
    the 4-entry array pair on each pair of variables and, at odd n, the
    2-entry array top on the top variable x_n.  The pairs are adjacent
    bits (x_(2i-1), x_(2i)), or, when split, bit i of the low half with
    bit i of the high half (x_i, x_(n/2+i)).

    F is summed in its own index layout by _sum_table, O(2^n) in all,
    straight in the table's dtype (in uint8 and cast once when that holds
    Python integers, which numpy adds one by one), and scaled in place by
    m/c.  The Walsh transform of a direct sum is the product of the
    pieces' transforms, permuting the variables only permutes the
    spectrum, and zeta_m^(m/c) = zeta_c, so the table is flat when the
    pieces are; no FWHT runs over its 2^n rows."""
    m, n = t.m, t.n
    # the table is (rows, cols) = (high half, low half) of the index when
    # split, else (1, 2^n); each piece, shaped (rows, cols) alike, takes the
    # bits above those of the pieces before it on each side; a sum is at
    # most (n/2 + 1)*(c - 1) < 2^8 at n <= _MAX_N, so uint8 and up hold it
    pieces = [pair.reshape((2, 2) if split else (1, 4))] * (n // 2)
    if n % 2:
        pieces.append(top.reshape(2, 1))
    dtype = _value_dtype(m)
    acc = _sum_table(pieces, np.uint8 if dtype is object else dtype)
    acc &= c - 1                    # mod c, a power of two
    vals = acc.reshape(-1).astype(dtype, copy=False)
    if m > c:
        vals *= m // c
    return FunctionTable(t, vals)


def construct_boolean_bent(n: int) -> FunctionTable:
    """The quadratic form x1*x2 + x3*x4 + ... on an even number of
    variables, the classical flat-spectrum boolean function: the direct
    sum of x*y on each adjacent pair, built by _pair_sum as one table."""
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    return _pair_sum(GbfType(2, n), 2, np.array([0, 0, 0, 1], np.uint8))


def construct_even_even(m: int, n: int, g=None, sigma=None) -> FunctionTable:
    """For even m = 2l and even n = 2t, the table f(x, y) = g(y) + l*(x.sigma(y))
    over the split x = low t bits, y = high t bits.

    g may be any map Z_2^t -> Z_m (default all zeros) and sigma any
    permutation of Z_2^t (default identity), so the default witness is
    deterministic.  Row y is g(y) where x.sigma(y) is even and g(y) + l
    where it is odd: g(y) plus the parity times the step to g(y) + l, for
    the _blocks of rows in turn, straight into the one _value_dtype(m)
    table, so no parity matrix or widened copy of the whole size is built.
    """
    if m < 2 or m % 2:
        raise ValueError("m must be even and >= 2")
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    size = 1 << n // 2
    g = [0] * size if g is None else [operator.index(v) % m for v in g]
    sigma = list(map(operator.index, range(size) if sigma is None else sigma))
    if len(g) != size:
        raise ValueError(f"g must have {size} entries")
    if sorted(sigma) != list(range(size)):
        raise ValueError(f"sigma must be a permutation of 0..{size - 1}")
    # row y, column x; index dtype as narrow as the coordinates allow
    x = np.arange(size, dtype=np.min_scalar_type(size))
    sigma = np.array(sigma, dtype=x.dtype)[:, None]
    out = np.empty((size, size), _value_dtype(m))
    g = np.array([g, [(v + m // 2) % m for v in g]], out.dtype)[..., None]
    for rows in _blocks(size, out.size):
        odd = np.bitwise_count(sigma[rows] & x) & 1
        # an unsigned step wraps, and the sum wraps back to g + l mod m
        out[rows] = odd * (g[1, rows] - g[0, rows]) + g[0, rows]
    return FunctionTable(GbfType(m, n), out.reshape(-1))


def construct_mod4_from_bent(b: FunctionTable) -> FunctionTable:
    """Fold a flat boolean table on n+1 variables into a quaternary table on
    n variables by encoding the pair (b(x,0), b(x,1)) as a residue mod 4,
    where the split variable is the top index bit: (0,0), (0,1), (1,1) and
    (1,0) map to 0, 1, 2 and 3.  The result is flat."""
    if b.m != 2:
        raise ValueError("input table must be boolean")
    if b.n < 2:
        raise ValueError("input table must have at least 2 variables")
    if not is_gbf(b):
        raise ValueError("input table must have a flat spectrum")
    half = 1 << (b.n - 1)
    low, high = b.array[:half], b.array[half:]
    return FunctionTable(GbfType(4, b.n - 1), 2 * low + (low ^ high))


def direct_sum(f: FunctionTable, g: FunctionTable) -> FunctionTable:
    """F(x, x') = f(x) + g(x') on n + n' variables (x in the low bits);
    flat whenever both inputs are.  The table is one array in
    _value_dtype(m), with a row for each x': each block of its rows,
    cut into blocks of f's values when one row is longer than a block, is
    summed by _sum_table in _value_dtype(2m), reduced mod m in place,
    copied into its place and dropped before the next."""
    if f.m != g.m:
        raise ValueError(f"modulus mismatch: {f.m} vs {g.m}")
    m = f.m
    out = np.empty((len(g.array), len(f.array)), _value_dtype(m))
    for rows in _blocks(len(out), out.size):
        for cols in _blocks(out.shape[1], out[rows].size):
            part = _sum_table([f.array[cols][None], g.array[rows][None]],
                              _value_dtype(2 * m))
            part %= m
            out[rows, cols] = part.reshape(out[rows, cols].shape)
            del part
    return FunctionTable(GbfType(m, f.n + g.n), out.reshape(-1))


def lift_modulus(f: FunctionTable, l: int) -> FunctionTable:
    """Rescale values by l into Z_(l*m); the spectrum is unchanged under
    zeta_(l*m)^l = zeta_m, so flatness is preserved.  The values are
    copied once into the new table's dtype and scaled in place."""
    if l < 1:
        raise ValueError("l must be >= 1")
    if l == 1:
        return f
    vals = f.array.astype(_value_dtype(l * f.m))
    vals *= l
    return FunctionTable(GbfType(l * f.m, f.n), vals)
