"""Function tables on Z_2^n with values in Z_m, exact Walsh spectra, the
flat-spectrum (generalized bent) test, and the product and lift
constructions.

Index convention, fixed across the whole package and the witness file
format: table index i encodes the point x = (x_1, ..., x_n) with x_j equal
to bit j-1 of i, so x_1 is the least significant bit.

The value types are frozen dataclasses.  A table holds its 2^n residues as
one read-only numpy array: int64, or Python integers (an object array) when
m > 2^62; a copied or unpickled table is checked and frozen again.  Every
layer works on that array; the tuple ``values`` is built only when asked for.

One batched kernel decides flatness: _spectra yields the spectra of a
(2^n, batch) array of tables, one per exact test, and _flat where they are
flat.  At modulus 2 or 4, Z[zeta] is Z or Z[i]: one int32 FWHT of the
signed unit coordinates of zeta^f(x) gives every W(y) exactly, with no
prime.  Every other modulus is tested at the m-th roots of unity of F_q for
the split primes q of _split_primes.  is_gbf and first_flat_violation test
one table at its content modulus m/l, l = gcd(m, values), which is 2 or 4
for every witness of rules E1, E2 and E3; the oracle, blocks of tables at m.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, prod

import numpy as np

from .cyclotomic import CycInt, phi_degree
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
    """int64 for table arithmetic whose values stay below bound, else
    Python integers (object arrays) so that no value wraps."""
    return np.int64 if bound <= _INT64_SAFE else object


@dataclass(frozen=True, init=False, eq=False, repr=False)
class FunctionTable:
    """A map Z_2^n -> Z_m stored as a read-only array of 2^n residues.

    ``array`` is int64, or an object array of Python integers when
    m > 2^62.  A numpy array passed in is frozen and shared, not copied.
    ``values`` is the same table as a tuple of Python integers, built on
    first use; equality, hashing and repr are those of a frozen dataclass
    with fields ``gbf_type`` and ``values``.  A copy or an unpickled table
    is built again through the constructor, so it is checked and read-only."""

    gbf_type: GbfType
    array: np.ndarray

    def __init__(self, gbf_type: GbfType, values):
        m, n = gbf_type.m, gbf_type.n
        try:
            arr = np.asarray(values, dtype=_value_dtype(m))
        except OverflowError:
            raise ValueError(f"values must lie in 0..{m - 1}") from None
        if arr.shape != (1 << n,):
            raise ValueError(f"need {1 << n} values, got {len(arr)}")
        # as uint64 a negative int64 exceeds 2^63 > m: one pass checks both
        if (arr.view(np.uint64).max() >= m if arr.dtype == np.int64
                else arr.min() < 0 or arr.max() >= m):
            raise ValueError(f"values must lie in 0..{m - 1}")
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
    return FunctionTable(GbfType(m, n), [int(v) % m for v in values])


@dataclass(frozen=True)
class WalshSpectrum:
    """The full family of Walsh values W(y), one ring element per y in
    Z_2^n, under the shared bit convention."""

    gbf_type: GbfType
    values: tuple[CycInt, ...]


def _fwht_inplace(mat: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard butterfly along axis 0 of a C-contiguous
    (2^k, ...) array, in place: out[y] = sum_x (-1)^(x.y) in[x].  Returns mat.

    Each stage pairs the halves a, b of blocks of rows and makes them
    (a + b, a - b) through a += b; b *= -2; b += a.  On the flat array the
    halves are runs of `inner` entries.  In an array of 2^11 entries or
    more, while a run is shorter than 8, the stage goes as `inner` strided
    1-D pairs, which numpy loops over faster than over many short runs;
    in a smaller one the extra calls cost more than they save."""
    flat = mat.reshape(-1, copy=False)
    inner = flat.size // mat.shape[0]
    while inner < flat.size:
        if inner < 8 and flat.size >= 1 << 11:
            halves = [(flat[j::2 * inner], flat[j + inner::2 * inner])
                      for j in range(inner)]
        else:
            view = flat.reshape(-1, 2, inner)
            halves = [(view[:, 0], view[:, 1])]
        for a, b in halves:
            a += b
            b *= -2
            b += a          # (a + b) - 2b = a - b
        inner *= 2
    return mat


def walsh_matrix(f: FunctionTable) -> np.ndarray:
    """The spectrum as an exact int64 matrix: row y holds the coefficient
    vector of W(y) = sum_x (-1)^(x.y) zeta^f(x) over powers of zeta_m.
    Entries are bounded by 2^n, so int64 never wraps within the n guard."""
    m, n = f.m, f.n
    if n > _MAX_N:
        raise ValueError(f"n = {n} beyond the supported resource guard")
    rows = 1 << n
    mat = np.zeros((rows, m), dtype=np.int64)
    mat[np.arange(rows), f.array] = 1
    return _fwht_inplace(mat)


def walsh(f: FunctionTable) -> WalshSpectrum:
    """Exact Walsh spectrum; W(0) is the plain character sum over the table."""
    rows = walsh_matrix(f).tolist()
    return WalshSpectrum(f.gbf_type, tuple(CycInt(f.m, row) for row in rows))


def _divide_content(f: FunctionTable) -> FunctionTable:
    """f/l, the table of the quotients v/l over Z_(m/l) for l = gcd(m,
    values).  Both have the same Walsh values as complex numbers, since
    zeta_m^(l*v) = zeta_(m/l)^v.  An all-zero table, whose W(y) are the same
    integers at every modulus, is taken over Z_2, never over Z_1."""
    l = gcd(f.m, int(np.gcd.reduce(f.array)))
    if l == 1:
        return f
    return FunctionTable(GbfType(max(f.m // l, 2), f.n), f.array // l)


def _split_primes(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """((q, omega), ...): primes q = 1 (mod m) below 2^30, largest first,
    until their product Q exceeds 4^n, each with an omega of order m mod q
    (one prime for n <= 14, two up to n = _MAX_N).  Refuses, before any
    allocation of size m, m >= 2^30 and an m with too few such primes.

    They decide |W(y)|^2 = 2^n exactly.  q splits completely in Z[zeta_m]:
    zeta -> omega^k over the units k of Z_m maps Z[zeta_m]/(q) onto
    F_q^phi(m), taking W(y) to W_k(y) = sum_x (-1)^(x.y) omega^(k f(x)) and
    its conjugate to W_(m-k)(y).  So q divides alpha = |W(y)|^2 - 2^n when
    W_k W_(m-k) = 2^n mod q at every unit k, and Q does when every q does.
    Each conjugate of alpha is |W'|^2 - 2^n with W' the Walsh value of some
    k f, so |W'| <= 2^n and the conjugate lies below 4^n in absolute value.
    A nonzero alpha would have Q^phi(m) <= |N(alpha)| < 4^(n phi(m)),
    against Q > 4^n: so alpha = 0.
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
    if prod(found) <= 4 ** n:
        raise ValueError(f"the primes q = 1 (mod {m}) below 2^30 have "
                         f"product {prod(found)}, not above 4^{n}: too few "
                         f"for the exact flatness check")
    out = []
    for q in found:
        # g^((q-1)/m) has order m when no g^((q-1)/p), p | m, is 1
        g = 2
        while any(pow(g, (q - 1) // p, q) == 1 for p, _ in factorize(m)):
            g += 1
        out.append((q, pow(g, (q - 1) // m, q)))
    return tuple(out)


@lru_cache(maxsize=None)
def _root_powers(m: int, n: int):
    """(cols, ((q, pw), ...)): cols holds the units k <= m/2 of Z_m, then
    their mirrors m - k (none for m = 2); pw[j] = omega^j mod q for j < m,
    for each (q, omega) of _split_primes(m, n).  The cached arrays are
    read-only."""
    roots = []
    for q, omega in _split_primes(m, n):
        pw = np.empty(m, dtype=np.int64)
        pw[0] = 1
        k = 1
        while k < m:                # pw[k:2k] = omega^k pw[:k], in place
            step = min(k, m - k)
            out = pw[k:k + step]
            np.multiply(pw[:step], pow(omega, k, q), out=out)
            out %= q
            k += step
        pw.setflags(write=False)
        roots.append((q, pw))
    units = np.flatnonzero(np.gcd(np.arange(m // 2 + 1), m) == 1)
    cols = np.concatenate([units, (m - units)[2 * units < m]])
    cols.setflags(write=False)
    return cols, tuple(roots)


# the signed coordinates of zeta^v, v in Z_m, in Z (m = 2) and Z[i] (m = 4)
_UNIT_COORDS = {2: np.array([[1], [-1]], dtype=np.int32),
                4: np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=np.int32)}


def _spectra(tables: np.ndarray, m: int, n: int):
    """(test, spec) for each exact test of a (2^n, batch) array of
    modulus-m tables, one per column; spec is (unit column, y, table), and
    linear in the terms zeta^f(x).  At m = 2 or 4 the one test is None, and
    the unit columns are the coordinates of W(y) in Z or Z[i]: partial sums
    are at most 2^n <= 2^26, so the FWHT runs in int32.  Otherwise test is
    each prime q of _split_primes(m, n), and column k holds W_k(y) mod q
    for each k of the cols of _root_powers: residues below 2^30 summed over
    2^26 rows stay below 2^56.  tables is dropped once gathered."""
    if n > _MAX_N:
        raise ValueError(f"n = {n} beyond the supported resource guard")
    if m in _UNIT_COORDS:
        spec = _UNIT_COORDS[m][tables]
        del tables
        yield None, _fwht_inplace(spec).transpose(2, 0, 1)
        return
    cols, roots = _root_powers(m, n)
    exps = np.multiply.outer(tables, cols) % m
    del tables
    for q, pw in roots:
        yield q, _fwht_inplace(pw[exps]).transpose(2, 0, 1)


def _flat(test, spec: np.ndarray, n: int) -> np.ndarray:
    """The (2^n, batch) mask of |W(y)|^2 = 2^n for a (test, spec) of
    _spectra: re^2 + im^2 in int64, or W_k W_(m-k) = 2^n (mod q) at each
    unit k <= m/2, overwriting spec.  x mod q is x - x // q * q, several
    times faster in numpy; products of residues stay below q^2 < 2^60."""
    if test is None:
        norm = np.square(spec[0], dtype=np.int64)
        if len(spec) == 2:
            norm += np.square(spec[1], dtype=np.int64)
        return norm == 1 << n
    spec -= spec // test * test
    low = spec[:(len(spec) + 1) // 2]
    low *= spec[-len(low):]
    low -= low // test * test
    return (low == (1 << n) % test).all(axis=0)


def _nonflat_rows(g: FunctionTable):
    """The first y whose |W(y)|^2 differs from 2^n, or None, once per test
    of _spectra on g as a batch of one.  Callers pass g alone: it is dropped
    here, so a table divided by its content is not held through the FWHT."""
    n = g.n
    spectra = _spectra(g.array[:, None], g.m, n)
    del g
    for test, spec in spectra:
        ok = _flat(test, spec, n)[:, 0]
        del spec
        yield None if ok.all() else int(np.argmin(ok))
        if not ok[0]:
            return              # no later prime can report an earlier row


def first_flat_violation(f: FunctionTable):
    """None when every Walsh value satisfies |W(y)|^2 = 2^n exactly;
    otherwise (y, canonical coefficients of |W(y)|^2 in Z[zeta_m]) for the
    first failing y in index order.

    The spectrum is tested at the content modulus m/l, l = gcd(m, values),
    where every W(y) is the same complex number, so the verdict and the
    failing y, the least over the tests, do not depend on l.  Only the
    reported row is built at m, as one signed bincount, and so is refused
    for m at or above 2^30."""
    tests = _nonflat_rows(_divide_content(f))
    y = min((y for y in tests if y is not None), default=None)
    if y is None:
        return None
    if f.m >= _Q_LIMIT:
        raise ValueError(f"not flat at y={y}; its report needs m = {f.m} "
                         f"coefficients, not below 2^30 = {_Q_LIMIT}")
    signs = np.where(np.bitwise_count(np.arange(1 << f.n) & y) & 1, -1., 1.)
    row = np.bincount(f.array.astype(np.int64, copy=False), weights=signs,
                      minlength=f.m).astype(np.int64)
    return y, CycInt(f.m, row.tolist()).abs_square().coeffs[:phi_degree(f.m)]


def is_gbf(f: FunctionTable) -> bool:
    """Exact flatness test: true when |W(y)|^2 equals 2^n for every y.
    Decided at the content modulus, with no report built at m; the first
    test that fails a row settles it."""
    return all(y is None for y in _nonflat_rows(_divide_content(f)))


# -- constructions -----------------------------------------------------------


def construct_boolean_bent(n: int) -> FunctionTable:
    """The quadratic form x1*x2 + x3*x4 + ... on an even number of
    variables, the classical flat-spectrum boolean function."""
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    i = np.arange(1 << n)
    # bit 2k of i & (i >> 1) is x_(2k+1)*x_(2k+2); the mask keeps even bits
    pairs = i & (i >> 1) & (((1 << n) - 1) // 3)
    vals = np.bitwise_count(pairs) & 1
    return FunctionTable(GbfType(2, n), vals.astype(np.int64))


def construct_even_even(m: int, n: int, g=None, sigma=None,
                        seed=None) -> FunctionTable:
    """For even m = 2l and even n = 2t, the table f(x, y) = g(y) + l*(x.sigma(y))
    over the split x = low t bits, y = high t bits.

    g may be any map Z_2^t -> Z_m (default all zeros) and sigma any
    permutation of Z_2^t (default identity), so the default witness is
    deterministic; pass a seed to draw both at random for property tests.
    """
    if m < 2 or m % 2:
        raise ValueError("m must be even and >= 2")
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    t = n // 2
    half = m // 2
    size = 1 << t
    if seed is not None:
        rng = random.Random(seed)
        if g is None:
            g = [rng.randrange(m) for _ in range(size)]
        if sigma is None:
            sigma = list(range(size))
            rng.shuffle(sigma)
    g = [0] * size if g is None else [int(v) % m for v in g]
    sigma = list(range(size)) if sigma is None else [int(v) for v in sigma]
    if len(g) != size:
        raise ValueError(f"g must have {size} entries")
    if sorted(sigma) != list(range(size)):
        raise ValueError(f"sigma must be a permutation of 0..{size - 1}")
    # row y, column x; index dtype as narrow as the coordinates allow
    x = np.arange(size, dtype=np.min_scalar_type(size))
    dot = np.bitwise_count(np.array(sigma, dtype=x.dtype)[:, None] & x) & 1
    dtype = _value_dtype(2 * m)
    vals = dot.astype(dtype)
    vals *= half
    vals += np.array(g, dtype=dtype)[:, None]
    vals %= m
    return FunctionTable(GbfType(m, n), vals.reshape(-1))


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
    return _fold_mod4(b)


def _fold_mod4(b: FunctionTable) -> FunctionTable:
    """The folding of construct_mod4_from_bent without its checks, for a
    caller that verifies the result itself."""
    half = 1 << (b.n - 1)
    low, high = b.array[:half], b.array[half:]
    return FunctionTable(GbfType(4, b.n - 1), 2 * low + (low ^ high))


def direct_sum(f: FunctionTable, g: FunctionTable) -> FunctionTable:
    """F(x, x') = f(x) + g(x') on n + n' variables (x in the low bits);
    flat whenever both inputs are."""
    if f.m != g.m:
        raise ValueError(f"modulus mismatch: {f.m} vs {g.m}")
    m = f.m
    dtype = _value_dtype(2 * m)
    low = f.array.astype(dtype, copy=False)
    high = g.array.astype(dtype, copy=False)
    vals = (high[:, None] + low[None, :]) % m        # row x', column x
    return FunctionTable(GbfType(m, f.n + g.n), vals.reshape(-1))


def lift_modulus(f: FunctionTable, l: int) -> FunctionTable:
    """Rescale values by l into Z_(l*m); the spectrum is unchanged under
    zeta_(l*m)^l = zeta_m, so flatness is preserved."""
    if l < 1:
        raise ValueError("l must be >= 1")
    if l == 1:
        return f
    vals = f.array.astype(_value_dtype(l * f.m), copy=False) * l
    return FunctionTable(GbfType(l * f.m, f.n), vals)
