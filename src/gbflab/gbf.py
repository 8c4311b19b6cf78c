"""Function tables on Z_2^n with values in Z_m, exact Walsh spectra, the
flat-spectrum (generalized bent) test, and the product and lift
constructions.

Index convention, fixed across the whole package and the witness file
format: table index i encodes the point x = (x_1, ..., x_n) with x_j equal
to bit j-1 of i, so x_1 is the least significant bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .cyclotomic import CycInt, reduction_rows
from .numtheory import factorize

_MAX_N = 26              # walsh matrices have 2^n rows; guard memory
_CHUNK_BYTES = 1 << 20   # int64 bytes gathered per numpy batch of spectrum rows
_INT64_SAFE = 2**62


@dataclass(frozen=True)
class GbfType:
    """The pair {m, n}: values in Z_m, arguments in Z_2^n."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    def __str__(self):
        return f"{{{self.m},{self.n}}}"


@dataclass(frozen=True)
class FunctionTable:
    """A map Z_2^n -> Z_m stored as a tuple of 2^n residues."""

    gbf_type: GbfType
    values: tuple[int, ...]

    def __post_init__(self):
        m, n = self.gbf_type.m, self.gbf_type.n
        if len(self.values) != 1 << n:
            raise ValueError(f"need {1 << n} values, got {len(self.values)}")
        if min(self.values) < 0 or max(self.values) >= m:
            raise ValueError(f"values must lie in 0..{m - 1}")

    @property
    def m(self) -> int:
        return self.gbf_type.m

    @property
    def n(self) -> int:
        return self.gbf_type.n


def table(m: int, n: int, values) -> FunctionTable:
    """Build a FunctionTable, reducing the given values mod m."""
    return FunctionTable(GbfType(m, n), tuple(int(v) % m for v in values))


@dataclass(frozen=True)
class WalshSpectrum:
    """The full family of Walsh values W(y), one ring element per y in
    Z_2^n, under the shared bit convention."""

    gbf_type: GbfType
    values: tuple[CycInt, ...]


def _fwht_inplace(mat: np.ndarray) -> None:
    """Unnormalized Walsh-Hadamard butterfly along axis 0 of a (2^k, ...)
    array: out[y] = sum_x (-1)^(x.y) in[x]."""
    rows = mat.shape[0]
    h = 1
    while h < rows:
        view = mat.reshape(rows // (2 * h), 2, h, *mat.shape[1:])
        top = view[:, 0].copy()
        view[:, 0] = top + view[:, 1]
        view[:, 1] = top - view[:, 1]
        h *= 2


def walsh_matrix(f: FunctionTable) -> np.ndarray:
    """The spectrum as an exact int64 matrix: row y holds the coefficient
    vector of W(y) = sum_x (-1)^(x.y) zeta^f(x) over powers of zeta_m.
    Entries are bounded by 2^n, so int64 never wraps within the n guard."""
    m, n = f.m, f.n
    if n > _MAX_N:
        raise ValueError(f"n = {n} beyond the supported resource guard")
    rows = 1 << n
    mat = np.zeros((rows, m), dtype=np.int64)
    mat[np.arange(rows), np.fromiter(f.values, dtype=np.int64)] = 1
    _fwht_inplace(mat)
    return mat


def walsh(f: FunctionTable) -> WalshSpectrum:
    """Exact Walsh spectrum; W(0) is the plain character sum over the table."""
    mat = walsh_matrix(f)
    m = f.m
    return WalshSpectrum(f.gbf_type,
                         tuple(CycInt(m, row) for row in mat.tolist()))


@lru_cache(maxsize=None)
def _folded_reduction(m: int):
    """Precomputed data for testing |W|^2 == target on coefficient rows.

    Returns (Rf, IDX, phi, rmax): Rf maps the folded autocorrelation lags
    0..m//2 to canonical coordinates (lags k and m-k share a row since the
    autocorrelation of a real-coefficient vector is symmetric), IDX[k, i] =
    (i + k) % m gathers the shifted copies, and rmax bounds the reduction
    coefficients for overflow accounting.  numpy raises OverflowError when
    a coefficient does not fit int64.
    """
    rows = reduction_rows(m)
    phi = len(rows[0])
    half = m // 2 + 1
    folded = []
    for k in range(half):
        if k == 0 or 2 * k == m:
            folded.append(list(rows[k]))
        else:
            folded.append([a + b for a, b in zip(rows[k], rows[m - k])])
    rmax = max(max(abs(c) for c in row) for row in folded)
    Rf = np.array(folded, dtype=np.int64)
    IDX = (np.arange(half)[:, None] + np.arange(m)[None, :]) % m
    return Rf, IDX, phi, rmax


def _divide_content(f: FunctionTable):
    """(l, f/l): l = gcd(m, values), and f/l the table of the quotients v/l
    over Z_(m/l).  Both have the same Walsh values as complex numbers, since
    zeta_m^(l*v) = zeta_(m/l)^v.  An all-zero table is taken over Z_p for
    the least prime p dividing m, never over Z_1."""
    m = f.m
    l = gcd(m, *f.values)
    if l == m:
        l = m // factorize(m)[0][0]
    if l == 1:
        return 1, f
    return l, FunctionTable(GbfType(m // l, f.n),
                            tuple(v // l for v in f.values))


def _int64_reduction(m: int, wmax: int):
    """(Rf, IDX, phi) of _folded_reduction(m) when |W|^2 of coefficient rows
    at modulus m with entries bounded by wmax in absolute value is proven
    exact in int64 arithmetic, else None."""
    try:
        Rf, IDX, phi, rmax = _folded_reduction(m)
    except OverflowError:
        return None
    # |C_k| <= m*wmax^2, |Z| <= m*|C|*rmax; stay well inside int64
    if m * m * wmax * wmax * rmax >= _INT64_SAFE:
        return None
    return Rf, IDX, phi


def _flat_chunks(spec: np.ndarray, target: int, red):
    """Exact test of |W|^2 = target on a (tables, rows, m) int64 array of
    walsh_matrix rows, inside the envelope red of _int64_reduction.  Yields
    (start, ok) per chunk of tables, ok[i] true when every row of table
    start + i is flat; each chunk gathers about _CHUNK_BYTES."""
    Rf, IDX, _ = red
    tables, rows, m = spec.shape
    # the gather holds rows * IDX.size int64 entries per table
    step = max(1, _CHUNK_BYTES // (8 * rows * IDX.size))
    for start in range(0, tables, step):
        chunk = spec[start:start + step].reshape(-1, m)    # one row per line
        gathered = chunk[:, IDX]                           # (lines, half, m)
        sq = np.einsum('yki,yi->yk', gathered, chunk) @ Rf
        sq[:, 0] -= target
        yield start, ~sq.reshape(-1, rows * sq.shape[1]).any(axis=1)


def _first_nonflat_row(mat: np.ndarray, m: int, target: int):
    """The first y whose row of a walsh_matrix at modulus m does not have
    |W(y)|^2 = target, or None.  int64 batches inside a proven envelope,
    exact Python integers row by row outside it."""
    red = _int64_reduction(m, int(np.abs(mat).max(initial=0)))
    if red is not None:
        for start, ok in _flat_chunks(mat[:, None], target, red):
            if not ok.all():
                return start + int(np.argmin(ok))
        return None
    for y in range(mat.shape[0]):
        acc = CycInt(m, mat[y].tolist()).abs_square().coeffs
        if acc[0] != target or any(acc[1:]):
            return y
    return None


def first_flat_violation(f: FunctionTable):
    """None when every Walsh value satisfies |W(y)|^2 = 2^n exactly;
    otherwise (y, canonical coefficients of |W(y)|^2 in Z[zeta_m]) for the
    first failing y in index order.

    The spectrum is computed at the content modulus m/l, l = gcd(m, values),
    where every W(y) is the same complex number, so the verdict and the
    failing y do not depend on l; only a reported row is taken back to m.
    """
    l, g = _divide_content(f)
    mat = walsh_matrix(g)
    y = _first_nonflat_row(mat, g.m, 1 << f.n)
    if y is None:
        return None
    row = [0] * f.m
    row[::l] = mat[y].tolist()
    phi = len(reduction_rows(f.m)[0])
    return y, CycInt(f.m, row).abs_square().coeffs[:phi]


def is_gbf(f: FunctionTable) -> bool:
    """Exact flatness test: true when |W(y)|^2 equals 2^n for every y.
    Decided at the content modulus, with no report built at m."""
    _, g = _divide_content(f)
    return _first_nonflat_row(walsh_matrix(g), g.m, 1 << f.n) is None


# -- constructions -----------------------------------------------------------


def _value_dtype(bound: int):
    """int64 for table arithmetic whose values stay below bound, else
    Python integers (object arrays) so that no value wraps."""
    return np.int64 if bound <= _INT64_SAFE else object


def construct_boolean_bent(n: int) -> FunctionTable:
    """The quadratic form x1*x2 + x3*x4 + ... on an even number of
    variables, the classical flat-spectrum boolean function."""
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    i = np.arange(1 << n)
    # bit 2k of i & (i >> 1) is x_(2k+1)*x_(2k+2); the mask keeps even bits
    pairs = i & (i >> 1) & (((1 << n) - 1) // 3)
    vals = np.bitwise_count(pairs) & 1
    return FunctionTable(GbfType(2, n), tuple(vals.tolist()))


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
    i = np.arange(1 << n)
    x, y = i & (size - 1), i >> t
    dot = np.bitwise_count(x & np.array(sigma)[y]) & 1
    dtype = _value_dtype(2 * m)
    vals = (np.array(g, dtype=dtype)[y] + half * dot.astype(dtype)) % m
    return FunctionTable(GbfType(m, n), tuple(vals.tolist()))


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
    bits = np.array(b.values)
    low, high = bits[:half], bits[half:]
    vals = 2 * low + (low ^ high)
    return FunctionTable(GbfType(4, b.n - 1), tuple(vals.tolist()))


def direct_sum(f: FunctionTable, g: FunctionTable) -> FunctionTable:
    """F(x, x') = f(x) + g(x') on n + n' variables (x in the low bits);
    flat whenever both inputs are."""
    if f.m != g.m:
        raise ValueError(f"modulus mismatch: {f.m} vs {g.m}")
    m = f.m
    dtype = _value_dtype(2 * m)
    low = np.array(f.values, dtype=dtype)
    high = np.array(g.values, dtype=dtype)
    vals = (high[:, None] + low[None, :]) % m        # row x', column x
    return FunctionTable(GbfType(m, f.n + g.n), tuple(vals.ravel().tolist()))


def lift_modulus(f: FunctionTable, l: int) -> FunctionTable:
    """Rescale values by l into Z_(l*m); the spectrum is unchanged under
    zeta_(l*m)^l = zeta_m, so flatness is preserved."""
    if l < 1:
        raise ValueError("l must be >= 1")
    if l == 1:
        return f
    vals = np.array(f.values, dtype=_value_dtype(l * f.m)) * l
    return FunctionTable(GbfType(l * f.m, f.n), tuple(vals.tolist()))
