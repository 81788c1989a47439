"""Dense matrix norms, an exact spectral norm (one LAPACK eigenvalue call on a
Gram matrix), a one-sided Jacobi SVD oracle free of LAPACK and BLAS, and the MAT1
binary matrix format.  The oracle rotates every column pair of a Brent-Luk round
(Brent & Luk 1985) at once, unmasked, as complex x_i + i x_j times a unit phase;
one all-pairs orthogonality test is its only exit.

All analysis arithmetic is 64-bit, pure and safe for concurrent use.  Each public
norm is a wrapper that validates through :func:`as_matrix` over a private kernel
trusting a finite 2-D float64 array.  Every norm, and the oracle, first scales
by an exact power of two, so it stays homogeneous at any finite float64 scale.
"""

import math

import numpy as np

from .errors import (_BLOCK, DimensionError, NumericDegeneracyError, ParameterError, ParseError,
                     _all_finite, _check_at_least)
from .serialize import _MAT1, _read_container, _write_container

_JACOBI_MAX_SWEEPS = 64
_JACOBI_TOL = 1e-15

MAT1_MAGIC = _MAT1.magic


def as_matrix(a):
    """Validate and return ``a`` as a C-contiguous float64 2-D array.

    Rejects empty matrices (dimension error) and non-finite entries
    (parameter error).
    """
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise DimensionError(f"empty matrix of shape {m.shape}")
    if not _all_finite(m):
        raise ParameterError("matrix entries must be finite (no NaN/Inf)")
    return m


def spectral_norm(a):
    """Largest singular value of ``a``, exact to roundoff.

    ``a`` is scaled by the power of two that brings its largest |entry| into
    [1, 2), so the Gram matrix of its smaller side can neither overflow nor
    lose sigma_max^2 to underflow.  One LAPACK ``eigvalsh`` call gives that
    Gram matrix's top eigenvalue; its square root is scaled back exactly.
    """
    return _spectral_norm(as_matrix(a))


def _spectral_norm(a):
    """:func:`spectral_norm` of a trusted finite 2-D float64 array."""
    e = _scale_exponent(a)
    if e is None:
        return 0.0
    if e:
        a = np.ldexp(a, -e)
    g = a.T @ a if a.shape[1] <= a.shape[0] else a @ a.T
    try:
        lam = float(np.linalg.eigvalsh(g)[-1])
    except np.linalg.LinAlgError as exc:
        raise NumericDegeneracyError(f"eigvalsh failed on the Gram matrix: {exc}") from None
    return _unscale(math.sqrt(max(lam, 0.0)), e)


def _scale_exponent(a):
    """Exponent e with ``max|a| * 2**-e`` in [1, 2), or None when ``a`` is all zero."""
    top = max(float(a.max()), -float(a.min()))
    if top == 0.0:
        return None
    return math.frexp(top)[1] - 1


def _unscale(x, e):
    try:
        return math.ldexp(x, e)
    except OverflowError:
        raise NumericDegeneracyError("norm exceeds the float64 range") from None


def jacobi_singular_values(a):
    """All singular values of ``a``, descending, by one-sided Jacobi rotations.

    The test suite's high-accuracy oracle, free of LAPACK, BLAS and
    :func:`spectral_norm`.  The prescaled columns (of ``a.T`` when ``a`` is wide),
    with a zero column for an even count, move between slots as in Brent and
    Luk's systolic array, so each :func:`_round_robin` round has its pairs side by
    side.  As z = x_i + i x_j, a pair's sum of z**2 is d + 2i p_ij (d = p_ii - p_jj),
    and z * exp(-i theta) rotates it by the small angle theta = atan2(sgn(d) 2 p_ij,
    |d|) / 2 (Rutishauser; Demmel & Veselic), 0 when p_ij = 0; no pair is masked.
    :func:`_no_pair_active`, before each sweep and after the last, is the only exit.
    """
    a = as_matrix(a)
    e = _scale_exponent(a) or 0  # None for a zero matrix
    m = min(a.shape)
    n = m + (m & 1)
    slots = _round_robin(n).transpose(0, 2, 1).reshape(-1, n)  # column in each slot, per round
    moves = np.take_along_axis(np.argsort(slots, axis=1), np.roll(slots, -1, axis=0), axis=1)
    y = np.ldexp(np.pad(a if a.shape[1] == m else a.T, [(0, 0), (0, n - m)]), -e, order="C")
    x = y.take(slots[0], axis=1)
    zx, zy, zz = x.view(np.complex128), y.view(np.complex128), np.empty_like(x).view(np.complex128)
    for sweep in range(_JACOBI_MAX_SWEEPS + 1):
        if _no_pair_active(x.T):
            break
        if sweep == _JACOBI_MAX_SWEEPS:
            raise NumericDegeneracyError("Jacobi sweeps did not converge")
        for move in moves:
            g = np.add.reduce(np.multiply(zx, zx, out=zz), axis=0)  # d + 2i p_ij per pair
            g *= np.copysign(1.0, g.real)
            zx *= np.exp(np.arctan2(g.imag, g.real) * -0.5j)  # (c x_i + s x_j, c x_j - s x_i)
            x.take(move, axis=1, out=y, mode="clip")  # into the next round's slots
            x, y, zx, zy = y, x, zy, zx
    sv = np.sort(np.sqrt(np.einsum("ij,ij->j", x, x)))[::-1][:m]  # less the zero column
    _unscale(float(sv[0]), e)  # raises when sigma_1 exceeds the float64 range
    return np.ldexp(sv, e)


def _no_pair_active(wt):
    """Whether no rows i != j of ``wt`` have |p_ij| > _JACOBI_TOL sqrt(p_ii p_jj) > 0, by einsum."""
    g = np.einsum("ik,jk->ij", wt, wt)
    norms = g.diagonal()
    threshold = _JACOBI_TOL * np.sqrt(norms[:, None] * norms)
    return not np.count_nonzero(np.triu((np.abs(g) > threshold) & (threshold > 0.0), 1))


def _round_robin(n):
    """Brent-Luk round-robin schedule for an even n columns, shape (rounds, 2,
    pairs): round r pairs column r with n - 1 and r + k with r - k (mod n - 1).
    Each pair lists its lower index first, a canonical order only.
    """
    r, k = np.arange(n - 1)[:, None], np.arange(n // 2)
    p, q = (r + k) % (n - 1), np.where(k == 0, n - 1, (r - k) % (n - 1))
    return np.stack([np.minimum(p, q), np.maximum(p, q)], axis=1)


def group_norm(a, p, q):
    """(p, q) group norm: the q-norm of the vector of column p-norms.

    ``p`` and ``q`` must be >= 1; ``math.inf`` is accepted for either and is
    handled by an exact max branch, never approximated by a large exponent.
    """
    a = as_matrix(a)
    _check_at_least(p, 1.0, "norm exponent p")
    _check_at_least(q, 1.0, "norm exponent q")
    return _group_norm(a, p, q)


def frobenius_norm(a):
    """Entrywise l2 norm; identical to group_norm(a, 2, 2)."""
    return _group_norm(as_matrix(a), 2.0, 2.0)


def norm_2_1_of_transpose(a):
    """(2,1) group norm of the transpose, i.e. the sum of row 2-norms of ``a``."""
    return _group_norm(as_matrix(a).T, 2.0, 1.0)


def _group_norm(a, p, q):
    """:func:`group_norm` of a trusted finite 2-D float64 array, or a view of one."""
    e = _scale_exponent(a)
    if e is None:
        return 0.0
    return _unscale(_vector_pnorm(_colwise_pnorm(a, p, e), q), e)


def _colwise_pnorm(a, p, e=0):
    """Column p-norms of 2**-e * |a| (trusted), by one :class:`_ColumnSums`."""
    sums = _ColumnSums(*a.shape, p, e)
    sums.add(a)
    return sums.norms()


class _ColumnSums:
    """Column p-norms of 2**-e * |a| for the rows of an n x d ``a`` added in
    order, in blocks of any length.  Each row passes through a C-ordered buffer
    of at most _BLOCK // d rows whose row 0 carries the running aggregate, and
    which is reduced into it when full; numpy reduces its axis 0 row by row,
    bitwise as one whole-array pass.  A single column, which numpy sums
    pairwise, fills one buffer of all n rows.

    With ``e=None`` (p = 2 only) ``e`` runs: it is that of the largest |entry| so
    far (-1075, below any, while all are 0), and a block that raises it first
    rescales the squares taken in by the exact power of two.  Only squares below
    2**-1022, against at least 1 for the largest, can round otherwise, lost in the sum."""

    def __init__(self, n, d, p, e=0):
        rows = n if d == 1 else _BLOCK // d or 1
        self.buf = np.zeros((min(n, rows) + 1, d))
        self.running, self.fill, self.carry = e is None, 0, False
        self.p, self.e = p, -1075 if e is None else e

    def add(self, a):
        """Take in the next rows, ``a``."""
        while len(a):
            take = min(len(a), len(self.buf) - 1 - self.fill)
            b = np.abs(a[:take], out=self.buf[1 + self.fill : 1 + self.fill + take])
            top = float(b.max()) if self.running else 0.0
            if top and (e := math.frexp(top)[1] - 1) > self.e:  # rescale the squares taken in
                taken = self.buf[: 1 + self.fill]
                np.ldexp(taken, 2 * (self.e - e), out=taken)
                self.e = e
            if self.e:
                np.ldexp(b, -self.e, out=b)
            if self.p == 2.0:
                np.multiply(b, b, out=b)
            elif not (self.p == 1.0 or math.isinf(self.p)):
                np.power(b, self.p, out=b)
            self.fill, a = self.fill + take, a[take:]
            if self.fill == len(self.buf) - 1:
                self._reduce()

    def _reduce(self):
        reduce = np.maximum.reduce if math.isinf(self.p) else np.add.reduce
        self.buf[0] = reduce(self.buf[0 if self.carry else 1 : 1 + self.fill], axis=0)
        self.fill, self.carry = 0, True

    def norms(self):
        """The column p-norms of the rows taken in."""
        if self.fill:
            self._reduce()
        if self.p == 2.0:
            return np.sqrt(self.buf[0])
        return self.buf[0] if self.p == 1.0 or math.isinf(self.p) else self.buf[0] ** (1.0 / self.p)


def _vector_pnorm(v, q):
    if math.isinf(q):
        return float(v.max())
    if q == 1.0:
        return float(v.sum())
    if q == 2.0:
        return float(math.sqrt(v @ v))
    return float(np.sum(v**q) ** (1.0 / q))


def write_mat1(path, a):
    """Write ``a`` in the MAT1 format: magic, u32le rows, u32le cols, f64le row-major."""
    a = as_matrix(a)
    _write_container(path, _MAT1, a.shape, [a])


def read_mat1(path):
    """Read a MAT1 file into an owned, aligned, writable, C-contiguous float64
    array, validated as by :func:`as_matrix`; bit-exact round trip."""
    return _mat1_contents(_read_container(path, _MAT1, "matrix file")[1], path)


def _mat1_contents(a, path):
    """``a``, read from the MAT1 file at ``path``, validated by :func:`as_matrix`, else a ParseError."""
    try:
        return as_matrix(a)
    except (DimensionError, ParameterError) as exc:
        raise ParseError(f"invalid MAT1 contents: {exc}", path=path) from None
