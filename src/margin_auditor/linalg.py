"""Dense matrix norms, an exact spectral norm (one LAPACK eigenvalue call on a
Gram matrix), a LAPACK-free one-sided Jacobi SVD oracle in Brent-Luk round-robin
order (Brent & Luk 1985), and the MAT1 binary matrix format.

All analysis arithmetic is 64-bit, pure and safe for concurrent use.  Each public
norm is a wrapper that validates through :func:`as_matrix` over a private kernel
trusting a finite 2-D float64 array.  Every norm, and the oracle, first scales
by an exact power of two, so it stays homogeneous at any finite float64 scale.
"""

import math
import struct

import numpy as np

from .errors import DimensionError, NumericDegeneracyError, ParameterError, ParseError
from .serialize import _read_input, _write_output

_JACOBI_MAX_SWEEPS = 64
_JACOBI_TOL = 1e-15
_PAIR_SIGNS = np.array([1.0, -1.0])[:, None, None]

MAT1_MAGIC = b"MAT1"


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
    if not np.all(np.isfinite(m)):
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
    :func:`spectral_norm`.  Each Brent-Luk round of :func:`_round_robin`
    rotates its disjoint column pairs (rows of the power-of-two prescaled
    transpose) in one step, by the small angle |theta| <= pi/4 (Rutishauser;
    Demmel & Veselic).  A sweep ends the loop if it rotated no pair, or if it
    skipped one and :func:`_no_pair_active` then finds every pair negligible.
    """
    a = as_matrix(a)
    e = _scale_exponent(a) or 0  # None for a zero matrix
    wt = np.ldexp(a.T if a.shape[0] >= a.shape[1] else a, -e, order="C")
    rounds = _round_robin(wt.shape[0])  # rounds.size // 2 pairs per sweep
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = 0
        for ij in rounds:
            x = wt.take(ij, axis=0)
            pii, pjj = np.einsum("kij,kij->ki", x, x)
            pij = np.einsum("ij,ij->i", x[0], x[1])
            active = _active(pij, pii, pjj)
            count = np.count_nonzero(active)
            if count:
                rotated += count
                d = pii - pjj
                theta = np.arctan2(np.copysign(2.0, d) * pij, np.abs(d)) * (0.5 * active)
                c, s = np.cos(theta)[:, None], np.sin(theta)[:, None] * _PAIR_SIGNS
                wt[ij] = x * c + x[::-1] * s  # (c*x_i + s*x_j, c*x_j - s*x_i)
        if not rotated or rotated < rounds.size // 2 and _no_pair_active(wt):
            break
    else:
        raise NumericDegeneracyError("Jacobi sweeps did not converge")
    sv = np.sort(np.sqrt(np.einsum("ij,ij->i", wt, wt)))[::-1]
    _unscale(float(sv[0]), e)  # raises when sigma_1 exceeds the float64 range
    return np.ldexp(sv, e)


def _active(pij, pii, pjj):
    """Pairs to rotate; a squared norm that is 0, or whose product underflows, skips one."""
    threshold = _JACOBI_TOL * np.sqrt(pii * pjj)
    return (np.abs(pij) > threshold) & (threshold > 0.0)


def _no_pair_active(wt):
    """Whether no pair of rows of ``wt`` is :func:`_active`, by numpy's own einsum loops."""
    g = np.einsum("ik,jk->ij", wt, wt)
    norms = g.diagonal()
    return not np.count_nonzero(np.triu(_active(g, norms[:, None], norms), 1))


def _round_robin(m):
    """Brent-Luk round-robin schedule for m columns, shape (rounds, 2, pairs).

    With n = m rounded up to even, round r pairs column r with n - 1 and r + k
    with r - k (mod n - 1); for odd m, n - 1 = m is a dummy, left out.  Each
    pair lists its lower index first, a canonical order only.
    """
    n = m + (m & 1)
    r, k = np.arange(n - 1)[:, None], np.arange(m & 1, n // 2)
    p, q = (r + k) % (n - 1), np.where(k == 0, n - 1, (r - k) % (n - 1))
    return np.stack([np.minimum(p, q), np.maximum(p, q)], axis=1)


def group_norm(a, p, q):
    """(p, q) group norm: the q-norm of the vector of column p-norms.

    ``p`` and ``q`` must be >= 1; ``math.inf`` is accepted for either and is
    handled by an exact max branch, never approximated by a large exponent.
    """
    a = as_matrix(a)
    _check_exponent(p, "p")
    _check_exponent(q, "q")
    return _group_norm(a, p, q)


def frobenius_norm(a):
    """Entrywise l2 norm; identical to group_norm(a, 2, 2)."""
    return _group_norm(as_matrix(a), 2.0, 2.0)


def norm_2_1_of_transpose(a):
    """(2,1) group norm of the transpose, i.e. the sum of row 2-norms of ``a``."""
    return _group_norm(as_matrix(a).T, 2.0, 1.0)


def _check_exponent(v, name):
    if not (v >= 1.0):
        raise ParameterError(f"norm exponent {name} must be >= 1, got {v!r}")


def _group_norm(a, p, q):
    """:func:`group_norm` of a trusted finite 2-D float64 array, or a view of one."""
    e = _scale_exponent(a)
    if e is None:
        return 0.0
    return _unscale(_vector_pnorm(_colwise_pnorm(a, p, e), q), e)


def _colwise_pnorm(a, p, e=0):
    """Column p-norms of 2**-e * |a| (trusted), through a C-ordered buffer of
    64-row blocks whose row 0 carries the running aggregate; numpy reduces its
    axis 0 row by row, bitwise as one whole-array pass.  A single column, which
    numpy sums pairwise, is one block."""
    n, d = a.shape
    rows = n if d == 1 else min(n, 64)
    buf = np.zeros((rows + 1, d))
    reduce = np.maximum.reduce if math.isinf(p) else np.add.reduce
    for start in range(0, n, rows):
        b = np.abs(a[start : start + rows], out=buf[1 : 1 + min(rows, n - start)])
        if e:
            np.ldexp(b, -e, out=b)
        if p == 2.0:
            np.multiply(b, b, out=b)
        elif not (p == 1.0 or math.isinf(p)):
            np.power(b, p, out=b)
        buf[0] = reduce(buf[0 if start else 1 : 1 + len(b)], axis=0)
    if p == 2.0:
        return np.sqrt(buf[0])
    return buf[0] if p == 1.0 or math.isinf(p) else buf[0] ** (1.0 / p)


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
    _write_output(path, MAT1_MAGIC, struct.pack("<II", *a.shape),
                  a.astype("<f8", copy=False).tobytes(order="C"))


def _check_payload(raw, expected, path, what):
    """Parse error unless a file's bytes ``raw`` are exactly ``expected`` long."""
    if len(raw) != expected:
        raise ParseError(f"{what} payload has {len(raw)} bytes, expected {expected}",
                         path=path, offset=min(len(raw), expected))


def read_mat1(path):
    """Read a MAT1 file back into a float64 array; bit-exact round trip."""
    raw = _read_input(path, "matrix file")
    if len(raw) < 12:
        raise ParseError("MAT1 header truncated", path=path, offset=len(raw))
    if raw[:4] != MAT1_MAGIC:
        raise ParseError(f"bad MAT1 magic {raw[:4]!r}", path=path, offset=0)
    rows, cols = struct.unpack_from("<II", raw, 4)
    _check_payload(raw, 12 + 8 * rows * cols, path, "MAT1")
    data = np.frombuffer(raw, dtype="<f8", count=rows * cols, offset=12)
    try:
        return as_matrix(data.reshape(rows, cols))
    except (DimensionError, ParameterError) as exc:
        raise ParseError(f"invalid MAT1 contents: {exc}", path=path) from None
