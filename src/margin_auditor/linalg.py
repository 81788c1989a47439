"""Dense matrix norms, an exact spectral norm (one LAPACK eigenvalue call on a
Gram matrix), a LAPACK-free one-sided Jacobi SVD oracle in Brent-Luk round-robin
order (Brent & Luk 1985), and the MAT1 binary matrix format.

All analysis arithmetic is 64-bit; every public operation validates its input
through :func:`as_matrix` and is a pure function, safe for concurrent use.
Every norm, and the oracle, first scales its operand by an exact power of two,
so it stays positively homogeneous at any finite float64 scale.
"""

import math
import struct

import numpy as np

from .errors import (
    DimensionError,
    InputOutputError,
    NumericDegeneracyError,
    ParameterError,
    ParseError,
)

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
    a = as_matrix(a)
    e = _scale_exponent(max(float(a.max()), -float(a.min())))
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


def _scale_exponent(top):
    """Exponent e with ``top * 2**-e`` in [1, 2), or None when ``top`` is 0."""
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

    The test suite's high-accuracy oracle, free of LAPACK and of
    :func:`spectral_norm`.  Each Brent-Luk round of :func:`_round_robin`
    rotates its disjoint column pairs (rows of the power-of-two prescaled
    transpose) in one vectorized step, until every pairwise dot product is
    negligible; the singular values are the final column norms.
    """
    a = as_matrix(a)
    e = _scale_exponent(max(float(a.max()), -float(a.min()))) or 0  # None for a zero matrix
    wt = np.ldexp(a.T if a.shape[0] >= a.shape[1] else a, -e, order="C")
    rounds = _round_robin(wt.shape[0])
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for ij in rounds:
            x = wt.take(ij, axis=0)
            pii, pjj = np.einsum("kij,kij->ki", x, x)
            pij = np.einsum("ij,ij->i", x[0], x[1])
            # A squared norm that is 0, or whose product underflows, skips the pair.
            threshold = _JACOBI_TOL * np.sqrt(pii * pjj)
            active = (np.abs(pij) > threshold) & (threshold > 0.0)
            if np.count_nonzero(active):
                rotated = True
                theta = np.arctan2(2.0 * pij, pii - pjj) * (0.5 * active)
                c, s = np.cos(theta)[:, None], np.sin(theta)[:, None] * _PAIR_SIGNS
                wt[ij] = x * c + x[::-1] * s  # (c*x_i + s*x_j, c*x_j - s*x_i)
        if not rotated:
            break
    else:
        raise NumericDegeneracyError("Jacobi sweeps did not converge")
    sv = np.sort(np.sqrt(np.einsum("ij,ij->i", wt, wt)))[::-1]
    _unscale(float(sv[0]), e)  # raises when sigma_1 exceeds the float64 range
    return np.ldexp(sv, e)


def _round_robin(m):
    """Brent-Luk round-robin schedule for m columns, shape (rounds, 2, pairs).

    With n = m rounded up to even, round r pairs column r with n - 1 and r + k
    with r - k (mod n - 1); for odd m, n - 1 = m is a dummy, left out.  Each
    pair lists its lower index first, so a rotation leaves the longer column
    there; unordered pairs can swap two columns back and forth at roundoff.
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
    b = np.abs(a)
    e = _scale_exponent(float(b.max()))
    if e is None:
        return 0.0
    if e:
        np.ldexp(b, -e, out=b)
    return _unscale(_vector_pnorm(_colwise_pnorm(b, p), q), e)


def frobenius_norm(a):
    """Entrywise l2 norm; identical to group_norm(a, 2, 2)."""
    return group_norm(a, 2.0, 2.0)


def norm_2_1_of_transpose(a):
    """(2,1) group norm of the transpose, i.e. the sum of row 2-norms of ``a``."""
    return group_norm(np.transpose(a), 2.0, 1.0)


def _check_exponent(v, name):
    if not (v >= 1.0):
        raise ParameterError(f"norm exponent {name} must be >= 1, got {v!r}")


def _colwise_pnorm(b, p):
    if math.isinf(p):
        return b.max(axis=0)
    if p == 1.0:
        return b.sum(axis=0)
    if p == 2.0:
        return np.sqrt(np.sum(np.multiply(b, b, out=b), axis=0))
    return np.sum(b**p, axis=0) ** (1.0 / p)


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
    rows, cols = a.shape
    with open(path, "wb") as f:
        f.write(MAT1_MAGIC)
        f.write(struct.pack("<II", rows, cols))
        f.write(a.astype("<f8", copy=False).tobytes(order="C"))


def read_mat1(path):
    """Read a MAT1 file back into a float64 array; bit-exact round trip."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except FileNotFoundError:
        raise InputOutputError(f"matrix file not found: {path}") from None
    if len(raw) < 12:
        raise ParseError("MAT1 header truncated", path=path, offset=len(raw))
    if raw[:4] != MAT1_MAGIC:
        raise ParseError(f"bad MAT1 magic {raw[:4]!r}", path=path, offset=0)
    rows, cols = struct.unpack_from("<II", raw, 4)
    expected = 12 + 8 * rows * cols
    if len(raw) != expected:
        raise ParseError(
            f"MAT1 payload has {len(raw)} bytes, expected {expected}",
            path=path,
            offset=min(len(raw), expected),
        )
    data = np.frombuffer(raw, dtype="<f8", count=rows * cols, offset=12)
    try:
        return as_matrix(data.reshape(rows, cols))
    except (DimensionError, ParameterError) as exc:
        raise ParseError(f"invalid MAT1 contents: {exc}", path=path) from None
