"""Constructive covering machinery: Maurey sparsification of convex-hull
representations, and the cover element it yields for a matrix product XA.

Both run one seeded draw-and-retry loop; a fresh draw meets the guarantee with
constant probability, so a handful of retries suffices in practice.  The cover
element never builds its rank-one atoms and works on power-of-two prescaled
inputs, so it is exactly homogeneous at any finite float64 scale.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (NumericDegeneracyError, ParameterError, _all_finite, _check_at_least,
                     _check_count, _check_positive)
from .linalg import (_colwise_pnorm, _group_norm, _scale_exponent, _unscale, _vector_pnorm,
                     as_matrix)

_MAUREY_RETRY_CAP = 1000


@dataclass(frozen=True)
class SparsifyResult:
    """Integer atom counts (summing to k) with the achieved and guaranteed errors.

    ``approx_error_sq <= guarantee`` holds on every successful return, where
    guarantee = ||alpha||_1^2 / k * max_i ||V_i||^2.  ``retries`` counts the
    extra seeded draws needed before the guarantee held (0 on first success).
    """

    counts: tuple
    approx_error_sq: float
    guarantee: float
    retries: int


def _flatten_atoms(atoms):
    flat = [np.asarray(v, dtype=np.float64).ravel() for v in atoms]
    if not flat:
        raise ParameterError("need at least one atom")
    shape = flat[0].shape
    if any(v.shape != shape for v in flat):
        raise ParameterError("all atoms must share one shape")
    return np.stack(flat, axis=0)


def maurey_sparsify(atoms, alpha, k, seed=0):
    """Replace U = sum_i alpha_i V_i by a k-term integer-weighted average.

    Draws k iid atom indices with probability alpha_i/||alpha||_1 and accepts
    the draw once || U - (||alpha||_1/k) sum k_i V_i ||^2 is within the
    guarantee ||alpha||_1^2/k * max ||V_i||^2; retries with fresh seeded draws
    up to a cap, past which the input is declared numerically degenerate.
    """
    v = as_matrix(_flatten_atoms(atoms))
    a = np.asarray(alpha, dtype=np.float64)
    if a.ndim != 1 or a.shape[0] != v.shape[0]:
        raise ParameterError("need one coefficient per atom")
    if np.any(a < 0.0) or not _all_finite(a):
        raise ParameterError("coefficients must be finite and nonnegative")
    if a.sum() == 0.0:
        raise ParameterError("coefficients must not all be zero")
    k, seed = _check_count(k, 1, "k"), _check_count(seed, 0, "seed")
    return _draw(lambda c: v.T @ c, a, float(np.sum(v * v, axis=1).max()), k, seed)[0]


def _draw(combine, a, max_sq_norm, k, seed):
    """The Maurey draw-and-retry loop over atoms known only through
    ``combine(c) = sum_i c_i V_i`` and max_i ||V_i||^2.

    Returns (SparsifyResult, (||a||_1/k) * combine(counts)) for the accepted draw.
    """
    beta = float(a.sum())
    target = combine(a)
    guarantee = beta * beta / k * max_sq_norm
    probs = a / beta
    rng = np.random.default_rng(seed)
    for attempt in range(_MAUREY_RETRY_CAP):
        counts = np.bincount(rng.choice(a.shape[0], size=k, p=probs), minlength=a.shape[0])
        approx = (beta / k) * combine(counts)
        err = (target - approx).ravel()
        err_sq = float(err @ err)
        if err_sq <= guarantee:
            counts = tuple(int(c) for c in counts)
            return SparsifyResult(counts, err_sq, guarantee, retries=attempt), approx
    raise NumericDegeneracyError(
        f"sparsification failed to meet its guarantee within {_MAUREY_RETRY_CAP} draws"
    )


def _cover_factor(m, r):
    """m^(2/r), the factor the column count m puts into the atom budget k."""
    return 1.0 if math.isinf(r) else float(m) ** (2.0 / r)


def _atom_budget(a, b, m, r, eps, e=0):
    """Maurey atom budget k = max(1, ceil(a^2 b^2 m^(2/r) / eps^2)) for the norm product
    2**e a b, on the frexp mantissas of a, b and eps and scaled back by one exact ldexp,
    so homogeneous at any float64 scale; a k beyond float64 is a NumericDegeneracyError."""
    (a, e_a), (b, e_b), (eps, e_eps) = math.frexp(a), math.frexp(b), math.frexp(eps)
    try:
        k = math.ldexp(a**2 * b**2 * _cover_factor(m, r) / (eps * eps),
                       2 * (e + e_a + e_b - e_eps))
    except OverflowError:
        raise NumericDegeneracyError("atom budget k is out of the float64 range") from None
    return max(1, math.ceil(k))


def _conjugate(p):
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


def cover_element_for(a, x, eps, q=2.0, s_exp=1.0, seed=0):
    """Construct W_hat with ||XA - W_hat||_2 <= eps by Maurey sparsification.

    Columns of X are rescaled to unit p-norm (p conjugate to q, p <= 2
    required), giving Y; the rescaling is folded into B = alpha (.) A.  The
    atoms are sign(b_ij) * y_i e_j^T, weighted by |b_ij| in the row-major
    order of B's nonzero entries, but they are never built: with C the d x m
    matrix of drawn counts, W_hat = (||B||_1/k) * Y (sign(B) (.) C).  The atom
    budget k is :func:`_atom_budget` of a = ||A||_(q,s), b = ||X||_p entrywise,
    and r conjugate to s_exp.

    A and X are first scaled by the powers of two that bring max|A| and
    max|X| into [1, 2); k takes the sum e of their exponents, and the results
    are scaled back by 2**e exactly, so W_hat, the counts, the error and the
    guarantee are homogeneous at any float64 scale.  A k, error or guarantee
    beyond the float64 range raises NumericDegeneracyError.

    Returns (w_hat, result) where result is the SparsifyResult for the run
    (counts empty and zero error when XA has no atoms, e.g. A = 0).
    """
    a, x = as_matrix(a), as_matrix(x)
    if x.shape[1] != a.shape[0]:
        raise ParameterError(f"X has {x.shape[1]} columns but A has {a.shape[0]} rows")
    _check_positive(eps, "eps")
    _check_at_least(q, 1.0, "norm exponent q")
    _check_at_least(s_exp, 1.0, "norm exponent s")
    seed = _check_count(seed, 0, "seed")
    p = _conjugate(q)
    if p > 2.0:
        raise ParameterError(f"conjugate exponent p={p} exceeds 2; pick q >= 2")
    r = _conjugate(s_exp)
    if not x.any():
        raise ParameterError("X must not be the zero matrix")

    m = a.shape[1]
    e_a = _scale_exponent(a) or 0  # None for A = 0
    e_x = _scale_exponent(x)
    e = e_a + e_x
    a, x = np.ldexp(a, -e_a), np.ldexp(x, -e_x)
    col_norms = _colwise_pnorm(x, p)
    # Y rescales nonzero columns of X to unit p-norm; B undoes it on A's side.
    y = np.divide(x, col_norms, out=np.zeros_like(x), where=col_norms > 0.0)
    b = a * col_norms[:, None]  # zero X columns zero out their row of B
    nonzero = np.flatnonzero(b)
    if not nonzero.size:
        return np.zeros((x.shape[0], m)), SparsifyResult((), 0.0, 0.0, retries=0)

    k = _atom_budget(_group_norm(a, q, s_exp), _vector_pnorm(col_norms, p), m, r, eps, e)
    signs, grid = np.sign(b), np.zeros_like(b)  # grid: C, the d x m counts

    def combine(c):
        grid.flat[nonzero] = c
        return y @ (signs * grid)

    max_sq_norm = float(np.sum(y * y, axis=0)[nonzero // m].max())
    result, w_hat = _draw(combine, np.abs(b.ravel()[nonzero]), max_sq_norm, k, seed)
    result = replace(result, approx_error_sq=_unscale(result.approx_error_sq, 2 * e),
                     guarantee=_unscale(result.guarantee, 2 * e))
    return np.ldexp(w_hat, e), result
