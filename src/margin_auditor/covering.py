"""Constructive covering machinery: Maurey sparsification of convex-hull
representations, and the cover element it yields for a matrix product XA.

The sparsifier is randomized but derandomized by resampling: the expected
squared error already meets the guarantee, so a fresh seeded draw succeeds
with constant probability and a handful of retries suffices in practice.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericDegeneracyError, ParameterError
from .linalg import _colwise_pnorm, as_matrix, group_norm

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
    v = _flatten_atoms(atoms)
    a = np.asarray(alpha, dtype=np.float64)
    if a.ndim != 1 or a.shape[0] != v.shape[0]:
        raise ParameterError("need one coefficient per atom")
    if np.any(a < 0.0) or not np.all(np.isfinite(a)):
        raise ParameterError("coefficients must be finite and nonnegative")
    beta = float(a.sum())
    if beta == 0.0:
        raise ParameterError("coefficients must not all be zero")
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")

    target = v.T @ a  # U, flattened
    sq_norms = np.sum(v * v, axis=1)
    guarantee = beta * beta / k * float(sq_norms.max())
    probs = a / beta
    rng = np.random.default_rng(seed)
    for attempt in range(_MAUREY_RETRY_CAP):
        idx = rng.choice(a.shape[0], size=k, p=probs)
        counts = np.bincount(idx, minlength=a.shape[0])
        approx = (beta / k) * (v.T @ counts)
        err = target - approx
        err_sq = float(err @ err)
        if err_sq <= guarantee:
            return SparsifyResult(
                counts=tuple(int(c) for c in counts),
                approx_error_sq=err_sq,
                guarantee=guarantee,
                retries=attempt,
            )
    raise NumericDegeneracyError(
        f"sparsification failed to meet its guarantee within {_MAUREY_RETRY_CAP} draws"
    )


def _conjugate(p):
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


def cover_element_for(a, x, eps, q=2.0, s_exp=1.0, seed=0):
    """Construct W_hat with ||XA - W_hat||_2 <= eps by Maurey sparsification.

    Columns of X are rescaled to unit p-norm (p conjugate to q, p <= 2
    required); the rescaling is folded into B = alpha (.) A, whose entries
    weight signed rank-one atoms g * Y e_i e_j^T.  The atom budget is
    k = ceil(a^2 b^2 m^(2/r) / eps^2) with a = ||A||_(q,s), b = ||X||_p
    entrywise, and r conjugate to s_exp.

    Returns (w_hat, result) where result is the SparsifyResult for the run
    (counts empty and zero error when A is the zero matrix).
    """
    a = as_matrix(a)
    x = as_matrix(x)
    if x.shape[1] != a.shape[0]:
        raise ParameterError(f"X has {x.shape[1]} columns but A has {a.shape[0]} rows")
    if not (eps > 0.0):
        raise ParameterError(f"eps must be positive, got {eps!r}")
    if not (q >= 1.0) or not (s_exp >= 1.0):
        raise ParameterError("exponents q and s must be >= 1")
    p = _conjugate(q)
    if p > 2.0:
        raise ParameterError(f"conjugate exponent p={p} exceeds 2; pick q >= 2")
    r = _conjugate(s_exp)
    if not x.any():
        raise ParameterError("X must not be the zero matrix")

    n, d = x.shape
    m = a.shape[1]
    if not a.any():
        result = SparsifyResult(counts=(), approx_error_sq=0.0, guarantee=0.0, retries=0)
        return np.zeros((n, m)), result

    col_norms = _colwise_pnorm(np.abs(x), p)
    norm_a = group_norm(a, q, s_exp)
    b_x = group_norm(x, p, p)
    m_pow = 1.0 if math.isinf(r) else float(m) ** (2.0 / r)
    k = math.ceil(norm_a**2 * b_x**2 * m_pow / (eps * eps))

    # Y rescales nonzero columns of X to unit p-norm; B undoes it on A's side.
    nonzero = col_norms > 0.0
    y = np.zeros_like(x)
    y[:, nonzero] = x[:, nonzero] / col_norms[nonzero]
    b = a * col_norms[:, None]  # zero X columns zero out their row of B

    atoms = []
    weights = []
    for i in range(d):
        if not nonzero[i]:
            continue
        for j in range(m):
            w = b[i, j]
            if w == 0.0:
                continue
            atom = np.zeros((n, m))
            atom[:, j] = math.copysign(1.0, w) * y[:, i]
            atoms.append(atom)
            weights.append(abs(w))
    if not atoms:
        result = SparsifyResult(counts=(), approx_error_sq=0.0, guarantee=0.0, retries=0)
        return np.zeros((n, m)), result

    result = maurey_sparsify(atoms, weights, k, seed=seed)
    beta = float(sum(weights))
    w_hat = np.zeros((n, m))
    for cnt, atom in zip(result.counts, atoms):
        if cnt:
            w_hat += cnt * atom
    w_hat *= beta / k
    return w_hat, result

