"""An explicit ReLU network that computes a linear functional exactly, plus a
Monte-Carlo estimator of the empirical Rademacher complexity of the linear
class it embeds into.

The construction realizes x -> <a, x> with L layers: the first layer splits
the inner product into positive and negative parts on two coordinates, the
middle layers pass those two coordinates through, and the output layer takes
their difference.  Its product of spectral norms is exactly 2 ||a||_2.
"""

import numpy as np

from .errors import ParameterError, _check_count, _check_integer, _check_positive
from .linalg import as_matrix
from .network import Identity, Layer, Network, Relu


def build_linear_network(a, depth, widths=None):
    """ReLU network of the given depth computing x -> <a, x> exactly.

    ``widths`` gives the hidden dimensions (depth - 1 of them, each >= 2,
    default all 2); the output dimension is 1.  The first weight is
    (e1 - e2) a^T, middle weights are e1 e1^T + e2 e2^T padded with zeros,
    and the last weight is the row e1 - e2.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    if a.size == 0 or not a.any():
        raise ParameterError("direction vector a must be nonzero")
    if not np.all(np.isfinite(a)):
        raise ParameterError("direction vector a must be finite")
    depth = _check_count(depth, 2, "depth")
    if widths is None:
        widths = [2] * (depth - 1)
    widths = [_check_integer(w, "each hidden width") for w in widths]
    if len(widths) != depth - 1:
        raise ParameterError(f"need {depth - 1} hidden widths for depth {depth}")
    if any(w < 2 for w in widths):
        raise ParameterError("all non-output dimensions must be at least 2")

    layers = []
    first = np.zeros((widths[0], a.size))
    first[0, :] = a
    first[1, :] = -a
    layers.append(Layer(weight=first, nonlinearity=Relu()))
    for prev, cur in zip(widths, widths[1:]):
        mid = np.zeros((cur, prev))
        mid[0, 0] = 1.0
        mid[1, 1] = 1.0
        layers.append(Layer(weight=mid, nonlinearity=Relu()))
    last = np.zeros((1, widths[-1]))
    last[0, 0] = 1.0
    last[0, 1] = -1.0
    layers.append(Layer(weight=last, nonlinearity=Identity()))
    return Network(layers=tuple(layers))


def rademacher_linear_trials(x, radius, trials, seed=0):
    """Per-trial values radius * ||sum_t eps_t x_t||_2 / n for seeded sign vectors."""
    x = as_matrix(x)
    _check_positive(radius, "radius")
    trials = _check_count(trials, 1, "trials")
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(trials, n)) * 2.0 - 1.0
    sums = signs @ x
    return radius * np.sqrt(np.sum(sums * sums, axis=1)) / n


def rademacher_linear_estimate(x, radius, trials, seed=0):
    """Monte-Carlo mean of radius * ||sum_t eps_t x_t||_2 / n over sign draws."""
    return float(rademacher_linear_trials(x, radius, trials, seed=seed).mean())
