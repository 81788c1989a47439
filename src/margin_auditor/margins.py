"""Margins: the margin operator, ramp loss, empirical risks, and the
normalized margin distribution with histogram/KDE summaries."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericDegeneracyError, ParameterError
from .linalg import as_matrix, frobenius_norm


@dataclass(frozen=True)
class MarginDistribution:
    """Per-example raw margins and their normalized counterparts.

    ``normalized[i] = raw[i] / normalizer`` with normalizer R_A * ||X||_2 / n,
    the margin-comparable scale induced by the spectral-complexity bound.
    """

    raw: np.ndarray
    normalized: np.ndarray
    normalizer: float
    gamma_used: float = None


@dataclass(frozen=True)
class DistributionSummary:
    """Equal-width histogram plus a Gaussian KDE curve, both unit-mass."""

    hist_edges: np.ndarray
    hist_density: np.ndarray
    kde_x: np.ndarray
    kde_density: np.ndarray
    bandwidth: float


def margin_operator(v, y):
    """Correct-class score minus the best other-class score: v[y] - max_{i != y} v[i].

    ``y`` is a 1-based label into a vector of length k >= 2.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 2:
        raise ParameterError("margin operator needs a score vector of length >= 2")
    if not (1 <= int(y) <= v.shape[0]):
        raise ParameterError(f"label {y} out of range 1..{v.shape[0]}")
    idx = int(y) - 1
    others = np.delete(v, idx)
    return float(v[idx] - others.max())


def margins_of_outputs(outputs, labels):
    """Row-wise margin operator over an (n, k) output matrix; labels 1-based."""
    outputs = as_matrix(outputs)
    labels = np.asarray(labels, dtype=np.int64)
    n, k = outputs.shape
    if k < 2:
        raise ParameterError("margins need at least 2 output coordinates")
    if labels.shape != (n,):
        raise ParameterError("labels must be one per output row")
    if labels.min() < 1 or labels.max() > k:
        raise ParameterError(f"labels out of range 1..{k}")
    idx = labels - 1
    correct = outputs[np.arange(n), idx]
    masked = outputs.copy()
    masked[np.arange(n), idx] = -np.inf
    return correct - masked.max(axis=1)


def ramp_loss(r, gamma):
    """Ramp surrogate: 0 below -gamma, linear on [-gamma, 0], 1 above 0."""
    if not (gamma > 0.0):
        raise ParameterError(f"gamma must be positive, got {gamma!r}")
    if r < -gamma:
        return 0.0
    if r > 0.0:
        return 1.0
    return 1.0 + r / gamma


def _ramp_vec(r, gamma):
    return np.clip(1.0 + r / gamma, 0.0, 1.0)


def ramp_risk_empirical(net, ds, gamma):
    """Mean ramp loss of the negated margins over a dataset."""
    if not (gamma > 0.0):
        raise ParameterError(f"gamma must be positive, got {gamma!r}")
    return _ramp_risk_of_margins(margins_of_outputs(net.forward(ds.X), ds.y), gamma)


def _ramp_risk_of_margins(raw, gamma):
    return float(np.mean(_ramp_vec(-raw, gamma)))


def error_rate(net, ds):
    """Fraction of examples misclassified by the argmax rule, ties to the lowest index."""
    return _error_rate_of_outputs(net.forward(ds.X), ds.y)


def _error_rate_of_outputs(outputs, labels):
    predicted = outputs.argmax(axis=1) + 1
    return float(np.mean(predicted != labels))


def default_gamma(raw_margins):
    """Median of the positive raw margins; 1.0 when none are positive."""
    raw = np.asarray(raw_margins, dtype=np.float64)
    positive = raw[raw > 0.0]
    if positive.size == 0:
        return 1.0
    return float(np.median(positive))


def margin_distribution(net, ds, r_a, gamma=None):
    """Raw and normalized margins of a network on a dataset.

    The normalizer is r_a * ||X||_2 / n, where ||X||_2 is the entrywise l2
    norm of the data matrix.  Requires r_a > 0 and a nonzero data matrix.
    """
    return _margin_distribution_of_outputs(
        net.forward(ds.X), ds.y, r_a, frobenius_norm(ds.X), gamma
    )


def _margin_distribution_of_outputs(outputs, labels, r_a, data_norm, gamma=None):
    """:func:`margin_distribution` from the network's outputs on the data and
    the data's entrywise l2 norm, both already computed by the caller."""
    if not (r_a > 0.0):
        raise ParameterError(f"spectral complexity must be positive, got {r_a!r}")
    if data_norm == 0.0:
        raise NumericDegeneracyError("zero data matrix: margin normalizer degenerates")
    raw = margins_of_outputs(outputs, labels)
    normalizer = r_a * data_norm / raw.shape[0]
    if gamma is None:
        gamma = default_gamma(raw)
    return MarginDistribution(
        raw=raw, normalized=raw / normalizer, normalizer=normalizer, gamma_used=float(gamma)
    )


def _silverman_bandwidth(data):
    n = data.shape[0]
    scales = []
    if n > 1:
        sigma = float(np.std(data, ddof=1))
        if sigma > 0.0:
            scales.append(sigma)
        q75, q25 = np.percentile(data, [75.0, 25.0])
        iqr = float(q75 - q25)
        if iqr > 0.0:
            scales.append(iqr / 1.34)
    if not scales:
        return 1e-6
    return max(1e-6, 0.9 * min(scales) * n ** (-0.2))


def summarize(md, bins):
    """Histogram and Gaussian-KDE summary of the normalized margins.

    The histogram is equal-width over [min, max] and integrates to one; the
    KDE uses Silverman's rule-of-thumb bandwidth (floored at 1e-6) and is
    sampled at 256 points wide enough to capture all but ~1e-9 of the mass.
    """
    if bins < 2:
        raise ParameterError(f"need at least 2 bins, got {bins}")
    data = np.asarray(md.normalized, dtype=np.float64)
    lo = float(data.min())
    hi = float(data.max())
    bw = _silverman_bandwidth(data)
    if hi == lo:
        # Degenerate constant distribution: a single unit-mass bin.
        edges = np.array([lo - 0.5, lo + 0.5])
        density = np.array([1.0])
    else:
        density, edges = np.histogram(data, bins=int(bins), range=(lo, hi), density=True)
    grid = np.linspace(lo - 6.0 * bw, hi + 6.0 * bw, 256)
    z = (grid[:, None] - data[None, :]) / bw
    kde = np.exp(-0.5 * z * z).sum(axis=1) / (data.shape[0] * bw * math.sqrt(2.0 * math.pi))
    return DistributionSummary(
        hist_edges=edges, hist_density=density, kde_x=grid, kde_density=kde, bandwidth=bw
    )


def _f17(x):
    return format(float(x), ".17g")


def write_margins_csv(path, md):
    """Margin CSV: one row per example, header index,raw_margin,normalized_margin."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("index,raw_margin,normalized_margin\n")
        for i, (r, s) in enumerate(zip(md.raw, md.normalized)):
            f.write(f"{i},{_f17(r)},{_f17(s)}\n")


def write_histogram_csv(path, summary):
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("bin_left,bin_right,density\n")
        for left, right, d in zip(
            summary.hist_edges[:-1], summary.hist_edges[1:], summary.hist_density
        ):
            f.write(f"{_f17(left)},{_f17(right)},{_f17(d)}\n")


def write_kde_csv(path, summary):
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("kde_x,kde_density\n")
        for x, d in zip(summary.kde_x, summary.kde_density):
            f.write(f"{_f17(x)},{_f17(d)}\n")
