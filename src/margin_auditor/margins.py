"""Margins: the margin operator, ramp loss, empirical risks, and the
normalized margin distribution with histogram/KDE summaries."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (_BLOCK, _GEMM_ROWS, NumericDegeneracyError, ParameterError, _check_count,
                     _check_labels, _check_positive, _finite, _row_blocks)
from .linalg import _ColumnSums, _scale_exponent, _unscale, _vector_pnorm, as_matrix
from .serialize import write_csv_17g


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
    idx = int(_check_labels([y], v.shape[0], 1)[0][0]) - 1
    return float(v[idx] - np.delete(v, idx).max())


def margins_of_outputs(outputs, labels):
    """Row-wise margin operator over an (n, k) output matrix, labels 1-based; a
    margin beyond the float64 range is a NumericDegeneracyError."""
    outputs = as_matrix(outputs)
    n, k = outputs.shape
    if k < 2:
        raise ParameterError("margins need at least 2 output coordinates")
    idx = _check_labels(labels, k, n)[0] - 1
    correct = outputs[np.arange(n), idx]
    masked = outputs.copy()
    masked[np.arange(n), idx] = -np.inf
    with np.errstate(over="ignore"):
        return _finite(correct - masked.max(axis=1), "a raw margin")


def _pass(ds, net=None, norm=False):
    """(``net``'s outputs on ``ds``, ||X||_2 if ``norm``; None for what is not asked
    for) from one in-order pass over ``ds._blocks`` (:meth:`Dataset._blocks`, or
    those of a features file read a block at a time, ``data._FeatureFile``): each
    block goes into :class:`linalg._ColumnSums` under a running exponent, bitwise
    ``_group_norm(X, 2, 2)``, then runs the chain (:meth:`Network._chain`) into one n x k array.
    Outputs beyond float64 are a NumericDegeneracyError, with no RuntimeWarning."""
    sums = _ColumnSums(ds.n, ds.dim, 2.0, None) if norm else None
    outputs = None if net is None else np.empty((ds.n, net.output_dim))
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop, block in ds._blocks(_GEMM_ROWS):
            if sums is not None:
                sums.add(block)
            if outputs is not None:
                outputs[start:stop] = net._chain(block)
    if outputs is not None:
        _finite(outputs, "one of the network outputs on the data")
    return outputs, None if sums is None else _unscale(_vector_pnorm(sums.norms(), 2.0), sums.e)


def ramp_loss(r, gamma):
    """Ramp surrogate: 0 below -gamma, linear on [-gamma, 0], 1 above 0."""
    _check_positive(gamma, "gamma")
    if r < -gamma:
        return 0.0
    if r > 0.0:
        return 1.0
    return 1.0 + r / gamma


def ramp_risk_empirical(net, ds, gamma):
    """Mean ramp loss of the negated margins over a dataset."""
    _check_positive(gamma, "gamma")
    return _ramp_risk_of_margins(margins_of_outputs(_pass(ds, net)[0], ds.y), gamma)


def _ramp_risk_of_margins(raw, gamma):
    return float(np.mean(np.clip(1.0 - raw / gamma, 0.0, 1.0)))


def error_rate(net, ds):
    """Fraction of examples misclassified by the argmax rule, ties to the lowest index."""
    return _error_rate_of_outputs(_pass(ds, net)[0], ds.y)


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
    norm of the data matrix.  Requires r_a > 0, a nonzero data matrix and,
    when given, gamma > 0.
    """
    outputs, data_norm = _pass(ds, net, norm=True)
    return _margin_distribution_of_outputs(outputs, ds.y, r_a, data_norm, gamma)


def _margin_distribution_of_outputs(outputs, labels, r_a, data_norm, gamma=None):
    """:func:`margin_distribution` from the network's outputs (:func:`_pass`) on the
    data and the data's entrywise l2 norm, both already computed by the caller."""
    _check_positive(r_a, "spectral complexity")
    if gamma is not None:
        _check_positive(gamma, "gamma")
    if data_norm == 0.0:
        raise NumericDegeneracyError("zero data matrix: margin normalizer degenerates")
    raw = margins_of_outputs(outputs, labels)
    normalizer = r_a * data_norm / raw.shape[0]
    if not 0.0 < normalizer < math.inf:
        raise NumericDegeneracyError(f"margin normalizer R_A*||X||/n = {normalizer!r} "
                                     "is outside the float64 range")
    with np.errstate(over="ignore"):
        normalized = _finite(raw / normalizer, "a normalized margin")
    if gamma is None:
        gamma = default_gamma(raw)
    return MarginDistribution(
        raw=raw, normalized=normalized, normalizer=normalizer, gamma_used=float(gamma)
    )


def _silverman_bandwidth(data):
    """Silverman's rule-of-thumb bandwidth of finite ``data``, floored at 1e-6.  The
    spreads are taken of ``data`` * 2**-e with max|data| * 2**-e in [1, 2), as every
    norm is, so neither they nor the bandwidth (below 2**(e + 1)) can overflow."""
    n = data.shape[0]
    e = _scale_exponent(data)
    scales = []
    if n > 1 and e is not None:
        data = np.ldexp(data, -e)
        sigma = float(np.std(data, ddof=1))
        if sigma > 0.0:
            scales.append(sigma)
        q75, q25 = np.percentile(data, [75.0, 25.0])
        iqr = float(q75 - q25)
        if iqr > 0.0:
            scales.append(iqr / 1.34)
    if not scales:
        return 1e-6
    return max(1e-6, math.ldexp(0.9 * min(scales) * n ** (-0.2), e))


def summarize(md, bins):
    """Histogram and Gaussian-KDE summary of the normalized margins.

    The histogram is equal-width over [min, max] and integrates to one; the
    KDE uses Silverman's rule-of-thumb bandwidth (floored at 1e-6) and is
    sampled at 256 points wide enough to capture all but ~1e-9 of the mass.
    A KDE grid width (and so a margin range) or a histogram density beyond
    float64 is a NumericDegeneracyError.
    """
    bins = _check_count(bins, 2, "bins")
    data = np.asarray(md.normalized, dtype=np.float64)
    lo = float(data.min())
    hi = float(data.max())
    bw = _silverman_bandwidth(data)
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(lo - 6.0 * bw, hi + 6.0 * bw, 256)
        _finite(grid[-1] - grid[0], "the KDE grid width")
        edges = np.linspace(lo, hi, bins + 1)
    if np.any(edges[:-1] >= edges[1:]):
        # Constant, or a range too narrow for equal bins (numpy's own test,
        # which np.histogram would raise on): a single unit-mass bin.
        edges = np.array([lo - 0.5, lo + 0.5])
        density = np.array([1.0])
    else:
        with np.errstate(over="ignore"):
            density, edges = np.histogram(data, bins=bins, range=(lo, hi), density=True)
        _finite(density, "the margin histogram density")
    kde = _kde_sums(grid, data, bw) / (data.shape[0] * bw * math.sqrt(2.0 * math.pi))
    return DistributionSummary(
        hist_edges=edges, hist_density=density, kde_x=grid, kde_density=kde, bandwidth=bw
    )


def _kde_sums(grid, data, bw):
    """sum_j exp(-z_j**2 / 2), z_j = (g - data_j) / bw, at each grid point g, in
    blocks of at most _BLOCK // n grid points; each point's sum is its own row
    reduction, so the result is bitwise that of one (len(grid), n) array.
    With the grid's width finite, z or z**2 overflows only where exp(-z**2 / 2)
    is 0 in float64 anyway."""
    sums = np.empty(grid.shape[0])
    with np.errstate(over="ignore"):
        for start, stop in _row_blocks(grid.shape[0], _BLOCK // data.shape[0]):
            z = (grid[start:stop, None] - data[None, :]) / bw
            sums[start:stop] = np.exp(-0.5 * z * z).sum(axis=1)
    return sums


def write_margins_csv(path, md):
    """Margin CSV: one row per example, header index,raw_margin,normalized_margin."""
    header = ("index", "raw_margin", "normalized_margin")
    write_csv_17g(path, header, np.arange(len(md.raw)), md.raw, md.normalized)


def write_histogram_csv(path, summary):
    edges, density = summary.hist_edges, summary.hist_density
    write_csv_17g(path, ("bin_left", "bin_right", "density"), edges[:-1], edges[1:], density)


def write_kde_csv(path, summary):
    write_csv_17g(path, ("kde_x", "kde_density"), summary.kde_x, summary.kde_density)
