"""Capacity and bound formulas: spectral complexity, its PAC-Bayes-style
comparator, matrix/network covering-number log-sizes, the per-layer cover
budget and its composed resolution, the Dudley entropy integral (closed form
and quadrature), and the explicit-constant generalization bounds.

Everything here is a pure function of numbers already extracted from a
network; no randomness, fixed sequential reductions.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .covering import _atom_budget
from .errors import (DegenerateNetworkError, NumericDegeneracyError, ParameterError,
                     _check_count, _check_positive, _finite)
from .linalg import _check_exponent, _group_norm, _spectral_norm
from .margins import (_margin_distribution_of_outputs, _pass, _ramp_risk_of_margins,
                      margins_of_outputs)


@dataclass(frozen=True)
class LayerNorms:
    """Per-layer norm triple: spectral norm s, (2,1) reference deviation b, Lipschitz rho."""

    s: float
    b: float
    rho: float

    def __post_init__(self):
        if self.s < 0.0 or self.b < 0.0 or not (self.rho > 0.0):
            raise ParameterError(f"invalid layer norms: s={self.s}, b={self.b}, rho={self.rho}")


@dataclass(frozen=True)
class CoverBudget:
    """Per-layer cover resolutions eps_i and their normalized weights alpha_i."""

    eps_total: float
    eps_per_layer: tuple
    alpha_weights: tuple
    alpha_bar: float


@dataclass(frozen=True)
class BoundReport:
    """All norm, margin, and bound quantities for one network/dataset pair."""

    layer_norms: tuple
    R_A: float
    R_PB: float
    data_norm_B: float
    W: int
    n: int
    gamma: float
    delta: float
    ramp_risk: float
    term_const: float
    term_complexity: float
    term_confidence: float
    bound_total: float
    uniform_bound_total: float
    uniform_bound_vacuous: bool


def layer_norms(net):
    """Extract (s_i, b_i, rho_i) for every layer of a network.

    s_i is the spectral norm of the weight, b_i the (2,1) norm of the
    transposed deviation from the reference, rho_i the l2 Lipschitz constant
    of the nonlinearity.
    """
    return _extract_norms(net)[0]


def _extract_norms(net):
    """(layer norms, ||W_i - M_i||_F per layer) from one deviation per layer; a
    deviation beyond the float64 range is a NumericDegeneracyError."""
    norms, deltas = [], []
    for layer in net.layers:
        w, m = layer.weight, layer.reference
        zero = m.strides == (0, 0) and m[0, 0] == 0.0  # one 0.0 at stride 0: W - M is W itself
        with np.errstate(over="ignore"):
            deviation = w if zero else _finite(w - m, "a deviation W - M")
        s, b = _spectral_norm(layer.weight), _group_norm(deviation.T, 2.0, 1.0)
        norms.append(LayerNorms(s=s, b=b, rho=layer.nonlinearity.lipschitz(2.0)))
        deltas.append(_group_norm(deviation, 2.0, 2.0))
    return norms, deltas


def _capacity_factors(norms):
    """(prod rho_i s_i, sum (b_i/s_i)^(2/3), the summed terms), accumulated in layer order."""
    norms = list(norms)
    if any(ln.s == 0.0 for ln in norms):
        raise DegenerateNetworkError(
            "a layer has spectral norm 0; the capacity ratio b/s is undefined"
        )
    product, total, terms = 1.0, 0.0, []
    for ln in norms:
        product *= ln.rho * ln.s
        terms.append((ln.b / ln.s) ** (2.0 / 3.0))
        total += terms[-1]
    return product, total, terms


def spectral_complexity(norms):
    """Product of rho_i * s_i times the (2,1)-correction sum raised to 3/2.

    Layers with b_i = 0 contribute nothing to the sum; if every b_i is zero
    the result degenerates to 0.0 with a warning (the network equals its
    references at this norm).  A product that underflows also gives 0.0; the
    analysis core behind ``analyze``, ``margins`` and ``train`` rejects either
    as a NumericDegeneracyError, which a value beyond float64 raises here.
    """
    product, total, _ = _capacity_factors(norms)
    if total == 0.0:
        warnings.warn("all layers equal their references in (2,1) norm; spectral complexity is 0",
                      RuntimeWarning, stacklevel=2)
    return _finite(_spectral_complexity(product, total), "the spectral complexity")


def _spectral_complexity(product, total):
    """R_A from the :func:`_capacity_factors`, 0.0 when the sum is 0; never warns or raises."""
    return product * _three_halves(total) if total else 0.0


def _three_halves(total):
    """``total ** 1.5``, or inf where Python's float power raises OverflowError."""
    try:
        return total**1.5
    except OverflowError:
        return math.inf


def pac_bayes_complexity(norms, frob_deltas, width):
    """Comparator capacity: product of rho_i * s_i times L * sqrt(sum W * ||A_i - M_i||_2^2 / s_i^2).

    Never smaller than :func:`spectral_complexity` on the same network; a value
    beyond float64 is a NumericDegeneracyError.
    """
    norms = list(norms)
    frob_deltas = [float(f) for f in frob_deltas]
    if len(frob_deltas) != len(norms):
        raise ParameterError("need one Frobenius deviation per layer")
    product, total = _capacity_factors(norms)[0], 0.0
    for ln, f in zip(norms, frob_deltas):
        ratio = f / ln.s  # squared after the division: exact under power-of-two scaling
        total += width * ratio * ratio
    return _finite(product * len(norms) * math.sqrt(total), "the PAC-Bayes complexity R_PB")


def pac_bayes_complexity_of(net, norms=None):
    """Comparator capacity computed directly from a network."""
    extracted, deltas = _extract_norms(net)
    return pac_bayes_complexity(extracted if norms is None else norms, deltas, net.width)


def matrix_cover_logsize(a, b_x, m, r, eps, d):
    """Log covering number of {XA : ||A||_(q,s) <= a} at scale eps: k ln(2dm), with k
    the atom budget of ``covering._atom_budget`` (a NumericDegeneracyError beyond float64)."""
    _check_positive(a, "a")
    _check_positive(b_x, "b")
    _check_positive(eps, "eps")
    _check_count(d, 1, "d")
    _check_count(m, 1, "m")
    _check_exponent(r, "r")
    return _finite(_atom_budget(a, b_x, m, r, eps) * math.log(2.0 * d * m), "the cover log-size")


def network_cover_logsize(data_norm, width, norms, eps):
    """Whole-network log covering number at scale eps: (||X||_2 R_A / eps)^2 ln(2 W^2),
    R_A = prod(s_j rho_j) (sum (b_i/s_i)^(2/3))^(3/2); a NumericDegeneracyError beyond
    float64.  Squaring after the division keeps it homogeneous at any float64 scale."""
    _check_positive(eps, "eps")
    scaled = data_norm / eps * _spectral_complexity(*_capacity_factors(norms)[:2])
    return _finite(scaled * scaled * math.log(2.0 * width * width), "the cover log-size")


def _tail_products(factors):
    """prod_{j>i} factors[j] for every i, built in one reverse pass."""
    tails = [1.0] * len(factors)
    for i in range(len(factors) - 1, 0, -1):
        tails[i - 1] = factors[i] * tails[i]
    return tails


def cover_budget(eps, norms):
    """Split a total cover resolution across layers.

    alpha_i is proportional to (b_i/s_i)^(2/3) and sums to one; layer i then
    receives eps_i = alpha_i * eps / (rho_i * prod_{j>i} rho_j s_j).
    """
    _check_positive(eps, "eps")
    norms = list(norms)
    _, alpha_bar, terms = _capacity_factors(norms)
    if alpha_bar == 0.0:
        raise DegenerateNetworkError(
            "every layer matches its reference; no cover budget to allocate"
        )
    alphas = [term / alpha_bar for term in terms]
    tails = _tail_products([ln.rho * ln.s for ln in norms])
    eps_layers = tuple(a * eps / (ln.rho * t) for a, ln, t in zip(alphas, norms, tails))
    return CoverBudget(eps, eps_layers, tuple(alphas), alpha_bar)


def cover_resolution(eps_per_layer, rho, c):
    """Final resolution of a composed per-layer cover:
    tau = sum_j eps_j rho_j prod_{l>j} rho_l c_l."""
    eps_per_layer, rho, c = list(eps_per_layer), list(rho), list(c)
    if not (len(eps_per_layer) == len(rho) == len(c)):
        raise ParameterError("eps, rho and c sequences must have equal length")
    tails, tau = _tail_products([r * c_l for r, c_l in zip(rho, c)]), 0.0
    for eps_j, rho_j, tail in zip(eps_per_layer, rho, tails):
        tau += eps_j * rho_j * tail
    return tau


def dudley_closed_form(r_const, n):
    """Minimize 4a/sqrt(n) + 12*sqrt(R)*ln(sqrt(n)/a)/n over a for the R/eps^2 entropy family.

    Returns (bound, alpha_star) with alpha_star = 3*sqrt(R/n); when that
    exceeds sqrt(n) the boundary value at a = sqrt(n) applies and the
    integral term is zero.
    """
    _check_positive(r_const, "R")
    _check_count(n, 1, "n")
    sqrt_n = math.sqrt(n)
    alpha_star = 3.0 * math.sqrt(r_const / n)
    if alpha_star >= sqrt_n:
        return 4.0, sqrt_n
    bound = 4.0 * alpha_star / sqrt_n + 12.0 * math.sqrt(r_const) / n * math.log(sqrt_n / alpha_star)
    return bound, alpha_star


DUDLEY_QUADRATURE_NODES = 256


def dudley_numeric(log_n_fn, n, alpha):
    """Entropy-integral bound 4*alpha/sqrt(n) + (12/n) * integral of sqrt(log N).

    The integral over [alpha, sqrt(n)] uses composite trapezoid over 256
    log-spaced nodes (trapezoid in the log coordinate, which integrates the
    R/eps^2 entropy family exactly).  ``log_n_fn`` must be nonincreasing,
    which is checked on the quadrature nodes.
    """
    _check_positive(alpha, "alpha")
    _check_count(n, 1, "n")
    sqrt_n = math.sqrt(n)
    head = 4.0 * alpha / sqrt_n
    if alpha >= sqrt_n:
        return head
    u = np.linspace(math.log(alpha), math.log(sqrt_n), DUDLEY_QUADRATURE_NODES)
    eps = np.exp(u)
    values = np.array([float(log_n_fn(e)) for e in eps])
    if np.any(values < 0.0):
        raise ParameterError("log covering numbers must be nonnegative")
    rises = np.diff(values)
    tol = 1e-9 * max(1.0, float(np.abs(values).max()))
    if np.any(rises > tol):
        raise ParameterError("log covering number function must be nonincreasing in eps")
    integrand = np.sqrt(values) * eps  # d(eps) = eps * du
    integral = float(np.trapezoid(integrand, u))
    return head + 12.0 / n * integral


def generalization_bound_fixed(ramp_risk, data_bound, width, n, gamma, delta, norms):
    """Explicit-constant margin bound with norms supplied in advance.

    Terms: ramp risk, 8/n, the complexity term
    (72 B ln(2W) ln(n) / (gamma n)) * prod(s_i rho_i) * (sum (b_i/s_i)^(2/3))^(3/2),
    and the confidence term 3 sqrt(ln(1/delta) / (2n)).
    Returns (term_const, term_complexity, term_confidence, total); a total
    beyond the float64 range is a NumericDegeneracyError.
    """
    _check_bound_params(gamma, delta, n)
    _check_positive(data_bound, "data norm bound")
    product, total, _ = _capacity_factors(norms)
    term_const = 8.0 / n
    term_complexity = (
        72.0 * data_bound * math.log(2.0 * width) * math.log(n) / (gamma * n)
    ) * product * _three_halves(total)
    term_confidence = 3.0 * math.sqrt(math.log(1.0 / delta) / (2.0 * n))
    bound = _finite(ramp_risk + term_const + term_complexity + term_confidence, "the margin bound")
    return term_const, term_complexity, term_confidence, bound


def generalization_bound_uniform(net, ds, gamma, delta):
    """Explicit-constant bound holding uniformly over margins and norms.

    Evaluates ramp risk + 8/n + the 144-constant complexity term with its
    (1/L + .) norm offsets, plus the sqrt(9/(2n)) confidence term whose log
    sum absorbs the union over norm scales.  In the gamma < 2/n regime the
    value exceeds 1 by construction (the report flags this as vacuous).
    Forwards the data for the ramp risk, taking ||X||_2 in the same pass, and
    extracts the layer norms, then evaluates :func:`_uniform_bound`, which
    :func:`analyze_network` calls on the quantities it already holds.
    """
    _check_positive(gamma, "gamma")
    outputs, data_norm = _pass(ds, net, norm=True)
    ramp = _ramp_risk_of_margins(margins_of_outputs(outputs, ds.y), gamma)
    return _uniform_bound(ramp, data_norm, net.width, ds.n, gamma, delta, layer_norms(net))


def _uniform_bound(ramp_risk, data_norm, width, n, gamma, delta, norms):
    """:func:`generalization_bound_uniform` from extracted quantities, in the
    shape of :func:`generalization_bound_fixed`; a zero data norm is allowed,
    a value beyond the float64 range is a NumericDegeneracyError."""
    _check_bound_params(gamma, delta, n)
    norms = list(norms)
    length = len(norms)
    product_rho, total = 1.0, 0.0
    log_sum = math.log(1.0 / delta) + math.log(2.0 * n / gamma)
    log_sum += 2.0 * math.log(2.0 + data_norm)
    for i, ln in enumerate(norms):
        product_rho *= ln.rho
        term = 1.0 / length + ln.b
        for j, other in enumerate(norms):
            if j != i:
                term *= 1.0 / length + other.s
        total += term ** (2.0 / 3.0)
        log_sum += 2.0 * math.log(2.0 + length * ln.b)
        log_sum += 2.0 * math.log(2.0 + length * ln.s)
    term_complexity = (144.0 * math.log(n) * math.log(2.0 * width) / (gamma * n)
                       * product_rho * (1.0 + data_norm) * _three_halves(total))
    term_confidence = math.sqrt(9.0 / (2.0 * n)) * math.sqrt(log_sum)
    return _finite(ramp_risk + 8.0 / n + term_complexity + term_confidence, "the uniform bound")


def margin_bound_assembly(ramp_risk, rademacher, n, delta):
    """Three-term margin bound: ramp risk + 2 * Rademacher + 3 sqrt(ln(1/delta)/(2n))."""
    _check_delta(delta)
    _check_count(n, 1, "n")
    return ramp_risk + 2.0 * rademacher + 3.0 * math.sqrt(math.log(1.0 / delta) / (2.0 * n))


def _check_bound_params(gamma, delta, n):
    if not 0.0 < gamma < math.inf:
        raise ParameterError(f"gamma must be positive and finite, got {gamma!r}")
    _check_delta(delta)
    _check_count(n, 2, "n")


def _check_delta(delta):
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"delta must lie in (0,1), got {delta!r}")


def _norms_and_margins(net, outputs, labels, data_norm, gamma=None):
    """The analysis core: layer norms, ||W_i - M_i||_F, R_A and the MarginDistribution."""
    norms, deltas = _extract_norms(net)
    r_a = _spectral_complexity(*_capacity_factors(norms)[:2])
    if not r_a > 0.0:  # NaN when the product underflows and the ratio sum overflows
        raise NumericDegeneracyError(f"spectral complexity is {r_a!r}: the norm product "
                                     "underflows float64 or every layer equals its reference")
    md = _margin_distribution_of_outputs(outputs, labels, r_a, data_norm, gamma)
    return norms, deltas, r_a, md


def analyze_network(net, ds, gamma=None, delta=0.01):
    """Full diagnostic pass: norms, capacities, margins, and both bounds.

    Returns (BoundReport, MarginDistribution).  When gamma is omitted it
    defaults to the median positive raw margin (1.0 if none are positive).
    The data is forwarded once, and ||X||_2 taken in the same pass;
    :func:`_norms_and_margins` gives the layer norms, R_A (a NumericDegeneracyError
    unless positive) and the margins, and the ramp risk and both bounds (which
    must lie in float64) come from them.
    """
    outputs, data_norm = _pass(ds, net, norm=True)
    norms, deltas, r_a, md = _norms_and_margins(net, outputs, ds.y, data_norm, gamma)
    n, gamma = ds.n, md.gamma_used
    ramp = _ramp_risk_of_margins(md.raw, gamma)
    term_const, term_complexity, term_confidence, total = generalization_bound_fixed(
        ramp, data_norm, net.width, n, gamma, delta, norms
    )
    report = BoundReport(
        layer_norms=tuple(norms),
        R_A=r_a,
        R_PB=pac_bayes_complexity(norms, deltas, net.width),
        data_norm_B=data_norm,
        W=net.width,
        n=n,
        gamma=gamma,
        delta=float(delta),
        ramp_risk=ramp,
        term_const=term_const,
        term_complexity=term_complexity,
        term_confidence=term_confidence,
        bound_total=total,
        uniform_bound_total=_uniform_bound(ramp, data_norm, net.width, n, gamma, delta, norms),
        uniform_bound_vacuous=gamma < 2.0 / n,
    )
    return report, md
