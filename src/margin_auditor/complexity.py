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

from .errors import DegenerateNetworkError, ParameterError
from .linalg import frobenius_norm, norm_2_1_of_transpose, spectral_norm
from .margins import _margin_distribution_of_outputs, _ramp_risk_of_margins, ramp_risk_empirical


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
    out = []
    for layer in net.layers:
        out.append(
            LayerNorms(
                s=spectral_norm(layer.weight),
                b=norm_2_1_of_transpose(layer.weight - layer.reference),
                rho=layer.nonlinearity.lipschitz(2.0),
            )
        )
    return out


def _capacity_factors(norms):
    """(prod rho_i s_i, sum (b_i/s_i)^(2/3)), both accumulated in layer order."""
    norms = list(norms)
    if any(ln.s == 0.0 for ln in norms):
        raise DegenerateNetworkError(
            "a layer has spectral norm 0; the capacity ratio b/s is undefined"
        )
    product = 1.0
    total = 0.0
    for ln in norms:
        product *= ln.rho * ln.s
        total += (ln.b / ln.s) ** (2.0 / 3.0)
    return product, total


def spectral_complexity(norms):
    """Product of rho_i * s_i times the (2,1)-correction sum raised to 3/2.

    Layers with b_i = 0 contribute nothing to the sum; if every b_i is zero
    the result degenerates to 0.0 with a warning (the network equals its
    references at this norm), which downstream margin normalization rejects.
    """
    product, total = _capacity_factors(norms)
    if total == 0.0:
        warnings.warn(
            "all layers equal their references in (2,1) norm; spectral complexity is 0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    return product * total**1.5


def pac_bayes_complexity(norms, frob_deltas, width):
    """Comparator capacity: product of rho_i * s_i times L * sqrt(sum W * ||A_i - M_i||_2^2 / s_i^2).

    Never smaller than :func:`spectral_complexity` on the same network.
    """
    norms = list(norms)
    frob_deltas = [float(f) for f in frob_deltas]
    if len(frob_deltas) != len(norms):
        raise ParameterError("need one Frobenius deviation per layer")
    product, _ = _capacity_factors(norms)
    total = 0.0
    for ln, f in zip(norms, frob_deltas):
        total += width * f * f / (ln.s * ln.s)
    return product * len(norms) * math.sqrt(total)


def pac_bayes_complexity_of(net, norms=None):
    """Comparator capacity computed directly from a network."""
    if norms is None:
        norms = layer_norms(net)
    deltas = [frobenius_norm(l.weight - l.reference) for l in net.layers]
    return pac_bayes_complexity(norms, deltas, net.width)


def matrix_cover_logsize(a, b_x, m, r, eps, d):
    """Log covering number of {XA : ||A||_(q,s) <= a} at scale eps:
    ceil(a^2 b^2 m^(2/r) / eps^2) * ln(2dm)."""
    if not (a > 0.0 and b_x > 0.0 and eps > 0.0):
        raise ParameterError("a, b and eps must be positive")
    if d < 1 or m < 1:
        raise ParameterError("d and m must be at least 1")
    if not (r >= 1.0):
        raise ParameterError(f"exponent r must be >= 1, got {r!r}")
    m_pow = 1.0 if math.isinf(r) else float(m) ** (2.0 / r)
    k = math.ceil(a * a * b_x * b_x * m_pow / (eps * eps))
    return k * math.log(2.0 * d * m)


def network_cover_logsize(data_norm, width, norms, eps):
    """Whole-network log covering number at scale eps:
    (||X||_2^2 ln(2 W^2) / eps^2) * prod(s_j^2 rho_j^2) * (sum (b_i/s_i)^(2/3))^3."""
    if not (eps > 0.0):
        raise ParameterError(f"eps must be positive, got {eps!r}")
    product, total = _capacity_factors(norms)
    return (
        data_norm * data_norm * math.log(2.0 * width * width) / (eps * eps)
    ) * product * product * total**3


def cover_budget(eps, norms):
    """Split a total cover resolution across layers.

    alpha_i is proportional to (b_i/s_i)^(2/3) and sums to one; layer i then
    receives eps_i = alpha_i * eps / (rho_i * prod_{j>i} rho_j s_j).
    """
    if not (eps > 0.0):
        raise ParameterError(f"eps must be positive, got {eps!r}")
    norms = list(norms)
    _, alpha_bar = _capacity_factors(norms)
    if alpha_bar == 0.0:
        raise DegenerateNetworkError(
            "every layer matches its reference; no cover budget to allocate"
        )
    alphas = [(ln.b / ln.s) ** (2.0 / 3.0) / alpha_bar for ln in norms]
    eps_layers = []
    length = len(norms)
    for i, (alpha, ln) in enumerate(zip(alphas, norms)):
        tail = 1.0
        for j in range(i + 1, length):
            tail *= norms[j].rho * norms[j].s
        eps_layers.append(alpha * eps / (ln.rho * tail))
    return CoverBudget(
        eps_total=eps,
        eps_per_layer=tuple(eps_layers),
        alpha_weights=tuple(alphas),
        alpha_bar=alpha_bar,
    )


def cover_resolution(eps_per_layer, rho, c):
    """Final resolution of a composed per-layer cover:
    tau = sum_j eps_j rho_j prod_{l>j} rho_l c_l."""
    eps_per_layer = list(eps_per_layer)
    rho = list(rho)
    c = list(c)
    if not (len(eps_per_layer) == len(rho) == len(c)):
        raise ParameterError("eps, rho and c sequences must have equal length")
    length = len(rho)
    tau = 0.0
    for j in range(length):
        term = eps_per_layer[j] * rho[j]
        for l in range(j + 1, length):
            term *= rho[l] * c[l]
        tau += term
    return tau


def dudley_closed_form(r_const, n):
    """Minimize 4a/sqrt(n) + 12*sqrt(R)*ln(sqrt(n)/a)/n over a for the R/eps^2 entropy family.

    Returns (bound, alpha_star) with alpha_star = 3*sqrt(R/n); when that
    exceeds sqrt(n) the boundary value at a = sqrt(n) applies and the
    integral term is zero.
    """
    if not (r_const > 0.0):
        raise ParameterError(f"R must be positive, got {r_const!r}")
    if n < 1:
        raise ParameterError(f"n must be at least 1, got {n}")
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
    if not (alpha > 0.0):
        raise ParameterError(f"alpha must be positive, got {alpha!r}")
    if n < 1:
        raise ParameterError(f"n must be at least 1, got {n}")
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
    Returns (term_const, term_complexity, term_confidence, total).
    """
    _check_bound_params(gamma, delta, n)
    if not (data_bound > 0.0):
        raise ParameterError(f"data norm bound must be positive, got {data_bound!r}")
    product, total = _capacity_factors(norms)
    term_const = 8.0 / n
    term_complexity = (
        72.0 * data_bound * math.log(2.0 * width) * math.log(n) / (gamma * n)
    ) * product * total**1.5
    term_confidence = 3.0 * math.sqrt(math.log(1.0 / delta) / (2.0 * n))
    return term_const, term_complexity, term_confidence, (
        ramp_risk + term_const + term_complexity + term_confidence
    )


def generalization_bound_uniform(net, ds, gamma, delta):
    """Explicit-constant bound holding uniformly over margins and norms.

    Evaluates ramp risk + 8/n + the 144-constant complexity term with its
    (1/L + .) norm offsets, plus the sqrt(9/(2n)) confidence term whose log
    sum absorbs the union over norm scales.  In the gamma < 2/n regime the
    value exceeds 1 by construction (the report flags this as vacuous).
    Forwards the data for the ramp risk and extracts the layer norms, then
    evaluates :func:`_uniform_bound`, which :func:`analyze_network` calls on
    the quantities it already holds.
    """
    return _uniform_bound(
        ramp_risk_empirical(net, ds, gamma), frobenius_norm(ds.X), net.width,
        ds.X.shape[0], gamma, delta, layer_norms(net),
    )


def _uniform_bound(ramp_risk, data_norm, width, n, gamma, delta, norms):
    """:func:`generalization_bound_uniform` from extracted quantities, in the
    shape of :func:`generalization_bound_fixed`; a zero data norm is allowed."""
    _check_bound_params(gamma, delta, n)
    norms = list(norms)
    length = len(norms)
    product_rho = 1.0
    for ln in norms:
        product_rho *= ln.rho
    total = 0.0
    for i, ln in enumerate(norms):
        term = 1.0 / length + ln.b
        for j, other in enumerate(norms):
            if j != i:
                term *= 1.0 / length + other.s
        total += term ** (2.0 / 3.0)
    term_complexity = (
        144.0 * math.log(n) * math.log(2.0 * width) / (gamma * n)
        * product_rho * (1.0 + data_norm) * total**1.5
    )
    log_sum = math.log(1.0 / delta) + math.log(2.0 * n / gamma)
    log_sum += 2.0 * math.log(2.0 + data_norm)
    for ln in norms:
        log_sum += 2.0 * math.log(2.0 + length * ln.b)
        log_sum += 2.0 * math.log(2.0 + length * ln.s)
    term_confidence = math.sqrt(9.0 / (2.0 * n)) * math.sqrt(log_sum)
    return ramp_risk + 8.0 / n + term_complexity + term_confidence


def margin_bound_assembly(ramp_risk, rademacher, n, delta):
    """Three-term margin bound: ramp risk + 2 * Rademacher + 3 sqrt(ln(1/delta)/(2n))."""
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"delta must lie in (0,1), got {delta!r}")
    if n < 1:
        raise ParameterError(f"n must be at least 1, got {n}")
    return ramp_risk + 2.0 * rademacher + 3.0 * math.sqrt(math.log(1.0 / delta) / (2.0 * n))


def _check_bound_params(gamma, delta, n):
    if not (gamma > 0.0):
        raise ParameterError(f"gamma must be positive, got {gamma!r}")
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"delta must lie in (0,1), got {delta!r}")
    if n < 2:
        raise ParameterError(f"need n >= 2 samples, got {n}")


def analyze_network(net, ds, gamma=None, delta=0.01):
    """Full diagnostic pass: norms, capacities, margins, and both bounds.

    Returns (BoundReport, MarginDistribution).  When gamma is omitted it
    defaults to the median positive raw margin (1.0 if none are positive).
    The data is forwarded once, the layer norms and ||X||_2 are extracted
    once, and the margins, ramp risk and both bounds all come from them.
    """
    norms = layer_norms(net)
    r_a = spectral_complexity(norms)
    r_pb = pac_bayes_complexity_of(net, norms)
    data_norm = frobenius_norm(ds.X)
    n = ds.X.shape[0]
    md = _margin_distribution_of_outputs(net.forward(ds.X), ds.y, r_a, data_norm, gamma)
    gamma = md.gamma_used
    _check_bound_params(gamma, delta, n)
    ramp = _ramp_risk_of_margins(md.raw, gamma)
    term_const, term_complexity, term_confidence, total = generalization_bound_fixed(
        ramp, data_norm, net.width, n, gamma, delta, norms
    )
    report = BoundReport(
        layer_norms=tuple(norms),
        R_A=r_a,
        R_PB=r_pb,
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
        uniform_bound_total=_uniform_bound(
            ramp, data_norm, net.width, n, gamma, delta, norms
        ),
        uniform_bound_vacuous=gamma < 2.0 / n,
    )
    return report, md
