"""Exact power-of-two symmetries of the bound quantities.

Float arithmetic scales exactly by powers of two away from overflow and
underflow, and every norm is computed on power-of-two prescaled data, so each
positively homogeneous quantity must scale (or stay put) bit for bit: every
comparison here is exact equality, with no tolerance.  ``uniform_bound_total``
is left out, since its (1 + B) and log(2 + B) terms are not homogeneous.
"""

import math

import numpy as np
import pytest

from margin_auditor import (
    Dataset,
    Identity,
    Layer,
    Network,
    NumericDegeneracyError,
    Relu,
    analyze_network,
    cover_budget,
    cover_element_for,
    frobenius_norm,
    generalization_bound_fixed,
    generalization_bound_uniform,
    layer_norms,
    margin_distribution,
    matrix_cover_logsize,
    network_cover_logsize,
    spectral_complexity,
)
from margin_auditor.linalg import _group_norm
from margin_auditor.margins import _pass

INVARIANT = ("R_A", "R_PB", "term_complexity", "bound_total", "ramp_risk")
SCALED = ("data_norm_B", "gamma")


def _network(scales=(0, 0, 0)):
    r = np.random.default_rng(20)
    dims = (20, 16, 12, 5)
    layers = [
        Layer(weight=np.ldexp(r.standard_normal((dims[i + 1], dims[i])), scales[i]),
              nonlinearity=Relu() if i < 2 else Identity())
        for i in range(3)
    ]
    return Network(layers=tuple(layers))


def _dataset(k=0):
    r = np.random.default_rng(21)
    return Dataset(X=np.ldexp(r.standard_normal((40, 20)), k), y=r.integers(1, 6, size=40), k=5)


def _assert_reports(base, other, k):
    (report, md), (report_k, md_k) = base, other
    for name in INVARIANT:
        assert getattr(report_k, name) == getattr(report, name), name
    for name in SCALED:
        assert getattr(report_k, name) == math.ldexp(getattr(report, name), k), name
    assert np.array_equal(md_k.normalized, md.normalized)
    assert np.array_equal(md_k.raw, np.ldexp(md.raw, k))


@pytest.mark.parametrize("k", [40, -40, 300, -300])
def test_analyze_under_data_scaling(k):
    net = _network()
    _assert_reports(analyze_network(net, _dataset()), analyze_network(net, _dataset(k)), k)


@pytest.mark.parametrize("a", [5, 200, 520])
def test_analyze_under_balanced_layer_rescaling(a):
    ds = _dataset()
    _assert_reports(analyze_network(_network(), ds), analyze_network(_network((a, -a, 0)), ds), 0)


@pytest.mark.parametrize("k", [40, -40, 300, -300])
def test_margin_distribution_under_data_scaling(k):
    net = _network()
    r_a = spectral_complexity(layer_norms(net))
    md, md_k = margin_distribution(net, _dataset(), r_a), margin_distribution(net, _dataset(k), r_a)
    assert np.array_equal(md_k.normalized, md.normalized)
    assert np.array_equal(md_k.raw, np.ldexp(md.raw, k))
    assert md_k.normalizer == math.ldexp(md.normalizer, k)
    assert md_k.gamma_used == math.ldexp(md.gamma_used, k)


@pytest.mark.parametrize("a", [5, 200])
def test_margin_distribution_under_balanced_layer_rescaling(a):
    ds = _dataset()
    net, net_a = _network(), _network((a, -a, 0))
    r_a = spectral_complexity(layer_norms(net))
    assert spectral_complexity(layer_norms(net_a)) == r_a
    md, md_a = margin_distribution(net, ds, r_a), margin_distribution(net_a, ds, r_a)
    for name in ("raw", "normalized"):
        assert np.array_equal(getattr(md_a, name), getattr(md, name))
    assert (md_a.normalizer, md_a.gamma_used) == (md.normalizer, md.gamma_used)


@pytest.mark.parametrize("k", [40, -40, 300, -300, 600, -600, 1000, -1000])
def test_cover_sizes_under_data_and_eps_scaling(k):
    norms = layer_norms(_network())
    data_norm, eps = 7.25, 0.375
    assert network_cover_logsize(math.ldexp(data_norm, k), 16, norms, math.ldexp(eps, k)) == (
        network_cover_logsize(data_norm, 16, norms, eps)
    )
    for r in (2.0, 3.0, math.inf):
        size = matrix_cover_logsize(1.5, data_norm, 6, r, eps, 4)
        assert size == matrix_cover_logsize(1.5, math.ldexp(data_norm, k), 6, r,
                                            math.ldexp(eps, k), 4)
        assert size == matrix_cover_logsize(math.ldexp(1.5, k), data_norm, 6, r,
                                            math.ldexp(eps, k), 4)
    budget, budget_k = cover_budget(eps, norms), cover_budget(math.ldexp(eps, k), norms)
    assert budget_k.alpha_weights == budget.alpha_weights
    assert budget_k.alpha_bar == budget.alpha_bar
    assert budget_k.eps_per_layer == tuple(math.ldexp(e, k) for e in budget.eps_per_layer)


def _cover_inputs():
    r = np.random.default_rng(39)
    return r.standard_normal((4, 3)), r.standard_normal((8, 4))


@pytest.mark.parametrize("k", [100, -100, 300, -300, 500, -500, -560])
@pytest.mark.parametrize("q", [2.0, 3.0, math.inf])
def test_cover_element_under_operand_and_eps_scaling(q, k):
    a, x = _cover_inputs()
    w_hat, result = cover_element_for(a, x, 0.7, q=q, seed=3)
    for a_k, x_k in ((a, np.ldexp(x, k)), (np.ldexp(a, k), x)):
        w_k, result_k = cover_element_for(a_k, x_k, math.ldexp(0.7, k), q=q, seed=3)
        assert np.array_equal(w_k, np.ldexp(w_hat, k))
        assert result_k.counts == result.counts
        assert result_k.retries == result.retries
        if abs(k) <= 500:
            assert result_k.approx_error_sq == math.ldexp(result.approx_error_sq, 2 * k)
            assert result_k.guarantee == math.ldexp(result.guarantee, 2 * k)


@pytest.mark.parametrize("q", [2.0, 3.0, math.inf])
def test_cover_element_error_beyond_float64_range_rejected(q):
    a, x = _cover_inputs()
    for a_k, x_k in ((a, np.ldexp(x, 560)), (np.ldexp(a, 560), x)):
        with pytest.raises(NumericDegeneracyError):
            cover_element_for(a_k, x_k, math.ldexp(0.7, 560), q=q, seed=3)


def _beyond_range_cases():
    """A 2-layer net with s_1 = s_2 = 1.1e154 and a 16-8-3 net with entries near
    1e154, both on data near 1e-300, so every forward image is finite."""
    r = np.random.default_rng(22)
    w = np.diag([1.1e154, 0.0])
    rank_one = Network(layers=(Layer(weight=w, nonlinearity=Relu()),
                               Layer(weight=w, nonlinearity=Identity())))
    wide = Network(layers=(Layer(weight=1e154 * r.standard_normal((8, 16)), nonlinearity=Relu()),
                           Layer(weight=1e154 * r.standard_normal((3, 8)), nonlinearity=Identity())))
    return ((rank_one, Dataset(X=1e-300 * np.abs(r.standard_normal((10, 2))),
                               y=np.arange(10) % 2 + 1, k=2)),
            (wide, Dataset(X=1e-300 * r.standard_normal((20, 16)), y=np.arange(20) % 3 + 1, k=3)))


@pytest.mark.parametrize("case", [0, 1])
def test_analyze_beyond_float64_range_rejected(case):
    net, ds = _beyond_range_cases()[case]
    with pytest.raises(NumericDegeneracyError):
        analyze_network(net, ds)


def test_uniform_bound_beyond_float64_range_rejected():
    net, ds = _beyond_range_cases()[0]
    with pytest.raises(NumericDegeneracyError):
        generalization_bound_uniform(net, ds, gamma=1.0, delta=0.01)


def _tiny_net_case(e):
    """A 6-8-5-3 ReLU net whose seeded standard-normal weights are scaled by
    10**e, on 40 rows of unit scale."""
    r = np.random.default_rng(0)
    layers = [Layer(weight=10.0**e * r.standard_normal(shape), nonlinearity=nl)
              for shape, nl in (((8, 6), Relu()), ((5, 8), Relu()), ((3, 5), Identity()))]
    x = np.random.default_rng(1).standard_normal((40, 6))
    return Network(layers=tuple(layers)), Dataset(X=x, y=np.arange(40) % 3 + 1, k=3)


@pytest.mark.parametrize("e, bound", [(-102, "uniform"), (-103, "margin")])
def test_bound_beyond_float64_range_rejected(e, bound):
    # at 10**-102 the default gamma is near 1e-306: the margin bound is still
    # finite, but the uniform bound's (1/L + s_i) offsets do not shrink with
    # the weights, so its complexity term leaves the float64 range; at
    # 10**-103 the margin bound's complexity term leaves it as well
    net, ds = _tiny_net_case(e)
    gamma = margin_distribution(net, ds, 1.0).gamma_used
    args = (0.0, frobenius_norm(ds.X), net.width, ds.n, gamma, 0.01, layer_norms(net))
    if bound == "uniform":
        assert math.isfinite(generalization_bound_fixed(*args)[3])
    else:
        with pytest.raises(NumericDegeneracyError, match="margin bound exceeds"):
            generalization_bound_fixed(*args)
    with pytest.raises(NumericDegeneracyError, match=f"the {bound} bound exceeds"):
        analyze_network(net, ds)
    with pytest.raises(NumericDegeneracyError, match="uniform bound exceeds"):
        generalization_bound_uniform(net, ds, gamma=gamma, delta=0.01)


# ||X||_2 from the one pass over the data (margins._pass) runs under a
# power-of-two exponent that rises with the largest |entry| seen so far; a
# block that raises it rescales the squares taken in.  Every bit must still
# be that of _group_norm(X, 2, 2), whose exponent is the whole matrix's.
# 3 forward blocks; one column, summed pairwise; rows wider than a buffer
RUNNING_SHAPES = [(1300, 20), (1300, 1), (3, 70_000)]


def _norm_pass(x):
    """||X||_2 from the pass alone and from the pass that also runs a network."""
    ds = Dataset(X=x, y=np.ones(len(x), np.int64), k=1)
    net = Network(layers=(Layer(weight=np.ones((2, x.shape[1])), nonlinearity=Identity()),))
    norm = _pass(ds, norm=True)[1]
    assert _pass(ds, net, norm=True)[1] == norm
    return norm


@pytest.mark.parametrize("shape", RUNNING_SHAPES)
@pytest.mark.parametrize("k", [600, -600, 1000, -1000])
@pytest.mark.parametrize("where", ["first-row", "last-row", "after-zero-rows"])
def test_running_exponent_norm_at_any_scale(shape, k, where):
    # the largest entry in the first row fixes the exponent at once; in the
    # last row (the last forward block) it raises it mid-pass, and after
    # rows of zeros it replaces the exponent that no entry had set yet
    x = np.random.default_rng(22).standard_normal(shape)
    if where == "after-zero-rows":
        x[: -max(1, len(x) // 4)] = 0.0
    x[0 if where == "first-row" else -1, 0] = 64.0
    x = np.ldexp(x, k)
    assert _norm_pass(x) == _group_norm(x, 2.0, 2.0)


@pytest.mark.parametrize("k", [0, 600, -400])
def test_running_exponent_with_early_squares_subnormal_at_the_final_scale(k):
    # every row but the last holds entries near 2**-505 to 2**-530 of unit
    # scale; the last row holds unit entries in columns 10..19 only.  The
    # early squares are normal under the exponent they were taken in at and
    # straddle 2**-1022 under the final one; columns 0..9 stay tiny throughout
    r = np.random.default_rng(23)
    x = np.ldexp(r.standard_normal((1300, 20)), r.integers(-530, -505, size=(1300, 20)))
    x[-1, 10:] = r.standard_normal(10)
    x = np.ldexp(x, k)
    assert _norm_pass(x) == _group_norm(x, 2.0, 2.0)


@pytest.mark.parametrize("shape", RUNNING_SHAPES)
def test_running_exponent_norm_of_zero_data(shape):
    assert _norm_pass(np.zeros(shape)) == 0.0
