import math

import numpy as np
import pytest

from margin_auditor import (
    ParameterError,
    build_linear_network,
    frobenius_norm,
    rademacher_linear_estimate,
    rademacher_linear_trials,
    spectral_norm,
)


def product_of_spectral_norms(net):
    prod = 1.0
    for layer in net.layers:
        prod *= spectral_norm(layer.weight)
    return prod


class TestConstruction:
    def test_hand_example(self):
        net = build_linear_network([1.0, 0.0], depth=3)
        out = net.forward(np.array([[0.5, -2.0]]))
        assert out[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_norm_product(self):
        net = build_linear_network([3.0, 4.0], depth=2)
        assert product_of_spectral_norms(net) == pytest.approx(10.0, rel=1e-10)

    def test_random_inner_products(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            dim = int(rng.integers(1, 6))
            depth = int(rng.integers(2, 7))
            a = rng.standard_normal(dim)
            if not a.any():
                continue
            net = build_linear_network(a, depth)
            x = rng.standard_normal((3, dim))
            out = net.forward(x)[:, 0]
            assert np.max(np.abs(out - x @ a)) <= 1e-12

    def test_norm_product_random(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            a = rng.standard_normal(4)
            net = build_linear_network(a, depth=int(rng.integers(2, 6)))
            expected = 2.0 * math.sqrt(float(a @ a))
            assert product_of_spectral_norms(net) == pytest.approx(expected, rel=1e-10)

    def test_wide_hidden_layers(self):
        net = build_linear_network([1.0, 2.0], depth=4, widths=[5, 3, 2])
        x = np.array([[0.3, -0.7]])
        assert net.forward(x)[0, 0] == pytest.approx(0.3 - 1.4, abs=1e-14)

    def test_validation(self):
        with pytest.raises(ParameterError):
            build_linear_network([0.0, 0.0], depth=3)
        with pytest.raises(ParameterError):
            build_linear_network([1.0], depth=1)
        with pytest.raises(ParameterError):
            build_linear_network([1.0], depth=3, widths=[1, 2])
        with pytest.raises(ParameterError):
            build_linear_network([1.0], depth=3, widths=[2])
        with pytest.raises(ParameterError, match="widths must be a list, got 5"):
            build_linear_network([3.0, 4.0], 3, widths=5)
        for bad in (np.nan, np.inf):
            with pytest.raises(ParameterError, match="must be finite"):
                build_linear_network([1.0, bad], depth=3)


class TestRademacherEstimate:
    def test_single_example_exact(self):
        x = np.array([[3.0, 4.0]])
        est = rademacher_linear_estimate(x, radius=2.0, trials=50, seed=0)
        assert est == pytest.approx(2.0 * 5.0 / 1.0, rel=1e-12)

    def test_homogeneous_in_radius(self):
        x = np.random.default_rng(5).standard_normal((10, 3))
        e1 = rademacher_linear_estimate(x, 1.0, 500, seed=1)
        e2 = rademacher_linear_estimate(x, 2.0, 500, seed=1)
        assert e2 == pytest.approx(2.0 * e1, rel=1e-12)

    def test_khintchine_floor_orthogonal_rows(self):
        # orthogonal equal-norm rows: estimate >= r ||X||_2 / (sqrt(2) n) with
        # three standard errors of slack at 1e4 trials
        x = 3.0 * np.eye(8)
        trials = rademacher_linear_trials(x, radius=1.5, trials=10_000, seed=7)
        floor = 1.5 * frobenius_norm(x) / (math.sqrt(2.0) * 8)
        stderr = float(trials.std(ddof=1)) / math.sqrt(trials.shape[0])
        assert float(trials.mean()) >= floor - 3.0 * stderr

    def test_validation(self):
        with pytest.raises(ParameterError):
            rademacher_linear_estimate(np.ones((2, 2)), radius=0.0, trials=5)
        with pytest.raises(ParameterError):
            rademacher_linear_estimate(np.ones((2, 2)), radius=1.0, trials=0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ParameterError):
                rademacher_linear_estimate(np.array([[1.0, bad]]), radius=1.0, trials=5)
        with pytest.raises(ParameterError):
            rademacher_linear_estimate(np.ones(3), radius=1.0, trials=5)
