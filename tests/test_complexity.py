import math

import numpy as np
import pytest

from margin_auditor import (
    Dataset,
    DegenerateNetworkError,
    Identity,
    Layer,
    LayerNorms,
    Network,
    ParameterError,
    Relu,
    analyze_network,
    cover_budget,
    cover_resolution,
    dudley_closed_form,
    dudley_numeric,
    frobenius_norm,
    generalization_bound_fixed,
    generalization_bound_uniform,
    jacobi_singular_values,
    layer_norms,
    margin_bound_assembly,
    matrix_cover_logsize,
    network_cover_logsize,
    pac_bayes_complexity,
    pac_bayes_complexity_of,
    ramp_risk_empirical,
    spectral_complexity,
)
from conftest import random_dataset, random_network


def one_line_capacity(ss, bs, rhos):
    # independently coded single-expression evaluator
    return math.prod(r * s for r, s in zip(rhos, ss)) * (
        sum((b / s) ** (2.0 / 3.0) for b, s in zip(bs, ss))
    ) ** 1.5


def random_norm_tuples(rng, count, depth_hi=6):
    for _ in range(count):
        depth = int(rng.integers(1, depth_hi + 1))
        ss = rng.uniform(0.2, 5.0, size=depth)
        bs = rng.uniform(0.0, 8.0, size=depth)
        rhos = rng.uniform(0.5, 3.0, size=depth)
        yield ss, bs, rhos


class TestLayerNorms:
    def test_single_layer(self):
        net = Network(
            layers=(Layer(weight=np.array([[3.0, 0.0], [0.0, 4.0]]), nonlinearity=Relu()),)
        )
        (ln,) = layer_norms(net)
        assert ln.s == pytest.approx(4.0, rel=1e-12)
        assert ln.b == pytest.approx(7.0)
        assert ln.rho == 1.0

    def test_reference_equal_weight(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        net = Network(layers=(Layer(weight=w, nonlinearity=Relu(), reference=w.copy()),))
        assert layer_norms(net)[0].b == 0.0

    def test_matches_independent_oracle(self, rng):
        net = random_network(rng, depth=3, zero_refs=False)
        for layer, ln in zip(net.layers, layer_norms(net)):
            assert ln.s == pytest.approx(
                float(jacobi_singular_values(layer.weight)[0]), rel=1e-10
            )
            rows = layer.weight - layer.reference
            oracle = sum(math.sqrt(float(r @ r)) for r in rows)
            assert ln.b == pytest.approx(oracle, rel=1e-12)

    def test_invalid_norms_rejected(self):
        with pytest.raises(ParameterError):
            LayerNorms(s=-1.0, b=0.0, rho=1.0)
        with pytest.raises(ParameterError):
            LayerNorms(s=1.0, b=0.0, rho=0.0)


class TestSpectralComplexity:
    def test_single_layer_collapses_to_b(self):
        assert spectral_complexity([LayerNorms(s=4.0, b=7.0, rho=1.0)]) == pytest.approx(7.0)

    def test_two_layer_equal_ratio(self):
        norms = [LayerNorms(s=2.0, b=2.0, rho=1.0), LayerNorms(s=3.0, b=3.0, rho=1.0)]
        assert spectral_complexity(norms) == pytest.approx(12.0 * math.sqrt(2.0), rel=1e-14)

    def test_matches_one_line_evaluator(self, rng):
        for ss, bs, rhos in random_norm_tuples(rng, 200):
            norms = [LayerNorms(s=s, b=b, rho=r) for s, b, r in zip(ss, bs, rhos)]
            assert spectral_complexity(norms) == pytest.approx(
                one_line_capacity(ss, bs, rhos), rel=1e-12
            )

    def test_zero_spectral_norm_rejected(self):
        with pytest.raises(DegenerateNetworkError):
            spectral_complexity([LayerNorms(s=0.0, b=1.0, rho=1.0)])

    def test_all_zero_b_warns(self):
        with pytest.warns(RuntimeWarning):
            assert spectral_complexity([LayerNorms(s=2.0, b=0.0, rho=1.0)]) == 0.0

    def test_degree_one_homogeneity(self, rng):
        for ss, bs, rhos in random_norm_tuples(rng, 50):
            if all(b == 0 for b in bs):
                continue
            norms = [LayerNorms(s=s, b=b, rho=r) for s, b, r in zip(ss, bs, rhos)]
            c = float(rng.uniform(0.5, 4.0))
            scaled = list(norms)
            scaled[0] = LayerNorms(s=c * norms[0].s, b=c * norms[0].b, rho=norms[0].rho)
            assert spectral_complexity(scaled) == pytest.approx(
                c * spectral_complexity(norms), rel=1e-10
            )


class TestPacBayes:
    def test_hand_value(self):
        assert pac_bayes_complexity([LayerNorms(s=1.0, b=1.0, rho=1.0)], [1.0], 4) == 2.0

    def test_zero_when_reference_matches(self):
        assert pac_bayes_complexity([LayerNorms(s=2.0, b=0.0, rho=1.0)], [0.0], 9) == 0.0

    def test_dominates_capacity_on_random_networks(self, rng):
        for _ in range(100):
            net = random_network(rng, depth=int(rng.integers(1, 5)), zero_refs=False)
            norms = layer_norms(net)
            r_a = spectral_complexity(norms)
            r_pb = pac_bayes_complexity_of(net, norms)
            assert r_a <= r_pb * (1 + 1e-10)


class TestCoverLogsizes:
    def test_r_infinity(self):
        assert matrix_cover_logsize(1, 1, 2, math.inf, 1, 2) == pytest.approx(math.log(8.0))

    def test_huge_eps_hits_ceiling_floor(self):
        assert matrix_cover_logsize(1, 1, 3, 2, 100.0, 2) == pytest.approx(math.log(12.0))

    def test_hand_value(self):
        # a^2 b^2 m^(2/r) = 4 * 9 * 4 = 144, and 2dm = 40
        assert matrix_cover_logsize(2, 3, 4, 2, 1, 5) == pytest.approx(144 * math.log(40.0))

    def test_bad_eps(self):
        with pytest.raises(ParameterError):
            matrix_cover_logsize(1, 1, 1, 2, 0.0, 1)

    def test_network_logsize_single_layer(self):
        val = network_cover_logsize(1.0, 2, [LayerNorms(s=1.0, b=1.0, rho=1.0)], 1.0)
        assert val == pytest.approx(math.log(8.0))

    def test_network_logsize_eps_scaling(self, rng):
        norms = [LayerNorms(s=1.5, b=2.0, rho=1.0), LayerNorms(s=0.7, b=1.0, rho=2.0)]
        v1 = network_cover_logsize(3.0, 9, norms, 0.5)
        v2 = network_cover_logsize(3.0, 9, norms, 1.0)
        assert v1 == pytest.approx(4.0 * v2, rel=1e-12)

    def test_network_logsize_monotone_in_b_and_data_norm(self):
        norms = [LayerNorms(s=2.0, b=1.0, rho=1.0), LayerNorms(s=1.0, b=0.5, rho=1.0)]
        bumped = [LayerNorms(s=2.0, b=1.5, rho=1.0), norms[1]]
        base = network_cover_logsize(2.0, 8, norms, 0.3)
        assert network_cover_logsize(2.0, 8, bumped, 0.3) >= base
        assert network_cover_logsize(3.0, 8, norms, 0.3) >= base

    def test_network_logsize_formula_oracle(self, rng):
        for ss, bs, rhos in random_norm_tuples(rng, 50):
            norms = [LayerNorms(s=s, b=b, rho=r) for s, b, r in zip(ss, bs, rhos)]
            data_norm = float(rng.uniform(0.5, 10.0))
            width = int(rng.integers(2, 50))
            eps = float(rng.uniform(0.1, 3.0))
            expected = (
                data_norm**2
                * math.log(2 * width**2)
                / eps**2
                * math.prod((s * r) ** 2 for s, r in zip(ss, rhos))
                * sum((b / s) ** (2.0 / 3.0) for b, s in zip(bs, ss)) ** 3
            )
            assert network_cover_logsize(data_norm, width, norms, eps) == pytest.approx(
                expected, rel=1e-12
            )


class TestCoverBudget:
    def test_single_layer(self):
        budget = cover_budget(0.8, [LayerNorms(s=2.0, b=1.0, rho=3.0)])
        assert budget.alpha_weights == (1.0,)
        assert budget.eps_per_layer[0] == pytest.approx(0.8 / 3.0)

    def test_equal_ratios_give_uniform_weights(self):
        norms = [LayerNorms(s=2.0, b=4.0, rho=1.0), LayerNorms(s=1.0, b=2.0, rho=1.0)]
        budget = cover_budget(1.0, norms)
        assert np.allclose(budget.alpha_weights, [0.5, 0.5])

    def test_weights_sum_to_one_and_tau_within_budget(self, rng):
        for ss, bs, rhos in random_norm_tuples(rng, 200):
            if all(b == 0.0 for b in bs):
                continue
            norms = [LayerNorms(s=s, b=b, rho=r) for s, b, r in zip(ss, bs, rhos)]
            eps = float(rng.uniform(0.01, 5.0))
            budget = cover_budget(eps, norms)
            assert sum(budget.alpha_weights) == pytest.approx(1.0, abs=1e-12)
            tau = cover_resolution(budget.eps_per_layer, rhos, ss)
            assert tau <= eps * (1 + 1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateNetworkError):
            cover_budget(1.0, [LayerNorms(s=1.0, b=0.0, rho=1.0)])


class TestCoverResolution:
    def test_single_layer(self):
        assert cover_resolution([0.25], [2.0], [5.0]) == pytest.approx(0.5)

    def test_zero_eps(self):
        assert cover_resolution([0.0, 0.0], [1.0, 2.0], [3.0, 4.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            cover_resolution([1.0], [1.0, 2.0], [1.0, 2.0])

    def test_explicit_two_layer(self):
        # tau = e1*r1*r2*c2 + e2*r2
        tau = cover_resolution([0.1, 0.2], [2.0, 3.0], [10.0, 5.0])
        assert tau == pytest.approx(0.1 * 2.0 * 3.0 * 5.0 + 0.2 * 3.0)


class TestDudley:
    def test_closed_form_hand_value(self):
        bound, alpha = dudley_closed_form(9.0, 100)
        assert alpha == pytest.approx(0.9)
        assert bound == pytest.approx(0.36 + 0.36 * math.log(10.0 / 0.9), rel=1e-14)

    def test_small_r_limit(self):
        bound, _ = dudley_closed_form(1e-12, 100)
        assert bound < 1e-4

    def test_boundary_case(self):
        # alpha* = 3 sqrt(R/n) >= sqrt(n) when 9R >= n^2
        bound, alpha = dudley_closed_form(1e6, 4)
        assert alpha == pytest.approx(2.0)
        assert bound == pytest.approx(4.0)

    def test_closed_form_beats_grid(self):
        for r_const in (0.1, 1.0, 10.0, 100.0):
            for n in (100, 10000):
                bound, _ = dudley_closed_form(r_const, n)
                sqrt_n = math.sqrt(n)
                grid = np.exp(np.linspace(math.log(1e-6), math.log(sqrt_n * 0.999999), 10000))
                vals = 4.0 * grid / sqrt_n + 12.0 * math.sqrt(r_const) / n * np.log(sqrt_n / grid)
                assert bound <= float(vals.min()) * (1 + 1e-6)

    def test_numeric_zero_entropy(self):
        assert dudley_numeric(lambda e: 0.0, 100, 0.5) == pytest.approx(4.0 * 0.5 / 10.0)

    def test_numeric_matches_closed_form(self):
        for r_const in (0.1, 1.0, 10.0, 100.0):
            for n in (100, 10000):
                bound, alpha = dudley_closed_form(r_const, n)
                if alpha >= math.sqrt(n):
                    continue
                numeric = dudley_numeric(lambda e: r_const / (e * e), n, alpha)
                assert numeric == pytest.approx(bound, rel=1e-4)

    def test_numeric_scales_with_n(self):
        v1 = dudley_numeric(lambda e: 0.0, 100, 0.2)
        v2 = dudley_numeric(lambda e: 0.0, 200, 0.2)
        assert v2 == pytest.approx(v1 / math.sqrt(2.0), rel=1e-12)

    def test_numeric_rejects_increasing(self):
        with pytest.raises(ParameterError):
            dudley_numeric(lambda e: e, 100, 0.5)

    def test_alpha_past_sqrt_n(self):
        assert dudley_numeric(lambda e: 1.0, 4, 5.0) == pytest.approx(10.0)


class TestFixedBound:
    def test_zero_complexity_network(self):
        with pytest.warns(RuntimeWarning):
            pass_through = spectral_complexity([LayerNorms(s=1.0, b=0.0, rho=1.0)])
        assert pass_through == 0.0
        tc, tx, tf, total = generalization_bound_fixed(
            0.25, 1.0, 4, 100, 1.0, 0.1, [LayerNorms(s=1.0, b=0.0, rho=1.0)]
        )
        assert tx == 0.0
        assert total == pytest.approx(0.25 + 8.0 / 100 + 3.0 * math.sqrt(math.log(10.0) / 200.0))

    def test_gamma_scaling(self):
        norms = [LayerNorms(s=2.0, b=3.0, rho=1.0)]
        _, tx1, _, _ = generalization_bound_fixed(0.0, 1.0, 4, 100, 1.0, 0.1, norms)
        _, tx2, _, _ = generalization_bound_fixed(0.0, 1.0, 4, 100, 2.0, 0.1, norms)
        assert tx1 == pytest.approx(2.0 * tx2, rel=1e-14)

    def test_hand_complexity_term(self):
        norms = [LayerNorms(s=4.0, b=7.0, rho=1.0)]
        _, tx, _, _ = generalization_bound_fixed(0.0, 1.0, 4, 100, 1.0, 0.1, norms)
        expected = 72.0 * math.log(8.0) * math.log(100.0) * 4.0 * (7.0 / 4.0) / 100.0
        assert tx == pytest.approx(expected, rel=1e-14)

    def test_invalid_params(self):
        norms = [LayerNorms(s=1.0, b=1.0, rho=1.0)]
        with pytest.raises(ParameterError):
            generalization_bound_fixed(0.0, 1.0, 4, 100, -1.0, 0.1, norms)
        with pytest.raises(ParameterError):
            generalization_bound_fixed(0.0, 1.0, 4, 100, 1.0, 1.5, norms)

    def test_monotone_in_n(self):
        norms = [LayerNorms(s=2.0, b=1.0, rho=1.0)]
        values = [
            generalization_bound_fixed(0.0, 1.0, 8, n, 0.5, 0.05, norms)[3]
            for n in (3, 10, 100, 1000, 100000)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestUniformBound:
    def test_orders_above_fixed_bound(self, rng):
        wins = 0
        for _ in range(100):
            net = random_network(rng, depth=int(rng.integers(1, 4)))
            ds = random_dataset(rng, net, n=12)
            gamma = float(rng.uniform(0.2, 2.0))
            norms = layer_norms(net)
            ramp = ramp_risk_empirical(net, ds, gamma)
            fixed = generalization_bound_fixed(
                ramp, max(frobenius_norm(ds.X), 1e-9), net.width, ds.n, gamma, 0.05, norms
            )[3]
            uniform = generalization_bound_uniform(net, ds, gamma, 0.05)
            wins += int(uniform >= fixed)
        assert wins == 100

    def test_vacuous_flag_in_report(self, rng):
        net = random_network(rng, depth=1)
        ds = random_dataset(rng, net, n=50)
        vacuous_report, _ = analyze_network(net, ds, gamma=0.01, delta=0.1)
        assert vacuous_report.uniform_bound_vacuous  # gamma < 2/n = 0.04
        assert vacuous_report.uniform_bound_total > 1.0
        fine_report, _ = analyze_network(net, ds, gamma=1.0, delta=0.1)
        assert not fine_report.uniform_bound_vacuous

    def test_single_layer_edge_skeleton(self):
        # L=1, A=M, X=0: complexity term reduces to 144 ln(n) ln(2W) / (gamma n) * rho
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        net = Network(layers=(Layer(weight=w, nonlinearity=Relu(), reference=w.copy()),))
        ds = Dataset(X=np.zeros((10, 2)), y=np.ones(10, dtype=int), k=2)
        total = generalization_bound_uniform(net, ds, gamma=0.5, delta=0.1)
        n = 10
        ramp = 1.0  # zero outputs give margin 0 and ramp loss 1
        complexity = 144.0 * math.log(n) * math.log(4.0) / (0.5 * n) * 1.0 * 1.0 * 1.0
        log_sum = (
            math.log(10.0)
            + math.log(2 * n / 0.5)
            + 2 * math.log(2.0)
            + 2 * math.log(2.0 + 0.0)
            + 2 * math.log(2.0 + spectral_norm_of(w))
        )
        confidence = math.sqrt(9.0 / (2.0 * n)) * math.sqrt(log_sum)
        assert total == pytest.approx(ramp + 8.0 / n + complexity + confidence, rel=1e-12)


def spectral_norm_of(w):
    from margin_auditor import spectral_norm

    return spectral_norm(w)


class TestAssembly:
    def test_zero_terms(self):
        val = margin_bound_assembly(0.0, 0.0, 100, 0.1)
        assert val == pytest.approx(3.0 * math.sqrt(math.log(10.0) / 200.0))

    def test_linear_in_rademacher(self):
        base = margin_bound_assembly(0.1, 0.0, 50, 0.1)
        assert margin_bound_assembly(0.1, 0.3, 50, 0.1) == pytest.approx(base + 0.6)

    def test_composition_reproduces_fixed_bound_terms(self, rng):
        # assembling the entropy bound at alpha = 1/n reproduces the fixed
        # bound term by term: identical confidence terms, 8/n^(3/2) vs 8/n,
        # and complexity terms equal up to ln(2W) vs sqrt(ln(2W^2))
        for _ in range(20):
            depth = int(rng.integers(1, 4))
            norms = [
                LayerNorms(
                    s=float(rng.uniform(0.5, 3)), b=float(rng.uniform(0.1, 3)), rho=1.0
                )
                for _ in range(depth)
            ]
            n = int(rng.integers(10, 1000))
            gamma = float(rng.uniform(0.2, 2.0))
            width = int(rng.integers(2, 30))
            data_norm = float(rng.uniform(0.5, 5.0))
            ramp = float(rng.uniform(0.0, 1.0))
            delta = 0.05
            sqrt_entropy = (
                2.0 * data_norm * math.sqrt(math.log(2 * width**2)) / gamma
                * math.prod(ln.s * ln.rho for ln in norms)
                * sum((ln.b / ln.s) ** (2 / 3) for ln in norms) ** 1.5
            )
            rad = dudley_numeric(lambda e: (sqrt_entropy / e) ** 2, n, 1.0 / n)
            assembled = margin_bound_assembly(ramp, rad, n, delta)
            tc, tx, tf, _ = generalization_bound_fixed(
                ramp, data_norm, width, n, gamma, delta, norms
            )
            assert assembled - ramp - 2.0 * rad == pytest.approx(tf, rel=1e-12)
            assert 2.0 * rad == pytest.approx(
                8.0 / n**1.5 + 36.0 * sqrt_entropy * math.log(n) / n, rel=1e-9
            )
            swap = math.log(2 * width) / math.sqrt(math.log(2 * width**2))
            assert tx == pytest.approx(
                36.0 * sqrt_entropy * math.log(n) / n * swap, rel=1e-9
            )
            assert 8.0 / n**1.5 <= tc


class TestAnalyzeNetwork:
    def test_report_invariants(self, rng):
        net = random_network(rng, depth=3)
        ds = random_dataset(rng, net, n=30)
        report, md = analyze_network(net, ds, delta=0.05)
        assert report.bound_total == pytest.approx(
            report.ramp_risk + report.term_const + report.term_complexity + report.term_confidence
        )
        assert report.R_A <= report.R_PB * (1 + 1e-10)
        assert report.n == 30
        assert md.normalized.shape == (30,)
        assert report.term_const == pytest.approx(8.0 / 30)

    @pytest.mark.parametrize("gamma", [None, 0.7])
    def test_one_forward_and_one_norm_extraction(self, rng, monkeypatch, gamma):
        from margin_auditor import complexity

        net = random_network(rng, depth=3)
        ds = random_dataset(rng, net, n=30)
        calls = {"forward": 0, "norms": 0}
        forward_images = Network.forward_images
        extract = complexity.layer_norms

        def counted_forward(self, x):
            calls["forward"] += 1
            return forward_images(self, x)

        def counted_norms(net):
            calls["norms"] += 1
            return extract(net)

        monkeypatch.setattr(Network, "forward_images", counted_forward)
        monkeypatch.setattr(complexity, "layer_norms", counted_norms)
        analyze_network(net, ds, gamma=gamma, delta=0.05)
        assert calls == {"forward": 1, "norms": 1}
