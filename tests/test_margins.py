import csv
import math

import numpy as np
import pytest

from margin_auditor import (
    Dataset,
    Identity,
    Layer,
    Network,
    NumericDegeneracyError,
    ParameterError,
    Relu,
    default_gamma,
    error_rate,
    margin_distribution,
    margin_operator,
    margins_of_outputs,
    ramp_loss,
    ramp_risk_empirical,
    summarize,
)
from margin_auditor.errors import _BLOCK
from margin_auditor.margins import _kde_sums, write_histogram_csv, write_kde_csv, write_margins_csv
from conftest import peak_bytes, random_dataset, random_network


def loop_margin(v, y):
    best_other = -math.inf
    for i, val in enumerate(v, start=1):
        if i != y:
            best_other = max(best_other, float(val))
    return float(v[y - 1]) - best_other


def identity_net(dim):
    return Network(layers=(Layer(weight=np.eye(dim), nonlinearity=Identity()),))


class TestMarginOperator:
    def test_basic(self):
        assert margin_operator([3.0, 1.0, 0.0], 1) == 2.0

    def test_tie(self):
        assert margin_operator([0.0, 0.0], 1) == 0.0

    def test_matches_loop_oracle(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 8))
            v = rng.standard_normal(k)
            y = int(rng.integers(1, k + 1))
            assert margin_operator(v, y) == pytest.approx(loop_margin(v, y), abs=1e-15)

    def test_rowwise_matches_scalar(self, rng):
        outputs = rng.standard_normal((30, 5))
        labels = rng.integers(1, 6, size=30)
        rows = margins_of_outputs(outputs, labels)
        for r in range(30):
            assert rows[r] == pytest.approx(margin_operator(outputs[r], labels[r]), abs=1e-15)

    def test_two_lipschitz(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 7))
            v = rng.standard_normal(k)
            vp = rng.standard_normal(k)
            y = int(rng.integers(1, k + 1))
            p = float(rng.choice([1.0, 2.0, np.inf]))
            lhs = abs(margin_operator(v, y) - margin_operator(vp, y))
            assert lhs <= 2.0 * np.linalg.norm(v - vp, ord=p) + 1e-12

    def test_bad_inputs(self):
        with pytest.raises(ParameterError):
            margin_operator([1.0], 1)
        with pytest.raises(ParameterError):
            margin_operator([1.0, 2.0], 3)
        for outputs, labels, message in [(np.ones((2, 1)), [1, 1], "at least 2 output"),
                                         (np.ones((2, 2)), [1], "one label per example row"),
                                         (np.ones((2, 2)), [1, 3], "must lie in 1..2")]:
            with pytest.raises(ParameterError, match=message):
                margins_of_outputs(outputs, labels)


class TestRampLoss:
    def test_below_band(self):
        assert ramp_loss(-2.0, 1.0) == 0.0

    def test_mid_band(self):
        assert ramp_loss(-0.5, 1.0) == 0.5

    def test_above_band(self):
        assert ramp_loss(1.0, 0.3) == 1.0

    def test_boundary_zero(self):
        assert ramp_loss(0.0, 0.7) == 1.0

    def test_monotone_and_lipschitz(self, rng):
        gamma = 0.8
        rs = np.sort(rng.uniform(-3, 3, size=100))
        vals = [ramp_loss(float(r), gamma) for r in rs]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        for a, b in zip(rs, rs[1:]):
            assert abs(ramp_loss(float(b), gamma) - ramp_loss(float(a), gamma)) <= (
                2.0 / gamma
            ) * (b - a) + 1e-12

    def test_bad_gamma(self):
        with pytest.raises(ParameterError):
            ramp_loss(0.0, 0.0)


class TestRisks:
    def test_large_margin_zero_risk(self):
        net = identity_net(2)
        ds = Dataset(X=np.array([[10.0, 0.0], [0.0, 10.0]]), y=np.array([1, 2]), k=2)
        assert ramp_risk_empirical(net, ds, gamma=1.0) == 0.0
        assert error_rate(net, ds) == 0.0

    def test_all_zero_outputs(self):
        net = Network(layers=(Layer(weight=np.zeros((2, 2)), nonlinearity=Identity()),))
        ds = Dataset(X=np.ones((5, 2)), y=np.ones(5, dtype=int), k=2)
        assert ramp_risk_empirical(net, ds, gamma=0.5) == 1.0
        # argmax tie broken toward the lowest index, which matches label 1
        assert error_rate(net, ds) == 0.0

    def test_matches_scalar_loop(self, rng):
        net = random_network(rng, depth=2)
        ds = random_dataset(rng, net, n=40)
        gamma = 0.7
        outputs = net.forward(ds.X)
        total = 0.0
        errors = 0
        for i in range(ds.n):
            m = loop_margin(outputs[i], int(ds.y[i]))
            total += ramp_loss(-m, gamma)
            best = 0
            for j in range(1, outputs.shape[1]):
                if outputs[i, j] > outputs[i, best]:
                    best = j
            errors += int(best + 1 != int(ds.y[i]))
        assert ramp_risk_empirical(net, ds, gamma) == pytest.approx(total / ds.n, abs=1e-12)
        assert error_rate(net, ds) == pytest.approx(errors / ds.n, abs=1e-15)

    def test_error_rate_below_ramp_risk(self, rng):
        for _ in range(30):
            net = random_network(rng, depth=2)
            ds = random_dataset(rng, net, n=15)
            gamma = float(rng.uniform(0.05, 2.0))
            assert error_rate(net, ds) <= ramp_risk_empirical(net, ds, gamma) + 1e-12


class TestMarginDistribution:
    def test_single_example_normalization(self):
        net = identity_net(2)
        ds = Dataset(X=np.array([[1.0, 0.0]]), y=np.array([1]), k=2)
        # ||X||_2 = 1, n = 1, so r_a = 0.5 puts the normalizer at 0.5
        md = margin_distribution(net, ds, r_a=0.5)
        assert md.normalizer == pytest.approx(0.5)
        assert md.normalized[0] == pytest.approx(2.0)

    def test_raw_matches_operator(self, rng):
        net = random_network(rng, depth=2)
        ds = random_dataset(rng, net, n=25)
        md = margin_distribution(net, ds, r_a=3.0)
        outputs = net.forward(ds.X)
        for i in range(ds.n):
            assert md.raw[i] == pytest.approx(loop_margin(outputs[i], int(ds.y[i])), abs=1e-13)
        assert np.allclose(md.normalized * md.normalizer, md.raw, rtol=1e-12)

    def test_scaling_invariance(self, rng):
        from margin_auditor import layer_norms, spectral_complexity

        for _ in range(5):
            net = random_network(rng, depth=3, output_dim=3)
            ds = random_dataset(rng, net, n=10)
            md = margin_distribution(net, ds, spectral_complexity(layer_norms(net)))
            scaled_layers = tuple(
                Layer(weight=2.0 * l.weight, nonlinearity=l.nonlinearity) for l in net.layers
            )
            scaled = Network(layers=scaled_layers)
            md2 = margin_distribution(scaled, ds, spectral_complexity(layer_norms(scaled)))
            assert np.allclose(md.normalized, md2.normalized, rtol=1e-9, atol=1e-9)

    def test_rejects_bad_normalizer(self):
        net = identity_net(2)
        ds = Dataset(X=np.ones((3, 2)), y=np.array([1, 2, 1]), k=2)
        with pytest.raises(ParameterError):
            margin_distribution(net, ds, r_a=0.0)
        zero_ds = Dataset(X=np.zeros((3, 2)), y=np.array([1, 2, 1]), k=2)
        with pytest.raises(NumericDegeneracyError):
            margin_distribution(net, zero_ds, r_a=1.0)

    def test_overflowed_forward_pass_is_a_degeneracy(self):
        # R_A stays finite, but the outputs on the data overflow; no RuntimeWarning escapes
        from margin_auditor import analyze_network

        r = np.random.default_rng(0)
        w = 1e300 * r.standard_normal((3, 4))
        net = Network(layers=(Layer(weight=w, nonlinearity=Identity(), reference=w * (1 - 1e-6)),))
        ds = Dataset(X=1e10 * r.standard_normal((20, 4)), y=np.arange(20) % 3 + 1, k=3)
        for run in (lambda: analyze_network(net, ds), lambda: margin_distribution(net, ds, 1.0),
                    lambda: ramp_risk_empirical(net, ds, 1.0), lambda: error_rate(net, ds)):
            with pytest.raises(NumericDegeneracyError, match="float64 range"):
                run()
        with pytest.raises(ParameterError):  # a caller's own non-finite outputs
            margins_of_outputs(np.array([[np.nan, 1.0]]), np.array([1]))

    def test_margins_beyond_float64_are_a_degeneracy(self):
        # finite outputs whose correct - max overflows; no RuntimeWarning escapes
        with pytest.raises(NumericDegeneracyError, match="a raw margin exceeds the float64 range"):
            margins_of_outputs(np.array([[1e308, -1e308], [0.0, 1.0]]), np.array([1, 2]))
        # a subnormal normalizer R_A ||X|| / n = 5e-309: raw / normalizer overflows
        ds = Dataset(X=np.array([[1.0, 0.0], [0.5, 0.0], [1.0, 0.0]]), y=np.array([1, 2, 1]), k=2)
        with pytest.raises(NumericDegeneracyError, match="a normalized margin exceeds"):
            margin_distribution(identity_net(2), ds, r_a=1e-308)

    def test_default_gamma(self):
        assert default_gamma(np.array([-1.0, 2.0, 4.0])) == 3.0
        assert default_gamma(np.array([-1.0, -2.0])) == 1.0


def make_md(values):
    values = np.asarray(values, dtype=float)
    from margin_auditor import MarginDistribution

    return MarginDistribution(raw=values, normalized=values, normalizer=1.0)


def one_shot_kde_sums(grid, data, bw):
    """The KDE sums as one (len(grid), n) array, the form the blocks replace."""
    z = (grid[:, None] - data[None, :]) / bw
    return np.exp(-0.5 * z * z).sum(axis=1)


class TestSummarize:
    @pytest.mark.parametrize("data", [
        np.array([0.25]),
        np.array([-1.0, 0.5, 3.0]),
        np.random.default_rng(21).standard_normal(5000),
        np.full(7, 2.0),
    ], ids=["n1", "n3", "n5000", "constant"])
    def test_blocked_kde_bitwise_equal_to_one_array(self, data):
        s = summarize(make_md(data), bins=4)
        density = one_shot_kde_sums(s.kde_x, data, s.bandwidth) / (
            data.shape[0] * s.bandwidth * math.sqrt(2.0 * math.pi))
        assert s.kde_density.tobytes() == density.tobytes()

    # 777 data points make blocks of at most _BLOCK // 777 = 84 grid points
    @pytest.mark.parametrize("points", [1, _BLOCK // 777 - 1, _BLOCK // 777 + 1,
                                        3 * (_BLOCK // 777) + 5])
    def test_kde_sums_over_a_partial_last_block(self, rng, points):
        data = rng.standard_normal(777)
        grid = np.linspace(-4.0, 4.0, points)
        assert _kde_sums(grid, data, 0.3).tobytes() == one_shot_kde_sums(grid, data, 0.3).tobytes()

    def test_peak_memory_of_a_few_kde_blocks(self, rng):
        # one (256, 5000) float64 array of the whole KDE would be 10.24 MB
        md = make_md(rng.standard_normal(5000))
        _, peak = peak_bytes(summarize, md, bins=30)
        assert peak < 4e6

    def test_peak_memory_at_mnist_size(self, rng):
        # 60,000 margins are 0.48 MB, and each KDE block holds at most 64Ki floats
        md = make_md(rng.standard_normal(60_000))
        _, peak = peak_bytes(summarize, md, bins=30)
        assert peak < 4e6

    @pytest.mark.parametrize("k", [600, 900])
    def test_exactly_homogeneous_at_scales_that_square_beyond_float64(self, rng, k):
        # the spreads of margins near 2**k are taken at a power-of-two scale,
        # so every output scales exactly (while no density turns subnormal)
        data = rng.standard_normal(500)
        base, scaled = summarize(make_md(data), bins=9), summarize(make_md(np.ldexp(data, k)), bins=9)
        assert scaled.bandwidth == math.ldexp(base.bandwidth, k)
        for got, want in ((scaled.kde_x, np.ldexp(base.kde_x, k)),
                          (scaled.kde_density, np.ldexp(base.kde_density, -k)),
                          (scaled.hist_edges, np.ldexp(base.hist_edges, k)),
                          (scaled.hist_density, np.ldexp(base.hist_density, -k))):
            assert got.tobytes() == want.tobytes()

    def test_kde_grid_beyond_float64_is_a_degeneracy(self):
        # finite margins whose range, and so whose KDE grid, is wider than float64
        for data in ([-1e308, 1e308], [-1.79e308, 1.79e308], [-1e307, 0.5, 7e307]):
            with pytest.raises(NumericDegeneracyError, match="the KDE grid width exceeds"):
                summarize(make_md(data), bins=4)

    def test_kde_of_a_far_outlier_is_finite_and_bitwise(self):
        # the floored bandwidth 1e-6 puts the outlier's z**2 beyond float64,
        # where exp(-z**2 / 2) is 0 in any case
        data = np.array([0.0, 1e-10, 2e-10, 3e-10, 4e-10, 5e-10, 6e-10, 1e300])
        s = summarize(make_md(data), bins=4)
        assert s.bandwidth == 1e-6
        with np.errstate(over="ignore"):
            assert _kde_sums(s.kde_x, data, 1e-6).tobytes() == \
                one_shot_kde_sums(s.kde_x, data, 1e-6).tobytes()
        assert np.isfinite(s.kde_density).all() and s.kde_density.max() > 0.0

    def test_two_point_masses(self):
        s = summarize(make_md([0.0, 1.0]), bins=2)
        widths = np.diff(s.hist_edges)
        masses = s.hist_density * widths
        assert np.allclose(masses, [0.5, 0.5])

    def test_histogram_integrates_to_one(self, rng):
        s = summarize(make_md(rng.standard_normal(500)), bins=17)
        assert float(np.sum(s.hist_density * np.diff(s.hist_edges))) == pytest.approx(1.0, abs=1e-6)

    def test_kde_integrates_to_one(self, rng):
        s = summarize(make_md(rng.standard_normal(300)), bins=10)
        assert float(np.trapezoid(s.kde_density, s.kde_x)) == pytest.approx(1.0, abs=1e-6)
        assert s.kde_x.shape == (256,)

    def test_kde_mode_near_tight_cluster(self, rng):
        data = 3.0 + 0.01 * rng.standard_normal(200)
        s = summarize(make_md(data), bins=5)
        mode = float(s.kde_x[int(np.argmax(s.kde_density))])
        assert abs(mode - 3.0) < 0.1

    def test_constant_distribution(self):
        s = summarize(make_md([2.0, 2.0, 2.0]), bins=4)
        assert s.hist_density.shape == (1,)
        assert float(np.sum(s.hist_density * np.diff(s.hist_edges))) == pytest.approx(1.0)
        assert s.bandwidth == pytest.approx(1e-6)

    @pytest.mark.parametrize("values", [[1.0, 1.0 + 2.2e-16], [-3.0, -3.0 + 2.0**-50, -3.0]])
    def test_range_too_narrow_for_the_bins_is_one_bin(self, values):
        # np.histogram refuses a range narrower than about `bins` ulps
        s = summarize(make_md(values), bins=30)
        lo = min(values)
        assert s.hist_edges.tolist() == [lo - 0.5, lo + 0.5]
        assert s.hist_density.tolist() == [1.0]

    def test_bins_validated(self):
        with pytest.raises(ParameterError):
            summarize(make_md([0.0, 1.0]), bins=1)


class TestCsv:
    def test_margins_csv_round_trip(self, tmp_path, rng):
        md = make_md(rng.standard_normal(7))
        path = tmp_path / "m.csv"
        write_margins_csv(path, md)
        text = path.read_text(encoding="utf-8")
        assert "\r" not in text
        rows = list(csv.DictReader(text.splitlines()))
        assert [r["index"] for r in rows] == [str(i) for i in range(7)]
        back = np.array([float(r["raw_margin"]) for r in rows])
        assert np.array_equal(back, md.raw)  # 17 significant digits round-trip

    def test_summary_csvs(self, tmp_path, rng):
        s = summarize(make_md(rng.standard_normal(50)), bins=4)
        write_histogram_csv(tmp_path / "h.csv", s)
        write_kde_csv(tmp_path / "k.csv", s)
        hrows = list(csv.DictReader((tmp_path / "h.csv").read_text().splitlines()))
        assert len(hrows) == 4
        assert set(hrows[0]) == {"bin_left", "bin_right", "density"}
        krows = list(csv.DictReader((tmp_path / "k.csv").read_text().splitlines()))
        assert len(krows) == 256
        assert set(krows[0]) == {"kde_x", "kde_density"}

    def test_exact_bytes(self, tmp_path):
        from margin_auditor import DistributionSummary, MarginDistribution

        v = np.array([-0.0, 5e-324, 0.1, 1 / 3, 1e300, -1.7976931348623157e308, 2.0**53 + 1])
        w = v[::-1].copy()
        md = MarginDistribution(raw=v, normalized=w, normalizer=1.0)
        s = DistributionSummary(
            hist_edges=v, hist_density=w[:-1], kde_x=w, kde_density=v, bandwidth=1.0
        )
        write_margins_csv(tmp_path / "m.csv", md)
        write_histogram_csv(tmp_path / "h.csv", s)
        write_kde_csv(tmp_path / "k.csv", s)

        def f(x):
            return format(float(x), ".17g")

        def expected(header, rows):
            return header + "\n" + "".join(",".join(r) + "\n" for r in rows)

        margins_rows = [(str(i), f(v[i]), f(w[i])) for i in range(7)]
        hist_rows = [(f(v[i]), f(v[i + 1]), f(w[i])) for i in range(6)]
        kde_rows = [(f(w[i]), f(v[i])) for i in range(7)]
        for name, header, rows in (
            ("m.csv", "index,raw_margin,normalized_margin", margins_rows),
            ("h.csv", "bin_left,bin_right,density", hist_rows),
            ("k.csv", "kde_x,kde_density", kde_rows),
        ):
            data = (tmp_path / name).read_bytes()
            assert data == expected(header, rows).encode("utf-8")
        lines = (tmp_path / "m.csv").read_text().splitlines()
        assert lines[1] == "0,-0,9007199254740992"
        assert lines[2] == "1,4.9406564584124654e-324,-1.7976931348623157e+308"
