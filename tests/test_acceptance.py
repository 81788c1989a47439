"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 9 runs on a real handwritten-digit IDX subset when one is available
(set MARGIN_AUDITOR_MNIST_DIR or place the raw train IDX pair under
tests/data/mnist/); otherwise it runs the identical protocol on the package's
deterministic synthetic image generator, and the pass line says so.
"""

import itertools
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import margin_auditor as ma
from conftest import random_dataset, random_network

PASS_LINES = []


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    PASS_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_norm_oracle_suite():
    start = time.monotonic()
    worst = 0.0
    for i in range(500):
        rng = np.random.default_rng(1000 + i)
        rows = int(rng.integers(2, 65))
        cols = int(rng.integers(2, 65))
        a = rng.standard_normal((rows, cols))
        power = ma.spectral_norm(a)
        oracle = float(ma.jacobi_singular_values(a)[0])
        worst = max(worst, abs(power - oracle) / oracle)
    elapsed = time.monotonic() - start
    report(
        1,
        worst <= 1e-10 and elapsed < 30.0,
        f"500 matrices, worst relative gap {worst:.2e} (<=1e-10), {elapsed:.1f}s (<30s)",
    )


def test_criterion_02_formula_goldens():
    collapse = ma.spectral_complexity([ma.LayerNorms(s=4.0, b=7.0, rho=1.0)])
    two_layer = ma.spectral_complexity(
        [ma.LayerNorms(s=2.0, b=2.0, rho=1.0), ma.LayerNorms(s=3.0, b=3.0, rho=1.0)]
    )
    goldens_ok = collapse == 7.0 and two_layer == 6.0 * 2.0**1.5
    worst = 0.0
    rng = np.random.default_rng(222)
    for _ in range(1000):
        depth = int(rng.integers(1, 7))
        ss = rng.uniform(0.2, 5.0, size=depth)
        bs = rng.uniform(0.01, 8.0, size=depth)
        rhos = rng.uniform(0.5, 3.0, size=depth)
        norms = [ma.LayerNorms(s=float(s), b=float(b), rho=float(r))
                 for s, b, r in zip(ss, bs, rhos)]
        value = ma.spectral_complexity(norms)
        oracle = math.prod(r * s for r, s in zip(rhos, ss)) * (
            sum((b / s) ** (2.0 / 3.0) for b, s in zip(bs, ss))
        ) ** 1.5
        worst = max(worst, abs(value - oracle) / oracle)
    report(
        2,
        goldens_ok and worst <= 1e-12,
        f"hand goldens exact, 1000 random tuples worst gap {worst:.2e} (<=1e-12)",
    )


def test_criterion_03_dominance():
    violations = 0
    for i in range(1000):
        rng = np.random.default_rng(3000 + i)
        depth = int(rng.integers(1, 7))
        net = random_network(rng, depth=depth, width_lo=2, width_hi=32,
                             zero_refs=bool(rng.integers(0, 2)))
        norms = ma.layer_norms(net)
        r_a = ma.spectral_complexity(norms)
        r_pb = ma.pac_bayes_complexity_of(net, norms)
        if r_a > r_pb * (1 + 1e-12):
            violations += 1
    report(3, violations == 0, f"R_A <= R_PB on 1000 networks, {violations} violations")


def test_criterion_04_maurey_property_suite():
    failures = 0
    high_retries = 0
    for i in range(1000):
        rng = np.random.default_rng(4000 + i)
        d = int(rng.integers(2, 9))
        dim = int(rng.integers(2, 12))
        atoms = rng.standard_normal((d, dim))
        alpha = rng.uniform(0.05, 1.0, size=d)
        k = int(rng.integers(1, 20))
        result = ma.maurey_sparsify(list(atoms), alpha, k, seed=i)
        if sum(result.counts) != k or result.approx_error_sq > result.guarantee:
            failures += 1
        if result.retries > 10:
            high_retries += 1
    cover_failures = 0
    for i in range(100):
        rng = np.random.default_rng(4500 + i)
        x = rng.standard_normal((8, 4))
        a = rng.standard_normal((4, 3))
        eps = float(rng.uniform(0.3, 2.0))
        w_hat, _ = ma.cover_element_for(a, x, eps, q=2.0, s_exp=1.0, seed=i)
        if float(np.linalg.norm(x @ a - w_hat)) > eps:
            cover_failures += 1
    report(
        4,
        failures == 0 and high_retries <= 10 and cover_failures == 0,
        f"1000 sparsifications ({failures} guarantee misses, {high_retries} with >10 retries, "
        f"99% bar is <=10), 100 cover elements ({cover_failures} over budget)",
    )


def test_criterion_05_dudley_consistency():
    worst_grid = 0.0
    worst_numeric = 0.0
    for r_const in (0.1, 1.0, 10.0, 100.0):
        for n in (100, 10000):
            bound, alpha = ma.dudley_closed_form(r_const, n)
            sqrt_n = math.sqrt(n)
            grid = np.exp(np.linspace(math.log(1e-8), math.log(sqrt_n * (1 - 1e-12)), 10_000))
            values = 4.0 * grid / sqrt_n + 12.0 * math.sqrt(r_const) / n * np.log(sqrt_n / grid)
            worst_grid = max(worst_grid, (bound - float(values.min())) / bound)
            numeric = ma.dudley_numeric(lambda e: r_const / (e * e), n, alpha)
            worst_numeric = max(worst_numeric, abs(numeric - bound) / bound)
    report(
        5,
        worst_grid <= 1e-6 and worst_numeric <= 1e-4,
        f"closed form within {worst_grid:.2e} of 1e4-point grids (<=1e-6), "
        f"quadrature gap {worst_numeric:.2e} (<=1e-4)",
    )


def test_criterion_06_lowerbound_construction():
    worst_pointwise = 0.0
    worst_product = 0.0
    for i in range(1000):
        rng = np.random.default_rng(6000 + i)
        dim = int(rng.integers(1, 7))
        depth = int(rng.integers(2, 7))
        a = rng.standard_normal(dim)
        if not a.any():
            continue
        net = ma.build_linear_network(a, depth)
        x = rng.standard_normal((2, dim))
        out = net.forward(x)[:, 0]
        worst_pointwise = max(worst_pointwise, float(np.abs(out - x @ a).max()))
        product = 1.0
        for layer in net.layers:
            product *= ma.spectral_norm(layer.weight)
        expected = 2.0 * math.sqrt(float(a @ a))
        worst_product = max(worst_product, abs(product - expected) / expected)
    x = np.random.default_rng(66).standard_normal((16, 5))
    radius = 1.3
    trials = ma.rademacher_linear_trials(x, radius, 10_000, seed=66)
    floor = radius * ma.frobenius_norm(x) / (math.sqrt(2.0) * x.shape[0])
    slack = 3.0 * float(trials.std(ddof=1)) / math.sqrt(trials.shape[0])
    mc_ok = float(trials.mean()) >= floor - slack
    report(
        6,
        worst_pointwise <= 1e-12 and worst_product <= 1e-10 and mc_ok,
        f"1000 constructions: pointwise {worst_pointwise:.2e} (<=1e-12), norm product gap "
        f"{worst_product:.2e} (<=1e-10); Monte-Carlo estimate {trials.mean():.4f} >= "
        f"floor {floor:.4f} - 3se",
    )


def test_criterion_07_lipschitz_and_margin_inequalities():
    rng = np.random.default_rng(777)
    nonlinearities = [
        ("relu", ma.Relu(), 6),
        ("partition pool", ma.MaxPool([[0, 1, 2], [3, 4, 5]]), 6),
        ("overlap pool", ma.MaxPool([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]]), 6),
    ]
    lipschitz_violations = 0
    for _, nl, dim in nonlinearities:
        for p in (1.0, 2.0, math.inf):
            rho = nl.lipschitz(p)
            for _ in range(1000):
                z = rng.standard_normal((1, dim))
                zp = rng.standard_normal((1, dim))
                lhs = float(np.linalg.norm((nl.apply(z) - nl.apply(zp)).ravel(), ord=p))
                rhs = rho * float(np.linalg.norm((z - zp).ravel(), ord=p))
                if lhs > rhs + 1e-12:
                    lipschitz_violations += 1
    margin_violations = 0
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        v = rng.standard_normal(k)
        vp = rng.standard_normal(k)
        y = int(rng.integers(1, k + 1))
        p = float(rng.choice([1.0, 2.0, np.inf]))
        gap = abs(ma.margin_operator(v, y) - ma.margin_operator(vp, y))
        if gap > 2.0 * float(np.linalg.norm(v - vp, ord=p)) + 1e-12:
            margin_violations += 1
    risk_violations = 0
    for i in range(100):
        rng_i = np.random.default_rng(7700 + i)
        net = random_network(rng_i, depth=int(rng_i.integers(1, 4)))
        ds = random_dataset(rng_i, net, n=int(rng_i.integers(5, 30)))
        gamma = float(rng_i.uniform(0.05, 3.0))
        if ma.error_rate(net, ds) > ma.ramp_risk_empirical(net, ds, gamma) + 1e-12:
            risk_violations += 1
    total = lipschitz_violations + margin_violations + risk_violations
    report(
        7,
        total == 0,
        f"Lipschitz {lipschitz_violations}, margin 2-Lipschitz {margin_violations}, "
        f"error<=ramp {risk_violations} violations (all must be 0)",
    )


def test_criterion_08_scaling_invariance():
    worst = 0.0
    argmax_flips = 0
    for i in range(100):
        rng = np.random.default_rng(8000 + i)
        depth = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 7)) for _ in range(depth + 1)]
        dims[-1] = max(dims[-1], 2)
        layers = tuple(
            ma.Layer(weight=rng.standard_normal((dims[j + 1], dims[j])), nonlinearity=ma.Relu())
            for j in range(depth)
        )
        net = ma.Network(layers=layers)
        ds = random_dataset(rng, net, n=10)
        base = ma.margin_distribution(net, ds, ma.spectral_complexity(ma.layer_norms(net)))
        base_pred = net.forward(ds.X).argmax(axis=1)
        target = int(rng.integers(0, depth))
        for c in (0.5, 2.0, 10.0):
            scaled_layers = list(net.layers)
            scaled_layers[target] = ma.Layer(
                weight=c * net.layers[target].weight, nonlinearity=ma.Relu()
            )
            scaled = ma.Network(layers=tuple(scaled_layers))
            md = ma.margin_distribution(
                scaled, ds, ma.spectral_complexity(ma.layer_norms(scaled))
            )
            worst = max(worst, float(np.abs(md.normalized - base.normalized).max()))
            if not np.array_equal(scaled.forward(ds.X).argmax(axis=1), base_pred):
                argmax_flips += 1
    report(
        8,
        worst <= 1e-9 and argmax_flips == 0,
        f"100 networks x c in (0.5, 2, 10): worst normalized-margin drift {worst:.2e} "
        f"(<=1e-9), {argmax_flips} argmax changes",
    )


def _find_digit_idx_dir():
    root = os.environ.get("MARGIN_AUDITOR_MNIST_DIR") or os.path.join(
        os.path.dirname(__file__), "data", "mnist"
    )
    needed = ["train-images-idx3-ubyte", "train-labels-idx1-ubyte"]
    if all(os.path.exists(os.path.join(root, name)) for name in needed):
        return root
    return None


def _experiment_data():
    idx_dir = _find_digit_idx_dir()
    if idx_dir is not None:
        full = ma.load_idx(
            os.path.join(idx_dir, "train-images-idx3-ubyte"),
            os.path.join(idx_dir, "train-labels-idx1-ubyte"),
        )
        substrate = "mnist idx subset"
    else:
        full = ma.synth_images(6000, k=10, seed=123, pixel_noise=0.2)
        substrate = "synthetic image substitute (no IDX data on disk)"
    train_ds = ma.Dataset(X=full.X[:5000], y=full.y[:5000], k=10)
    test_ds = ma.Dataset(X=full.X[5000:6000], y=full.y[5000:6000], k=10)
    return train_ds, test_ds, substrate


@pytest.mark.slow
def test_criterion_09_desk_scale_experiment():
    start = time.monotonic()
    train_ds, test_ds, substrate = _experiment_data()

    def run(label_mode, l2):
        cfg = ma.TrainConfig(
            layer_widths=(784, 256, 256, 10), epochs=56, batch_size=4, seed=7,
            learning_rate=0.01, label_mode=label_mode, l2_coefficient=l2,
        )
        return (snap for snap, _, _ in ma.epochs(cfg, train_ds, test_ds))

    # the two runs step in lockstep and stop at the matched epoch: the first
    # epochs of a run are bitwise those of a shorter run, so stopping early
    # changes no value the checks read
    matched = None
    for snap_true, snap_rand in zip(run("true_labels", 0.0), run("random_labels", 0.0)):
        if snap_true.train_error <= 0.02 and snap_rand.train_error <= 0.02:
            matched = snap_true, snap_rand
            break
    assert matched is not None, "both runs must reach train error <= 2% within 60 epochs"
    snap_true, snap_rand = matched
    matched_epoch = snap_true.epoch
    snap_l2 = next(itertools.islice(run("true_labels", 1e-4), matched_epoch, None))
    elapsed = time.monotonic() - start

    mean_true = snap_true.margin_summary.normalized_mean
    mean_rand = snap_rand.margin_summary.normalized_mean
    mean_l2 = snap_l2.margin_summary.normalized_mean
    gap = mean_true - mean_rand
    prod_true = snap_true.product_spectral_norms
    prod_rand = snap_rand.product_spectral_norms
    excess_gap = snap_rand.excess_risk - snap_true.excess_risk
    l2_shift = abs(mean_l2 - mean_true)

    ok_a = mean_true > mean_rand
    ok_b = prod_rand > prod_true
    ok_c = excess_gap >= 0.3
    ok_d = l2_shift < gap
    ok_time = elapsed < 20 * 60
    report(
        9,
        ok_a and ok_b and ok_c and ok_d and ok_time,
        f"{substrate}; matched epoch {matched_epoch}; "
        f"(a) mean margin {mean_true:.5f} > {mean_rand:.5f}: {ok_a}; "
        f"(b) norm product {prod_rand:.1f} > {prod_true:.1f}: {ok_b}; "
        f"(c) excess-risk gap {excess_gap:.3f} >= 0.3: {ok_c}; "
        f"(d) l2 margin shift {l2_shift:.5f} < true-vs-random gap {gap:.5f}: {ok_d}; "
        f"{elapsed:.0f}s (<1200s)",
    )


def test_criterion_10_gradients_and_bitwise_runs(tmp_path):
    rng = np.random.default_rng(10_10)
    cfg = ma.TrainConfig(layer_widths=(5, 7, 3), epochs=1, batch_size=4, seed=4)
    weights = [l.weight.copy() for l in ma.init_network(cfg).layers]
    x = rng.standard_normal((12, 5))
    y = rng.integers(1, 4, size=12)
    _, grads = ma.loss_and_gradients(weights, x, y, l2_coefficient=0.003)
    step = 1e-5
    worst = 0.0
    for li in range(len(weights)):
        for _ in range(5):
            i = int(rng.integers(0, weights[li].shape[0]))
            j = int(rng.integers(0, weights[li].shape[1]))
            plus = [w.copy() for w in weights]
            plus[li][i, j] += step
            minus = [w.copy() for w in weights]
            minus[li][i, j] -= step
            lp, _ = ma.loss_and_gradients(plus, x, y, l2_coefficient=0.003)
            lm, _ = ma.loss_and_gradients(minus, x, y, l2_coefficient=0.003)
            fd = (lp - lm) / (2.0 * step)
            worst = max(worst, abs(grads[li][i, j] - fd) / max(abs(fd), 1e-9))

    from margin_auditor.cli import main

    train_ds = ma.synth_blobs(80, 6, 3, separation=4.0, seed=12)
    test_ds = ma.synth_blobs(40, 6, 3, separation=4.0, seed=13)
    paths = {}
    for name, ds in (("train", train_ds), ("test", test_ds)):
        xp = str(tmp_path / f"{name}.mat")
        yp = str(tmp_path / f"{name}.lbl")
        ma.save_dataset(ds, xp, yp)
        paths[name] = (xp, yp)
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump({"layer_widths": [6, 8, 3], "epochs": 3, "batch_size": 8, "seed": 2}, f)
    outs = []
    for run_dir in ("r1", "r2"):
        out = str(tmp_path / run_dir)
        rc = main(["train", cfg_path,
                   "--train-features", paths["train"][0], "--train-labels", paths["train"][1],
                   "--test-features", paths["test"][0], "--test-labels", paths["test"][1],
                   "--out", out])
        assert rc == 0
        outs.append(out)
    identical = True
    for base, other in [tuple(outs)]:
        for dirpath, _, filenames in os.walk(base):
            rel = os.path.relpath(dirpath, base)
            for name in filenames:
                a = os.path.join(dirpath, name)
                b = os.path.join(other, rel, name)
                if Path(a).read_bytes() != Path(b).read_bytes():
                    identical = False
    report(
        10,
        worst <= 1e-6 and identical,
        f"backprop vs central differences worst gap {worst:.2e} (<=1e-6); "
        f"repeat runs bitwise identical: {identical}",
    )


def test_criterion_11_budget_tau_property():
    worst_alpha = 0.0
    worst_tau = 0.0
    for i in range(1000):
        rng = np.random.default_rng(11_000 + i)
        depth = int(rng.integers(1, 7))
        norms = [
            ma.LayerNorms(
                s=float(rng.uniform(0.2, 4.0)),
                b=float(rng.uniform(0.01, 6.0)),
                rho=float(rng.uniform(0.5, 3.0)),
            )
            for _ in range(depth)
        ]
        eps = float(rng.uniform(0.01, 5.0))
        budget = ma.cover_budget(eps, norms)
        worst_alpha = max(worst_alpha, abs(sum(budget.alpha_weights) - 1.0))
        tau = ma.cover_resolution(
            budget.eps_per_layer, [ln.rho for ln in norms], [ln.s for ln in norms]
        )
        worst_tau = max(worst_tau, (tau - eps) / eps)
    report(
        11,
        worst_alpha <= 1e-12 and worst_tau <= 1e-12,
        f"1000 tuples: |sum alpha - 1| <= {worst_alpha:.2e} (<=1e-12), "
        f"(tau - eps)/eps <= {worst_tau:.2e} (roundoff only)",
    )


def test_zz_print_summary(request):
    print()
    for line in PASS_LINES:
        print(line)
    assert sum(name.startswith("test_criterion_") for name in globals()) == 11
    collected = [i for i in request.session.items if i.name.startswith("test_criterion_")]
    assert sum(line.startswith("[PASS]") for line in PASS_LINES) == len(collected)
