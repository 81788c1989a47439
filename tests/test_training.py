import itertools
import json
import math
import warnings
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from margin_auditor import (
    Dataset,
    DegenerateNetworkError,
    NumericDegeneracyError,
    ParameterError,
    TrainConfig,
    TrainingDivergedError,
    analyze_network,
    epochs,
    error_rate,
    init_network,
    loss_and_gradients,
    randomize_inputs_gaussian,
    randomize_labels,
    save_dataset,
    save_manifest,
    synth_blobs,
    train,
)
from margin_auditor import training
from margin_auditor.network import Identity, Network, Relu
from margin_auditor.training import (
    _PENDING_ROWS,
    _SCALE_MAX,
    _SCALE_MIN,
    MarginDigest,
    _block_rows,
    _sgd_block,
)
from conftest import peak_bytes


@pytest.fixture
def blob_pair():
    train_ds = synth_blobs(200, 5, 2, separation=100.0, seed=1)
    test_ds = synth_blobs(80, 5, 2, separation=100.0, seed=2)
    return train_ds, test_ds


class TestInit:
    def test_deterministic(self):
        cfg = TrainConfig(layer_widths=(4, 8, 3), epochs=1, batch_size=4, seed=5)
        n1 = init_network(cfg)
        n2 = init_network(cfg)
        for a, b in zip(n1.layers, n2.layers):
            assert np.array_equal(a.weight, b.weight)

    def test_glorot_range(self):
        cfg = TrainConfig(layer_widths=(6, 10, 2), epochs=1, batch_size=4, seed=3)
        net = init_network(cfg)
        for layer in net.layers:
            fan_out, fan_in = layer.weight.shape
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(layer.weight).max() <= limit
            assert not layer.reference.any()

    def test_zero_references_take_no_storage(self, tmp_path):
        # each zero reference was an np.zeros_like of its weight, 2.1 MB in all
        cfg = TrainConfig(layer_widths=(784, 256, 256, 10), epochs=1, batch_size=4, seed=3)
        init_network(TrainConfig(layer_widths=(2, 2), epochs=1, batch_size=4, seed=3))
        net, peak = peak_bytes(init_network, cfg)
        assert peak <= sum(layer.weight.nbytes for layer in net.layers) + 1e5
        for layer in net.layers:
            assert not layer.reference.flags.writeable and not layer.reference.any()
        with open(save_manifest(net, tmp_path), encoding="utf-8") as f:
            assert [e["reference"] for e in json.load(f)["layers"]] == ["zero"] * 3

    def test_seeds_differ(self):
        base = TrainConfig(layer_widths=(4, 4, 2), epochs=1, batch_size=4, seed=0)
        other = TrainConfig(layer_widths=(4, 4, 2), epochs=1, batch_size=4, seed=1)
        assert not np.array_equal(init_network(base).layers[0].weight,
                                  init_network(other).layers[0].weight)


class TestGradients:
    def test_backprop_matches_central_differences(self):
        rng = np.random.default_rng(11)
        cfg = TrainConfig(layer_widths=(4, 6, 3), epochs=1, batch_size=4, seed=9)
        weights = [l.weight.copy() for l in init_network(cfg).layers]
        x = rng.standard_normal((10, 4))
        y = rng.integers(1, 4, size=10)
        _, grads = loss_and_gradients(weights, x, y, l2_coefficient=0.01)
        h = 1e-5
        for li in range(len(weights)):
            for _ in range(5):
                i = int(rng.integers(0, weights[li].shape[0]))
                j = int(rng.integers(0, weights[li].shape[1]))
                plus = [w.copy() for w in weights]
                plus[li][i, j] += h
                minus = [w.copy() for w in weights]
                minus[li][i, j] -= h
                lp, _ = loss_and_gradients(plus, x, y, l2_coefficient=0.01)
                lm, _ = loss_and_gradients(minus, x, y, l2_coefficient=0.01)
                fd = (lp - lm) / (2.0 * h)
                assert grads[li][i, j] == pytest.approx(fd, rel=1e-6, abs=1e-10)

    def test_single_step_descends(self):
        rng = np.random.default_rng(12)
        cfg = TrainConfig(layer_widths=(3, 5, 2), epochs=1, batch_size=4, seed=2)
        weights = [l.weight.copy() for l in init_network(cfg).layers]
        x = rng.standard_normal((8, 3))
        y = rng.integers(1, 3, size=8)
        loss0, grads = loss_and_gradients(weights, x, y)
        lr = 1e-6
        stepped = [w - lr * g for w, g in zip(weights, grads)]
        loss1, _ = loss_and_gradients(stepped, x, y)
        assert loss1 <= loss0 + 1e-8


def _checked_block(tally, weights, residuals, inputs, y, step, lr, l2, decay):
    """:func:`_sgd_block` on the rows its caller placed in ``inputs[0]``, each
    step checked against the eager reference step from the current effective
    weights ``c * (W - D[:p].T @ A[:p])``; yields what it yields.  ``tally``
    counts the blocks, the steps, those that began a block, the steps whose
    loss differs bitwise from the reference loss, and the blocks whose fold
    took in all their rows."""
    x = inputs[0][: len(y)].copy()
    current = [w.copy() for w in weights]
    start = 0
    for loss, p, c in _sgd_block(weights, residuals, inputs, y, step, lr, l2, decay):
        ref_loss, grads = loss_and_gradients(current, x[start:p], y[start:p], l2_coefficient=l2)
        # Pending rows reassociate the logits' sums, which moves the loss by a
        # few ulps; the l2 term adds the tracked norm's drift over at most
        # _PENDING_ROWS / 4 steps, also a few ulps (both seen below 5e-16).  A
        # step in a longer block takes layer 0's logits from a taller GEMM, which
        # may round them differently.
        if start == 0 and not l2 and p == len(x):
            assert loss == ref_loss
        else:
            assert loss == pytest.approx(ref_loss, rel=1e-14, abs=0)
        tally.update(steps=1, clean=start == 0, differ=loss != ref_loss)
        after = [c * (w - d[:p].T @ a[:p]) for w, d, a in zip(weights, residuals, inputs)]
        for w, g, s in zip(current, grads, after):
            assert np.abs(s - (w - lr * g)).max() <= 1e-15 * np.abs(w).max()
        assert all(np.isfinite(d[:p]).all() for d in residuals)
        assert _SCALE_MIN <= abs(c) <= _SCALE_MAX
        current, start = after, p
        yield loss, p, c
    tally.update(blocks=1, consumed=start == len(x))


def _step_against_reference(weights, x, y, block_rows, lr, l2):
    """Take the rows of ``x`` through :func:`_checked_block` in batches of 4
    and flush blocks of ``block_rows`` rows, and return the tally."""
    residuals = [np.empty((block_rows, w.shape[0])) for w in weights]
    inputs = [np.empty((block_rows, w.shape[1])) for w in weights]
    tally = Counter()
    decay = 1.0 - 2.0 * lr * l2
    for lo in range(0, len(x), block_rows):
        rows = slice(lo, lo + block_rows)
        inputs[0][: len(y[rows])] = x[rows]
        for _ in _checked_block(tally, weights, residuals, inputs, y[rows], 4, lr, l2, decay):
            pass
    return tally


def _net_and_rows(sizes, widths=(20, 16, 12, 5), seed=13):
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(layer_widths=widths, epochs=1, batch_size=4, seed=6)
    weights = [l.weight.copy() for l in init_network(cfg).layers]
    batches = [
        (rng.standard_normal((n, widths[0])), rng.integers(1, widths[-1] + 1, size=n))
        for n in sizes
    ]
    x, y = (np.concatenate(parts) for parts in zip(*batches))
    return weights, x, y


class TestFusedStep:
    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    def test_matches_reference_update(self, l2):
        # one-step blocks: every step is clean and reproduces the eager
        # arithmetic, so without l2 its loss is the reference loss exactly
        weights, x, y = _net_and_rows([4] * 35 + [3])
        tally = _step_against_reference(weights, x, y, 4, 0.05, l2)
        assert tally["clean"] == tally["steps"] == tally["blocks"] == 36
        assert tally["consumed"] == 36

    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    def test_block_schedule_matches_reference_update(self, l2):
        # train()'s schedule: blocks of up to 16 batches, 143 rows, the last
        # batch short; the pending rows, and at 64 inputs a 64-row GEMM of a
        # block's logits, round some losses unlike the reference
        sizes = [4] * 35 + [3]
        assert sum(sizes) > 2 * _PENDING_ROWS
        weights, x, y = _net_and_rows(sizes, widths=(64, 48, 32, 10))
        block_rows = _block_rows(4, 1.0 - 2.0 * 0.05 * l2)
        assert block_rows == _PENDING_ROWS
        tally = _step_against_reference(weights, x, y, block_rows, 0.05, l2)
        assert tally["clean"] == tally["consumed"] == 3
        assert tally["differ"] > 0

    @pytest.mark.parametrize("lr, l2, steps", [(0.05, 9.99, 6)], ids=["0.05-9.99"])
    def test_decay_outside_scale_range(self, lr, l2, steps):
        # decay 1 - 2*lr*l2 is about 1e-3: the scale would leave its range at
        # the 7th step, so the blocks end after 6 steps
        block_rows = _block_rows(4, 1.0 - 2.0 * lr * l2)
        assert block_rows == 4 * steps
        weights, x, y = _net_and_rows([4] * 10)
        tally = _step_against_reference(weights, x, y, block_rows, lr, l2)
        assert tally["clean"] == -(-10 // steps)

    @pytest.mark.parametrize("lr, l2, rows, flushes", [(0.05, 9.99, 143, 6)],
                             ids=["0.05-9.99-143"])
    def test_scale_flush_inside_block_through_train(self, lr, l2, rows, flushes, monkeypatch):
        # The scale range ends train()'s blocks early, every step it takes is
        # checked against the eager reference, and every fold consumes all
        # the rows its block took in.  A whole-epoch eager loop is no
        # reference at this decay: the weights collapse and roundoff grows
        # ~20x and more per step.
        widths = (64, 48, 32, 10)
        _, x, y = _net_and_rows([rows], widths=widths)
        ds = Dataset(X=x, y=y, k=10)
        x_before = ds.X.copy()
        tally = Counter()
        monkeypatch.setattr(training, "_sgd_block", lambda *block: _checked_block(tally, *block))
        cfg = TrainConfig(layer_widths=widths, epochs=1, batch_size=4, seed=6,
                          learning_rate=lr, l2_coefficient=l2)
        train(cfg, ds, ds)
        assert tally["steps"] == -(-rows // 4)
        assert tally["consumed"] == tally["blocks"] == flushes
        assert np.array_equal(ds.X, x_before)


class TestTrain:
    def test_separable_blobs_reach_zero_error(self, blob_pair):
        train_ds, test_ds = blob_pair
        cfg = TrainConfig(layer_widths=(5, 16, 2), epochs=50, batch_size=16, seed=0)
        snaps = train(cfg, train_ds, test_ds)
        assert min(s.train_error for s in snaps) == 0.0

    def test_single_epoch_single_snapshot(self, blob_pair):
        train_ds, test_ds = blob_pair
        cfg = TrainConfig(layer_widths=(5, 8, 2), epochs=1, batch_size=32, seed=0)
        snaps = train(cfg, train_ds, test_ds)
        assert len(snaps) == 1
        assert snaps[0].epoch == 0

    def test_bitwise_deterministic(self, blob_pair):
        train_ds, test_ds = blob_pair
        cfg = TrainConfig(layer_widths=(5, 8, 2), epochs=3, batch_size=16, seed=4)
        r1, r2 = list(epochs(cfg, train_ds, test_ds)), list(epochs(cfg, train_ds, test_ds))
        assert [asdict(s) for s, _, _ in r1] == [asdict(s) for s, _, _ in r2]
        for (_, na, _), (_, nb, _) in zip(r1, r2):
            for a, b in zip(na.layers, nb.layers):
                assert np.array_equal(a.weight, b.weight)

    def test_snapshot_error_matches_recomputation(self, blob_pair):
        train_ds, test_ds = blob_pair
        cfg = TrainConfig(layer_widths=(5, 8, 2), epochs=2, batch_size=16, seed=4)
        for snap, net, _ in epochs(cfg, train_ds, test_ds):
            assert snap.train_error == error_rate(net, train_ds)
            assert snap.excess_risk == pytest.approx(snap.test_error - snap.train_error)

    def test_snapshot_networks_own_their_layers(self):
        # Overlapping blobs keep the loss away from zero, so every layer moves.
        train_ds = synth_blobs(200, 5, 2, separation=1.0, seed=1)
        test_ds = synth_blobs(80, 5, 2, separation=1.0, seed=2)
        cfg = TrainConfig(layer_widths=(5, 8, 6, 2), epochs=2, batch_size=16, seed=4)
        nets = [net for _, net, _ in epochs(cfg, train_ds, test_ds)]
        assert len(nets) == 2
        for net in nets:
            kinds = [type(l.nonlinearity) for l in net.layers]
            assert kinds == [Relu, Relu, Identity]
            assert all(not l.reference.any() for l in net.layers)
        for a, b in zip(nets[0].layers, nets[1].layers):
            assert not np.array_equal(a.weight, b.weight)

    def test_snapshot_holds_flushed_weights(self):
        # 90 rows per epoch: a 64-row block and a 26-row block whose last
        # batch is short, both folded before the snapshot.  The steps follow
        # train()'s block schedule, which at 64 inputs rounds unlike taking
        # one batch at a time.
        for widths in ((5, 8, 6, 2), (64, 48, 32, 2)):
            train_ds = synth_blobs(90, widths[0], 2, separation=1.0, seed=1)
            test_ds = synth_blobs(40, widths[0], 2, separation=1.0, seed=2)
            cfg = TrainConfig(layer_widths=widths, epochs=2, batch_size=4, seed=4,
                              l2_coefficient=1e-3)
            weights = [l.weight.copy() for l in init_network(cfg).layers]
            block_rows = _block_rows(4, 1.0 - 2.0 * cfg.learning_rate * cfg.l2_coefficient)
            for epoch, (_, net, _) in enumerate(epochs(cfg, train_ds, test_ds)):
                order = np.random.default_rng([cfg.seed, epoch]).permutation(train_ds.n)
                tally = _step_against_reference(weights, train_ds.X[order], train_ds.y[order],
                                                block_rows, cfg.learning_rate, cfg.l2_coefficient)
                assert tally["clean"] == 2
                for layer, w in zip(net.layers, weights):
                    assert np.array_equal(layer.weight, w)

    @pytest.mark.parametrize("label_mode", ["true_labels", "random_labels"])
    def test_first_epochs_are_the_shorter_run(self, label_mode):
        # the first 2 epochs of a 5-epoch run are bitwise a 2-epoch run
        train_ds = synth_blobs(200, 5, 2, separation=1.0, seed=1)
        test_ds = synth_blobs(80, 5, 2, separation=1.0, seed=2)
        long, short = (TrainConfig(layer_widths=(5, 8, 6, 2), epochs=e, batch_size=16, seed=4,
                                   l2_coefficient=1e-3, label_mode=label_mode) for e in (5, 2))
        prefix = list(itertools.islice(epochs(long, train_ds, test_ds), 2))
        run = list(epochs(short, train_ds, test_ds))
        assert [s.epoch for s, _, _ in run] == [0, 1]
        for (sa, na, ma), (sb, nb, mb) in zip(prefix, run, strict=True):
            assert asdict(sa) == asdict(sb)
            for la, lb in zip(na.layers, nb.layers):
                assert la.weight.tobytes() == lb.weight.tobytes()
            assert ma.raw.tobytes() == mb.raw.tobytes()

    def test_break_ends_the_run(self, monkeypatch):
        # 200 rows are four flush blocks an epoch: a break after epoch 1
        # leaves 8 blocks taken, none of a third epoch
        blocks, sgd_block = [], training._sgd_block

        def counted(weights, residuals, inputs, y, *rest):
            blocks.append(len(y))
            return sgd_block(weights, residuals, inputs, y, *rest)

        monkeypatch.setattr(training, "_sgd_block", counted)
        train_ds = synth_blobs(200, 5, 2, separation=1.0, seed=1)
        test_ds = synth_blobs(80, 5, 2, separation=1.0, seed=2)
        cfg = TrainConfig(layer_widths=(5, 8, 2), epochs=5, batch_size=16, seed=4)
        seen = []
        for snap, _, _ in epochs(cfg, train_ds, test_ds):
            seen.append(snap.epoch)
            if snap.epoch == 1:
                break
        assert seen == [0, 1]
        assert blocks == [64, 64, 64, 8] * 2

    def test_batch_larger_than_training_set(self, blob_pair):
        # the pending buffers are sized by the rows a step can take, not by
        # the configured batch size
        train_ds, test_ds = blob_pair
        snaps = [
            train(TrainConfig(layer_widths=(5, 8, 2), epochs=2, batch_size=b, seed=0),
                  train_ds, test_ds)
            for b in (train_ds.n, 10**12)
        ]
        assert [asdict(s) for s in snaps[0]] == [asdict(s) for s in snaps[1]]

    def test_snapshot_forwards_train_and_test_once(self, blob_pair, monkeypatch):
        train_ds, test_ds = blob_pair
        rows = []
        chain = Network._chain

        def counted(net, z, images=None):
            rows.append(len(z))
            return chain(net, z, images)

        monkeypatch.setattr(Network, "_chain", counted)
        cfg = TrainConfig(layer_widths=(5, 8, 2), epochs=1, batch_size=16, seed=0)
        train(cfg, train_ds, test_ds)
        assert sum(rows) == train_ds.n + test_ds.n

    def test_train_norm_taken_once_per_run(self, blob_pair, monkeypatch):
        # ||X||_2 of a Dataset comes only from a row pass that takes the norm
        from margin_auditor import margins

        train_ds, test_ds = blob_pair
        seen, row_pass = [], margins._pass

        def counted(ds, net=None, norm=False):
            if norm:
                seen.append(ds is train_ds)
            return row_pass(ds, net, norm)

        monkeypatch.setattr(margins, "_pass", counted)
        monkeypatch.setattr(training, "_pass", counted)
        cfg = TrainConfig(layer_widths=(5, 8, 2), epochs=3, batch_size=16, seed=0)
        train(cfg, train_ds, test_ds)
        assert seen == [True]

    def test_divergence_raises_with_epoch(self):
        # overlapping blobs keep the initial loss (and gradients) away from
        # zero, so an absurd step size blows the weights up immediately
        train_ds = synth_blobs(200, 5, 2, separation=1.0, seed=1)
        test_ds = synth_blobs(80, 5, 2, separation=1.0, seed=2)
        cfg = TrainConfig(
            layer_widths=(5, 8, 2), epochs=3, batch_size=16, seed=0, learning_rate=1e6
        )
        with pytest.raises(TrainingDivergedError) as err:
            train(cfg, train_ds, test_ds)
        assert err.value.epoch == 0

    def test_degenerate_snapshot_names_epoch(self, blob_pair, monkeypatch):
        # a degeneracy found by the snapshot's analysis keeps its class and
        # gains the epoch
        def degenerate(*args):
            raise DegenerateNetworkError("layer 1 has spectral norm 0")

        monkeypatch.setattr(training, "_norms_and_margins", degenerate)
        cfg = TrainConfig(layer_widths=(5, 8, 2), epochs=2, batch_size=16, seed=0)
        with pytest.raises(DegenerateNetworkError,
                           match=r"^layer 1 has spectral norm 0 \(epoch 0\)$") as err:
            train(cfg, *blob_pair)
        assert type(err.value) is DegenerateNetworkError
        assert err.value.exit_code == 4

    def test_underflowed_spectral_complexity_names_epoch(self):
        # l2 9.99 shrinks every layer until the product of the spectral norms,
        # each still positive, underflows to R_A = 0
        ds = synth_blobs(90, 64, 3, separation=1.0, seed=1)
        cfg = TrainConfig(layer_widths=(64, 24, 16, 3), epochs=3, batch_size=4, seed=4,
                          learning_rate=0.05, l2_coefficient=9.99)
        with pytest.raises(NumericDegeneracyError,
                           match=r"^spectral complexity is 0.*\(epoch 1\)$") as err:
            train(cfg, ds, ds)
        assert type(err.value) is NumericDegeneracyError
        assert err.value.exit_code == 4

    @pytest.mark.parametrize("label_mode", ["true_labels", "random_labels"])
    def test_snapshot_matches_analysis(self, blob_pair, label_mode):
        # the snapshot and analyze share one analysis core: on the training set
        # the run actually fit, they agree bit for bit at every epoch
        train_ds, test_ds = blob_pair
        cfg = TrainConfig(layer_widths=(5, 8, 6, 2), epochs=3, batch_size=16, seed=0,
                          label_mode=label_mode)
        seen = list(epochs(cfg, train_ds, test_ds))
        if label_mode == "random_labels":
            train_ds = randomize_labels(train_ds, seed=cfg.seed)
        assert len(seen) == cfg.epochs
        for snap, net, md in seen:
            report, expected = analyze_network(net, train_ds)
            assert snap.R_A == report.R_A
            assert snap.product_spectral_norms == math.prod(ln.s for ln in report.layer_norms)
            assert np.array_equal(md.raw, expected.raw)
            assert np.array_equal(md.normalized, expected.normalized)
            assert snap.margin_summary == MarginDigest(
                normalizer=expected.normalizer,
                raw_mean=float(expected.raw.mean()),
                normalized_mean=float(expected.normalized.mean()),
                normalized_median=float(np.median(expected.normalized)),
                normalized_min=float(expected.normalized.min()),
                normalized_max=float(expected.normalized.max()),
                gamma_used=expected.gamma_used,
            )

    def test_random_labels_mode_sticks(self, blob_pair):
        train_ds, test_ds = blob_pair
        cfg = TrainConfig(
            layer_widths=(5, 8, 2), epochs=1, batch_size=16, seed=0,
            label_mode="random_labels",
        )
        snaps = train(cfg, train_ds, test_ds)
        # separable data with shuffled labels cannot be fit in one epoch
        assert snaps[0].train_error > 0.2

    def test_gaussian_moment_matched_inputs(self, blob_pair):
        train_ds, test_ds = blob_pair

        def run(mode):
            cfg = TrainConfig(layer_widths=(5, 8, 2), epochs=2, batch_size=16, seed=3,
                              input_mode=mode)
            run = list(epochs(cfg, train_ds, test_ds))
            return [asdict(s) for s, _, _ in run], [net for _, net, _ in run]

        snaps, nets = run("gaussian_moment_matched")
        again, again_nets = run("gaussian_moment_matched")
        assert again == snaps
        for a, b in zip(nets, again_nets):
            assert all(np.array_equal(la.weight, lb.weight) for la, lb in zip(a.layers, b.layers))
        assert run("true_inputs")[0] != snaps
        # the snapshots score the seeded Gaussian rows against the unchanged labels
        gaussian = Dataset(X=randomize_inputs_gaussian(train_ds, seed=3).X, y=train_ds.y,
                           k=train_ds.k)
        for snap, net in zip(snaps, nets):
            assert snap["train_error"] == error_rate(net, gaussian)

    def test_l2_shrinks_weights(self, blob_pair):
        train_ds, test_ds = blob_pair
        nets = {}
        for l2 in (0.0, 0.05):
            cfg = TrainConfig(
                layer_widths=(5, 8, 2), epochs=5, batch_size=16, seed=0, l2_coefficient=l2
            )
            nets[l2] = list(epochs(cfg, train_ds, test_ds))[-1][1]
        norm_plain = sum(float(np.sum(l.weight**2)) for l in nets[0.0].layers)
        norm_l2 = sum(float(np.sum(l.weight**2)) for l in nets[0.05].layers)
        assert norm_l2 < norm_plain

    def test_dimension_validation(self, blob_pair):
        train_ds, test_ds = blob_pair
        three_classes = synth_blobs(80, 5, 3, separation=1.0, seed=2)
        wide_test = synth_blobs(80, 6, 2, separation=1.0, seed=2)
        for widths, test, message in [((7, 8, 2), test_ds, "input width"),
                                      ((5, 8, 2), three_classes, "output width"),
                                      ((5, 8, 2), wide_test, "dims differ")]:
            cfg = TrainConfig(layer_widths=widths, epochs=1, batch_size=16, seed=0)
            run = epochs(cfg, train_ds, test)  # checked at the first next()
            with pytest.raises(ParameterError, match=message):
                next(run)
            with pytest.raises(ParameterError, match=message):
                train(cfg, train_ds, test)

    def test_data_norm_beyond_float64_rejected_before_any_step(self, tmp_path, monkeypatch):
        # ||X||_2 = sqrt(160) * 1.5e307 exceeds the float64 range; it is taken
        # before the first step, so no step overflows first (with RuntimeWarnings)
        from margin_auditor.cli import main

        def fail(*args, **kwargs):
            raise AssertionError("a training step ran")

        signs = np.random.default_rng(8).choice([-1.0, 1.0], (40, 4))
        ds = Dataset(X=1.5e307 * signs, y=np.arange(40) % 2 + 1, k=2)
        monkeypatch.setattr(training, "_sgd_block", fail)
        cfg = TrainConfig(layer_widths=(4, 8, 2), epochs=1, batch_size=4, seed=0)
        with pytest.raises(NumericDegeneracyError, match="norm exceeds the float64 range"):
            train(cfg, ds, ds)
        save_dataset(ds, tmp_path / "x.mat", tmp_path / "y.lbl")
        (tmp_path / "cfg.json").write_text(json.dumps(asdict(cfg)))
        data = [str(tmp_path / "x.mat"), str(tmp_path / "y.lbl")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", str(tmp_path / "cfg.json"), "--train-features", data[0],
                         "--train-labels", data[1], "--test-features", data[0],
                         "--test-labels", data[1], "--out", str(tmp_path / "run")]) == 4

    def test_fewer_than_two_rows_rejected_before_any_step(self, blob_pair, monkeypatch):
        train_ds, test_ds = blob_pair

        def fail(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(training, "_sgd_block", fail)
        one = Dataset(X=train_ds.X[:1], y=train_ds.y[:1], k=train_ds.k)
        cfg = TrainConfig(layer_widths=(5, 8, 2), epochs=1, batch_size=1, seed=0)
        with pytest.raises(ParameterError, match="training set rows must be at least 2, got 1"):
            train(cfg, one, test_ds)
        two = Dataset(X=train_ds.X[:2], y=train_ds.y[:2], k=train_ds.k)
        monkeypatch.undo()
        assert len(train(cfg, two, test_ds)) == 1


class TestConfig:
    def test_from_json(self, tmp_path):
        doc = {
            "layer_widths": [4, 8, 2],
            "epochs": 3,
            "batch_size": 16,
            "seed": 7,
            "l2_coefficient": 0.001,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = TrainConfig.from_json(path)
        assert cfg.layer_widths == (4, 8, 2)
        assert cfg.learning_rate == 0.01
        assert cfg.l2_coefficient == 0.001

    def test_validation(self):
        with pytest.raises(ParameterError):
            TrainConfig(layer_widths=(4,), epochs=1, batch_size=4, seed=0)
        with pytest.raises(ParameterError):
            TrainConfig(layer_widths=(4, 2), epochs=0, batch_size=4, seed=0)
        with pytest.raises(ParameterError):
            TrainConfig(layer_widths=(4, 2), epochs=1, batch_size=4, seed=0,
                        label_mode="shuffled")
        with pytest.raises(ParameterError):
            TrainConfig(layer_widths=(4, 2), epochs=1, batch_size=4, seed=0,
                        learning_rate=0.0)
        # values of the wrong type are rejected, not truncated or left to fail later
        for field in ({"epochs": 1.5}, {"epochs": True}, {"batch_size": 4.5}, {"seed": "x"},
                      {"seed": -1}, {"layer_widths": [4, "a", 2]}, {"layer_widths": [4, 16.7, 2]},
                      {"layer_widths": 5}, {"learning_rate": "x"}, {"l2_coefficient": "x"},
                      {"l2_coefficient": float("nan")}, {"input_mode": "shuffled"}):
            with pytest.raises(ParameterError):
                TrainConfig(**{"layer_widths": (4, 2), "epochs": 1, "batch_size": 4, "seed": 0,
                               **field})

    @pytest.mark.parametrize("lr, l2", [(0.25, 2.0), (1.0, 1e20)], ids=["zero", "beyond-2**64"])
    def test_decay_outside_scale_range_rejected(self, lr, l2):
        # 1 - 2*lr*l2 is 0, or about -2e20: the lazy scale cannot hold it
        with pytest.raises(ParameterError, match=r"l2 decay .* got (0\.0|-2e\+20)$"):
            TrainConfig(layer_widths=(4, 2), epochs=1, batch_size=4, seed=0,
                        learning_rate=lr, l2_coefficient=l2)

    def test_small_decay_inside_scale_range_accepted(self):
        cfg = TrainConfig(layer_widths=(4, 2), epochs=1, batch_size=4, seed=0,
                          learning_rate=0.05, l2_coefficient=9.99)
        assert 1.0 - 2.0 * cfg.learning_rate * cfg.l2_coefficient == pytest.approx(1e-3)

    def test_numpy_integers_accepted(self):
        cfg = TrainConfig(layer_widths=np.array([4, 3, 2]), epochs=np.int64(2),
                          batch_size=np.int32(4), seed=np.uint8(1))
        assert cfg.layer_widths == (4, 3, 2)
        assert (type(cfg.epochs), type(cfg.batch_size), type(cfg.seed)) == (int, int, int)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"layer_widths": [4, 2], "epochs": 1, "batch_size": 4, "seed": 0, "momentum": 0.9}')
        with pytest.raises(ParameterError):
            TrainConfig.from_json(path)
