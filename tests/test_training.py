import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from margin_auditor import (
    Dataset,
    ParameterError,
    TrainConfig,
    TrainingDivergedError,
    error_rate,
    init_network,
    loss_and_gradients,
    synth_blobs,
    train,
)
from margin_auditor.network import Network
from margin_auditor.training import _sgd_step


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


class TestFusedStep:
    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    def test_matches_reference_update(self, l2):
        rng = np.random.default_rng(13)
        cfg = TrainConfig(layer_widths=(20, 16, 12, 5), epochs=1, batch_size=4, seed=6)
        weights = [l.weight.copy() for l in init_network(cfg).layers]
        x = rng.standard_normal((4, 20))
        y = rng.integers(1, 6, size=4)
        x_before = x.copy()
        lr = 0.05
        ref_loss, grads = loss_and_gradients(weights, x, y, l2_coefficient=l2)
        stepped = [w.copy() for w in weights]
        scratch = [np.empty_like(w) for w in weights]
        loss = _sgd_step(stepped, x, y, lr, l2, scratch)
        if l2:
            assert loss == pytest.approx(ref_loss, rel=1e-14, abs=0)
        else:
            assert loss == ref_loss
        for w, g, s in zip(weights, grads, stepped):
            assert np.abs(s - (w - lr * g)).max() <= 1e-15 * np.abs(w).max()
        assert np.array_equal(x, x_before)


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
        grabbed = []

        def hook(snap, net, md):
            grabbed.append([l.weight.copy() for l in net.layers])

        s1 = train(cfg, train_ds, test_ds, snapshot_hook=hook)
        s2 = train(cfg, train_ds, test_ds, snapshot_hook=hook)
        assert [asdict(s) for s in s1] == [asdict(s) for s in s2]
        for wa, wb in zip(grabbed[:3], grabbed[3:]):
            for a, b in zip(wa, wb):
                assert np.array_equal(a, b)

    def test_snapshot_error_matches_recomputation(self, blob_pair):
        train_ds, test_ds = blob_pair
        cfg = TrainConfig(layer_widths=(5, 8, 2), epochs=2, batch_size=16, seed=4)
        nets = []
        snaps = train(cfg, train_ds, test_ds, snapshot_hook=lambda s, n, m: nets.append(n))
        for snap, net in zip(snaps, nets):
            assert snap.train_error == error_rate(net, train_ds)
            assert snap.excess_risk == pytest.approx(snap.test_error - snap.train_error)

    def test_snapshot_forwards_train_and_test_once(self, blob_pair, monkeypatch):
        train_ds, test_ds = blob_pair
        rows = []
        forward_images = Network.forward_images

        def counted(net, x):
            rows.append(len(x))
            return forward_images(net, x)

        monkeypatch.setattr(Network, "forward_images", counted)
        cfg = TrainConfig(layer_widths=(5, 8, 2), epochs=1, batch_size=16, seed=0)
        train(cfg, train_ds, test_ds)
        assert sorted(rows) == sorted([train_ds.n, test_ds.n])

    def test_train_norm_taken_once_per_run(self, blob_pair, monkeypatch):
        from margin_auditor import margins, training

        train_ds, test_ds = blob_pair
        seen = []
        for module in (margins, training):
            if hasattr(module, "frobenius_norm"):
                def counted(a, original=module.frobenius_norm):
                    seen.append(a is train_ds.X)
                    return original(a)

                monkeypatch.setattr(module, "frobenius_norm", counted)
        cfg = TrainConfig(layer_widths=(5, 8, 2), epochs=3, batch_size=16, seed=0)
        train(cfg, train_ds, test_ds)
        assert seen.count(True) == 1

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

    def test_random_labels_mode_sticks(self, blob_pair):
        train_ds, test_ds = blob_pair
        cfg = TrainConfig(
            layer_widths=(5, 8, 2), epochs=1, batch_size=16, seed=0,
            label_mode="random_labels",
        )
        snaps = train(cfg, train_ds, test_ds)
        # separable data with shuffled labels cannot be fit in one epoch
        assert snaps[0].train_error > 0.2

    def test_l2_shrinks_weights(self, blob_pair):
        train_ds, test_ds = blob_pair
        nets = {}
        for l2 in (0.0, 0.05):
            cfg = TrainConfig(
                layer_widths=(5, 8, 2), epochs=5, batch_size=16, seed=0, l2_coefficient=l2
            )
            train(cfg, train_ds, test_ds,
                  snapshot_hook=lambda s, n, m, key=l2: nets.__setitem__(key, n))
        norm_plain = sum(float(np.sum(l.weight**2)) for l in nets[0.0].layers)
        norm_l2 = sum(float(np.sum(l.weight**2)) for l in nets[0.05].layers)
        assert norm_l2 < norm_plain

    def test_dimension_validation(self, blob_pair):
        train_ds, test_ds = blob_pair
        cfg = TrainConfig(layer_widths=(7, 8, 2), epochs=1, batch_size=16, seed=0)
        with pytest.raises(ParameterError):
            train(cfg, train_ds, test_ds)


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

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"layer_widths": [4, 2], "epochs": 1, "batch_size": 4, "seed": 0, "momentum": 0.9}')
        with pytest.raises(ParameterError):
            TrainConfig.from_json(path)
