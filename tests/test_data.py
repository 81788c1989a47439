import struct
import warnings

import numpy as np
import pytest

from margin_auditor import (
    Dataset,
    NumericDegeneracyError,
    ParameterError,
    ParseError,
    frobenius_norm,
    inspect_idx,
    load_dataset,
    load_idx,
    randomize_inputs_gaussian,
    randomize_labels,
    read_mat1,
    save_dataset,
    synth_blobs,
    synth_images,
    write_idx,
)

# chi-square critical value at p = 0.001 with 9 degrees of freedom
CHI2_9DOF_P001 = 27.877


def hand_built_idx_pair(tmp_path):
    # two 2x2 images and two labels, assembled byte by byte
    images = tmp_path / "imgs"
    labels = tmp_path / "lbls"
    pixels = bytes([0, 255, 128, 64, 255, 0, 0, 32])
    images.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + pixels)
    labels.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([0, 3]))
    return images, labels


class TestLoadIdx:
    def test_hand_built_pair(self, tmp_path):
        images, labels = hand_built_idx_pair(tmp_path)
        ds = load_idx(images, labels)
        assert ds.n == 2
        assert ds.dim == 4
        assert ds.X[0, 1] == 1.0  # byte 255 scales to exactly 1.0
        assert ds.X[1, 0] == 1.0
        assert ds.X[0, 0] == 0.0
        assert ds.y.tolist() == [1, 4]  # bytes 0 and 3 shift to 1-based

    def test_wrong_image_magic(self, tmp_path):
        images, labels = hand_built_idx_pair(tmp_path)
        raw = bytearray(images.read_bytes())
        raw[3] = 0x99
        images.write_bytes(bytes(raw))
        with pytest.raises(ParseError) as err:
            load_idx(images, labels)
        assert err.value.offset == 0

    def test_truncated_images(self, tmp_path):
        images, labels = hand_built_idx_pair(tmp_path)
        raw = images.read_bytes()
        images.write_bytes(raw[:-3])
        with pytest.raises(ParseError) as err:
            load_idx(images, labels)
        assert err.value.offset == len(raw) - 3

    def test_count_mismatch(self, tmp_path):
        images, labels = hand_built_idx_pair(tmp_path)
        labels.write_bytes(struct.pack(">II", 0x00000801, 3) + bytes([0, 3, 1]))
        with pytest.raises(ParseError) as err:
            load_idx(images, labels)
        assert "does not match image count" in str(err.value)

    def test_lbl1_count_mismatch(self, tmp_path):
        # the same mismatch in the MAT1/LBL1 pair is a parse error at the count too
        save_dataset(synth_blobs(2, 2, 2, 1.0, seed=0), tmp_path / "x.mat", tmp_path / "y.lbl")
        (tmp_path / "y.lbl").write_bytes(b"LBL1" + struct.pack("<5I", 3, 2, 1, 2, 1))
        with pytest.raises(ParseError, match="does not match row count") as err:
            load_dataset(tmp_path / "x.mat", tmp_path / "y.lbl")
        assert (err.value.path, err.value.offset) == (tmp_path / "y.lbl", 4)

    @pytest.mark.parametrize("count, rows, cols", [(0, 2, 2), (2, 0, 2), (2, 2, 0)],
                             ids=["no-images", "no-rows", "no-columns"])
    def test_empty_image_set(self, tmp_path, count, rows, cols):
        images, labels = tmp_path / "imgs", tmp_path / "lbls"
        images.write_bytes(struct.pack(">IIII", 0x00000803, count, rows, cols))
        labels.write_bytes(struct.pack(">II", 0x00000801, count) + bytes(count))
        with pytest.raises(ParseError, match="empty image set") as err:
            load_idx(images, labels)
        assert err.value.path == images

    def test_truncated_header(self, tmp_path):
        images, labels = hand_built_idx_pair(tmp_path)
        images.write_bytes(images.read_bytes()[:6])
        with pytest.raises(ParseError) as err:
            load_idx(images, labels)
        assert err.value.offset == 6

    def test_round_trip(self, tmp_path):
        images, labels = hand_built_idx_pair(tmp_path)
        ds = load_idx(images, labels)
        write_idx(ds, tmp_path / "i2", tmp_path / "l2", rows=2, cols=2)
        again = load_idx(tmp_path / "i2", tmp_path / "l2")
        assert np.array_equal(again.X, ds.X)
        assert np.array_equal(again.y, ds.y)

    def test_write_rejects_bad_shape_and_labels(self, tmp_path):
        ds = synth_blobs(3, 4, 2, 1.0, seed=0)
        with pytest.raises(ParameterError, match="must equal feature dim"):
            write_idx(ds, tmp_path / "i", tmp_path / "l", rows=3, cols=2)
        wide = Dataset(X=ds.X, y=np.array([1, 2, 257]), k=257)
        with pytest.raises(ParameterError, match="need k <= 256"):
            write_idx(wide, tmp_path / "i", tmp_path / "l", rows=2, cols=2)

    def test_inspect(self, tmp_path):
        images, labels = hand_built_idx_pair(tmp_path)
        info = inspect_idx(images)
        assert info == {"kind": "images", "count": 2, "rows": 2, "cols": 2, "payload_bytes": 8}
        assert inspect_idx(labels)["kind"] == "labels"


class TestBinaryDataset:
    def test_mat1_lbl1_round_trip(self, tmp_path, rng):
        ds = synth_blobs(20, 3, 4, 2.0, seed=8)
        save_dataset(ds, tmp_path / "x.mat", tmp_path / "y.lbl")
        back = load_dataset(tmp_path / "x.mat", tmp_path / "y.lbl")
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)
        assert back.k == ds.k

    def test_lbl1_bad_magic(self, tmp_path):
        ds = synth_blobs(5, 2, 2, 1.0, seed=0)
        save_dataset(ds, tmp_path / "x.mat", tmp_path / "y.lbl")
        raw = bytearray((tmp_path / "y.lbl").read_bytes())
        raw[0] = ord("X")
        (tmp_path / "y.lbl").write_bytes(bytes(raw))
        with pytest.raises(ParseError):
            load_dataset(tmp_path / "x.mat", tmp_path / "y.lbl")

    @pytest.mark.parametrize("name, header", [("x.mat", "MAT1"), ("y.lbl", "LBL1")])
    def test_truncated_header(self, tmp_path, name, header):
        save_dataset(synth_blobs(5, 2, 2, 1.0, seed=0), tmp_path / "x.mat", tmp_path / "y.lbl")
        (tmp_path / name).write_bytes((tmp_path / name).read_bytes()[:7])
        with pytest.raises(ParseError, match=f"{header} header truncated") as err:
            load_dataset(tmp_path / "x.mat", tmp_path / "y.lbl")
        assert (err.value.path, err.value.offset) == (tmp_path / name, 7)

    def test_non_finite_features_are_a_parse_error(self, tmp_path):
        save_dataset(synth_blobs(5, 2, 2, 1.0, seed=0), tmp_path / "x.mat", tmp_path / "y.lbl")
        raw = bytearray((tmp_path / "x.mat").read_bytes())
        struct.pack_into("<d", raw, 12 + 8 * 7, float("nan"))  # entry (3, 1)
        (tmp_path / "x.mat").write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="invalid MAT1 contents"):
            read_mat1(tmp_path / "x.mat")
        with pytest.raises(ParseError, match="invalid MAT1 contents"):
            load_dataset(tmp_path / "x.mat", tmp_path / "y.lbl")


class TestDatasetValidation:
    def test_label_range(self):
        with pytest.raises(ParameterError):
            Dataset(X=np.ones((2, 2)), y=np.array([1, 3]), k=2)

    def test_label_count(self):
        with pytest.raises(ParameterError):
            Dataset(X=np.ones((2, 2)), y=np.array([1]), k=2)

    def test_data_norm_is_frobenius(self, rng):
        ds = synth_blobs(15, 4, 3, 1.0, seed=3)
        by_rows = np.sqrt(sum(float(r @ r) for r in ds.X))
        assert frobenius_norm(ds.X) == pytest.approx(by_rows, rel=1e-12)


class TestRandomizeLabels:
    def test_deterministic(self):
        ds = synth_blobs(50, 3, 5, 1.0, seed=1)
        a = randomize_labels(ds, seed=9)
        b = randomize_labels(ds, seed=9)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.X, ds.X)

    def test_single_class_unchanged(self):
        ds = Dataset(X=np.ones((4, 2)), y=np.ones(4, dtype=int), k=1)
        assert np.array_equal(randomize_labels(ds, seed=0).y, ds.y)

    def test_chi_square_uniformity(self):
        ds = synth_blobs(10_000, 2, 10, 1.0, seed=2)
        labels = randomize_labels(ds, seed=11).y
        counts = np.bincount(labels, minlength=11)[1:]
        expected = 1000.0
        stat = float(np.sum((counts - expected) ** 2 / expected))
        assert stat < CHI2_9DOF_P001


class TestRandomizeInputs:
    def test_deterministic(self):
        ds = synth_blobs(40, 3, 2, 2.0, seed=5)
        a = randomize_inputs_gaussian(ds, seed=3)
        b = randomize_inputs_gaussian(ds, seed=3)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, ds.y)

    def test_mean_matches(self):
        ds = synth_blobs(60, 4, 2, 3.0, seed=6)
        mu = ds.X.mean(axis=0)
        sigma = ds.X.std(axis=0)
        big = 100_000
        blown = Dataset(X=np.tile(ds.X, (big // 60 + 1, 1))[:big], y=np.ones(big, dtype=int), k=1)
        sample = randomize_inputs_gaussian(blown, seed=1).X
        tol = 3.0 * sigma / np.sqrt(big)
        assert np.all(np.abs(sample.mean(axis=0) - mu) <= tol + 1e-9)

    def test_shrinkage_keeps_cholesky_viable(self):
        # rank-deficient inputs: covariance alone is singular
        base = np.random.default_rng(3).standard_normal((30, 2))
        x = np.hstack([base, base[:, :1] + base[:, 1:]])
        ds = Dataset(X=x, y=np.ones(30, dtype=int), k=1)
        out = randomize_inputs_gaussian(ds, seed=0)
        assert out.X.shape == (30, 3)

    def test_degenerate_rejected(self):
        with pytest.raises(ParameterError):
            randomize_inputs_gaussian(Dataset(X=np.ones((1, 2)), y=np.array([1]), k=1), seed=0)
        with pytest.raises(NumericDegeneracyError):
            randomize_inputs_gaussian(Dataset(X=np.ones((5, 2)), y=np.ones(5, dtype=int), k=1),
                                      seed=0)
        # entries near the top of the float64 range: some draws land beyond it
        x = np.ldexp(np.random.default_rng(4).uniform(-1.9, 1.9, (30, 6)), 1023)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericDegeneracyError, match="float64 range"):
                randomize_inputs_gaussian(Dataset(X=x, y=np.ones(30, dtype=int), k=1), seed=1)

    def test_cholesky_failure_is_a_degeneracy(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        ds = synth_blobs(40, 3, 2, 2.0, seed=5)
        with pytest.raises(NumericDegeneracyError, match="factorization failed"):
            randomize_inputs_gaussian(ds, seed=0)

    @pytest.mark.parametrize("k", [-900, -500, 500, 1000])
    def test_exactly_homogeneous_at_any_finite_scale(self, k):
        # the statistics are taken on power-of-two prescaled rows, so scaling
        # X by 2**k scales every draw by 2**k bit for bit, without a warning
        ds = synth_blobs(40, 5, 2, 2.0, seed=5)
        base = randomize_inputs_gaussian(ds, seed=3).X
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = randomize_inputs_gaussian(Dataset(X=np.ldexp(ds.X, k), y=ds.y, k=ds.k),
                                               seed=3)
        assert np.array_equal(scaled.X, np.ldexp(base, k))


class TestSynthGenerators:
    @pytest.mark.parametrize("generate", [lambda n: synth_blobs(n, 2, 3, 1.0),
                                          lambda n: synth_images(n, k=3, side=4)],
                             ids=["blobs", "images"])
    def test_fewer_rows_than_classes_rejected(self, generate):
        with pytest.raises(ParameterError, match="need n >= k, got n=2, k=3"):
            generate(2)
        assert generate(3).n == 3

    def test_blobs_zero_separation(self):
        ds = synth_blobs(40, 3, 4, separation=0.0, seed=4)
        # all class means collapse to the origin: labels carry no signal
        for c in range(1, 5):
            assert np.linalg.norm(ds.X[ds.y == c].mean(axis=0)) < 1.5

    def test_blobs_deterministic_and_balanced(self):
        a = synth_blobs(21, 2, 3, 5.0, seed=9)
        b = synth_blobs(21, 2, 3, 5.0, seed=9)
        assert np.array_equal(a.X, b.X)
        assert np.bincount(a.y, minlength=4)[1:].tolist() == [7, 7, 7]

    def test_blobs_high_separation_separable(self):
        from margin_auditor import TrainConfig, train

        tr = synth_blobs(100, 4, 2, 100.0, seed=10)
        te = synth_blobs(40, 4, 2, 100.0, seed=11)
        cfg = TrainConfig(layer_widths=(4, 8, 2), epochs=30, batch_size=10, seed=0)
        snaps = train(cfg, tr, te)
        assert min(s.train_error for s in snaps) == 0.0

    def test_images_shape_scale_determinism(self):
        a = synth_images(30, k=5, seed=12)
        b = synth_images(30, k=5, seed=12)
        assert a.X.shape == (30, 784)
        assert float(a.X.min()) >= 0.0 and float(a.X.max()) <= 1.0
        assert np.array_equal(a.X, b.X)
        assert a.k == 5
