import hashlib
import os
import struct
import threading
import warnings

import numpy as np
import pytest

from margin_auditor import (
    Dataset,
    NumericDegeneracyError,
    ParameterError,
    ParseError,
    TrainConfig,
    frobenius_norm,
    init_network,
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
    write_mat1,
)
from margin_auditor.errors import _BLOCK, _GEMM_ROWS
from margin_auditor.margins import _outputs
from conftest import peak_bytes

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


def mat1_bytes(rows, cols, payload=None):
    body = np.arange(rows * cols, dtype="<f8").tobytes() if payload is None else payload
    return b"MAT1" + struct.pack("<II", rows, cols) + body


U32_MAX = 2**32 - 1
GOOD_MAT1 = mat1_bytes(2, 2)  # 44 bytes
GOOD_LBL1 = b"LBL1" + struct.pack("<4I", 2, 2, 1, 2)  # labels of GOOD_MAT1's two rows
GOOD_IDX_IMAGES = struct.pack(">4I", 0x00000803, 6, 1, 1) + bytes([0, 255, 128, 64, 32, 16])
GOOD_IDX_LABELS = struct.pack(">2I", 0x00000801, 6) + bytes([0, 1, 2, 0, 1, 2])
# format -> (a well-formed file, the format's name in messages, a header whose
# u32 fields are all U32_MAX with no payload, the file length that header claims)
CONTAINERS = {
    "MAT1": (GOOD_MAT1, "MAT1", mat1_bytes(U32_MAX, U32_MAX, b""), 12 + 8 * U32_MAX**2),
    "LBL1": (GOOD_LBL1, "LBL1", b"LBL1" + struct.pack("<2I", U32_MAX, U32_MAX),
             12 + 4 * U32_MAX),
    "IDX images": (GOOD_IDX_IMAGES, "IDX image", struct.pack(">4I", 0x00000803, *[U32_MAX] * 3),
                   16 + U32_MAX**3),
    "IDX labels": (GOOD_IDX_LABELS, "IDX label", struct.pack(">2I", 0x00000801, U32_MAX),
                   8 + U32_MAX),
}


def malformed_containers(fmt):
    """Malformed files of format ``fmt`` -> (bytes, message after "<path>: ",
    byte offset): the cases every format shares."""
    good, name, huge, claimed = CONTAINERS[fmt]
    n = len(good)

    def payload(length, expected):
        return f"{name} payload has {length} bytes, expected {expected}"

    return {
        "header-truncated": (good[:7], f"{name} header truncated", 7),
        "bad-magic": (b"NOPE" + good[4:], f"bad {name} magic b'NOPE'", 0),
        "payload-truncated": (good[:-5], payload(n - 5, n), n - 5),
        "trailing-bytes": (good + b"xyz", payload(n + 3, n), n),
        "header-beyond-any-memory": (huge, payload(len(huge), claimed), len(huge)),
    }


# format -> its malformed files -> (bytes, message after "<path>: ", byte offset or None)
MALFORMED = {
    "MAT1": {
        **malformed_containers("MAT1"),
        "non-finite": (mat1_bytes(2, 2, struct.pack("<4d", 0.0, np.nan, 1.0, 2.0)),
                       "invalid MAT1 contents: matrix entries must be finite (no NaN/Inf)", None),
        "empty": (mat1_bytes(0, 3, b""), "invalid MAT1 contents: empty matrix of shape (0, 3)",
                  None),
    },
    "LBL1": {
        **malformed_containers("LBL1"),
        "count-mismatch": (b"LBL1" + struct.pack("<5I", 3, 2, 1, 2, 1),
                           "label count 3 does not match row count 2", 4),
        "label-beyond-k": (b"LBL1" + struct.pack("<4I", 2, 2, 1, 7),
                           "invalid LBL1 contents: labels must lie in 1..2", None),
        "no-classes": (b"LBL1" + struct.pack("<4I", 2, 0, 1, 2),
                       "invalid LBL1 contents: label count k must be at least 1, got 0", None),
    },
    "IDX images": {
        **malformed_containers("IDX images"),
        "empty": (struct.pack(">4I", 0x00000803, 0, 1, 1), "empty image set: 0 images of 1x1",
                  None),
    },
    "IDX labels": {
        **malformed_containers("IDX labels"),
        "count-mismatch": (struct.pack(">2I", 0x00000801, 2) + bytes(2),
                           "label count 2 does not match image count 6", 4),
    },
}
# a reader -> (the format of the file it is given malformed, the call on that
# file's path with the well-formed files of WELL_FORMED in the directory d)
READERS = {
    "read_mat1": ("MAT1", lambda bad, d: read_mat1(bad)),
    "load_dataset": ("MAT1", lambda bad, d: load_dataset(bad, d / "y.lbl")),
    "load_dataset-labels": ("LBL1", lambda bad, d: load_dataset(d / "x.mat", bad)),
    "load_idx": ("IDX images", lambda bad, d: load_idx(bad, d / "labels.idx")),
    "load_idx-labels": ("IDX labels", lambda bad, d: load_idx(d / "images.idx", bad)),
}
WELL_FORMED = {"x.mat": GOOD_MAT1, "y.lbl": GOOD_LBL1, "images.idx": GOOD_IDX_IMAGES,
               "labels.idx": GOOD_IDX_LABELS}


def read_through(tmp_path, reader, raw, path, pipe=False):
    """What ``reader`` returns (or raises) when its file of READERS' format
    holds ``raw`` at ``path``, a regular file or else a pipe fed by a writer
    thread; its other file is the well-formed one."""
    for name, good in WELL_FORMED.items():
        (tmp_path / name).write_bytes(good)
    call = READERS[reader][1]
    if not pipe:
        path.write_bytes(raw)
        return call(path, tmp_path)
    return through_pipe(path, raw, lambda: call(path, tmp_path))


def through_pipe(path, raw, call):
    """What ``call()`` returns (or raises) while a writer thread feeds ``raw``
    into a new named pipe at ``path``."""
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(raw,), daemon=True)
    writer.start()
    try:
        return call()
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive(), "the reader never opened the pipe"


def loaded_arrays(loaded):
    return (loaded,) if isinstance(loaded, np.ndarray) else (loaded.X, loaded.y)


class TestMat1Reader:
    """The one container reader, through every public reader of each format."""

    @pytest.mark.parametrize("reader, case", [
        pytest.param(reader, case, id=f"{case}-{reader}")
        for reader, (fmt, _) in READERS.items() for case in sorted(MALFORMED[fmt])])
    def test_parse_error_text_and_offset(self, tmp_path, reader, case):
        raw, message, offset = MALFORMED[READERS[reader][0]][case]
        path = tmp_path / "bad"
        with pytest.raises(ParseError) as err:
            read_through(tmp_path, reader, raw, path)
        suffix = "" if offset is None else f" (at byte {offset})"
        assert (str(err.value), err.value.offset) == (f"{path}: {message}{suffix}", offset)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("reader, case", [  # the cases all formats share, and a good file
        pytest.param(reader, case, id=f"{case}-{reader}")
        for reader in READERS for case in [*sorted(malformed_containers("MAT1")), "whole"]])
    def test_pipe_is_read_and_checked_like_a_file(self, tmp_path, reader, case):
        # a pipe has no size to check before the read, so the read itself must
        # find it, and must not allocate what a header claims before it has it
        fmt = READERS[reader][0]
        good = CONTAINERS[fmt][0]
        raw, message, offset = MALFORMED[fmt].get(case, (good, None, None))
        path = tmp_path / "pipe"
        if message is None:
            loaded = read_through(tmp_path, reader, raw, path, pipe=True)
            expected = read_through(tmp_path, reader, raw, tmp_path / "file")
            for a, b in zip(loaded_arrays(loaded), loaded_arrays(expected), strict=True):
                assert np.array_equal(a, b) and a.flags.writeable and a.flags.owndata
        else:
            with pytest.raises(ParseError) as err:
                read_through(tmp_path, reader, raw, path, pipe=True)
            assert (str(err.value), err.value.offset) == (
                f"{path}: {message} (at byte {offset})", offset)

    def test_read_makes_no_transient_the_size_of_the_matrix(self, tmp_path):
        # finiteness is checked a block of rows at a time, so reading X
        # allocates X and a mask far smaller than X's one byte per entry
        write_mat1(tmp_path / "x.mat", synth_images(1000, k=10, seed=5).X)  # 784 columns
        x, peak = peak_bytes(read_mat1, tmp_path / "x.mat")
        assert peak <= x.nbytes + (1 << 17) < x.nbytes + x.size

    def test_forward_on_loaded_features_copies_nothing(self, tmp_path):
        # An unaligned X would make the first GEMM copy a block of X; the peak
        # is one block's layer image and the next, the two largest at once,
        # plus the n x k output.
        widths = (784, 256, 256, 10)
        net = init_network(TrainConfig(layer_widths=widths, epochs=1, batch_size=4, seed=3))
        save_dataset(synth_images(2000, k=10, seed=4), tmp_path / "x.mat", tmp_path / "y.lbl")
        x = load_dataset(tmp_path / "x.mat", tmp_path / "y.lbl").X
        _, peak = peak_bytes(_outputs, net, x)
        images = [8 * (2 * _GEMM_ROWS - 1) * w for w in widths[1:]]
        output = 8 * 2000 * widths[-1]
        assert peak <= max(a + b for a, b in zip(images, images[1:])) + output + 65536


def via_files(save, load):
    def prepare(ds, tmp_path):
        save(ds, tmp_path / "x", tmp_path / "y")
        return lambda: load(tmp_path / "x", tmp_path / "y")
    return prepare


# a Dataset producer (its set-up, returning the call) -> the call's passes over
# X for non-finite values: load_dataset's is read_mat1's; bytes / 255 and
# redrawn labels need none; the Gaussian draws are checked where they are made
FINITENESS_PASSES = {
    "load_dataset": (via_files(save_dataset, load_dataset), 1),
    "load_idx": (via_files(write_idx, load_idx), 0),
    "randomize_labels": (lambda ds, tmp_path: lambda: randomize_labels(ds, seed=1), 0),
    "randomize_inputs_gaussian":
        (lambda ds, tmp_path: lambda: randomize_inputs_gaussian(ds, seed=1), 1),
}


@pytest.mark.parametrize("producer", sorted(FINITENESS_PASSES))
def test_features_checked_for_finiteness_at_most_once(tmp_path, monkeypatch, producer):
    prepare, passes = FINITENESS_PASSES[producer]
    ds = synth_images(30, k=3, side=4, seed=2)
    run = prepare(ds, tmp_path)
    shapes, isfinite = [], np.isfinite

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return isfinite(a, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    assert run().X.shape == ds.X.shape
    assert shapes.count(ds.X.shape) == passes


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


# sha256 of synth_images(6000, k=10, seed=19, pixel_noise=0.2)'s X and y as
# built in one pass over all rows, before the row-block builder
SYNTH_6000_X_SHA256 = "893ecb6a59d859482d4650d1e3f3d334c691b8ad661579eb8a0e773638e7bfe9"
SYNTH_6000_Y_SHA256 = "457d59e28f827e76bb9ad8565e9499a3936b078af41e4495d959baf7c9f31849"


@pytest.fixture(scope="module")
def digits_6000():
    return synth_images(6000, k=10, seed=19, pixel_noise=0.2)  # X is 37.6 MB


class TestBuildersMakeNoDataSizedTemporary:
    def test_synth_images_peak_and_pinned_bytes(self):
        # one pass over all rows built four n x 784 temporaries, 144 MB; a
        # first call in the process also pays numpy's lazy imports (about
        # 0.7 MB), so a small call comes first and the peak is a warm call's
        synth_images(10, k=10, seed=19)
        ds, peak = peak_bytes(synth_images, 6000, k=10, seed=19, pixel_noise=0.2)
        assert peak <= ds.X.nbytes + 5e6
        assert hashlib.sha256(ds.X.tobytes()).hexdigest() == SYNTH_6000_X_SHA256
        assert hashlib.sha256(ds.y.tobytes()).hexdigest() == SYNTH_6000_Y_SHA256

    def test_write_idx_peak(self, tmp_path, digits_6000):
        # the float64 quantization of all of X at once took 72 MB
        _, peak = peak_bytes(write_idx, digits_6000, tmp_path / "i", tmp_path / "l", rows=28)
        assert peak <= 8e6

    def test_write_mat1_writes_from_the_array_itself(self, tmp_path, digits_6000):
        _, peak = peak_bytes(write_mat1, tmp_path / "x.mat", digits_6000.X)
        assert peak <= 1e6
        assert (tmp_path / "x.mat").read_bytes()[12:] == digits_6000.X.tobytes()

    def test_load_idx_peak_and_bytes(self, tmp_path, digits_6000):
        write_idx(digits_6000, tmp_path / "i", tmp_path / "l", rows=28)
        ds, peak = peak_bytes(load_idx, tmp_path / "i", tmp_path / "l")
        assert peak <= ds.X.nbytes + 1e6
        pixels = np.frombuffer((tmp_path / "i").read_bytes()[16:], np.uint8)
        assert ds.X.tobytes() == np.divide(pixels, 255.0).tobytes()

    # 1 x 1 images around multiples of _BLOCK rows, and 28 x 28 images just past
    # a multiple of _BLOCK // 784 rows, each from a regular file and from a pipe
    @pytest.mark.parametrize("count, side, pipe", [
        pytest.param(count, side, pipe, id=f"{count if side == 1 else '28x28'}{'-pipe' * pipe}",
                     marks=pytest.mark.skipif(pipe and not hasattr(os, "mkfifo"),
                                              reason="needs named pipes"))
        for count, side in [(_BLOCK - 1, 1), (_BLOCK, 1), (_BLOCK + 1, 1), (3 * _BLOCK + 5, 1),
                            (3 * (_BLOCK // 784) + 1, 28)]
        for pipe in (False, True)])
    def test_load_idx_over_a_partial_last_block(self, tmp_path, count, side, pipe):
        pixels = np.random.default_rng(count).integers(0, 256, count * side * side, dtype=np.uint8)
        raw = struct.pack(">4I", 0x803, count, side, side) + pixels.tobytes()
        (tmp_path / "l").write_bytes(struct.pack(">2I", 0x801, count) + bytes(count))
        call = lambda: load_idx(tmp_path / "i", tmp_path / "l").X  # noqa: E731
        if pipe:
            x = through_pipe(tmp_path / "i", raw, call)
        else:
            (tmp_path / "i").write_bytes(raw)
            x = call()
        assert x.tobytes() == np.divide(pixels, 255.0).reshape(count, side * side).tobytes()
