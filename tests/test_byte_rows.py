"""A Dataset that holds IDX pixel bytes against one that holds the same pixels
as float64: every output bit agrees, and no library path decodes the whole
byte-held X at once."""

import json
import os
import pickle
import struct
from dataclasses import asdict

import numpy as np
import pytest

from margin_auditor import (Dataset, MarginAuditorError, TrainConfig, analyze_network, error_rate,
                            generalization_bound_uniform, init_network, load_idx,
                            margin_distribution, ramp_risk_empirical, randomize_inputs_gaussian,
                            save_dataset, save_manifest, synth_images, train, write_idx)
from margin_auditor.cli import main
from margin_auditor.linalg import _group_norm
from margin_auditor.margins import _pass
from margin_auditor.network import Identity, Layer, Network
from conftest import peak_bytes

TRAIN_MODES = {
    "true-labels": {},
    "random-labels": {"label_mode": "random_labels"},
    "l2": {"l2_coefficient": 1e-3},
    "gaussian-inputs": {"input_mode": "gaussian_moment_matched"},
}


def write_pixels(directory, pixels, labels):
    """An IDX pair of 28 x 28 images: the n x 784 ``pixels`` and 0-based ``labels``."""
    images = os.path.join(directory, "images.idx")
    label_file = os.path.join(directory, "labels.idx")
    with open(images, "wb") as f:
        f.write(struct.pack(">4I", 0x803, len(pixels), 28, 28) + pixels.tobytes())
    with open(label_file, "wb") as f:
        f.write(struct.pack(">2I", 0x801, len(labels)) + labels.astype(np.uint8).tobytes())
    return images, label_file


def idx_pair(directory, n, seed):
    """(the byte-held set load_idx reads from an IDX pair of n random images,
    the Dataset of the same pixels divided by 255, the pair's paths)."""
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, (n, 784), dtype=np.uint8)
    labels = rng.integers(0, 10, n)
    paths = write_pixels(str(directory), pixels, labels)
    held = load_idx(*paths)
    return held, Dataset(X=np.divide(pixels, 255.0), y=labels + 1, k=held.k), paths


@pytest.fixture(scope="module", params=[1, 511, 513, 5000])
def pair(request, tmp_path_factory):
    return idx_pair(tmp_path_factory.mktemp(f"n{request.param}"), request.param, request.param)


@pytest.fixture(scope="module")
def test_pair(tmp_path_factory):
    return idx_pair(tmp_path_factory.mktemp("test"), 100, 99)


@pytest.fixture(scope="module")
def net():
    return init_network(TrainConfig(layer_widths=(784, 32, 10), epochs=1, batch_size=4, seed=3))


def outcome(fn, *args):
    """The pickled result of ``fn(*args)``, or the class and text of its error."""
    try:
        return pickle.dumps(fn(*args))
    except MarginAuditorError as exc:
        return type(exc).__name__, str(exc)


def snapshots(cfg, train_ds, test_ds):
    """Every snapshot of a run, with the margins and weights its hook receives."""
    seen = []
    snaps = train(cfg, train_ds, test_ds, lambda s, net, md: seen.append((net.layers, md)))
    return [asdict(s) for s in snaps], seen


def cli_outputs(argv, out):
    """(exit code, {file name: bytes} under ``out``) of one command."""
    rc = main([*argv, "--out", str(out)])
    files = sorted(out.rglob("*")) if out.exists() else []
    return rc, {str(p.relative_to(out)): p.read_bytes() for p in files if p.is_file()}


class TestBitwiseAsFloat64:
    def test_byte_held(self, pair):
        held, dense, _ = pair
        assert held._x.dtype == np.uint8 and held._x.nbytes == held.n * 784
        assert (held.n, held.dim, held.k) == (dense.n, dense.dim, dense.k)
        assert held.X.tobytes() == dense.X.tobytes()

    def test_analyze_network(self, pair, net):
        held, dense, _ = pair
        result = outcome(analyze_network, net, held)
        assert result == outcome(analyze_network, net, dense)
        assert isinstance(result, bytes) == (held.n > 1)  # n = 1 is below the bound's n >= 2

    @pytest.mark.parametrize("fn, args", [
        (error_rate, ()), (ramp_risk_empirical, (0.5,)), (margin_distribution, (2.0,)),
        (generalization_bound_uniform, (0.5, 0.01))],
        ids=["error_rate", "ramp_risk_empirical", "margin_distribution",
             "generalization_bound_uniform"])
    def test_risks_and_bounds(self, pair, net, fn, args):
        held, dense, _ = pair
        assert outcome(fn, net, held, *args) == outcome(fn, net, dense, *args)

    @pytest.mark.parametrize("command", ["analyze", "margins"])
    def test_cli_outputs(self, pair, net, tmp_path, command):
        held, dense, paths = pair
        manifest = save_manifest(net, str(tmp_path / "net"))
        save_dataset(dense, tmp_path / "x.mat", tmp_path / "y.lbl")
        from_idx = cli_outputs([command, manifest, "--features", paths[0], "--labels", paths[1]],
                               tmp_path / "idx")
        from_mat = cli_outputs([command, manifest, "--features", str(tmp_path / "x.mat"),
                                "--labels", str(tmp_path / "y.lbl")], tmp_path / "mat")
        assert from_idx == from_mat
        assert from_idx[0] == (0 if held.n > 1 else 3)

    @pytest.mark.parametrize("mode", sorted(TRAIN_MODES))
    def test_train_snapshots(self, pair, test_pair, mode):
        held, dense, _ = pair
        cfg = TrainConfig(layer_widths=(784, 16, 10), epochs=2, batch_size=4, seed=5,
                          learning_rate=0.05, **TRAIN_MODES[mode])
        result = outcome(snapshots, cfg, held, test_pair[0])
        assert result == outcome(snapshots, cfg, dense, test_pair[1])
        assert isinstance(result, bytes) == (held.n > 1)  # train needs 2 rows

    def test_written_files(self, pair, tmp_path):
        held, dense, paths = pair
        for name, ds in (("held", held), ("dense", dense)):
            write_idx(ds, tmp_path / f"{name}.idx", tmp_path / f"{name}-labels.idx", rows=28)
            save_dataset(ds, tmp_path / f"{name}.mat", tmp_path / f"{name}.lbl")
        for suffix in (".idx", "-labels.idx", ".mat", ".lbl"):
            assert (tmp_path / f"held{suffix}").read_bytes() == \
                (tmp_path / f"dense{suffix}").read_bytes()
        with open(paths[0], "rb") as f:
            assert (tmp_path / "held.idx").read_bytes() == f.read()


def test_rows_into_a_buffer(pair):
    # train decodes or gathers each flush block straight into its A_0 buffer
    index = np.random.default_rng(2).integers(0, pair[0].n, 700)
    for ds in pair[:2]:
        out = np.empty((len(index), ds.dim))
        rows, peak = peak_bytes(ds._rows, index, out)
        assert rows is out and out.tobytes() == pair[1].X[index].tobytes()
        assert peak < out.nbytes / 4  # a gather, or a buffered take, is as large as out


def test_rows_wider_than_a_block_written_back(tmp_path):
    # a 70,000-pixel image is wider than _BLOCK entries: each block is one
    # row, which a decode buffer of no rows would have lost without an error
    pixels = np.random.default_rng(5).integers(0, 256, (3, 70_000), dtype=np.uint8)
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">4I", 0x803, 3, 280, 250) + pixels.tobytes())
    labels.write_bytes(struct.pack(">2I", 0x801, 3) + bytes([0, 1, 2]))
    held = load_idx(images, labels)
    dense = Dataset(X=np.divide(pixels, 255.0), y=held.y, k=held.k)
    write_idx(held, tmp_path / "i", tmp_path / "l", rows=280)
    assert (tmp_path / "i").read_bytes() == images.read_bytes()
    for name, ds in (("held", held), ("dense", dense)):
        save_dataset(ds, tmp_path / f"{name}.mat", tmp_path / f"{name}.lbl")
    assert (tmp_path / "held.mat").read_bytes() == (tmp_path / "dense.mat").read_bytes()


@pytest.mark.parametrize("shape", [(1, 1), (700, 1), (513, 2), (1025, 7), (600, 784), (3, 70_000)])
@pytest.mark.parametrize("scale", [1.0, 2.0**600, 2.0**-600, 2.0**1000, 2.0**-1000])
def test_row_pass_norm_is_the_group_norm(shape, scale):
    # ||X||_2 taken from the forward pass's blocks, and by a pass of its own,
    # is bitwise the whole-matrix group norm: across the 512-row forward
    # blocks, a single column (one pairwise sum) and rows wider than a buffer
    x = scale * np.random.default_rng(shape[0]).standard_normal(shape)
    ds = Dataset(X=x, y=np.ones(shape[0], np.int64), k=1)
    net = Network(layers=(Layer(np.ones((2, shape[1])), Identity()),))
    expected = _group_norm(x, 2.0, 2.0)
    assert _pass(ds, norm=True)[1] == expected
    assert _pass(ds, net, norm=True)[1] == expected


def test_row_pass_norm_of_bytes(tmp_path):
    held, dense, _ = idx_pair(tmp_path, 1300, 11)
    assert _pass(held, norm=True)[1] == _group_norm(dense.X, 2.0, 2.0)
    assert (randomize_inputs_gaussian(held, seed=3).X.tobytes()
            == randomize_inputs_gaussian(dense, seed=3).X.tobytes())


@pytest.fixture
def no_whole_decode(monkeypatch):
    """Decoding all of a byte-held set's X at once raises."""
    whole = Dataset.X.fget

    def guarded(ds):
        if ds._x.dtype == np.uint8:
            raise AssertionError("the whole X of a byte-held set was decoded")
        return whole(ds)

    monkeypatch.setattr(Dataset, "X", property(guarded))


def test_no_library_path_decodes_the_whole_set(tmp_path, net, test_pair, no_whole_decode):
    held, dense, paths = idx_pair(tmp_path, 1300, 7)
    with pytest.raises(AssertionError):
        held.X
    assert dense.X is dense._x
    manifest = save_manifest(net, str(tmp_path / "net"))
    data = ["--features", paths[0], "--labels", paths[1]]
    assert main(["analyze", manifest, *data, "--out", str(tmp_path / "a")]) == 0
    assert main(["margins", manifest, *data, "--out", str(tmp_path / "m")]) == 0
    test_paths = test_pair[2]
    for mode in ("true-labels", "random-labels", "l2"):
        config = tmp_path / f"{mode}.json"
        config.write_text(json.dumps({"layer_widths": [784, 16, 10], "epochs": 2, "batch_size": 4,
                                      "seed": 5, **TRAIN_MODES[mode]}))
        assert main(["train", str(config), "--train-features", paths[0],
                     "--train-labels", paths[1], "--test-features", test_paths[0],
                     "--test-labels", test_paths[1], "--out", str(tmp_path / mode)]) == 0
    analyze_network(net, held)
    error_rate(net, held)
    ramp_risk_empirical(net, held, 0.5)
    margin_distribution(net, held, 2.0)
    generalization_bound_uniform(net, held, 0.5, 0.01)
    write_idx(held, tmp_path / "i", tmp_path / "l", rows=28)
    save_dataset(held, tmp_path / "x.mat", tmp_path / "y.lbl")


def test_train_command_over_idx_peak(tmp_path):
    # 784-256-256-10 for one epoch on 5,000 training and 1,000 test images
    # peaked at 53.6 MB with both sets held as float64 (37.6 MB); as bytes
    # they take 4.7 MB, and the peak is about 22 MB, mostly the weights, the
    # zero references and their copies in the snapshot network
    digits = synth_images(6000, k=10, seed=19, pixel_noise=0.2)
    argv = ["train", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
    for part, rows in (("train", slice(0, 5000)), ("test", slice(5000, 6000))):
        images, labels = (str(tmp_path / f"{part}-{name}.idx") for name in ("images", "labels"))
        write_idx(Dataset(X=digits.X[rows], y=digits.y[rows], k=10), images, labels, rows=28)
        argv += [f"--{part}-features", images, f"--{part}-labels", labels]
    del digits
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"layer_widths": [784, 256, 256, 10], "epochs": 1, "batch_size": 4, "seed": 19}))
    rc, peak = peak_bytes(main, argv)
    assert rc == 0
    assert peak <= 30e6
