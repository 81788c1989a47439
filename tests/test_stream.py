"""``analyze`` and ``margins`` read the features file one forward block at a
time: the same bytes as from the in-memory Dataset, the same exit code and
diagnostic for every faulty input, and a peak far below X's size."""

import json
import os
import struct
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from margin_auditor import (Dataset, Identity, Layer, Network, Relu, TrainConfig, analyze_network,
                            init_network, load_dataset, load_idx, save_dataset, save_manifest,
                            synth_images, write_idx)
from margin_auditor.cli import main
from margin_auditor.data import _FeatureFile
from margin_auditor.errors import _row_blocks
from margin_auditor.margins import _pass
from conftest import peak_bytes
from test_cli import child_env

N = 1300  # three forward blocks: 433, 433 and 434 rows


def write_mat1(path, x):
    """A MAT1 file holding ``x`` as it is, non-finite entries included."""
    with open(path, "wb") as f:
        f.write(b"MAT1" + struct.pack("<II", *x.shape) + np.asarray(x, "<f8").tobytes())


def write_labels(path, y, k=3):
    """An LBL1 file of the labels ``y`` in 1..k."""
    with open(path, "wb") as f:
        f.write(b"LBL1" + struct.pack("<II", len(y), k) + np.asarray(y, "<u4").tobytes())


@pytest.fixture
def case(tmp_path):
    """A 4-6-3 network, N rows of 4 features with labels in 1..3 as MAT1/LBL1 and
    as an IDX pair of 2x2 images, and a function that runs a command on them."""
    rng = np.random.default_rng(31)
    net = Network(layers=(Layer(rng.standard_normal((6, 4)), Relu()),
                          Layer(rng.standard_normal((3, 6)), Identity())))
    x = rng.integers(0, 256, size=(N, 4)) / 255.0
    y = rng.integers(1, 4, size=N)
    paths = {name: str(tmp_path / name) for name in ("x.mat", "y.lbl", "x.idx", "y.idx")}
    write_mat1(paths["x.mat"], x)
    write_labels(paths["y.lbl"], y)
    write_idx(Dataset(X=x, y=y, k=3), paths["x.idx"], paths["y.idx"], rows=2, cols=2)
    manifest = save_manifest(net, str(tmp_path / "net"))
    out = tmp_path / "out"

    def run(command, features, labels):
        return main([command, manifest, "--features", features, "--labels", labels,
                     "--out", str(out)]), out

    return x, y, paths, run


def assert_diagnostic(capsys, out, error, message):
    """The command wrote exactly this one-line diagnostic and no --out."""
    assert json.loads(capsys.readouterr().err) == {"error": error, "message": message}
    assert not out.exists()


def resized(path, delta):
    """Cut ``delta`` < 0 bytes off the end of the file at ``path``, or append ``delta`` > 0."""
    size = os.path.getsize(path)
    if delta < 0:
        os.truncate(path, size + delta)
    else:
        with open(path, "ab") as f:
            f.write(bytes(delta))
    return size


COMMANDS = ["analyze", "margins"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("row", [0, N - 1], ids=["first-block", "last-block"])
def test_non_finite_entry_exit_2(case, capsys, command, row):
    x, _, paths, run = case
    x = x.copy()
    x[row, 2] = np.nan
    write_mat1(paths["x.mat"], x)
    rc, out = run(command, paths["x.mat"], paths["y.lbl"])
    assert rc == 2
    assert_diagnostic(capsys, out, "ParseError", f"{paths['x.mat']}: invalid MAT1 contents: "
                      "matrix entries must be finite (no NaN/Inf)")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("fmt", ["MAT1", "IDX image"])
@pytest.mark.parametrize("delta", [-1, 8], ids=["short", "long"])
def test_payload_length_exit_2(case, capsys, command, fmt, delta):
    _, _, paths, run = case
    features, labels = (paths["x.mat"], paths["y.lbl"]) if fmt == "MAT1" else (paths["x.idx"],
                                                                             paths["y.idx"])
    size = resized(features, delta)
    rc, out = run(command, features, labels)
    assert rc == 2
    assert_diagnostic(capsys, out, "ParseError", f"{features}: {fmt} payload has {size + delta} "
                      f"bytes, expected {size} (at byte {min(size, size + delta)})")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("fmt", ["MAT1", "IDX"])
def test_label_count_mismatch_exit_2(case, capsys, command, fmt):
    _, y, paths, run = case
    if fmt == "MAT1":
        features, labels, rows = paths["x.mat"], paths["y.lbl"], "row"
        write_labels(labels, y[:-1])
    else:
        features, labels, rows = paths["x.idx"], paths["y.idx"], "image"
        with open(labels, "wb") as f:
            f.write(struct.pack(">4sI", b"\0\0\x08\x01", N - 1) + bytes(N - 1))
    rc, out = run(command, features, labels)
    assert rc == 2
    assert_diagnostic(capsys, out, "ParseError",
                      f"{labels}: label count {N - 1} does not match {rows} count {N} (at byte 4)")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("fmt", ["MAT1", "IDX"])
def test_empty_matrix_exit_2(case, capsys, command, fmt):
    _, _, paths, run = case
    if fmt == "MAT1":
        features, labels = paths["x.mat"], paths["y.lbl"]
        write_mat1(features, np.empty((0, 4)))
        write_labels(labels, [])
        message = f"{features}: invalid MAT1 contents: empty matrix of shape (0, 4)"
    else:
        features, labels = paths["x.idx"], paths["y.idx"]
        with open(features, "wb") as f:
            f.write(struct.pack(">4sIII", b"\0\0\x08\x03", 0, 2, 2))
        message = f"{features}: empty image set: 0 images of 2x2"
    rc, out = run(command, features, labels)
    assert rc == 2
    assert_diagnostic(capsys, out, "ParseError", message)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("command", COMMANDS)
def test_features_fifo_exit_2(case, tmp_path, command):
    # nothing writes to the pipe: opening it would block
    _, _, paths, _ = case
    fifo = str(tmp_path / "features")
    os.mkfifo(fifo)
    proc = subprocess.run(
        [sys.executable, "-m", "margin_auditor.cli", command, str(tmp_path / "net" / "network.json"),
         "--features", fifo, "--labels", paths["y.lbl"], "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stderr) == {"error": "InputOutputError",
                                       "message": f"features file is not a regular file: {fifo}"}
    assert not (tmp_path / "out").exists()


# Two faults at once.  The labels are read before the payload, and the
# network's input width is checked on the first block before the next one is
# read, so either fault is reported before a non-finite entry in a later block.
@pytest.mark.parametrize("command", COMMANDS)
def test_width_mismatch_before_a_later_non_finite_block(case, capsys, command):
    x, _, paths, run = case
    wide = np.hstack([x, x[:, :1]])
    wide[-1, 0] = np.inf
    write_mat1(paths["x.mat"], wide)
    rc, out = run(command, paths["x.mat"], paths["y.lbl"])
    assert rc == 3
    assert_diagnostic(capsys, out, "DimensionError", "input has 5 columns, network expects 4")
    wide[-1, 0], wide[0, 0] = 0.0, np.inf  # in the first block it is found first
    write_mat1(paths["x.mat"], wide)
    assert run(command, paths["x.mat"], paths["y.lbl"])[0] == 2


@pytest.mark.parametrize("command", COMMANDS)
def test_label_fault_before_a_non_finite_entry(case, capsys, command):
    x, y, paths, run = case
    x = x.copy()
    x[0, 0] = np.nan
    write_mat1(paths["x.mat"], x)
    write_labels(paths["y.lbl"], y[:-1])
    rc, out = run(command, paths["x.mat"], paths["y.lbl"])
    assert rc == 2
    assert_diagnostic(capsys, out, "ParseError", f"{paths['y.lbl']}: label count {N - 1} "
                      f"does not match row count {N} (at byte 4)")


@pytest.mark.parametrize("fmt", ["MAT1", "IDX"])
def test_stream_is_bitwise_the_in_memory_analysis(tmp_path, fmt):
    ds = synth_images(N, side=8, seed=5)
    net = init_network(TrainConfig(layer_widths=[64, 32, 10], epochs=1, batch_size=4, seed=5))
    features, labels = str(tmp_path / "x"), str(tmp_path / "y")
    if fmt == "MAT1":
        save_dataset(ds, features, labels)
        loaded = load_dataset(features, labels)
    else:
        write_idx(ds, features, labels, rows=8, cols=8)
        loaded = load_idx(features, labels)
    stream = _FeatureFile(features, labels)
    assert (stream.n, stream.dim, stream.k) == (loaded.n, loaded.dim, loaded.k)
    assert stream.y.tobytes() == loaded.y.tobytes()
    for got, want in zip(_pass(stream, net, norm=True), _pass(loaded, net, norm=True)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    (report, md), (want_report, want_md) = analyze_network(net, stream), analyze_network(net, loaded)
    assert asdict(report) == asdict(want_report)
    assert md.raw.tobytes() == want_md.raw.tobytes()
    assert md.normalized.tobytes() == want_md.normalized.tobytes()


def digits_files(tmp_path, n, fmt):
    """n random 28 x 28 rows with labels 1..10 written a few thousand rows at a
    time as an IDX pair or as MAT1/LBL1; returns (features, labels)."""
    rng = np.random.default_rng(n)
    features, labels = str(tmp_path / f"x{n}"), str(tmp_path / f"y{n}")
    y = rng.integers(0, 10, size=n)
    with open(features, "wb") as f:
        if fmt == "IDX":
            f.write(struct.pack(">4sIII", b"\0\0\x08\x03", n, 28, 28))
        else:
            f.write(b"MAT1" + struct.pack("<II", n, 784))
        for start, stop in _row_blocks(n, 4096):
            if fmt == "IDX":
                f.write(rng.integers(0, 256, size=(stop - start, 784), dtype=np.uint8).tobytes())
            else:
                f.write(rng.random((stop - start, 784)).astype("<f8").tobytes())
    if fmt == "IDX":
        with open(labels, "wb") as f:
            f.write(struct.pack(">4sI", b"\0\0\x08\x01", n) + y.astype(np.uint8).tobytes())
    else:
        write_labels(labels, y + 1, k=10)
    return features, labels


@pytest.mark.parametrize("fmt, n", [("IDX", 60_000), ("MAT1", 20_000)])
def test_commands_peak_below_an_eighth_of_x(tmp_path, fmt, n):
    # X in float64 is n * 784 * 8 bytes; an IDX set's pixel bytes alone are an
    # eighth of it, so neither X nor its bytes may be held
    features, labels = digits_files(tmp_path, n, fmt)
    net = init_network(TrainConfig(layer_widths=[784, 256, 256, 10], epochs=1, batch_size=4,
                                   seed=3))
    manifest = save_manifest(net, str(tmp_path / "net"))
    for command in COMMANDS:
        argv = [command, manifest, "--features", features, "--labels", labels,
                "--out", str(tmp_path / command)]
        rc, peak = peak_bytes(main, argv)
        assert rc == 0
        assert peak < n * 784 * 8 / 8, command
