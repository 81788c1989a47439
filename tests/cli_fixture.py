"""Deterministic fixtures used by the CLI tests and the frozen analyze and train goldens."""

import hashlib
import json
import os

import numpy as np

from margin_auditor import (
    Dataset,
    Identity,
    Layer,
    MaxPool,
    Network,
    Relu,
    save_dataset,
    save_manifest,
    synth_images,
    write_idx,
)

# the train golden's runs: config fields on top of TRAIN_GOLDEN_CONFIG
TRAIN_GOLDEN_CONFIG = {"layer_widths": [64, 32, 32, 10], "epochs": 2, "batch_size": 4,
                       "seed": 7, "learning_rate": 0.05}
TRAIN_GOLDEN_RUNS = {"l2": {"l2_coefficient": 1e-3}, "random-labels": {"label_mode": "random_labels"}}


def build_fixture(directory):
    """Tiny network + dataset pair; returns (manifest, features, labels) paths."""
    rng = np.random.default_rng(0xF1D0)
    layers = (
        Layer(weight=rng.standard_normal((6, 4)), nonlinearity=Relu()),
        Layer(weight=rng.standard_normal((4, 6)), nonlinearity=MaxPool([[0, 1], [1, 2], [3]])),
        Layer(weight=rng.standard_normal((3, 3)), nonlinearity=Identity(),
              reference=np.eye(3)),
    )
    net = Network(layers=layers)
    manifest = save_manifest(net, os.path.join(directory, "net"), name="fixture")
    x = rng.standard_normal((40, 4))
    y = rng.integers(1, 4, size=40)
    ds = Dataset(X=x, y=y.astype(np.int64), k=3)
    features = os.path.join(directory, "fixture_x.mat")
    labels = os.path.join(directory, "fixture_y.lbl")
    save_dataset(ds, features, labels)
    return manifest, features, labels


def build_idx_fixture(directory, n=30, seed=0xBEEF):
    """Small byte-image dataset in IDX form; returns (images, labels) paths."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 256, size=(n, 16)).astype(np.float64) / 255.0
    y = rng.integers(1, 4, size=n).astype(np.int64)
    ds = Dataset(X=x, y=y, k=3)
    images = os.path.join(directory, "imgs.idx")
    labels = os.path.join(directory, "lbls.idx")
    write_idx(ds, images, labels, rows=4, cols=4)
    return images, labels


def build_train_fixture(directory):
    """8x8 synthetic images, 300 for training as MAT1/LBL1 and 100 for testing as
    IDX; returns the data flags of a ``train`` command."""
    train_x, train_y = (os.path.join(directory, name) for name in ("train_x.mat", "train_y.lbl"))
    test_x, test_y = (os.path.join(directory, name) for name in ("test_x.idx", "test_y.idx"))
    save_dataset(synth_images(300, side=8), train_x, train_y)
    write_idx(synth_images(100, side=8), test_x, test_y, rows=8, cols=8)
    return ["--train-features", train_x, "--train-labels", train_y,
            "--test-features", test_x, "--test-labels", test_y]


def write_train_config(path, run):
    """The config of the train golden's ``run`` as a JSON file at ``path``."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump({**TRAIN_GOLDEN_CONFIG, **TRAIN_GOLDEN_RUNS[run]}, f)


def sha256_lines(root, prefix):
    """``sha256sum``-style lines for every file under ``root``, named ``prefix/<relpath>``."""
    lines = []
    for top, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(top, name)
            with open(path, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            lines.append(f"{digest}  {prefix}/{rel}\n")
    return lines
