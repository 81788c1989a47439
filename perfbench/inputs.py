"""Seeded input generation for the benchmark workloads, cached by seed.

Inputs are written in the package's own file formats (IDX, MAT1/LBL1,
network manifests, TrainConfig JSON) under
``.perfbench/inputs/<workload>-s<seed>-v<version>/`` in the checkout, together
with ``properties.json``: the input properties and computed kernel counts a
speed claim may depend on.  ``run.py`` generates them before any timed
process starts, so generation is never timed.
"""

import json
import os
import shutil

import numpy as np

VERSION = 2

WIDTHS = (784, 256, 256, 10)
BATCH = 4
LEARNING_RATE = 0.01
L2_COEFFICIENT = 1e-4
TRAIN_N, TEST_N, ANALYZE_N = 5000, 1000, 5000
PIXEL_NOISE = 0.2
# name, label mode, l2 coefficient of the three train runs of a round
TRAIN_RUNS = (
    ("true", "true_labels", 0.0),
    ("random", "random_labels", 0.0),
    ("l2", "true_labels", L2_COEFFICIENT),
)

# verify-suite: the suite is cut into SLICES equal slices.  The structure of
# every item (matrix shapes with sides 2..64; Maurey atom counts, dimensions
# and k; lower-bound input dimensions and depths) is drawn once from a fixed
# generator and shared by every slice and seed, so each slice does the same
# amount of work; the workload seed draws the values.
SLICES = 5
_structure = np.random.default_rng(1000)
NORM_SHAPES = tuple(tuple(int(v) for v in rc) for rc in _structure.integers(2, 65, size=(100, 2)))
MAUREY_SHAPES = tuple(  # (atoms d, atom dimension, k)
    (int(d), int(dim), int(k))
    for d, dim, k in zip(_structure.integers(2, 9, size=1000), _structure.integers(2, 12, size=1000),
                         _structure.integers(1, 20, size=1000))
)
COVER_PER_SLICE = 100
LOWERBOUND_SHAPES = tuple(  # (input dimension, depth)
    (int(dim), int(depth))
    for dim, depth in zip(_structure.integers(1, 7, size=1000), _structure.integers(2, 7, size=1000))
)

def _l3_bytes():
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="ascii") as f:
            text = f.read().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def _sigma_ratios(weights):
    out = []
    for w in weights:
        s = np.linalg.svd(w, compute_uv=False)
        out.append(float(s[1] / s[0]) if s.size > 1 else 0.0)
    return out


def _forward_counts(rows):
    """Computed FLOPs and bytes of one forward pass of ``rows`` examples."""
    params = sum(a * b for a, b in zip(WIDTHS[1:], WIDTHS))
    return {
        "rows": rows,
        "flops_computed": 2 * rows * params,
        # read X and every weight once, write each layer image once
        "bytes_computed": 8 * (rows * WIDTHS[0] + params + rows * sum(WIDTHS[1:])),
    }


def _step_counts(l2):
    """Computed FLOPs and weight bytes of one batch-4 SGD step."""
    params = sum(a * b for a, b in zip(WIDTHS[1:], WIDTHS))
    first = WIDTHS[0] * WIDTHS[1]
    # forward and weight-gradient GEMMs on every layer, delta GEMMs on all but the first
    flops = 2 * BATCH * (2 * params + params - first)
    # full-size weight passes: forward read, delta read, gradient write,
    # lr*g (read g, write t), w -= t (read w, read t, write w); l2 adds
    # sum(w*w) (3 passes) and g += 2*l2*w (5 passes)
    passes = 8 + (8 if l2 else 0)
    return {
        "batch": BATCH,
        "params": params,
        "flops_computed": flops,
        "weight_passes_computed": passes,
        "weight_bytes_computed": 8 * params * passes,
    }


def _dataset_props(n, l3):
    nbytes = 8 * n * WIDTHS[0]
    return {"n": n, "dim": WIDTHS[0], "X_bytes": nbytes, "L3_bytes": l3,
            "X_over_L3": nbytes / l3 if l3 else None}


def _gen_train(ma, d, seed):
    full = ma.synth_images(TRAIN_N + TEST_N, k=10, seed=seed, pixel_noise=PIXEL_NOISE)
    train = ma.Dataset(X=full.X[:TRAIN_N], y=full.y[:TRAIN_N], k=10)
    test = ma.Dataset(X=full.X[TRAIN_N:], y=full.y[TRAIN_N:], k=10)
    ma.write_idx(train, f"{d}/train-images.idx", f"{d}/train-labels.idx", rows=28)
    ma.write_idx(test, f"{d}/test-images.idx", f"{d}/test-labels.idx", rows=28)
    for name, label_mode, l2 in TRAIN_RUNS:
        cfg = {"layer_widths": list(WIDTHS), "epochs": 1, "batch_size": BATCH, "seed": seed,
               "learning_rate": LEARNING_RATE, "label_mode": label_mode, "l2_coefficient": l2}
        with open(f"{d}/{name}.json", "w", encoding="utf-8") as f:
            json.dump(cfg, f)
    cfg = ma.TrainConfig(layer_widths=WIDTHS, epochs=1, batch_size=BATCH, seed=seed)
    init = [layer.weight for layer in ma.init_network(cfg).layers]
    l3 = _l3_bytes()
    return {
        "train": _dataset_props(TRAIN_N, l3),
        "test_n": TEST_N,
        "layer_widths": list(WIDTHS),
        "batch_size": BATCH,
        "epochs_per_command": 1,
        "steps_per_epoch": -(-TRAIN_N // BATCH),
        "initial_sigma2_over_sigma1": _sigma_ratios(init),
        "sgd_step": _step_counts(False),
        "sgd_step_l2": _step_counts(True),
        "snapshot_forward_pass": _forward_counts(TRAIN_N),
    }


def _gen_analyze(ma, d, seed):
    ds = ma.synth_images(ANALYZE_N, k=10, seed=seed, pixel_noise=PIXEL_NOISE)
    ma.write_idx(ds, f"{d}/images.idx", f"{d}/labels.idx", rows=28)
    # the MAT1/LBL1 copy holds exactly the pixels the IDX pair decodes to
    ma.save_dataset(ma.load_idx(f"{d}/images.idx", f"{d}/labels.idx"),
                    f"{d}/features.mat", f"{d}/labels.lbl")
    cfg = ma.TrainConfig(layer_widths=WIDTHS, epochs=1, batch_size=BATCH, seed=seed)
    net = ma.init_network(cfg)
    ma.save_manifest(net, f"{d}/net", name="network")
    return {
        "data": _dataset_props(ANALYZE_N, _l3_bytes()),
        "layer_widths": list(WIDTHS),
        "sigma2_over_sigma1": _sigma_ratios([layer.weight for layer in net.layers]),
        "forward_pass": _forward_counts(ANALYZE_N),
    }


def _gen_verify(ma, d, seed):
    os.makedirs(f"{d}/norm")
    ratios = []
    for j in range(SLICES):
        for i, shape in enumerate(NORM_SHAPES):
            a = np.random.default_rng([seed, j, i]).standard_normal(shape)
            ma.write_mat1(f"{d}/norm/{j}_{i:03d}.mat", a)
            ratios.extend(_sigma_ratios([a]))
    return {
        "slices": SLICES,
        "matrices_per_slice": len(NORM_SHAPES),
        "side_range": [min(min(s) for s in NORM_SHAPES), max(max(s) for s in NORM_SHAPES)],
        "sigma2_over_sigma1": {
            "min": min(ratios), "median": float(np.median(ratios)), "max": max(ratios),
        },
        "maurey_per_slice": len(MAUREY_SHAPES),
        "cover_per_slice": COVER_PER_SLICE,
        "lowerbound_per_slice": len(LOWERBOUND_SHAPES),
    }


GENERATORS = {
    "train-digits": _gen_train,
    "analyze-digits": _gen_analyze,
    "verify-suite": _gen_verify,
}


def ensure_inputs(ma, root, workload, seed):
    """Directory holding the inputs of ``workload`` for ``seed``; generated on first use."""
    base = os.path.join(root, ".perfbench", "inputs", f"{workload}-s{seed}-v{VERSION}")
    props = os.path.join(base, "properties.json")
    if os.path.exists(props):
        return base
    tmp = f"{base}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    properties = GENERATORS[workload](ma, tmp, seed)
    with open(os.path.join(tmp, "properties.json"), "w", encoding="utf-8") as f:
        json.dump(properties, f, indent=1)
    shutil.rmtree(base, ignore_errors=True)
    os.replace(tmp, base)
    return base

