"""Per-operation correctness checks against independent references.

Outputs are read back with the benchmark's own readers and compared, with
tolerances, to values recomputed here from numpy alone: LAPACK singular
values, the benchmark's own forward pass and margins, and the bound formulas
written out again.  No byte hashes, so changes that legitimately move result
bits (a new solver, a fused update, a single-pass analysis) still pass.

Every check returns a list of problems; an empty list is a pass.
"""

import json
import math
import os
import struct

import numpy as np

# s_i against LAPACK: the package's iterative solver stops up to ~2e-10
# relative off on these layers and on the suite's Gaussian matrices, so 1e-8
# separates a stopping error from a wrong result.  The same tolerance covers
# every quantity built from the s_i.
S_REL = 1e-8
# Raw margins against the benchmark's forward pass, relative to max |output|:
# only summation order differs.
MARGIN_REL = 1e-9
# Values that are plain sums or closed forms of numbers already in the output.
SUM_REL = 1e-12
# Jacobi oracle against LAPACK, relative to the largest singular value.
JACOBI_GAP = 1e-10
# The lower-bound network computes <a, x> exactly up to roundoff.
EXACT_ABS = 1e-12


class Tally:
    """Counts attempted and failed operations and keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, label, check, *args):
        """Count one operation, failed if ``check(*args)`` reports a problem."""
        try:
            problems = check(*args)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            self.fail(label, problems[0])
        else:
            self.attempted += 1

    def fail(self, label, message):
        """Count one operation as attempted and failed."""
        self.attempted += 1
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"{label}: {message}")


def _rel_gap(value, reference, scale=None):
    return abs(value - reference) / max(abs(reference), scale or 0.0, 1e-300)


def _expect_close(problems, what, value, reference, rel, scale=None):
    gap = _rel_gap(value, reference, scale)
    if not gap <= rel:
        problems.append(f"{what} = {value!r}, reference {reference!r} (gap {gap:.2e} > {rel:g})")


# --- readers (independent of the package's loaders) -------------------------


def read_mat1(path):
    with open(path, "rb") as f:
        raw = f.read()
    rows, cols = struct.unpack_from("<II", raw, 4)
    return np.frombuffer(raw, dtype="<f8", count=rows * cols, offset=12).reshape(rows, cols)


def read_idx(images_path, labels_path):
    with open(images_path, "rb") as f:
        raw = f.read()
    n, rows, cols = struct.unpack_from(">III", raw, 4)
    x = np.frombuffer(raw, dtype=np.uint8, count=n * rows * cols, offset=16)
    with open(labels_path, "rb") as f:
        lraw = f.read()
    y = np.frombuffer(lraw, dtype=np.uint8, count=n, offset=8).astype(np.int64) + 1
    return x.reshape(n, rows * cols) / 255.0, y


def read_weights(manifest_path):
    with open(manifest_path, encoding="utf-8") as f:
        doc = json.load(f)
    base = os.path.dirname(manifest_path)
    return [read_mat1(os.path.join(base, entry["weight"])) for entry in doc["layers"]]


def read_csv(path):
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",")
        rows = np.loadtxt(f, delimiter=",", ndmin=2)
    return header, rows


# --- references -------------------------------------------------------------


def forward(weights, x):
    """ReLU hidden layers, linear output layer."""
    z = x
    for i, w in enumerate(weights):
        z = z @ w.T
        if i < len(weights) - 1:
            z = np.maximum(z, 0.0)
    return z


def raw_margins(outputs, y):
    rows = np.arange(outputs.shape[0])
    correct = outputs[rows, y - 1]
    others = outputs.copy()
    others[rows, y - 1] = -np.inf
    return correct - others.max(axis=1)


def layer_norms(weights):
    """(s_i, b_i) with LAPACK singular values and zero references."""
    s = [float(np.linalg.svd(w, compute_uv=False)[0]) for w in weights]
    b = [float(np.sum(np.sqrt(np.sum(w * w, axis=1)))) for w in weights]
    return s, b


def spectral_complexity(s, b):
    return math.prod(s) * sum((bi / si) ** (2.0 / 3.0) for si, bi in zip(s, b)) ** 1.5


def random_labels(seed, k, n):
    """The label draw of the package's random_labels training mode."""
    return np.random.default_rng(seed).integers(1, k + 1, size=n).astype(np.int64)


class Reference:
    """Data, labels and LAPACK norms of one network/dataset pair, computed once."""

    def __init__(self, weights, x, y):
        self.weights = weights
        self.x = x
        self.s, self.b = layer_norms(weights)
        self.r_a = spectral_complexity(self.s, self.b)
        self.outputs = forward(weights, x)
        self.raw = raw_margins(self.outputs, y)
        self.normalizer = self.r_a * float(np.linalg.norm(x)) / x.shape[0]


def _check_margins_csv(problems, path, ref):
    header, rows = read_csv(path)
    n = ref.x.shape[0]
    if header != ["index", "raw_margin", "normalized_margin"] or rows.shape != (n, 3):
        problems.append(f"margins CSV has header {header} and shape {rows.shape}, expected ({n}, 3)")
        return
    if not np.array_equal(rows[:, 0], np.arange(n)):
        problems.append("margins CSV index column is not 0..n-1")
    scale = float(np.abs(ref.outputs).max())
    _expect_close(problems, "max raw-margin error", float(np.abs(rows[:, 1] - ref.raw).max()),
                  0.0, MARGIN_REL, scale)
    normalized = ref.raw / ref.normalizer
    _expect_close(problems, "max normalized-margin error",
                  float(np.abs(rows[:, 2] - normalized).max()), 0.0, S_REL,
                  float(np.abs(normalized).max()))


def _default_gamma(raw):
    positive = raw[raw > 0.0]
    return float(np.median(positive)) if positive.size else 1.0


# --- train ------------------------------------------------------------------


def check_train(out_dir, data, label_mode, seed):
    """One ``train`` command with epochs=1: the epoch-0 snapshot, its margin
    CSV and the final network."""
    problems = []
    x, y_true, x_test, y_test = data
    y = random_labels(seed, 10, x.shape[0]) if label_mode == "random_labels" else y_true
    weights = read_weights(os.path.join(out_dir, "net", "final.json"))
    ref = Reference(weights, x, y)
    with open(os.path.join(out_dir, "epoch_000.json"), encoding="utf-8") as f:
        snap = json.load(f)
    _expect_close(problems, "product_spectral_norms", snap["product_spectral_norms"],
                  math.prod(ref.s), S_REL)
    _expect_close(problems, "R_A", snap["R_A"], ref.r_a, S_REL)
    # argmax may differ only on near-ties: allow two examples
    train_err = float(np.mean(ref.outputs.argmax(axis=1) + 1 != y))
    test_err = float(np.mean(forward(weights, x_test).argmax(axis=1) + 1 != y_test))
    for what, value, reference, n in (
        ("train_error", snap["train_error"], train_err, x.shape[0]),
        ("test_error", snap["test_error"], test_err, x_test.shape[0]),
    ):
        if abs(value - reference) > 2.0 / n:
            problems.append(f"{what} = {value}, reference {reference}")
    _expect_close(problems, "excess_risk", snap["excess_risk"],
                  snap["test_error"] - snap["train_error"], SUM_REL, 1.0)
    digest = snap["margin_summary"]
    normalized = ref.raw / ref.normalizer
    scale = float(np.abs(normalized).max())
    _expect_close(problems, "normalizer", digest["normalizer"], ref.normalizer, S_REL)
    for key, reference in (
        ("normalized_mean", float(normalized.mean())),
        ("normalized_median", float(np.median(normalized))),
        ("normalized_min", float(normalized.min())),
        ("normalized_max", float(normalized.max())),
    ):
        _expect_close(problems, key, digest[key], reference, S_REL, scale)
    _check_margins_csv(problems, os.path.join(out_dir, "epoch_000_margins.csv"), ref)
    return problems


# --- analyze / margins ------------------------------------------------------


def check_analyze(out_dir, ref, delta=0.01):
    """bound-report.json and margins.csv of one ``analyze`` command."""
    problems = []
    with open(os.path.join(out_dir, "bound-report.json"), encoding="utf-8") as f:
        rep = json.load(f)
    n, dim = ref.x.shape
    if len(rep["layer_norms"]) != len(ref.s):
        return [f"{len(rep['layer_norms'])} layer norms, expected {len(ref.s)}"]
    for i, ln in enumerate(rep["layer_norms"]):
        _expect_close(problems, f"s_{i}", ln["s"], ref.s[i], S_REL)
        _expect_close(problems, f"b_{i}", ln["b"], ref.b[i], S_REL)
        _expect_close(problems, f"rho_{i}", ln["rho"], 1.0, SUM_REL)
    _expect_close(problems, "R_A", rep["R_A"], ref.r_a, S_REL)
    fro = [float(np.linalg.norm(w)) for w in ref.weights]
    r_pb = math.prod(ref.s) * len(ref.s) * math.sqrt(
        sum(dim * f * f / (s * s) for f, s in zip(fro, ref.s))
    )
    _expect_close(problems, "R_PB", rep["R_PB"], r_pb, S_REL)
    data_norm = float(np.linalg.norm(ref.x))
    _expect_close(problems, "data_norm_B", rep["data_norm_B"], data_norm, SUM_REL)
    if rep["n"] != n or rep["W"] != dim:
        problems.append(f"n, W = {rep['n']}, {rep['W']}, expected {n}, {dim}")
    gamma = _default_gamma(ref.raw)
    _expect_close(problems, "gamma", rep["gamma"], gamma, MARGIN_REL)
    ramp = float(np.mean(np.clip(1.0 - ref.raw / gamma, 0.0, 1.0)))
    _expect_close(problems, "ramp_risk", rep["ramp_risk"], ramp, MARGIN_REL, 1.0)
    _expect_close(problems, "term_const", rep["term_const"], 8.0 / n, SUM_REL)
    _expect_close(problems, "term_confidence", rep["term_confidence"],
                  3.0 * math.sqrt(math.log(1.0 / delta) / (2.0 * n)), SUM_REL)
    complexity = (72.0 * data_norm * math.log(2.0 * dim) * math.log(n) / (gamma * n)) * ref.r_a
    _expect_close(problems, "term_complexity", rep["term_complexity"], complexity, S_REL)
    terms = rep["ramp_risk"] + rep["term_const"] + rep["term_complexity"] + rep["term_confidence"]
    _expect_close(problems, "bound_total (sum of its terms)", rep["bound_total"], terms, SUM_REL)
    if rep["uniform_bound_vacuous"] != (rep["gamma"] < 2.0 / n):
        problems.append("uniform_bound_vacuous disagrees with gamma < 2/n")
    if not rep["uniform_bound_total"] > 0.0:
        problems.append(f"uniform_bound_total = {rep['uniform_bound_total']}")
    _check_margins_csv(problems, os.path.join(out_dir, "margins.csv"), ref)
    return problems


def check_margins(out_dir, ref, bins=30, kde_points=256):
    """margin-summary.json and the three CSVs of one ``margins`` command."""
    problems = []
    with open(os.path.join(out_dir, "margin-summary.json"), encoding="utf-8") as f:
        summary = json.load(f)
    if summary["n"] != ref.x.shape[0]:
        problems.append(f"n = {summary['n']}, expected {ref.x.shape[0]}")
    _expect_close(problems, "R_A", summary["R_A"], ref.r_a, S_REL)
    _expect_close(problems, "normalizer", summary["normalizer"], ref.normalizer, S_REL)
    _expect_close(problems, "gamma_used", summary["gamma_used"], _default_gamma(ref.raw),
                  MARGIN_REL)
    if not summary["kde_bandwidth"] > 0.0:
        problems.append(f"kde_bandwidth = {summary['kde_bandwidth']}")
    _check_margins_csv(problems, os.path.join(out_dir, "margins.csv"), ref)
    _, hist = read_csv(os.path.join(out_dir, "histogram.csv"))
    if hist.shape != (bins, 3):
        problems.append(f"histogram CSV shape {hist.shape}, expected ({bins}, 3)")
    else:
        mass = float(np.sum((hist[:, 1] - hist[:, 0]) * hist[:, 2]))
        _expect_close(problems, "histogram mass", mass, 1.0, 1e-9)
    _, kde = read_csv(os.path.join(out_dir, "kde.csv"))
    if kde.shape != (kde_points, 2):
        problems.append(f"KDE CSV shape {kde.shape}, expected ({kde_points}, 2)")
    return problems


# --- verify suite -----------------------------------------------------------


def check_norms(a, spectral, singular_values, fro, norm21):
    """``spectral_norm`` and the Jacobi oracle against LAPACK; Frobenius and
    (2,1) norms against numpy."""
    problems = []
    ref = np.linalg.svd(a, compute_uv=False)
    _expect_close(problems, "spectral_norm", spectral, float(ref[0]), S_REL)
    sv = np.asarray(singular_values)
    if sv.shape != ref.shape:
        return problems + [f"{sv.shape} singular values, expected {ref.shape}"]
    gap = float(np.abs(sv - ref).max()) / float(ref[0])
    if not gap <= JACOBI_GAP:
        problems.append(f"Jacobi gap {gap:.2e} > {JACOBI_GAP:g}")
    _expect_close(problems, "frobenius_norm", fro, float(np.linalg.norm(a)), SUM_REL)
    _expect_close(problems, "norm_2_1_of_transpose", norm21,
                  float(np.sum(np.linalg.norm(a, axis=1))), SUM_REL)
    return problems


def check_maurey(atoms, alpha, k, counts, approx_error_sq):
    """Counts sum to k and the recomputed error meets the recomputed guarantee."""
    problems = []
    c = np.asarray(counts, dtype=np.float64)
    if c.shape != (len(alpha),) or int(c.sum()) != k:
        return [f"counts {counts} do not sum to k={k}"]
    beta = float(np.sum(alpha))
    err = atoms.T @ alpha - (beta / k) * (atoms.T @ c)
    err_sq = float(err @ err)
    guarantee = beta * beta / k * float(np.max(np.sum(atoms * atoms, axis=1)))
    if not err_sq <= guarantee * (1.0 + SUM_REL):
        problems.append(f"Maurey error {err_sq!r} exceeds guarantee {guarantee!r}")
    _expect_close(problems, "approx_error_sq", approx_error_sq, err_sq, 1e-9, guarantee)
    return problems


def check_cover(a, x, eps, w_hat):
    err = float(np.linalg.norm(x @ a - w_hat))
    return [] if err <= eps else [f"cover error {err!r} > eps {eps!r}"]


def check_lowerbound(weights, outputs, product, a, x):
    """Pointwise exactness of <a, x>, from the package's forward pass and from
    the benchmark's, and the norm product 2 ||a||."""
    problems = []
    target = x @ a
    for what, values in (("forward", outputs), ("reference forward", forward(weights, x))):
        err = float(np.abs(np.asarray(values)[:, 0] - target).max())
        if not err <= EXACT_ABS:
            problems.append(f"{what} pointwise error {err:.2e} > {EXACT_ABS:g}")
    _expect_close(problems, "norm product", product, 2.0 * float(np.linalg.norm(a)), 1e-10)
    return problems


def check_rademacher(x, radius, trials):
    floor = radius * float(np.linalg.norm(x)) / (math.sqrt(2.0) * x.shape[0])
    slack = 3.0 * float(np.std(trials, ddof=1)) / math.sqrt(len(trials))
    mean = float(np.mean(trials))
    return [] if mean >= floor - slack else [f"estimate {mean} below floor {floor} - 3se"]
