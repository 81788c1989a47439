"""The benchmark workloads, each in two halves.

The runner half lives in the timed worker process.  A round runs the
workload's program calls back to back, each starting when the previous one
has finished (a closed loop with one client), and leaves their outputs under
the round's directory.  It holds no reference data, so the worker's peak
resident set belongs to the program.  ``run_round`` returns
``(ops, errors)``: ``ops`` is ``[(kind, seconds), ...]`` with kind "primary"
or "secondary" and seconds the wall time of the program calls alone;
``errors`` is ``[(label, message), ...]`` for calls that failed outright.

The checker half runs in the parent after the worker has exited.  It reads
each round's outputs back and records every operation, checked against the
references in :mod:`checks`, into a :class:`checks.Tally`.
"""

import os
import pickle
from time import perf_counter

import numpy as np

import checks
import inputs

# The train commands of one round.  The l2 run is repeated so that both
# operations get about as many samples per run.
TRAIN_ROUND = ("true", "l2", "random", "l2")
TRAIN_RUNS = {name: (label_mode, l2) for name, label_mode, l2 in inputs.TRAIN_RUNS}
ANALYZE_ROUND = (
    ("primary", "analyze", "images.idx", "labels.idx", checks.check_analyze),
    ("secondary", "margins", "features.mat", "labels.lbl", checks.check_margins),
)
RESULTS = "results.pkl"


def _record_all(tally, index, items, errors):
    """``items`` is ``[(label, check, *args)]``; a label in ``errors`` has already failed."""
    for label, check, *args in items:
        name = f"round {index}: {label}"
        if label in errors:
            tally.fail(name, errors[label])
        else:
            tally.record(name, check, *args)


class TrainRunner:
    """``train`` commands with epochs=1: true labels, l2, random labels, l2.

    primary: wall time per epoch of the true- and random-label runs;
    secondary: wall time per epoch of the l2 run.
    """

    def __init__(self, ma, d, seed, loaded):
        self.ma = ma
        self.d = d

    def run_round(self, index, round_dir):
        d = self.d
        ops, errors = [], []
        for i, name in enumerate(TRAIN_ROUND):
            label = f"train {i}-{name}"
            argv = [
                "train", f"{d}/{name}.json",
                "--train-features", f"{d}/train-images.idx",
                "--train-labels", f"{d}/train-labels.idx",
                "--test-features", f"{d}/test-images.idx",
                "--test-labels", f"{d}/test-labels.idx",
                "--out", os.path.join(round_dir, f"{i}-{name}"),
            ]
            start = perf_counter()
            rc = self.ma.cli.main(argv)
            ops.append(("secondary" if TRAIN_RUNS[name][1] else "primary",
                        perf_counter() - start))
            if rc != 0:
                errors.append((label, f"exit code {rc}"))
        return ops, errors


class TrainChecker:
    def __init__(self, d, seed):
        x, y = checks.read_idx(f"{d}/train-images.idx", f"{d}/train-labels.idx")
        x_test, y_test = checks.read_idx(f"{d}/test-images.idx", f"{d}/test-labels.idx")
        self.data = (x, y, x_test, y_test)
        self.seed = seed

    def check_round(self, index, round_dir, errors, tally):
        _record_all(tally, index, [
            (f"train {i}-{name}", checks.check_train, os.path.join(round_dir, f"{i}-{name}"),
             self.data, TRAIN_RUNS[name][0], self.seed)
            for i, name in enumerate(TRAIN_ROUND)
        ], errors)


class AnalyzeRunner:
    """``analyze`` on the IDX pair, then ``margins`` on the MAT1/LBL1 pair.

    primary: wall time of ``analyze``; secondary: wall time of ``margins``.
    """

    def __init__(self, ma, d, seed, loaded):
        self.ma = ma
        self.d = d

    def run_round(self, index, round_dir):
        d = self.d
        ops, errors = [], []
        for kind, command, features, labels, _ in ANALYZE_ROUND:
            argv = [command, f"{d}/net/network.json", "--features", f"{d}/{features}",
                    "--labels", f"{d}/{labels}", "--out", os.path.join(round_dir, command)]
            start = perf_counter()
            rc = self.ma.cli.main(argv)
            ops.append((kind, perf_counter() - start))
            if rc != 0:
                errors.append((command, f"exit code {rc}"))
        return ops, errors


class AnalyzeChecker:
    def __init__(self, d, seed):
        x, y = checks.read_idx(f"{d}/images.idx", f"{d}/labels.idx")
        self.ref = checks.Reference(checks.read_weights(f"{d}/net/network.json"), x, y)

    def check_round(self, index, round_dir, errors, tally):
        _record_all(tally, index, [
            (command, check, os.path.join(round_dir, command), self.ref)
            for _, command, _, _, check in ANALYZE_ROUND
        ], errors)


def _construction_inputs(seed, j):
    """Criterion-4 and criterion-6 inputs of slice ``j``: fixed structure, values from the seed."""
    maurey = []
    for i, (d, dim, k) in enumerate(inputs.MAUREY_SHAPES):
        rng = np.random.default_rng([seed, j, 4, i])
        maurey.append((rng.standard_normal((d, dim)), rng.uniform(0.05, 1.0, size=d), k))
    cover = []
    for i in range(inputs.COVER_PER_SLICE):
        rng = np.random.default_rng([seed, j, 45, i])
        cover.append((rng.standard_normal((4, 3)), rng.standard_normal((8, 4)),
                      float(rng.uniform(0.3, 2.0))))
    lower = []
    for i, (dim, depth) in enumerate(inputs.LOWERBOUND_SHAPES):
        rng = np.random.default_rng([seed, j, 6, i])
        lower.append((rng.standard_normal(dim), depth, rng.standard_normal((2, dim))))
    rademacher = np.random.default_rng([seed, j, 66]).standard_normal((16, 5))
    return maurey, cover, lower, rademacher


RADEMACHER_RADIUS = 1.3
RADEMACHER_TRIALS = 10_000


class VerifyRunner:
    """The verification suite in equal slices, one slice per round.

    primary: the norm pass of a slice (``spectral_norm``, the Jacobi singular
    values and the Frobenius and (2,1) norms of 100 seeded Gaussian
    matrices); secondary: the construction pass (Maurey sparsifications,
    cover elements, lower-bound networks with their spectral norms, one
    Rademacher estimate).  The results go to the round's ``results.pkl`` as
    plain numbers and arrays.
    """

    def __init__(self, ma, d, seed, loaded):
        self.ma = ma
        self.seed = seed
        self.matrices = loaded  # matrices per slice, read with read_mat1 during set-up
        self.constructions = [_construction_inputs(seed, j) for j in range(inputs.SLICES)]

    def run_round(self, index, round_dir):
        j = index % inputs.SLICES
        results, errors = {}, []
        ops = [("primary", self._norm_pass(j, results, errors)),
               ("secondary", self._construction_pass(j, results, errors))]
        with open(os.path.join(round_dir, RESULTS), "wb") as f:
            pickle.dump(results, f)
        return ops, errors

    def _timed(self, errors, label, fn, *args, **kwargs):
        """(result, seconds); a package error fails the operation."""
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except self.ma.MarginAuditorError as exc:
            errors.append((label, f"{type(exc).__name__}: {exc}"))
            return None, perf_counter() - start
        return result, perf_counter() - start

    def _norms(self, a):
        ma = self.ma
        return (ma.spectral_norm(a), ma.jacobi_singular_values(a), ma.frobenius_norm(a),
                ma.norm_2_1_of_transpose(a))

    def _lower_bound(self, a, depth, x):
        ma = self.ma
        net = ma.build_linear_network(a, depth)
        outputs = net.forward(x)
        product = 1.0
        for layer in net.layers:
            product *= ma.spectral_norm(layer.weight)
        return [layer.weight for layer in net.layers], outputs, product

    def _norm_pass(self, j, results, errors):
        spent = 0.0
        for i, a in enumerate(self.matrices[j]):
            results[f"matrix {i}"], dt = self._timed(errors, f"matrix {i}", self._norms, a)
            spent += dt
        return spent

    def _construction_pass(self, j, results, errors):
        ma = self.ma
        maurey, cover, lower, rademacher = self.constructions[j]
        spent = 0.0
        for i, (atoms, alpha, k) in enumerate(maurey):
            result, dt = self._timed(errors, f"maurey {i}", ma.maurey_sparsify,
                                     list(atoms), alpha, k, seed=i)
            spent += dt
            if result is not None:
                results[f"maurey {i}"] = (result.counts, result.approx_error_sq)
        for i, (a, x, eps) in enumerate(cover):
            result, dt = self._timed(errors, f"cover {i}", ma.cover_element_for,
                                     a, x, eps, q=2.0, s_exp=1.0, seed=i)
            spent += dt
            if result is not None:
                results[f"cover {i}"] = result[0]
        for i, (a, depth, x) in enumerate(lower):
            results[f"lowerbound {i}"], dt = self._timed(errors, f"lowerbound {i}",
                                                         self._lower_bound, a, depth, x)
            spent += dt
        results["rademacher"], dt = self._timed(errors, "rademacher", ma.rademacher_linear_trials,
                                                rademacher, RADEMACHER_RADIUS, RADEMACHER_TRIALS,
                                                seed=self.seed)
        return spent + dt


class VerifyChecker:
    def __init__(self, d, seed):
        self.matrices = [
            [checks.read_mat1(f"{d}/norm/{j}_{i:03d}.mat") for i in range(len(inputs.NORM_SHAPES))]
            for j in range(inputs.SLICES)
        ]
        self.constructions = [_construction_inputs(seed, j) for j in range(inputs.SLICES)]

    def check_round(self, index, round_dir, errors, tally):
        j = index % inputs.SLICES
        with open(os.path.join(round_dir, RESULTS), "rb") as f:
            results = pickle.load(f)
        maurey, cover, lower, rademacher = self.constructions[j]
        items = [(f"matrix {i}", checks.check_norms, a, *(results.get(f"matrix {i}") or ()))
                 for i, a in enumerate(self.matrices[j])]
        items += [(f"maurey {i}", checks.check_maurey, atoms, alpha, k,
                   *(results.get(f"maurey {i}") or ()))
                  for i, (atoms, alpha, k) in enumerate(maurey)]
        items += [(f"cover {i}", checks.check_cover, a, x, eps, results.get(f"cover {i}"))
                  for i, (a, x, eps) in enumerate(cover)]
        items += [(f"lowerbound {i}", checks.check_lowerbound,
                   *(results.get(f"lowerbound {i}") or ()), a, x)
                  for i, (a, _, x) in enumerate(lower)]
        items.append(("rademacher", checks.check_rademacher, rademacher, RADEMACHER_RADIUS,
                      results.get("rademacher")))
        _record_all(tally, index, items, errors)


# name -> (runner(ma, inputs directory, seed, what set-up loaded), checker(inputs directory, seed))
WORKLOADS = {
    "train-digits": (TrainRunner, TrainChecker),
    "analyze-digits": (AnalyzeRunner, AnalyzeChecker),
    "verify-suite": (VerifyRunner, VerifyChecker),
}
