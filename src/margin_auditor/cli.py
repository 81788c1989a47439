"""Command-line surface: analyze, train, margins, coverdemo, lowerbound,
maurey, idx-inspect.

Every command is deterministic given its flags; all randomness flows from
--seed.  Exit codes: 0 ok, 2 I/O, 3 parameter, 4 numeric degeneracy,
5 divergence.  Failures print a one-line JSON diagnostic on stderr.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import covering, lowerbound, margins, training
from .complexity import _check_bound_params, _norms_and_margins, analyze_network
from .data import _FeatureFile, inspect_idx, load_dataset, load_idx
from .errors import (InputOutputError, MarginAuditorError, ParameterError, _check_at_least,
                     _check_count)
from .linalg import MAT1_MAGIC, frobenius_norm, spectral_norm
from .network import load_manifest, save_manifest
from .serialize import _opened, _output_dir, dumps_17g, write_json_17g


def _regular(features_path):
    """``features_path``, unless it is no regular file: it is opened twice, as in `_load_any_dataset`."""
    if os.path.exists(features_path) and not os.path.isfile(features_path):
        raise InputOutputError(f"features file is not a regular file: {features_path}")
    return features_path


def _load_any_dataset(features_path, labels_path):
    with _opened(_regular(features_path)) as f:
        load = load_dataset if f.read(4) == MAT1_MAGIC else load_idx
    return load(features_path, labels_path)


def cmd_analyze(args):
    net = load_manifest(args.network)
    ds = _FeatureFile(_regular(args.features), args.labels)
    report, md = analyze_network(net, ds, gamma=args.gamma, delta=args.delta)
    out = _output_dir(args.out)
    write_json_17g(os.path.join(out, "bound-report.json"), asdict(report))
    margins.write_margins_csv(os.path.join(out, "margins.csv"), md)
    return 0


def cmd_margins(args):
    net = load_manifest(args.network)
    ds = _FeatureFile(_regular(args.features), args.labels)
    outputs, data_norm = margins._pass(ds, net, norm=True)
    _, _, r_a, md = _norms_and_margins(net, outputs, ds.y, data_norm, args.gamma)
    _check_bound_params(md.gamma_used, args.delta, ds.n)
    summary = margins.summarize(md, bins=args.bins)
    out = _output_dir(args.out)
    margins.write_margins_csv(os.path.join(out, "margins.csv"), md)
    margins.write_histogram_csv(os.path.join(out, "histogram.csv"), summary)
    margins.write_kde_csv(os.path.join(out, "kde.csv"), summary)
    write_json_17g(
        os.path.join(out, "margin-summary.json"),
        {
            "n": ds.n,
            "R_A": r_a,
            "normalizer": md.normalizer,
            "gamma_used": md.gamma_used,
            "kde_bandwidth": summary.bandwidth,
        },
    )
    return 0


def cmd_train(args):
    cfg = training.TrainConfig.from_json(args.config)
    train_ds = _load_any_dataset(args.train_features, args.train_labels)
    test_ds = _load_any_dataset(args.test_features, args.test_labels)
    out = _output_dir(args.out)

    def hook(snap, net, md):
        stem = os.path.join(out, f"epoch_{snap.epoch:03d}")
        write_json_17g(stem + ".json", asdict(snap))
        margins.write_margins_csv(stem + "_margins.csv", md)
        if snap.epoch == cfg.epochs - 1:
            save_manifest(net, os.path.join(out, "net"), name="final")

    training.train(cfg, train_ds, test_ds, snapshot_hook=hook)
    return 0


def _emit(record):
    """Print a demo command's record; exit 0 when its check is satisfied, else 1."""
    sys.stdout.write(dumps_17g(record))
    return 0 if record["satisfied"] else 1


def cmd_coverdemo(args):
    rng = np.random.default_rng(_check_count(args.seed, 0, "seed"))
    n, d, m = (_check_count(getattr(args, name), 1, name) for name in ("n", "d", "m"))
    x = rng.standard_normal((n, d))
    a = rng.standard_normal((d, m))
    w_hat, result = covering.cover_element_for(
        a, x, args.eps, q=args.q, s_exp=args.s, seed=args.seed
    )
    err = frobenius_norm(x @ a - w_hat)
    record = {
        "k": int(sum(result.counts)) if result.counts else 0,
        "error": err,
        "guarantee": math.sqrt(result.guarantee),
        "eps": args.eps,
        "satisfied": bool(err <= args.eps),
    }
    return _emit(record)


def cmd_maurey(args):
    rng = np.random.default_rng(_check_count(args.seed, 0, "seed"))
    count, dim = _check_count(args.atoms, 1, "atoms"), _check_count(args.dim, 1, "dim")
    atoms = rng.standard_normal((count, dim))
    alpha = rng.uniform(0.1, 1.0, size=count)
    result = covering.maurey_sparsify(atoms, alpha, args.k, seed=args.seed)
    record = {
        "k": args.k,
        "counts": list(result.counts),
        "error_sq": result.approx_error_sq,
        "guarantee": result.guarantee,
        "retries": result.retries,
        "satisfied": bool(result.approx_error_sq <= result.guarantee),
    }
    return _emit(record)


def cmd_lowerbound(args):
    try:
        a = np.array([float(v) for v in args.a.split(",")])
    except ValueError:
        raise ParameterError(f"--a must be comma-separated numbers, got {args.a!r}") from None
    _check_at_least(args.trials, 2, "trials")  # the 3-sigma term needs a sample std
    net = lowerbound.build_linear_network(a, args.layers)
    rng = np.random.default_rng(_check_count(args.seed, 0, "seed"))
    xs = rng.standard_normal((1000, a.size))
    outputs = net.forward(xs)[:, 0]
    err = float(np.abs(outputs - xs @ a).max())
    a_norm = float(np.sqrt(a @ a))
    trials = lowerbound.rademacher_linear_trials(xs, args.r, args.trials, seed=args.seed)
    estimate = float(trials.mean())
    stderr3 = 3.0 * float(trials.std(ddof=1)) / math.sqrt(args.trials)
    floor = args.r * frobenius_norm(xs) / (math.sqrt(2.0) * xs.shape[0])
    record = {
        "a_norm": a_norm,
        "product_spectral_norms": math.prod(spectral_norm(l.weight) for l in net.layers),
        "max_pointwise_error": err,
        "rademacher_estimate": estimate,
        "khintchine_floor": floor,
        "satisfied": bool(err <= 1e-12 and estimate >= floor - stderr3),
    }
    return _emit(record)


def cmd_idx_inspect(args):
    info = inspect_idx(args.path)
    sys.stdout.write(json.dumps(info, indent=2) + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="margin-auditor",
        description="Margin distributions and generalization-bound values for dense networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (
        ("analyze", cmd_analyze, "bound report + margins CSV for a network/dataset pair"),
        ("margins", cmd_margins, "margin distribution with histogram and KDE CSVs"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("network", help="network manifest JSON")
        p.add_argument("--features", required=True, help="MAT1 or IDX feature file")
        p.add_argument("--labels", required=True, help="LBL1 or IDX label file")
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--delta", type=float, default=0.01)
        p.add_argument("--out", default="./out")
        p.set_defaults(func=func)
    p.add_argument("--bins", type=int, default=30)  # margins only

    p = sub.add_parser("train", help="deterministic SGD run writing per-epoch snapshots")
    p.add_argument("config", help="TrainConfig JSON")
    p.add_argument("--train-features", required=True)
    p.add_argument("--train-labels", required=True)
    p.add_argument("--test-features", required=True)
    p.add_argument("--test-labels", required=True)
    p.add_argument("--out", default="./out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("coverdemo", help="constructive matrix-product cover element check")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_coverdemo)

    p = sub.add_parser("maurey", help="sparsify a random convex combination and verify the guarantee")
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--atoms", type=int, default=6)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_maurey)

    p = sub.add_parser("lowerbound", help="linear-functional network construction check")
    p.add_argument("--a", default="3,4", help="comma-separated direction vector")
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser("idx-inspect", help="print the header of an IDX file")
    p.add_argument("path")
    p.set_defaults(func=cmd_idx_inspect)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MarginAuditorError as exc:
        diagnostic = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(diagnostic), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
