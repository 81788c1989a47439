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
from .complexity import _check_bound_params, analyze_network, layer_norms, spectral_complexity
from .data import inspect_idx, load_dataset, load_idx
from .errors import InputOutputError, MarginAuditorError, ParameterError
from .linalg import MAT1_MAGIC, frobenius_norm, spectral_norm
from .network import load_manifest, save_manifest
from .serialize import dumps_17g, write_json_17g


def _load_any_dataset(features_path, labels_path):
    try:
        with open(features_path, "rb") as f:
            magic = f.read(4)
    except FileNotFoundError:
        raise InputOutputError(f"file not found: {features_path}") from None
    if magic == MAT1_MAGIC:
        return load_dataset(features_path, labels_path)
    return load_idx(features_path, labels_path)


def _ensure_out(path):
    os.makedirs(path, exist_ok=True)
    return path


def cmd_analyze(args):
    net = load_manifest(args.network)
    ds = _load_any_dataset(args.features, args.labels)
    if not (0.0 < args.delta < 1.0):
        raise ParameterError(f"delta must lie in (0,1), got {args.delta}")
    report, md = analyze_network(net, ds, gamma=args.gamma, delta=args.delta)
    out = _ensure_out(args.out)
    write_json_17g(os.path.join(out, "bound-report.json"), asdict(report))
    margins.write_margins_csv(os.path.join(out, "margins.csv"), md)
    return 0


def cmd_margins(args):
    net = load_manifest(args.network)
    ds = _load_any_dataset(args.features, args.labels)
    r_a = spectral_complexity(layer_norms(net))
    md = margins.margin_distribution(net, ds, r_a, gamma=args.gamma)
    _check_bound_params(md.gamma_used, args.delta, ds.n)
    summary = margins.summarize(md, bins=args.bins)
    out = _ensure_out(args.out)
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
    out = _ensure_out(args.out)

    def hook(snap, net, md):
        stem = os.path.join(out, f"epoch_{snap.epoch:03d}")
        write_json_17g(stem + ".json", asdict(snap))
        margins.write_margins_csv(stem + "_margins.csv", md)
        if snap.epoch == cfg.epochs - 1:
            save_manifest(net, os.path.join(out, "net"), name="final")

    training.train(cfg, train_ds, test_ds, snapshot_hook=hook)
    return 0


def cmd_coverdemo(args):
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((args.n, args.d))
    a = rng.standard_normal((args.d, args.m))
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
    sys.stdout.write(dumps_17g(record))
    return 0 if record["satisfied"] else 1


def cmd_maurey(args):
    rng = np.random.default_rng(args.seed)
    atoms = rng.standard_normal((args.atoms, args.dim))
    alpha = rng.uniform(0.1, 1.0, size=args.atoms)
    result = covering.maurey_sparsify(atoms, alpha, args.k, seed=args.seed)
    record = {
        "k": args.k,
        "counts": list(result.counts),
        "error_sq": result.approx_error_sq,
        "guarantee": result.guarantee,
        "retries": result.retries,
        "satisfied": bool(result.approx_error_sq <= result.guarantee),
    }
    sys.stdout.write(dumps_17g(record))
    return 0 if record["satisfied"] else 1


def cmd_lowerbound(args):
    a = np.array([float(v) for v in args.a.split(",")])
    net = lowerbound.build_linear_network(a, args.layers)
    rng = np.random.default_rng(args.seed)
    xs = rng.standard_normal((1000, a.size))
    outputs = net.forward(xs)[:, 0]
    err = float(np.abs(outputs - xs @ a).max())
    product = 1.0
    for layer in net.layers:
        product *= spectral_norm(layer.weight)
    a_norm = float(np.sqrt(a @ a))
    trials = lowerbound.rademacher_linear_trials(xs, args.r, args.trials, seed=args.seed)
    estimate = float(trials.mean())
    stderr3 = 3.0 * float(trials.std(ddof=1)) / math.sqrt(args.trials)
    floor = args.r * frobenius_norm(xs) / (math.sqrt(2.0) * xs.shape[0])
    record = {
        "a_norm": a_norm,
        "product_spectral_norms": product,
        "max_pointwise_error": err,
        "rademacher_estimate": estimate,
        "khintchine_floor": floor,
        "satisfied": bool(err <= 1e-12 and estimate >= floor - stderr3),
    }
    sys.stdout.write(dumps_17g(record))
    return 0 if record["satisfied"] else 1


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

    p = sub.add_parser("analyze", help="bound report + margins CSV for a network/dataset pair")
    p.add_argument("network", help="network manifest JSON")
    p.add_argument("--features", required=True, help="MAT1 or IDX feature file")
    p.add_argument("--labels", required=True, help="LBL1 or IDX label file")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--out", default="./out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("margins", help="margin distribution with histogram and KDE CSVs")
    p.add_argument("network")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--bins", type=int, default=30)
    p.add_argument("--out", default="./out")
    p.set_defaults(func=cmd_margins)

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
    except FileNotFoundError as exc:
        print(json.dumps({"error": "InputOutputError", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
