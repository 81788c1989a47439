"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It generates (or reuses) the seed's inputs,
measures set-up time in several fresh processes, runs the workload in one
more fresh process for S seconds, then checks every operation's outputs and
prints a detail line (provenance, input properties, each operation's fastest
time under the workload's own metric name, failure messages) followed by the
result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1 they
are the per-layer metrics of a traced run.  Everything it writes goes under
.perfbench/ in the current directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train-digits", "analyze-digits", "verify-suite")
# Fresh set-up-only processes per run; the workload process adds one more sample.
SETUP_PROBES = 6
# The worker may overrun --seconds by its last round (up to ~10 s on train-digits).
WORKER_SLACK_S = 90
# Each workload's primary and secondary operation under its own name.
OP_NAMES = {
    "train-digits": ("train_epoch_s", "train_l2_epoch_s"),
    "analyze-digits": ("analyze_s", "margins_s"),
    "verify-suite": ("verify_norm_pass_s", "verify_construction_pass_s"),
}


class BenchError(Exception):
    pass


def _run_json(args, timeout):
    """Run the worker to completion and parse the last line of its output."""
    try:
        proc = subprocess.run(
            [sys.executable, *args], stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} exceeded {timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _ops(rounds, kind):
    """Wall times of one kind of operation in the untraced rounds."""
    return [s for r in rounds if not r["traced"] for k, s in r["ops"] if k == kind]


def main(argv=None):
    parser = argparse.ArgumentParser(description="margin-auditor benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "margin_auditor", "__init__.py")):
        print("perfbench: src/margin_auditor not found; run from the repository root",
              file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.join(root, "src"))
    import margin_auditor as ma

    import checks
    import inputs
    import workloads

    d = inputs.ensure_inputs(ma, root, args.workload, args.seed)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--inputs", d]
    worker = os.path.join(HERE, "worker.py")
    try:
        setup = [_run_json([worker, *common, "--setup-only"], 30)["setup_s"]
                 for _ in range(SETUP_PROBES)]
        res = _run_json(
            [worker, *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            args.seconds + WORKER_SLACK_S,
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setup.append(res["setup_s"])

    checker = workloads.WORKLOADS[args.workload][1](d, args.seed)
    tally = checks.Tally()
    for index, r in enumerate(res["rounds"]):
        checker.check_round(index, r["dir"], dict(r["errors"]), tally)

    rounds = res["rounds"]
    primary, secondary = _ops(rounds, "primary"), _ops(rounds, "secondary")
    first, second = OP_NAMES[args.workload]
    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "primary_op_s.p50": {"value": statistics.median(primary), "unit": "s"},
            "secondary_op_s.p50": {"value": statistics.median(secondary), "unit": "s"},
        }
    with open(os.path.join(d, "properties.json"), encoding="utf-8") as f:
        properties = json.load(f)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": {"setup": len(setup), first: len(primary), second: len(secondary),
                    "rounds": len(rounds)},
        "operations": {"primary_op_s": first, "secondary_op_s": second},
        "min": {f"{first}.min": min(primary), f"{second}.min": min(secondary)},
        "ops_failed_frac": tally.failed / tally.attempted,
        "failures": tally.messages,
        "setup_s_samples": setup,
        "inputs": properties,
        "peak_rss_mb_whole_run": res["peak_rss_mb_whole_run"],
        "provenance": res["provenance"],
        "trace_file": res.get("trace_file"),
    }
    out = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    results = os.path.join(root, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-s{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"detail": detail, "result": out, "rounds": rounds}, f, indent=1)
    print(json.dumps(detail))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
