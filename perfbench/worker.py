"""One workload run in a fresh process.

Before the package (and so numpy's BLAS) is imported, sets
MARGIN_AUDITOR_THREADS to the number of usable CPUs and turns off numpy's
transparent-huge-page advice, so that resident memory and speed do not
depend on how many huge pages the host happens to have free.  Then times the
set-up (import plus loading the inputs through the package loaders), runs
rounds of the workload until ``--seconds`` have passed, and prints one JSON
object as the last line of standard output.  Each round leaves its outputs under
``.perfbench/out/<workload>/r<round>/``; the checks run later, in the parent,
so the peak resident set reported here is the program's plus the interpreter's.
That peak is taken after the first round, as a user running each command in
a fresh process would see it.  Later rounds can raise it by 25 MB or not,
depending on when the C allocator stops returning freed memory to the system;
the peak over the whole run is reported beside it.

With ``--trace 1`` the rounds alternate traced and untraced (traced first),
after one traced re-load of the inputs; the per-layer metrics come from the
traced rounds and the overhead from comparing the two kinds.  With
``--setup-only`` it prints the set-up time and exits.

Nothing here imports numpy before the set-up timer starts.
"""

import argparse
import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter


# Set-up loaders: each loads the workload's inputs through the package and
# returns what the runner needs.  The train and analyze runners call the CLI,
# which loads its own inputs, so those loaders keep nothing.


def _load_train(ma, d):
    for part in ("train", "test"):
        ma.load_idx(f"{d}/{part}-images.idx", f"{d}/{part}-labels.idx")


def _load_analyze(ma, d):
    ma.load_manifest(f"{d}/net/network.json")
    ma.load_idx(f"{d}/images.idx", f"{d}/labels.idx")
    ma.load_dataset(f"{d}/features.mat", f"{d}/labels.lbl")


def _load_verify(ma, d):
    """Matrices grouped by slice: file ``<slice>_<index>.mat``."""
    slices = {}
    for name in sorted(os.listdir(f"{d}/norm")):
        slices.setdefault(name.split("_")[0], []).append(ma.read_mat1(f"{d}/norm/{name}"))
    return [slices[key] for key in sorted(slices, key=int)]


LOADERS = {
    "train-digits": _load_train,
    "analyze-digits": _load_analyze,
    "verify-suite": _load_verify,
}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_runtime():
    """Library path, configuration and thread count read back from the loaded BLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split()[-1] for line in f if "blas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        if not os.path.isfile(path):
            continue
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("", ""), ("", "64_"), ("scipy_", "64_"), ("scipy_", "")):
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if threads is None:
                continue
            threads.argtypes, threads.restype = [], ctypes.c_int
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if config is not None:
                config.argtypes, config.restype = [], ctypes.c_char_p
            return {
                "library": os.path.basename(path),
                "config": config().decode() if config is not None else None,
                "threads": threads(),
            }
    return {"library": paths[0] if paths else None, "config": None, "threads": None}


def _commit(root):
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(src):
    """sha256 over the package sources, so a run names its code without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def provenance(np, root, src):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": np.show_config(mode="dicts")["Build Dependencies"].get("blas"),
        "blas_runtime": _blas_runtime(),
        "MARGIN_AUDITOR_THREADS": os.environ.get("MARGIN_AUDITOR_THREADS"),
        "NUMPY_MADVISE_HUGEPAGE": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "commit": _commit(root),
        "src_sha256": _src_digest(src),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(LOADERS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    os.environ["MARGIN_AUDITOR_THREADS"] = str(len(os.sched_getaffinity(0)))
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path.insert(0, src)
    start = perf_counter()
    ma = importlib.import_module("margin_auditor")
    importlib.import_module("margin_auditor.cli")
    loaded = LOADERS[args.workload](ma, args.inputs)
    setup_s = perf_counter() - start
    if not os.path.abspath(ma.__file__).startswith(src + os.sep):
        raise SystemExit(f"margin_auditor imported from {ma.__file__}, not from {src}")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy as np

    import workloads

    out = os.path.join(root, ".perfbench", "out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    runner = workloads.WORKLOADS[args.workload][0](ma, args.inputs, args.seed, loaded)
    del loaded

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        LOADERS[args.workload](ma, args.inputs)
        tracer.uninstall()

    rounds = []
    deadline = perf_counter() + args.seconds
    while not rounds or perf_counter() < deadline or (tracer is not None and len(rounds) < 2):
        index = len(rounds)
        traced = tracer is not None and index % 2 == 0
        round_dir = os.path.join(out, f"r{index:03d}")
        os.makedirs(round_dir)
        if traced:
            tracer.round = index
            tracer.install()
        try:
            ops, errors = runner.run_round(index, round_dir)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append({"traced": traced, "dir": round_dir, "ops": ops, "errors": errors})
        if index == 0:
            first_round_peak = _peak_rss_mb()

    result = {
        "setup_s": setup_s,
        "rounds": rounds,
        "peak_rss_mb": first_round_peak,
        "peak_rss_mb_whole_run": _peak_rss_mb(),
        "provenance": provenance(np, root, src),
    }
    if tracer is not None:
        from tracer import per_layer_metrics

        def round_s(traced):
            return statistics.median(
                sum(s for _, s in r["ops"]) for r in rounds if r["traced"] == traced
            )

        result["per_layer"] = per_layer_metrics(
            tracer.spans, sum(1 for r in rounds if r["traced"])
        )
        result["per_layer"]["trace.overhead_frac"] = {
            "value": round_s(True) / round_s(False) - 1.0,
            "unit": "frac",
        }
        trace_dir = os.path.join(root, ".perfbench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        result["trace_file"] = os.path.join(trace_dir, f"{args.workload}-s{args.seed}.jsonl")
        tracer.write_jsonl(result["trace_file"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
