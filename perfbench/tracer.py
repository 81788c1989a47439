"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps every public function of the package's layer modules at
each place the package binds it (the defining module, every module that
imported it by name, and the package namespace), plus ``Network.forward``
and ``Network.forward_images``.  Each call records one span: name
``<module>.<function>``, start, end, parent span, self time (duration minus
the time covered by child spans), the round it belongs to, and any counts
measured at the same boundary.  Spans stay in memory until :meth:`write_jsonl`.

Nothing in the package is edited: :meth:`install` rebinds names and
:meth:`uninstall` restores the originals.  Untraced runs never import this
module.
"""

import functools
import importlib
import inspect
import json
import math
import os
from dataclasses import dataclass
from time import perf_counter

LAYERS = (
    "cli",
    "data",
    "network",
    "linalg",
    "margins",
    "complexity",
    "covering",
    "lowerbound",
    "training",
    "serialize",
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    self_s: float
    round: int
    counts: dict


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths)


def _gemm_flops(weights, rows):
    return 2 * rows * sum(w.shape[0] * w.shape[1] for w in weights)


def _forward_images_counts(args, kwargs, result):
    net = args[0]
    rows = result[0].shape[0]
    return {"rows": rows, "flops": _gemm_flops([l.weight for l in net.layers], rows)}


def _step_counts(args, kwargs, result):
    # Forward GEMMs, weight-gradient GEMMs, and the backward delta GEMMs of
    # every layer but the first: 3L - 1 products of the layer shapes.
    weights, rows = args[0], args[1].shape[0]
    return {"flops": 2 * _gemm_flops(weights, rows) + _gemm_flops(weights[1:], rows)}


# Counts recorded at a function's boundary, computed from its arguments and
# result: fn(args, kwargs, result) -> dict of numbers.
COUNTERS = {
    "network.forward_images": _forward_images_counts,
    "training.loss_and_gradients": _step_counts,
    "data.load_idx": lambda a, k, r: {"bytes": _file_bytes(a[0], a[1])},
    "margins.write_margins_csv": lambda a, k, r: {"rows": len(a[1].raw)},
    "covering.maurey_sparsify": lambda a, k, r: {"retries": r.retries},
}


class Tracer:
    """Records spans for calls into the package while installed."""

    def __init__(self):
        self.package = importlib.import_module("margin_auditor")
        self.modules = {name: importlib.import_module(f"margin_auditor.{name}") for name in LAYERS}
        self.spans = []
        self.round = -1
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]  # span id, time covered by children
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[frame[0]] = Span(
                    frame[0], name, start, end, parent, end - start - frame[1], self.round, None
                )
            if counter is not None:
                spans[frame[0]].counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind every public layer function and the two forward methods."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod_name, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(f"{mod_name}.{attr}", obj)
        for namespace in (self.package, *self.modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[obj])
        net_cls = self.modules["network"].Network
        for meth in ("forward", "forward_images"):
            orig = net_cls.__dict__[meth]
            self._patches.append((net_cls, meth, orig))
            setattr(net_cls, meth, self._wrap(f"network.{meth}", orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({k: v for k, v in vars(s).items() if v is not None}) + "\n")

# Per-layer metrics: (metric name, unit, span name, statistic).  A statistic
# is "calls", "s" (total duration), "self_s", "p50"/"p99" of the per-call
# duration scaled by the unit, "gflops" (summed computed FLOPs over summed
# duration), or a count key recorded by COUNTERS.
PER_LAYER = (
    ("training.train.self_s", "s/round", "training.train", "self_s"),
    ("training.loss_and_gradients.calls", "count/round", "training.loss_and_gradients", "calls"),
    ("training.loss_and_gradients.s", "s/round", "training.loss_and_gradients", "s"),
    ("training.loss_and_gradients.us.p50", "us", "training.loss_and_gradients", "p50"),
    ("training.loss_and_gradients.us.p99", "us", "training.loss_and_gradients", "p99"),
    ("training.step.gflops_computed", "GFLOP/s", "training.loss_and_gradients", "gflops"),
    ("network.forward_images.calls", "count/round", "network.forward_images", "calls"),
    ("network.forward_images.rows", "rows/round", "network.forward_images", "rows"),
    ("network.forward_images.s", "s/round", "network.forward_images", "s"),
    ("network.forward.gflops_computed", "GFLOP/s", "network.forward_images", "gflops"),
    ("linalg.spectral_norm.calls", "count/round", "linalg.spectral_norm", "calls"),
    ("linalg.spectral_norm.s", "s/round", "linalg.spectral_norm", "s"),
    ("linalg.spectral_norm.ms.p50", "ms", "linalg.spectral_norm", "p50"),
    ("linalg.spectral_norm.ms.p99", "ms", "linalg.spectral_norm", "p99"),
    ("linalg.jacobi_singular_values.s", "s/round", "linalg.jacobi_singular_values", "s"),
    ("linalg.group_norm.calls", "count/round", "linalg.group_norm", "calls"),
    ("linalg.group_norm.s", "s/round", "linalg.group_norm", "s"),
    ("linalg.read_mat1.s", "s/round", "linalg.read_mat1", "s"),
    ("data.load_idx.s", "s/round", "data.load_idx", "s"),
    ("data.load_idx.bytes", "B/round", "data.load_idx", "bytes"),
    ("data.load_dataset.s", "s/round", "data.load_dataset", "s"),
    ("margins.margins_of_outputs.s", "s/round", "margins.margins_of_outputs", "s"),
    ("margins.error_rate.s", "s/round", "margins.error_rate", "s"),
    ("margins.margin_distribution.s", "s/round", "margins.margin_distribution", "s"),
    ("margins.summarize.s", "s/round", "margins.summarize", "s"),
    ("margins.write_margins_csv.s", "s/round", "margins.write_margins_csv", "s"),
    ("margins.write_margins_csv.rows", "rows/round", "margins.write_margins_csv", "rows"),
    ("margins.ramp_risk_empirical.s", "s/round", "margins.ramp_risk_empirical", "s"),
    ("complexity.analyze_network.self_s", "s/round", "complexity.analyze_network", "self_s"),
    ("complexity.layer_norms.calls", "count/round", "complexity.layer_norms", "calls"),
    (
        "complexity.generalization_bound_uniform.s",
        "s/round",
        "complexity.generalization_bound_uniform",
        "s",
    ),
    ("serialize.write_json_17g.calls", "count/round", "serialize.write_json_17g", "calls"),
    ("serialize.write_json_17g.s", "s/round", "serialize.write_json_17g", "s"),
    ("cli.main.self_s", "s/round", "cli.main", "self_s"),
    ("covering.maurey_sparsify.calls", "count/round", "covering.maurey_sparsify", "calls"),
    ("covering.maurey_sparsify.s", "s/round", "covering.maurey_sparsify", "s"),
    ("covering.maurey_sparsify.retries", "count/round", "covering.maurey_sparsify", "retries"),
    ("covering.cover_element_for.s", "s/round", "covering.cover_element_for", "s"),
    ("lowerbound.build_linear_network.s", "s/round", "lowerbound.build_linear_network", "s"),
    (
        "lowerbound.rademacher_linear_trials.s",
        "s/round",
        "lowerbound.rademacher_linear_trials",
        "s",
    ),
)

_PERCENTILE_SCALE = {"us": 1e6, "ms": 1e3}


def _percentile(values, q):
    """Nearest-rank percentile of a nonempty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def per_layer_metrics(spans, rounds):
    """Per-layer values for one traced set-up (round -1) plus the mean of ``rounds`` rounds.

    Totals and counts are the set-up's plus the rounds' divided by
    ``rounds``; percentiles and GFLOP/s pool every call.  A layer that was
    never called reports 0.
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {}
    for metric, unit, name, stat in PER_LAYER:
        calls = by_name.get(name, [])

        def per_round(value_of):
            setup = sum(value_of(s) for s in calls if s.round < 0)
            return setup + sum(value_of(s) for s in calls if s.round >= 0) / rounds

        if not calls:
            value = 0.0
        elif stat == "calls":
            value = per_round(lambda s: 1)
        elif stat == "s":
            value = per_round(lambda s: s.end - s.start)
        elif stat == "self_s":
            value = per_round(lambda s: s.self_s)
        elif stat in ("p50", "p99"):
            durations = [s.end - s.start for s in calls]
            value = _percentile(durations, int(stat[1:])) * _PERCENTILE_SCALE[unit]
        elif stat == "gflops":
            flops = sum(s.counts["flops"] for s in calls if s.counts)
            value = flops / sum(s.end - s.start for s in calls) / 1e9
        else:
            value = per_round(lambda s: (s.counts or {}).get(stat, 0))
        out[metric] = {"value": value, "unit": unit}
    return out
