"""Deterministic vanilla-SGD training of dense ReLU classifiers with
per-epoch diagnostic snapshots.

The loss is softmax cross-entropy; the only randomness is the seeded weight
initialization, the seeded per-epoch shuffles, and any seeded label/input
randomization requested by the config.  Two runs with the same config and
data produce bitwise-identical snapshots.

Each SGD step is fused: the batch x width backprop factor is scaled by lr/n
and every rank-batch update ``delta.T @ act`` is subtracted from its weight
in place through a preallocated buffer, so no full-size gradient is formed.
:func:`loss_and_gradients` is the unfused reference for that step.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .complexity import layer_norms, spectral_complexity
from .data import randomize_inputs_gaussian, randomize_labels
from .errors import InputOutputError, ParameterError, ParseError, TrainingDivergedError
from .linalg import frobenius_norm
from .margins import _error_rate_of_outputs, _margin_distribution_of_outputs, error_rate
from .network import Identity, Layer, Network, Relu

LABEL_MODES = ("true_labels", "random_labels")
INPUT_MODES = ("true_inputs", "gaussian_moment_matched")


@dataclass(frozen=True)
class TrainConfig:
    """Architecture and optimization settings for one run."""

    layer_widths: tuple
    epochs: int
    batch_size: int
    seed: int
    learning_rate: float = 0.01
    l2_coefficient: float = 0.0
    label_mode: str = "true_labels"
    input_mode: str = "true_inputs"

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ParameterError("layer_widths must chain input dim to class count")
        if not (self.learning_rate > 0.0):
            raise ParameterError(f"learning_rate must be positive, got {self.learning_rate!r}")
        if self.epochs < 1:
            raise ParameterError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.l2_coefficient < 0.0:
            raise ParameterError("l2_coefficient must be nonnegative")
        if self.label_mode not in LABEL_MODES:
            raise ParameterError(f"label_mode must be one of {LABEL_MODES}")
        if self.input_mode not in INPUT_MODES:
            raise ParameterError(f"input_mode must be one of {INPUT_MODES}")
        object.__setattr__(self, "layer_widths", widths)

    @classmethod
    def from_json(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except FileNotFoundError:
            raise InputOutputError(f"config not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"config is not valid JSON: {exc}", path=path) from None
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ParameterError(f"bad config fields: {exc}") from None


@dataclass(frozen=True)
class MarginDigest:
    """Scalar summary of one epoch's normalized margin distribution."""

    normalizer: float
    raw_mean: float
    normalized_mean: float
    normalized_median: float
    normalized_min: float
    normalized_max: float
    gamma_used: float


@dataclass(frozen=True)
class EpochSnapshot:
    """Diagnostics after one epoch; ``mean_loss`` is the mean of the epoch's
    ``steps`` batch losses, each taken before its step, summed in step order."""

    epoch: int
    steps: int
    mean_loss: float
    train_error: float
    test_error: float
    excess_risk: float
    product_spectral_norms: float
    R_A: float
    margin_summary: MarginDigest


def init_network(cfg):
    """Glorot-uniform weights from the seeded generator; zero references.

    Hidden layers use ReLU, the output layer is linear (identity), so margins
    are read off the raw class scores.
    """
    widths = cfg.layer_widths
    rng = np.random.default_rng(cfg.seed)
    layers = []
    depth = len(widths) - 1
    for i in range(depth):
        fan_in, fan_out = widths[i], widths[i + 1]
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weight = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        nl = Identity() if i == depth - 1 else Relu()
        layers.append(Layer(weight=weight, nonlinearity=nl))
    return Network(layers=tuple(layers))


def loss_and_gradients(weights, x, y, l2_coefficient=0.0):
    """Softmax cross-entropy loss and per-layer weight gradients on one batch.

    ``weights`` is the list of (out x in) matrices of a ReLU net with a linear
    output layer; ``y`` holds 1-based labels.  The optional l2 term adds
    l2_coefficient * sum ||A_i||_2^2 to the loss.

    This is the reference for the fused step :func:`train` takes: that step
    must leave each weight at ``w - lr * g`` to within roundoff.
    """
    n = x.shape[0]
    activations = [x]
    pre = None
    for i, w in enumerate(weights):
        pre = activations[-1] @ w.T
        if i < len(weights) - 1:
            activations.append(np.maximum(pre, 0.0))
    logits = pre
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    idx = y - 1
    picked = probs[np.arange(n), idx]
    # log(0) = -inf is deliberate: a fully-underflowed correct-class
    # probability is a diverged state and must surface as a non-finite loss
    with np.errstate(divide="ignore"):
        loss = float(-np.mean(np.log(picked)))
    if l2_coefficient:
        for w in weights:
            loss += l2_coefficient * float(np.sum(w * w))

    grad_logits = probs.copy()
    grad_logits[np.arange(n), idx] -= 1.0
    grad_logits /= n
    grads = [None] * len(weights)
    delta = grad_logits
    for i in range(len(weights) - 1, -1, -1):
        grads[i] = delta.T @ activations[i]
        if l2_coefficient:
            grads[i] += 2.0 * l2_coefficient * weights[i]
        if i > 0:
            delta = (delta @ weights[i]) * (activations[i] > 0.0)
    return loss, grads


def _sgd_step(weights, x, y, lr, l2_coefficient, scratch):
    """One fused SGD step in place on ``weights``; returns the batch loss.

    The loss is that of :func:`loss_and_gradients` on the weights before the
    step (its l2 term summed by ``np.vdot``).  The softmax residual is scaled
    by lr/n once, each layer's next backprop factor is taken before that layer
    changes, l2 acts as the decay ``w *= 1 - 2*lr*l2``, and ``delta.T @ act``
    goes through ``scratch[i]`` (one buffer per weight) into ``w -=``.
    """
    n = x.shape[0]
    activations = [x]
    for i, w in enumerate(weights):
        pre = activations[-1] @ w.T
        if i < len(weights) - 1:
            activations.append(np.maximum(pre, 0.0))
    shifted = pre - pre.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    idx = y - 1
    picked = probs[np.arange(n), idx]
    with np.errstate(divide="ignore"):
        loss = float(-np.mean(np.log(picked)))
    if l2_coefficient:
        for w in weights:
            loss += l2_coefficient * float(np.vdot(w, w))

    delta = probs
    delta[np.arange(n), idx] -= 1.0
    delta *= lr / n
    decay = 1.0 - 2.0 * lr * l2_coefficient
    for i in range(len(weights) - 1, -1, -1):
        w = weights[i]
        next_delta = (delta @ w) * (activations[i] > 0.0) if i else None
        if l2_coefficient:
            w *= decay
        w -= np.matmul(delta.T, activations[i], out=scratch[i])
        delta = next_delta
    return loss


def _network_from_weights(weights):
    layers = []
    for i, w in enumerate(weights):
        nl = Identity() if i == len(weights) - 1 else Relu()
        layers.append(Layer(weight=w.copy(), nonlinearity=nl))
    return Network(layers=tuple(layers))


def _snapshot(epoch, steps, mean_loss, weights, train_ds, train_norm, test_ds):
    net = _network_from_weights(weights)
    train_outputs = net.forward(train_ds.X)
    train_err = _error_rate_of_outputs(train_outputs, train_ds.y)
    test_err = error_rate(net, test_ds)
    norms = layer_norms(net)
    product = 1.0
    for ln in norms:
        product *= ln.s
    r_a = spectral_complexity(norms)
    md = _margin_distribution_of_outputs(train_outputs, train_ds.y, r_a, train_norm)
    digest = MarginDigest(
        normalizer=md.normalizer,
        raw_mean=float(md.raw.mean()),
        normalized_mean=float(md.normalized.mean()),
        normalized_median=float(np.median(md.normalized)),
        normalized_min=float(md.normalized.min()),
        normalized_max=float(md.normalized.max()),
        gamma_used=md.gamma_used,
    )
    snap = EpochSnapshot(
        epoch=epoch,
        steps=steps,
        mean_loss=mean_loss,
        train_error=train_err,
        test_error=test_err,
        excess_risk=test_err - train_err,
        product_spectral_norms=product,
        R_A=r_a,
        margin_summary=digest,
    )
    return snap, net, md


def train(cfg, train_ds, test_ds, snapshot_hook=None):
    """Minibatch SGD with seeded shuffles; one EpochSnapshot per epoch.

    Applies the config's label/input randomization to the training set first
    (seeded by cfg.seed).  Raises a divergence error naming the epoch if the
    loss stops being finite.
    """
    if cfg.layer_widths[0] != train_ds.dim:
        raise ParameterError(
            f"config input width {cfg.layer_widths[0]} != data dim {train_ds.dim}"
        )
    if train_ds.k > cfg.layer_widths[-1] or test_ds.k > cfg.layer_widths[-1]:
        raise ParameterError("output width smaller than the number of classes")
    if test_ds.dim != train_ds.dim:
        raise ParameterError("train and test dims differ")

    if cfg.label_mode == "random_labels":
        train_ds = randomize_labels(train_ds, seed=cfg.seed)
    if cfg.input_mode == "gaussian_moment_matched":
        train_ds = randomize_inputs_gaussian(train_ds, seed=cfg.seed)

    net0 = init_network(cfg)
    weights = [layer.weight.copy() for layer in net0.layers]
    n = train_ds.n
    x = train_ds.X
    y = train_ds.y
    x_norm = frobenius_norm(x)
    scratch = [np.empty_like(w) for w in weights]
    snapshots = []
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, epoch]).permutation(n)
        loss_sum = 0.0
        steps = 0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss = _sgd_step(
                weights, x[batch], y[batch], cfg.learning_rate, cfg.l2_coefficient, scratch
            )
            if not math.isfinite(loss):
                raise TrainingDivergedError("loss is no longer finite", epoch=epoch)
            loss_sum += loss
            steps += 1
        snap, net, md = _snapshot(
            epoch, steps, loss_sum / steps, weights, train_ds, x_norm, test_ds
        )
        snapshots.append(snap)
        if snapshot_hook is not None:
            snapshot_hook(snap, net, md)
    return snapshots
