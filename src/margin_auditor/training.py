"""Deterministic vanilla-SGD training of dense ReLU classifiers with
per-epoch diagnostic snapshots, which :func:`epochs` yields.

The loss is softmax cross-entropy; the only randomness is the seeded weight
initialization, the seeded per-epoch shuffles, and any seeded label/input
randomization requested by the config.  Two runs with the same config and
data produce bitwise-identical snapshots.

The steps run in flush blocks, and :func:`_sgd_block` is the one routine
that takes them.  Within a block each layer's weight is held as ``scale *
(W - D.T @ A)`` with the pending rows of lr/n-scaled residuals D and layer
inputs A, and l2 decay multiplies the scalar ``scale`` instead of the
weights; after the block's last step one GEMM per layer folds its rows into
W, so a batch-4 step reads the weights but writes none of them (the
compact-WY idea of Schreiber & Van Loan, 1989, with the ``w = s * v`` decay
of Bottou, 2012).  :func:`_block_rows` fixes the block length once per run:
as many steps as fit in 64 rows, fewer if the scale would leave its range
sooner.  An epoch's last block ends with the epoch, before the snapshot.
:func:`loss_and_gradients` is the eager reference for the step.
"""

import math
from dataclasses import dataclass

import numpy as np

from .complexity import _norms_and_margins
from .data import randomize_inputs_gaussian, randomize_labels
from .errors import (NumericDegeneracyError, ParameterError, ParseError, TrainingDivergedError,
                     _check_at_least, _check_count, _check_integer, _check_positive)
from .margins import _error_rate_of_outputs, _pass, error_rate
from .network import Identity, Layer, Network, Relu
from .serialize import _read_json

LABEL_MODES = ("true_labels", "random_labels")
INPUT_MODES = ("true_inputs", "gaussian_moment_matched")

# Pending rows per layer before a flush: 16 batch-4 steps.
_PENDING_ROWS = 64
# The lazy scale is folded into W before it leaves this range, so dividing a
# residual by it can neither overflow nor underflow.
_SCALE_MIN, _SCALE_MAX = 2.0**-64, 2.0**64


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
        try:
            widths = tuple(_check_integer(w, "each layer width") for w in self.layer_widths)
        except TypeError:
            raise ParameterError(f"layer_widths must be a list, got {self.layer_widths!r}") from None
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ParameterError("layer_widths must chain input dim to class count")
        for name, low in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            object.__setattr__(self, name, _check_count(getattr(self, name), low, name))
        _check_positive(self.learning_rate, "learning_rate")
        _check_at_least(self.l2_coefficient, 0.0, "l2_coefficient")
        decay = 1.0 - 2.0 * self.learning_rate * self.l2_coefficient
        if not _SCALE_MIN <= abs(decay) <= _SCALE_MAX:
            raise ParameterError("the l2 decay 1 - 2*learning_rate*l2_coefficient must lie in "
                                 f"+-[2**-64, 2**64], the lazy scale's range, got {decay!r}")
        if self.label_mode not in LABEL_MODES:
            raise ParameterError(f"label_mode must be one of {LABEL_MODES}")
        if self.input_mode not in INPUT_MODES:
            raise ParameterError(f"input_mode must be one of {INPUT_MODES}")
        object.__setattr__(self, "layer_widths", widths)

    @classmethod
    def from_json(cls, path):
        doc = _read_json(path, "config")
        if not isinstance(doc, dict):
            raise ParseError("config must be a JSON object", path=path)
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


def _softmax_residual(logits, y):
    """Mean softmax cross-entropy of ``logits`` against the 1-based labels
    ``y``, and the residual ``probs - onehot(y)`` as a new array."""
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    rows, idx = np.arange(n), y - 1
    # log(0) = -inf is deliberate: a fully-underflowed correct-class
    # probability is a diverged state and must surface as a non-finite loss
    with np.errstate(divide="ignore"):
        loss = float(-np.mean(np.log(probs[rows, idx])))
    probs[rows, idx] -= 1.0
    return loss, probs


def loss_and_gradients(weights, x, y, l2_coefficient=0.0):
    """Softmax cross-entropy loss and per-layer weight gradients on one batch.

    ``weights`` is the list of (out x in) matrices of a ReLU net with a linear
    output layer; ``y`` holds 1-based labels.  The optional l2 term adds
    l2_coefficient * sum ||A_i||_2^2 to the loss.

    This is the reference for the deferred step :func:`epochs` takes: after
    each step the effective weights must equal ``w - lr * g`` to within
    roundoff.  It runs its own forward pass on plain matrices, so it does not
    share the deferred algebra it checks.
    """
    activations = [x]
    pre = None
    for i, w in enumerate(weights):
        pre = activations[-1] @ w.T
        if i < len(weights) - 1:
            activations.append(np.maximum(pre, 0.0))
    loss, delta = _softmax_residual(pre, y)
    if l2_coefficient:
        for w in weights:
            loss += l2_coefficient * float(np.sum(w * w))

    delta /= x.shape[0]
    grads = [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        grads[i] = delta.T @ activations[i]
        if l2_coefficient:
            grads[i] += 2.0 * l2_coefficient * weights[i]
        if i > 0:
            delta = (delta @ weights[i]) * (activations[i] > 0.0)
    return loss, grads


def _block_rows(step, decay):
    """Rows in a flush block of ``step``-row batches: as many steps as fit in
    ``max(_PENDING_ROWS, step)`` rows, fewer if the scale ``decay**j`` would
    sooner leave its range; at least one, as TrainConfig keeps ``decay`` in it."""
    k, c = 0, 1.0
    while k < max(_PENDING_ROWS, step) // step and _SCALE_MIN <= abs(c * decay) <= _SCALE_MAX:
        k, c = k + 1, c * decay
    return k * step


def _sgd_block(weights, residuals, inputs, y, step, lr, l2, decay):
    """Deferred SGD steps over one flush block: the first ``len(y)`` rows of
    ``inputs[0]`` with labels ``y``, in ``step``-row batches (the last may be
    short).  Yields each step's batch loss on the effective weights before
    it, with the pending row count p and scale c after it; resumed after the
    last step, it folds the block into W by ``W <- c * (W - D[:p].T @
    A[:p])``, one GEMM per layer.

    That expression is each layer's effective weight, for its rows of
    ``residuals`` D (``delta / c`` per step) and ``inputs`` A.  Forward and
    backprop use ``c * (act @ W.T - (act @ A.T) @ D)`` and ``c * (delta @ W -
    (delta @ D.T) @ A)``, layer 0 from ``base = A_0 @ W_0.T`` and ``gram =
    A_0 @ A_0.T``, two GEMMs at the block's start.  A step multiplies c by
    ``decay = 1 - 2*lr*l2``, which TrainConfig keeps inside the scale's
    range, and writes no weight.  With l2 the loss adds ``l2 * ||W_eff||^2``
    per layer, taken exactly at the block's start and then tracked as
    ``||decay*W_eff - U||^2`` for ``U = delta.T @ act``, with ``<W_eff, U> =
    <delta, pre-activation>``.
    """
    m = len(y)
    a0 = inputs[0][:m]
    base = a0 @ weights[0].T
    # the last step reads the rows before its own, and its own for l2
    gram = a0 @ a0[: m if l2 else (m - 1) // step * step].T
    sqs = [float(np.vdot(w, w)) for w in weights] if l2 else None
    p, c = 0, 1.0
    while p < m:
        yb = y[p : p + step]
        n = len(yb)
        new_c = c * decay
        new = slice(p, p + n)
        pres = []
        for i, w in enumerate(weights):
            act = inputs[i][new]
            if i:
                pre = act @ w.T
                pre -= (act @ inputs[i][:p].T) @ residuals[i][:p]
            else:
                pre = gram[new, :p] @ residuals[0][:p]
                np.subtract(base[new], pre, out=pre)
            pre *= c
            pres.append(pre)
            if i < len(weights) - 1:
                np.maximum(pre, 0.0, out=inputs[i + 1][new])
        loss, delta = _softmax_residual(pre, yb)
        if l2:
            for sq in sqs:
                loss += l2 * sq

        delta *= lr / n
        for i in range(len(weights) - 1, -1, -1):
            w, act = weights[i], inputs[i][new]
            if i:
                back = delta @ w
                back -= (delta @ residuals[i][:p].T) @ inputs[i][:p]
                back *= c
                next_delta = np.multiply(back, act > 0.0, out=back)
            if l2:
                u_sq = float(np.vdot(delta @ delta.T, act @ act.T if i else gram[new, new]))
                cross = float(np.vdot(delta, pres[i]))
                sqs[i] = decay * decay * sqs[i] - 2.0 * decay * cross + u_sq
            np.divide(delta, new_c, out=residuals[i][new])
            delta = next_delta if i else None
        p, c = p + n, new_c
        yield loss, p, c
    for w, d, a in zip(weights, residuals, inputs):
        w -= d[:p].T @ a[:p]
        if c != 1.0:
            w *= c


def _snapshot(epoch, steps, mean_loss, layers, weights, train_ds, train_norm, test_ds):
    copies = (Layer(weight=w.copy(), nonlinearity=l.nonlinearity) for l, w in zip(layers, weights))
    net = Network(layers=tuple(copies))
    train_outputs = _pass(train_ds, net)[0]
    train_err = _error_rate_of_outputs(train_outputs, train_ds.y)
    test_err = error_rate(net, test_ds)
    norms, _, r_a, md = _norms_and_margins(net, train_outputs, train_ds.y, train_norm)
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
        product_spectral_norms=math.prod(ln.s for ln in norms),
        R_A=r_a,
        margin_summary=digest,
    )
    return snap, net, md


def epochs(cfg, train_ds, test_ds):
    """Minibatch SGD with seeded shuffles, yielding ``(EpochSnapshot, Network,
    MarginDistribution)`` after each epoch; the net owns a copy of the weights,
    and a caller stops the run with ``break``.  Checks run at the first ``next()``.

    Applies the config's label/input randomization to the training set first
    (seeded by cfg.seed).  A loss that stops being finite, and any numeric
    degeneracy in a snapshot (its R_A and margins come from the core that
    ``analyze`` uses), raise an error of their own class naming the epoch.
    """
    _check_count(train_ds.n, 2, "training set rows")
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
    y = train_ds.y
    x_norm = _pass(train_ds, norm=True)[1]  # so a norm beyond float64 fails before any step
    lr, l2 = cfg.learning_rate, cfg.l2_coefficient
    step = min(cfg.batch_size, n)
    decay = 1.0 - 2.0 * lr * l2
    block_rows = _block_rows(step, decay)
    residuals = [np.empty((block_rows, w.shape[0])) for w in weights]
    inputs = [np.empty((block_rows, w.shape[1])) for w in weights]
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, epoch]).permutation(n)
        loss_sum = 0.0
        steps = 0
        for lo in range(0, n, block_rows):
            block = order[lo : lo + block_rows]
            train_ds._rows(block, inputs[0][: len(block)])  # A_0 of the block
            for loss, _, _ in _sgd_block(weights, residuals, inputs, y[block], step, lr, l2, decay):
                if not math.isfinite(loss):
                    raise TrainingDivergedError("loss is no longer finite", epoch=epoch)
                loss_sum += loss
                steps += 1
        try:
            snap, net, md = _snapshot(epoch, steps, loss_sum / steps, net0.layers, weights,
                                      train_ds, x_norm, test_ds)
        except NumericDegeneracyError as exc:
            raise type(exc)(f"{exc} (epoch {epoch})") from None
        yield snap, net, md


def train(cfg, train_ds, test_ds):
    """The EpochSnapshot of every epoch of :func:`epochs`, in order."""
    return [snap for snap, _, _ in epochs(cfg, train_ds, test_ds)]
