"""Datasets: IDX ingestion, binary export, label/input randomization, and
deterministic synthetic generators."""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (_BLOCK, NumericDegeneracyError, ParameterError, ParseError, _check_count,
                     _check_integer, _finite, _row_blocks)
from .linalg import _scale_exponent, as_matrix, read_mat1, write_mat1
from .serialize import (_IDX_IMAGES, _IDX_LABELS, _LBL1, _header_fields, _read_container,
                        _read_input, _write_container)


@dataclass(frozen=True)
class Dataset:
    """Feature rows X (n x d) with 1-based integer labels in {1..k}."""

    X: np.ndarray
    y: np.ndarray
    k: int

    def __post_init__(self):
        self._adopt(as_matrix(self.X), self.y, self.k)

    @classmethod
    def _of_matrix(cls, x, y, k):
        """The Dataset of an ``x`` known to pass :func:`as_matrix` unchanged (a
        nonempty, finite, C-contiguous float64 matrix), without another pass
        over it; ``y`` and ``k`` are checked as usual."""
        ds = object.__new__(cls)
        ds._adopt(x, y, k)
        return ds

    def _adopt(self, x, y, k):
        """Check ``y`` and ``k`` against the validated matrix ``x``; set the fields."""
        y = np.asarray(y, dtype=np.int64)
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ParameterError("need exactly one label per example row")
        k = _check_count(k, 1, "label count k")
        if y.min() < 1 or y.max() > k:
            raise ParameterError(f"labels must lie in 1..{k}")
        for name, value in (("X", x), ("y", y), ("k", k)):
            object.__setattr__(self, name, value)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def dim(self):
        return self.X.shape[1]


def inspect_idx(path):
    """Header of an IDX file as a dict; distinguishes image and label files.
    The payload length is reported, not checked."""
    raw = _read_input(path)
    for kind, fmt in (("images", _IDX_IMAGES), ("labels", _IDX_LABELS)):
        if raw[:4] == fmt.magic or len(raw) < 4:  # under 4 bytes: a truncated header
            header = dict(zip(fmt.keys, _header_fields(raw, path, fmt)))
            return {"kind": kind, **header, "payload_bytes": len(raw) - struct.calcsize(fmt.header)}
    raise ParseError(f"unrecognized IDX magic {raw[:4]!r}", path=path, offset=0)


def load_idx(images_path, labels_path):
    """Parse an IDX image/label pair into a Dataset.

    Pixels are scaled to [0,1] by 1/255 and flattened to rows*cols features;
    byte labels are shifted to 1-based.  Malformed input raises a parse error
    naming the byte offset.
    """
    (n, rows, cols), x = _read_container(images_path, _IDX_IMAGES, divisor=255.0)
    if not x.size:
        raise ParseError(f"empty image set: {n} images of {rows}x{cols}", path=images_path)
    (count,), labels = _read_container(labels_path, _IDX_LABELS)
    if count != n:
        raise ParseError(f"label count {count} does not match image count {n}",
                         path=labels_path, offset=4)
    y = labels.astype(np.int64) + 1
    return Dataset._of_matrix(x, y, int(y.max()))  # bytes / 255 are finite


def write_idx(ds, images_path, labels_path, rows=1, cols=None):
    """Serialize a Dataset back to an IDX pair (pixels re-quantized to bytes).

    Round-trips exactly for datasets that came from :func:`load_idx`.
    """
    n, d = ds.X.shape
    rows = _check_count(rows, 1, "rows")
    cols = d // rows if cols is None else _check_integer(cols, "cols")
    if rows * cols != d:
        raise ParameterError(f"rows*cols={rows * cols} must equal feature dim {d}")
    if ds.k > 256:
        raise ParameterError("IDX labels are single bytes; need k <= 256")
    pixels = np.empty((n, d), np.uint8)
    for start, stop in _row_blocks(n, _BLOCK // d):
        block = np.clip(ds.X[start:stop], 0.0, 1.0)
        pixels[start:stop] = np.rint(block * 255.0)
    _write_container(images_path, _IDX_IMAGES, (n, rows, cols), pixels)
    _write_container(labels_path, _IDX_LABELS, (n,), ds.y - 1)


def save_dataset(ds, matrix_path, labels_path):
    """Dataset export: features as MAT1, labels as LBL1 (magic, u32 count, u32 k, u32 labels)."""
    write_mat1(matrix_path, ds.X)
    _write_container(labels_path, _LBL1, (ds.n, ds.k), ds.y)


def load_dataset(matrix_path, labels_path):
    """Inverse of :func:`save_dataset`.  X is the owned, aligned, writable array
    :func:`read_mat1` returns, checked for finiteness once; labels outside 1..k,
    or k < 1, are a parse error naming the labels file."""
    x = read_mat1(matrix_path)
    (count, k), y = _read_container(labels_path, _LBL1)
    if count != x.shape[0]:
        raise ParseError(f"label count {count} does not match row count {x.shape[0]}",
                         path=labels_path, offset=4)
    try:
        return Dataset._of_matrix(x, y, k)  # read_mat1 validated x
    except ParameterError as exc:
        raise ParseError(f"invalid LBL1 contents: {exc}", path=labels_path) from None


def randomize_labels(ds, seed=0):
    """Replace labels by iid uniform draws over {1..k}; features untouched."""
    rng = np.random.default_rng(_check_count(seed, 0, "seed"))
    y = rng.integers(1, ds.k + 1, size=ds.n)
    return Dataset._of_matrix(ds.X, y, ds.k)


def randomize_inputs_gaussian(ds, seed=0):
    """Replace the feature rows by Gaussian draws matching their mean and covariance.

    The empirical covariance gets a diagonal shrinkage of 1e-6 * trace/d so the
    Cholesky factorization is well-posed even with few samples.  X is prescaled
    by a power of two, so the draws scale exactly with X at any finite scale; a
    draw beyond the float64 range is a NumericDegeneracyError.
    """
    if ds.n < 2:
        raise ParameterError("need at least 2 examples to estimate input statistics")
    e = _scale_exponent(ds.X) or 0  # None for all-zero X
    x = np.ldexp(ds.X, -e)
    mu = x.mean(axis=0)
    centered = x - mu
    cov = centered.T @ centered / ds.n
    d = x.shape[1]
    lam = 1e-6 * float(np.trace(cov)) / d
    if lam <= 0.0:
        raise NumericDegeneracyError("all rows identical: covariance has zero trace")
    try:
        chol = np.linalg.cholesky(cov + lam * np.eye(d))
    except np.linalg.LinAlgError as exc:
        raise NumericDegeneracyError(f"covariance factorization failed: {exc}") from None
    rng = np.random.default_rng(_check_count(seed, 0, "seed"))
    z = rng.standard_normal((ds.n, d))
    with np.errstate(over="ignore"):
        draws = np.ldexp(mu + z @ chol.T, e)
    return Dataset._of_matrix(_finite(draws, "a Gaussian input draw"), ds.y.copy(), ds.k)


def synth_blobs(n, d, k, separation, seed=0):
    """k unit-covariance Gaussian clusters whose means have norm ``separation``.

    Labels are balanced round-robin; fully deterministic under the seed.
    """
    n, d, k = _check_integer(n, "n"), _check_count(d, 1, "d"), _check_count(k, 1, "k")
    if n < k:
        raise ParameterError(f"need n >= k, got n={n}, k={k}")
    rng = np.random.default_rng(_check_count(seed, 0, "seed"))
    means = rng.standard_normal((k, d))
    lens = np.sqrt(np.sum(means * means, axis=1))
    lens[lens == 0.0] = 1.0
    means = separation * means / lens[:, None]
    y = (np.arange(n) % k) + 1
    x = means[y - 1] + rng.standard_normal((n, d))
    return Dataset(X=x, y=y.astype(np.int64), k=k)


def synth_images(n, k=10, side=28, seed=0, smooth_noise=0.25, pixel_noise=0.15):
    """Deterministic image-like classes: smooth random prototypes plus noise.

    Each class has a fixed prototype obtained by bilinearly upsampling a seeded
    coarse random field to side x side; samples add a smooth per-sample field
    plus iid per-pixel noise (so every sample varies across all coordinates,
    like real image data) and are clipped to [0, 1].  Mimics the shape and
    pixel scale of handwritten-digit data for desk-scale experiments when real
    image data is not on disk.
    """
    n, k = _check_integer(n, "n"), _check_count(k, 1, "k")
    if n < k:
        raise ParameterError(f"need n >= k, got n={n}, k={k}")
    grid = 7
    rng = np.random.default_rng(_check_count(seed, 0, "seed"))
    interp = _bilinear_matrix(grid, side)
    protos = np.einsum("ag,kgh,bh->kab", interp, rng.standard_normal((k, grid, grid)), interp)
    protos = 0.5 + 0.5 * protos / np.abs(protos).max()
    protos = np.clip(protos, 0.05, 0.95)
    y = (np.arange(n) % k) + 1
    coarse = rng.standard_normal((n, grid, grid))
    samples = np.empty((n, side, side))
    for start, stop in _row_blocks(n, _BLOCK // (side * side)):  # one speckle stream
        block = slice(start, stop)
        fields = np.einsum("ag,ngh,bh->nab", interp, coarse[block], interp)
        speckle = rng.standard_normal(fields.shape)
        np.clip(protos[y[block] - 1] + smooth_noise * fields + pixel_noise * speckle, 0.0, 1.0,
                out=samples[block])
    return Dataset(X=samples.reshape(n, side * side), y=y.astype(np.int64), k=k)


def _bilinear_matrix(grid, side):
    pos = np.linspace(0.0, grid - 1.0, side)
    base = np.floor(pos).astype(np.int64)
    base = np.minimum(base, grid - 2)
    frac = pos - base
    mat = np.zeros((side, grid))
    mat[np.arange(side), base] = 1.0 - frac
    mat[np.arange(side), base + 1] = frac
    return mat
