"""Datasets: IDX ingestion, binary export, label/input randomization, and
deterministic synthetic generators."""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import NumericDegeneracyError, ParameterError, ParseError, _check_count, _check_integer
from .linalg import _check_payload, _scale_exponent, as_matrix, read_mat1, write_mat1
from .serialize import _read_input, _write_output

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
LBL1_MAGIC = b"LBL1"
# magic: (kind, the u32 header fields after the magic as (key, name in errors))
_IDX_HEADERS = {
    IDX_IMAGES_MAGIC: ("images", (("count", "image count"), ("rows", "row count"),
                                  ("cols", "column count"))),
    IDX_LABELS_MAGIC: ("labels", (("count", "label count"),)),
}


@dataclass(frozen=True)
class Dataset:
    """Feature rows X (n x d) with 1-based integer labels in {1..k}."""

    X: np.ndarray
    y: np.ndarray
    k: int

    def __post_init__(self):
        x = as_matrix(self.X)
        y = np.asarray(self.y, dtype=np.int64)
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ParameterError("need exactly one label per example row")
        object.__setattr__(self, "k", _check_count(self.k, 1, "label count k"))
        if y.min() < 1 or y.max() > self.k:
            raise ParameterError(f"labels must lie in 1..{self.k}")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def dim(self):
        return self.X.shape[1]


def _be_u32(raw, offset, path, what):
    if len(raw) < offset + 4:
        raise ParseError(f"truncated before {what}", path=path, offset=len(raw))
    return struct.unpack_from(">I", raw, offset)[0]


def _idx_header(raw, path, want=None):
    """(kind, {key: value} of the u32 header fields) of an IDX file's bytes;
    a magic other than ``want``, when given, is a parse error at byte 0."""
    magic = _be_u32(raw, 0, path, "magic")
    if want is not None and magic != want:
        raise ParseError(f"bad IDX magic 0x{magic:08x}, expected 0x{want:08x}",
                         path=path, offset=0)
    if magic not in _IDX_HEADERS:
        raise ParseError(f"unrecognized IDX magic 0x{magic:08x}", path=path, offset=0)
    kind, fields = _IDX_HEADERS[magic]
    return kind, {key: _be_u32(raw, 4 + 4 * i, path, noun) for i, (key, noun) in enumerate(fields)}


def inspect_idx(path):
    """Header of an IDX file as a dict; distinguishes image and label files."""
    raw = _read_input(path)
    kind, header = _idx_header(raw, path)
    return {"kind": kind, **header, "payload_bytes": len(raw) - 4 - 4 * len(header)}


def load_idx(images_path, labels_path):
    """Parse an IDX image/label pair into a Dataset.

    Pixels are scaled to [0,1] by 1/255 and flattened to rows*cols features;
    byte labels are shifted to 1-based.  Malformed input raises a parse error
    naming the byte offset.
    """
    raw = _read_input(images_path)
    header = _idx_header(raw, images_path, want=IDX_IMAGES_MAGIC)[1]
    n, rows, cols = header["count"], header["rows"], header["cols"]
    if not n * rows * cols:
        raise ParseError(f"empty image set: {n} images of {rows}x{cols}", path=images_path)
    _check_payload(raw, 16 + n * rows * cols, images_path, "image")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=n * rows * cols, offset=16)
    x = np.divide(pixels.reshape(n, rows * cols), 255.0)  # one float64 pass

    lraw = _read_input(labels_path)
    ln = _idx_header(lraw, labels_path, want=IDX_LABELS_MAGIC)[1]["count"]
    if ln != n:
        raise ParseError(
            f"label count {ln} does not match image count {n}", path=labels_path, offset=4
        )
    _check_payload(lraw, 8 + ln, labels_path, "label")
    labels = np.frombuffer(lraw, dtype=np.uint8, count=ln, offset=8).astype(np.int64) + 1
    k = max(int(labels.max()), 1)
    return Dataset(X=x, y=labels, k=k)


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
    pixels = np.rint(np.clip(ds.X, 0.0, 1.0) * 255.0).astype(np.uint8)
    _write_output(images_path, struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols),
                  pixels.tobytes(order="C"))
    _write_output(labels_path, struct.pack(">II", IDX_LABELS_MAGIC, n),
                  (ds.y - 1).astype(np.uint8).tobytes())


def save_dataset(ds, matrix_path, labels_path):
    """Dataset export: features as MAT1, labels as LBL1 (magic, u32 count, u32 k, u32 labels)."""
    write_mat1(matrix_path, ds.X)
    _write_output(labels_path, LBL1_MAGIC, struct.pack("<II", ds.n, ds.k),
                  ds.y.astype("<u4").tobytes())


def load_dataset(matrix_path, labels_path):
    """Inverse of :func:`save_dataset`."""
    x = read_mat1(matrix_path)
    raw = _read_input(labels_path)
    if len(raw) < 12:
        raise ParseError("LBL1 header truncated", path=labels_path, offset=len(raw))
    if raw[:4] != LBL1_MAGIC:
        raise ParseError(f"bad LBL1 magic {raw[:4]!r}", path=labels_path, offset=0)
    count, k = struct.unpack_from("<II", raw, 4)
    if count != x.shape[0]:
        raise ParseError(f"label count {count} does not match row count {x.shape[0]}",
                         path=labels_path, offset=4)
    _check_payload(raw, 12 + 4 * count, labels_path, "LBL1")
    y = np.frombuffer(raw, dtype="<u4", count=count, offset=12).astype(np.int64)
    return Dataset(X=x, y=y, k=int(k))


def randomize_labels(ds, seed=0):
    """Replace labels by iid uniform draws over {1..k}; features untouched."""
    rng = np.random.default_rng(seed)
    y = rng.integers(1, ds.k + 1, size=ds.n)
    return Dataset(X=ds.X, y=y.astype(np.int64), k=ds.k)


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
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((ds.n, d))
    with np.errstate(over="ignore"):
        draws = np.ldexp(mu + z @ chol.T, e)
    if not np.all(np.isfinite(draws)):
        raise NumericDegeneracyError("Gaussian input draws exceed the float64 range")
    return Dataset(X=draws, y=ds.y.copy(), k=ds.k)


def synth_blobs(n, d, k, separation, seed=0):
    """k unit-covariance Gaussian clusters whose means have norm ``separation``.

    Labels are balanced round-robin; fully deterministic under the seed.
    """
    n, d, k = _check_integer(n, "n"), _check_count(d, 1, "d"), _check_count(k, 1, "k")
    if n < k:
        raise ParameterError(f"need n >= k, got n={n}, k={k}")
    rng = np.random.default_rng(seed)
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
    rng = np.random.default_rng(seed)
    interp = _bilinear_matrix(grid, side)
    protos = np.einsum("ag,kgh,bh->kab", interp, rng.standard_normal((k, grid, grid)), interp)
    protos = 0.5 + 0.5 * protos / np.abs(protos).max()
    protos = np.clip(protos, 0.05, 0.95)
    y = (np.arange(n) % k) + 1
    fields = np.einsum(
        "ag,ngh,bh->nab", interp, rng.standard_normal((n, grid, grid)), interp
    )
    speckle = rng.standard_normal((n, side, side))
    samples = np.clip(protos[y - 1] + smooth_noise * fields + pixel_noise * speckle, 0.0, 1.0)
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
