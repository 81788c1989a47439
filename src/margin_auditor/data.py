"""Datasets: IDX ingestion, binary export, label/input randomization, and
deterministic synthetic generators."""

import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (_BLOCK, NumericDegeneracyError, ParameterError, ParseError, _check_count,
                     _check_integer, _finite, _row_blocks)
from .linalg import _mat1_contents, _scale_exponent, as_matrix, read_mat1
from .serialize import (_IDX_IMAGES, _IDX_LABELS, _LBL1, _MAT1, _check_payload, _container_header,
                        _header_fields, _opened, _read_container, _write_container)


@dataclass(frozen=True, init=False)
class Dataset:
    """Feature rows X (n x d) with 1-based integer labels in {1..k}.

    ``Dataset(X, y, k)`` holds X as float64.  A set from :func:`load_idx` holds
    its pixels as the file's bytes instead, 1 byte per entry against 8, and
    reads X as byte / 255.0 a row block at a time.  The library reads rows only
    through :meth:`_rows` and :meth:`_blocks`; ``X`` of a byte-held set is a new
    full-size float64 copy on each access, which the library itself never makes.
    """

    _x: np.ndarray  # X as float64, or the n x d pixel bytes of a byte-held set
    y: np.ndarray
    k: int

    def __init__(self, X, y, k):
        self._adopt(as_matrix(X), y, k)

    @classmethod
    def _of_matrix(cls, x, y, k):
        """The Dataset of an ``x`` known to pass :func:`as_matrix` unchanged (a
        nonempty, finite, C-contiguous float64 matrix), or of n x d pixel bytes,
        without another pass over it; ``y`` and ``k`` are checked as usual."""
        ds = object.__new__(cls)
        ds._adopt(x, y, k)
        return ds

    def _adopt(self, x, y, k):
        """Check ``y`` and ``k`` against the validated matrix ``x``; set the fields."""
        y, k = _checked_labels(y, k, x.shape[0])
        for name, value in (("_x", x), ("y", y), ("k", k)):
            object.__setattr__(self, name, value)

    @property
    def X(self):
        """The n x d float64 features; a byte-held set's are decoded into a new array."""
        return np.divide(self._x, 255.0) if self._x.dtype == np.uint8 else self._x

    @property
    def n(self):
        return self._x.shape[0]

    @property
    def dim(self):
        return self._x.shape[1]

    def _rows(self, rows, out=None):
        """The rows ``rows`` (a slice or an index array) of X as float64: a float64 set's
        indexed (a view for a slice), a byte-held set's decoded as byte / 255.0.  Given
        ``out`` (for a float64 set, with an index array in range) they are written into it
        with no other buffer: numpy's take buffers ``out`` unless its mode is "clip"."""
        if self._x.dtype == np.uint8:
            return np.divide(self._x[rows], 255.0, out=out)
        return self._x[rows] if out is None else self._x.take(rows, axis=0, out=out, mode="clip")

    def _blocks(self, rows):
        """(start, stop, X[start:stop] as float64) for each :func:`errors._row_blocks` block
        of at most ``rows`` rows, in order, a byte-held set's decoded into one buffer (of at
        least one row) that the next block reuses.  Every in-order row pass reads these."""
        buf = np.empty((min(self.n, max(rows, 1)), self.dim)) if self._x.dtype == np.uint8 else None
        for start, stop in _row_blocks(self.n, rows):
            out = None if buf is None else buf[: stop - start]
            yield start, stop, self._rows(slice(start, stop), out)


def _checked_labels(y, k, n):
    """(y as int64, k as int), or a ParameterError unless y holds a label in 1..k per row."""
    y = np.asarray(y, dtype=np.int64)
    if y.ndim != 1 or y.shape[0] != n:
        raise ParameterError("need exactly one label per example row")
    k = _check_count(k, 1, "label count k")
    if y.min() < 1 or y.max() > k:
        raise ParameterError(f"labels must lie in 1..{k}")
    return y, k


class _FeatureFile:
    """The regular features file at ``path`` (MAT1, else IDX images) and its labels
    as ``n``, ``dim``, ``y``, ``k`` and :meth:`_blocks`, all that ``margins._pass``
    reads of a Dataset, with no n x d array.  The header, the file's length and the
    labels are checked first, as the loaders check them; a non-finite MAT1 entry
    is found in its block."""

    def __init__(self, path, labels_path):
        with _opened(path) as f:
            self.fmt = _MAT1 if f.read(4) == _MAT1.magic else _IDX_IMAGES
            f.seek(0)
            fields, (self.n, self.dim), self.length = _container_header(f, path, self.fmt)
        if self.fmt is _MAT1 and not self.n * self.dim:
            _mat1_contents(np.empty((self.n, self.dim)), path)  # raises: an empty matrix
        self.y, self.k = (_lbl1_labels(labels_path, self.n) if self.fmt is _MAT1
                          else _idx_labels(path, fields, labels_path))
        self.path = path

    def _blocks(self, rows):
        """:meth:`Dataset._blocks` of the file: each block read into one reused buffer,
        then checked for finiteness (MAT1) or decoded as byte / 255.0 into another (IDX)."""
        raw = np.empty((min(self.n, max(rows, 1)), self.dim), self.fmt.dtype)
        decoded = None if self.fmt is _MAT1 else np.empty(raw.shape)
        with _opened(self.path) as f:
            f.seek(struct.calcsize(self.fmt.header))
            for start, stop in _row_blocks(self.n, rows):
                block = raw[: stop - start]
                if f.readinto(block) < block.nbytes:  # cut short since the header was read
                    _check_payload(f.tell(), self.length, self.path, self.fmt.name)
                yield start, stop, (_mat1_contents(block, self.path) if decoded is None
                                    else np.divide(block, 255.0, out=decoded[: stop - start]))


def inspect_idx(path):
    """Header of an IDX file as a dict; distinguishes image and label files.
    The payload length is reported, not checked: a regular file's from its
    size, a pipe's counted a block at a time; only the header is kept."""
    with _opened(path) as f:
        head = f.read(struct.calcsize(_IDX_IMAGES.header))  # the longer header
        st = os.fstat(f.fileno())
        length = st.st_size
        if not stat.S_ISREG(st.st_mode):
            length, buf = len(head), bytearray(_BLOCK)
            while got := f.readinto(buf):
                length += got
    for kind, fmt in (("images", _IDX_IMAGES), ("labels", _IDX_LABELS)):
        if head[:4] == fmt.magic or len(head) < 4:  # under 4 bytes: a truncated header
            header = dict(zip(fmt.keys, _header_fields(head, path, fmt)))
            return {"kind": kind, **header, "payload_bytes": length - struct.calcsize(fmt.header)}
    raise ParseError(f"unrecognized IDX magic {head[:4]!r}", path=path, offset=0)


def load_idx(images_path, labels_path):
    """Parse an IDX image/label pair into a Dataset that holds the pixel bytes.

    Each image's pixels are one row of rows*cols features, read as byte / 255.0
    in [0, 1] (see :class:`Dataset`); byte labels are shifted to 1-based.
    Malformed input raises a parse error naming the byte offset.
    """
    fields, pixels = _read_container(images_path, _IDX_IMAGES)
    y, k = _idx_labels(images_path, fields, labels_path)
    return Dataset._of_matrix(pixels, y, k)  # bytes / 255 are finite


def _idx_labels(images_path, fields, labels_path):
    """(y, k) from the IDX labels at ``labels_path`` for the image header ``fields``;
    an empty image set or a count other than the image count is a ParseError."""
    n, rows, cols = fields
    if not n * rows * cols:
        raise ParseError(f"empty image set: {n} images of {rows}x{cols}", path=images_path)
    (count,), labels = _read_container(labels_path, _IDX_LABELS)
    if count != n:
        raise ParseError(f"label count {count} does not match image count {n}",
                         path=labels_path, offset=4)
    y = labels.astype(np.int64) + 1
    return y, int(y.max())


def write_idx(ds, images_path, labels_path, rows=1, cols=None):
    """Serialize a Dataset back to an IDX pair (pixels re-quantized to bytes).

    Round-trips exactly for datasets that came from :func:`load_idx`.
    """
    n, d = ds.n, ds.dim
    rows = _check_count(rows, 1, "rows")
    cols = d // rows if cols is None else _check_integer(cols, "cols")
    if rows * cols != d:
        raise ParameterError(f"rows*cols={rows * cols} must equal feature dim {d}")
    if ds.k > 256:
        raise ParameterError("IDX labels are single bytes; need k <= 256")
    blocks = (np.rint(np.clip(block, 0.0, 1.0) * 255.0) for _, _, block in ds._blocks(_BLOCK // d))
    _write_container(images_path, _IDX_IMAGES, (n, rows, cols), blocks)
    _write_container(labels_path, _IDX_LABELS, (n,), [ds.y - 1])


def save_dataset(ds, matrix_path, labels_path):
    """Dataset export: features as MAT1, labels as LBL1 (magic, u32 count, u32 k, u32 labels)."""
    blocks = (block for _, _, block in ds._blocks(_BLOCK // ds.dim))
    _write_container(matrix_path, _MAT1, (ds.n, ds.dim), blocks)
    _write_container(labels_path, _LBL1, (ds.n, ds.k), [ds.y])


def load_dataset(matrix_path, labels_path):
    """Inverse of :func:`save_dataset`.  X is the owned, aligned, writable array
    :func:`read_mat1` returns, checked for finiteness once; labels outside 1..k,
    or k < 1, are a parse error naming the labels file."""
    x = read_mat1(matrix_path)
    return Dataset._of_matrix(x, *_lbl1_labels(labels_path, x.shape[0]))  # read_mat1 validated x


def _lbl1_labels(labels_path, n):
    """(y, k) of the LBL1 file at ``labels_path`` for ``n`` rows, else a ParseError."""
    (count, k), y = _read_container(labels_path, _LBL1)
    if count != n:
        raise ParseError(f"label count {count} does not match row count {n}",
                         path=labels_path, offset=4)
    try:
        return _checked_labels(y, k, n)
    except ParameterError as exc:
        raise ParseError(f"invalid LBL1 contents: {exc}", path=labels_path) from None


def randomize_labels(ds, seed=0):
    """Replace labels by iid uniform draws over {1..k}; the features are shared."""
    rng = np.random.default_rng(_check_count(seed, 0, "seed"))
    y = rng.integers(1, ds.k + 1, size=ds.n)
    return Dataset._of_matrix(ds._x, y, ds.k)


def randomize_inputs_gaussian(ds, seed=0):
    """Replace the feature rows by Gaussian draws matching their mean and covariance.

    The empirical covariance gets a diagonal shrinkage of 1e-6 * trace/d so the
    Cholesky factorization is well-posed even with few samples.  X is prescaled
    by a power of two, so the draws scale exactly with X at any finite scale; a
    draw beyond the float64 range is a NumericDegeneracyError.
    """
    if ds.n < 2:
        raise ParameterError("need at least 2 examples to estimate input statistics")
    d = ds.dim
    x = np.empty((ds.n, d))  # X, then 2**-e * X centred in place
    for start, stop, block in ds._blocks(_BLOCK // d):
        x[start:stop] = block
    e = _scale_exponent(x) or 0  # None for all-zero X
    np.ldexp(x, -e, out=x)
    mu = x.mean(axis=0)
    x -= mu
    cov = x.T @ x / ds.n
    del x
    lam = 1e-6 * float(np.trace(cov)) / d
    if lam <= 0.0:
        raise NumericDegeneracyError("all rows identical: covariance has zero trace")
    try:
        chol = np.linalg.cholesky(cov + lam * np.eye(d))
    except np.linalg.LinAlgError as exc:
        raise NumericDegeneracyError(f"covariance factorization failed: {exc}") from None
    rng = np.random.default_rng(_check_count(seed, 0, "seed"))
    draws = rng.standard_normal((ds.n, d)) @ chol.T
    draws += mu
    with np.errstate(over="ignore"):
        np.ldexp(draws, e, out=draws)
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
    n, k, side = _check_integer(n, "n"), _check_count(k, 1, "k"), _check_count(side, 1, "side")
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
