"""Exception hierarchy, and the argument and range checks shared across the
package; the CLI maps each class to a fixed process exit code."""

import numbers
import operator

import numpy as np

_BLOCK = 1 << 16  # entries per block of every blocked pass over an array
# Rows per block of the forward pass: at most 512, and at least 256 from 513
# rows up (see _row_blocks).  On OpenBLAS, blocks of 128 rows or more gave
# results bitwise equal to one whole GEMM, and 512-row blocks ran as fast as
# it; 32- and 64-row blocks differed in the low bits, and 64-row blocks ran
# up to 1.5x slower.
_GEMM_ROWS = 512


def _row_blocks(n, rows):
    """The (start, stop) pairs, in order, of the fewest blocks of at most ``rows``
    rows (at least one) that cover ``n`` rows, their lengths as equal as possible;
    every blocked pass over the data takes its blocks from here."""
    count = -(-n // max(rows, 1))
    for i in range(count):
        yield n * i // count, n * (i + 1) // count


class MarginAuditorError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InputOutputError(MarginAuditorError):
    """Missing or unreadable input file, or an output file that cannot be
    written (see ``serialize._write_output``)."""

    exit_code = 2


class ParseError(InputOutputError):
    """Malformed binary or JSON input; carries the byte offset where parsing failed."""

    def __init__(self, message, path=None, offset=None):
        if path is not None:
            message = f"{path}: {message}"
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.path = path
        self.offset = offset


class ParameterError(MarginAuditorError):
    """Argument outside its documented domain."""

    exit_code = 3


class DimensionError(ParameterError):
    """Shape mismatch or empty operand."""


class NumericDegeneracyError(MarginAuditorError):
    """Well-formed input on which the requested quantity is undefined or unreachable."""

    exit_code = 4


class DegenerateNetworkError(NumericDegeneracyError):
    """Network norms make the capacity formula undefined (some spectral norm is zero)."""


class TrainingDivergedError(MarginAuditorError):
    """Loss became non-finite during SGD; carries the epoch index."""

    exit_code = 5

    def __init__(self, message, epoch):
        super().__init__(f"{message} (epoch {epoch})")
        self.epoch = epoch


def _all_finite(a):
    """Whether every entry of ``a`` is finite.  An ``a`` of more than _BLOCK entries
    is scanned along its first axis in slices of at most _BLOCK entries (one row
    when a row is larger), so no copy or mask as large as it is made."""
    a = np.asarray(a)
    if a.size <= _BLOCK:
        return bool(np.isfinite(a).all())
    blocks = _row_blocks(len(a), _BLOCK // a[:1].size)
    return all(np.isfinite(a[start:stop]).all() for start, stop in blocks)


def _finite(value, what):
    """``value`` (a float or array), or a NumericDegeneracyError if ``what`` exceeds float64."""
    if not _all_finite(value):
        raise NumericDegeneracyError(f"{what} exceeds the float64 range")
    return value


def _is_number(value):
    """Whether ``value`` is a real number (a numpy scalar included) other than a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_positive(value, name):
    """ParameterError unless ``value`` is a number above 0; written so that NaN fails too."""
    if not (_is_number(value) and value > 0.0):
        raise ParameterError(f"{name} must be positive, got {value!r}")


def _check_at_least(value, low, name):
    """ParameterError unless ``value`` is a number >= ``low``; written so that NaN fails too."""
    if not (_is_number(value) and value >= low):
        raise ParameterError(f"{name} must be at least {low}, got {value!r}")


def _check_integer(value, name):
    """``value`` as an int; ParameterError unless it is an integer (numpy's
    included) other than a bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ParameterError(f"{name} must be an integer, got {value!r}")


def _check_count(value, low, name):
    """``value`` as an int (see :func:`_check_integer`); ParameterError unless
    it is at least ``low``."""
    value = _check_integer(value, name)
    _check_at_least(value, low, name)
    return value


def _check_labels(y, k, n):
    """(y as int64, k as int), or a ParameterError unless ``y`` holds one whole number
    in 1..k per row (no bool, string or NaN); integer labels need no float temporary."""
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != n:
        raise ParameterError("need exactly one label per example row")
    k = _check_count(k, 1, "label count k")
    whole = y.dtype.kind in "iu" or (y.dtype.kind == "f" and bool((y == np.trunc(y)).all()))
    if not (whole and y.min() >= 1 and y.max() <= k):
        raise ParameterError(f"labels must lie in 1..{k}")
    return y.astype(np.int64, copy=False), k
