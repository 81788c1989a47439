"""Exception hierarchy, and the argument checks shared across the package;
the CLI maps each class to a fixed process exit code."""

import operator


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


def _check_positive(value, name):
    """ParameterError unless ``value > 0``; written so that NaN fails too."""
    if not (value > 0.0):
        raise ParameterError(f"{name} must be positive, got {value!r}")


def _check_at_least(value, low, name):
    """ParameterError unless ``value >= low``; written so that NaN fails too."""
    if not (value >= low):
        raise ParameterError(f"{name} must be at least {low}, got {value}")


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
