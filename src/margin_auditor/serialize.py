"""File input and output, and JSON and CSV emission with floats printed at 17
significant digits.

Every file is read by :func:`_read_input` and written by :func:`_write_output`
(directories by :func:`_output_dir`), so one that cannot be read or written is
an InputOutputError; malformed JSON input (:func:`_read_json`) is a ParseError.

The standard json encoder prints shortest round-trip floats; reports,
snapshots and CSVs instead pin 17 significant digits so goldens are
byte-stable across platforms and numpy versions.
"""

import itertools
import json
import math
import os

import numpy as np

from .errors import InputOutputError, NumericDegeneracyError, ParseError


def _read_input(path, what="file", reader=None):
    """The bytes of the input file ``what`` at ``path``, or what ``reader``
    returns when called on the file opened for binary reading."""
    try:
        with open(path, "rb") as f:
            return f.read() if reader is None else reader(f)
    except OSError as exc:
        why = "not found" if isinstance(exc, FileNotFoundError) else f"unreadable ({exc.strerror})"
        raise InputOutputError(f"{what} {why}: {path}") from None


def _write_output(path, *chunks):
    """Write the bytes or str (as UTF-8) ``chunks`` in order to the file at ``path``."""
    try:
        with open(path, "wb") as f:
            f.writelines(c.encode("utf-8") if isinstance(c, str) else c for c in chunks)
    except OSError as exc:
        raise InputOutputError(f"cannot write ({exc.strerror}): {path}") from None


def _output_dir(path):
    """Make the output directory ``path`` and its parents if missing; returns ``path``."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise InputOutputError(f"cannot make directory ({exc.strerror}): {path}") from None
    return path


def _read_json(path, what):
    """The JSON document in the input file ``what`` at ``path``, decoded as UTF-8."""
    try:
        return json.loads(_read_input(path, what).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}", path=path) from None


def _render(obj, indent, level):
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f'{inner}"{key}": {_render(value, indent, level + 1)}'
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        parts = [f"{inner}{_render(value, indent, level + 1)}" for value in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise NumericDegeneracyError(f"cannot serialize non-finite float {x!r}")
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_17g(obj, indent=2):
    """Serialize to JSON with deterministic 17-significant-digit floats."""
    return _render(obj, indent, 0) + "\n"


def write_json_17g(path, obj):
    _write_output(path, dumps_17g(obj))


def write_csv_17g(path, header, *columns):
    """Write a CSV: the ``header`` names, then one row per entry of ``columns``.

    Float columns print at 17 significant digits like the JSON floats above;
    integer columns, such as a row index, print as integers.
    """
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    values = tuple(itertools.chain.from_iterable(zip(*(c.tolist() for c in columns))))
    rows = len(values) // len(columns) if columns else 0
    _write_output(path, ",".join(header) + "\n", (row * rows) % values)
