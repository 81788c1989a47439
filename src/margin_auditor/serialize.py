"""Input file readers, and JSON and CSV emission with floats printed at 17
significant digits.

Every input file is read through :func:`_read_input`, so a missing or
unreadable file is always an InputOutputError, and every JSON input through
:func:`_read_json`, so malformed JSON is always a ParseError.

The standard json encoder prints shortest round-trip floats; reports,
snapshots and CSVs instead pin 17 significant digits so goldens are
byte-stable across platforms and numpy versions.
"""

import itertools
import json
import math

import numpy as np

from .errors import InputOutputError, ParseError


def _read_input(path, what="file", size=-1):
    """The first ``size`` bytes (all when -1) of the input file ``what`` at ``path``."""
    try:
        with open(path, "rb") as f:
            return f.read(size)
    except OSError as exc:
        why = "not found" if isinstance(exc, FileNotFoundError) else f"unreadable ({exc.strerror})"
        raise InputOutputError(f"{what} {why}: {path}") from None


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
            raise ValueError(f"cannot serialize non-finite float {x!r}")
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
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(dumps_17g(obj))


def write_csv_17g(path, header, *columns):
    """Write a CSV: the ``header`` names, then one row per entry of ``columns``.

    Float columns print at 17 significant digits like the JSON floats above;
    integer columns, such as a row index, print as integers.
    """
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    values = tuple(itertools.chain.from_iterable(zip(*(c.tolist() for c in columns))))
    rows = len(values) // len(columns) if columns else 0
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n" + (row * rows) % values)
