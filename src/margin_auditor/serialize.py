"""File input and output, the binary containers, and JSON and CSV emission
with floats printed at 17 significant digits.

Every file is read through :func:`_opened` and written by :func:`_write_output`
(directories by :func:`_output_dir`), so one that cannot be read or written is
an InputOutputError; malformed JSON input (:func:`_read_json`) is a ParseError.
The MAT1, LBL1 and IDX formats are each one ``_Container`` entry, read by
:func:`_read_container` (or a row block at a time after :func:`_container_header`)
and written by :func:`_write_container`.

The standard json encoder prints shortest round-trip floats; reports,
snapshots and CSVs instead pin 17 significant digits so goldens are
byte-stable across platforms and numpy versions.
"""

import contextlib
import io
import itertools
import json
import math
import os
import stat
import struct
from collections import namedtuple

import numpy as np

from .errors import InputOutputError, NumericDegeneracyError, ParseError, _all_finite


@contextlib.contextmanager
def _opened(path, what="file"):
    """The input file ``what`` at ``path``, open for binary reading; OSError as InputOutputError."""
    try:
        with open(path, "rb") as f:
            yield f
    except OSError as exc:
        why = "not found" if isinstance(exc, FileNotFoundError) else f"unreadable ({exc.strerror})"
        raise InputOutputError(f"{what} {why}: {path}") from None


def _write_output(path, chunks):
    """Write the iterable ``chunks`` in order to the file at ``path``: str as
    UTF-8, any other chunk (bytes, or a C-contiguous array) as its buffer's bytes."""
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


# A binary file: the ``header`` struct (the 4-byte ``magic``, then u32 fields named
# by ``keys``), then ``shape(*fields)`` payload values of ``dtype``, row major.
_Container = namedtuple("_Container", "name magic header keys dtype shape")
_MAT1 = _Container("MAT1", b"MAT1", "<4sII", ("rows", "cols"), "<f8", lambda r, c: (r, c))
_LBL1 = _Container("LBL1", b"LBL1", "<4sII", ("count", "k"), "<u4", lambda n, k: (n,))
_IDX_IMAGES = _Container("IDX image", b"\0\0\x08\x03", ">4sIII", ("count", "rows", "cols"),
                         "u1", lambda n, r, c: (n, r * c))
_IDX_LABELS = _Container("IDX label", b"\0\0\x08\x01", ">4sI", ("count",), "u1", lambda n: (n,))


def _header_fields(head, path, fmt):
    """The u32 header fields at the start of the bytes ``head`` of a ``fmt``
    file; a bad magic is reported at byte 0 once 4 bytes are in."""
    if len(head) >= 4 and head[:4] != fmt.magic:
        raise ParseError(f"bad {fmt.name} magic {head[:4]!r}", path=path, offset=0)
    if len(head) < struct.calcsize(fmt.header):
        raise ParseError(f"{fmt.name} header truncated", path=path, offset=len(head))
    return struct.unpack_from(fmt.header, head)[1:]


def _check_payload(length, expected, path, what):
    """Parse error unless a file of ``length`` bytes is exactly ``expected`` long."""
    if length != expected:
        raise ParseError(f"{what} file has {length} bytes, expected {expected}",
                         path=path, offset=min(length, expected))


def _container_header(f, path, fmt):
    """(header fields, payload shape, file length) of the ``fmt`` file ``f``, read up to
    its payload; a regular file's length is checked against the header's here."""
    start = struct.calcsize(fmt.header)
    fields = _header_fields(f.read(start), path, fmt)
    shape = fmt.shape(*fields)
    length = start + np.dtype(fmt.dtype).itemsize * math.prod(shape)
    st = os.fstat(f.fileno())
    if stat.S_ISREG(st.st_mode):
        _check_payload(st.st_size, length, path, fmt.name)
    return fields, shape, length


def _read_container(path, fmt, what="file"):
    """(header fields, payload array) of the ``fmt`` file at ``path``, unvalidated.
    The file's length is checked before the payload is allocated: a regular
    file's from its size, a pipe's from its bytes, taken as they arrive, so no
    header's claim alone sizes an allocation.  Either is then read straight
    into an owned, aligned array of the format's dtype."""
    with _opened(path, what) as f:
        fields, shape, expected = _container_header(f, path, fmt)
        start = struct.calcsize(fmt.header)
        if not stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            rest = f.read()
            _check_payload(start + len(rest), expected, path, fmt.name)
            f = io.BytesIO(rest)
        payload = np.empty(shape, fmt.dtype)
        _check_payload(start + f.readinto(payload), expected, path, fmt.name)
        return fields, payload


def _write_container(path, fmt, fields, blocks):
    """Write a ``fmt`` file whose header holds ``fields`` and whose payload is the
    arrays of the iterable ``blocks`` in order, each taken as it comes; a
    C-contiguous block already of the format's dtype is written from its own
    buffer, without a copy."""
    header = struct.pack(fmt.header, fmt.magic, *fields)
    _write_output(path, itertools.chain([header], (np.ascontiguousarray(b, fmt.dtype)
                                                   for b in blocks)))


def _read_json(path, what):
    """The JSON document in the input file ``what`` at ``path``, decoded as UTF-8."""
    with _opened(path, what) as f:
        try:
            return json.loads(f.read().decode("utf-8"))
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
    _write_output(path, [dumps_17g(obj)])


def write_csv_17g(path, header, *columns):
    """Write a CSV: the ``header`` names, then one row per entry of ``columns``.

    Float columns print at 17 significant digits like the JSON floats above;
    integer columns, such as a row index, print as integers.  A non-finite
    float is a NumericDegeneracyError, raised before the file is opened.
    """
    columns = [np.asarray(c) for c in columns]
    if any(c.dtype.kind == "f" and not _all_finite(c) for c in columns):
        raise NumericDegeneracyError(f"cannot serialize non-finite floats to {path}")
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    values = tuple(itertools.chain.from_iterable(zip(*(c.tolist() for c in columns))))
    rows = len(values) // len(columns) if columns else 0
    _write_output(path, [",".join(header) + "\n", (row * rows) % values])
