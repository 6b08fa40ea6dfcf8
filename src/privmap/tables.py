"""Delimited-text tables: the one place the on-disk format is decided.

Every file the pipeline reads or writes goes through this module: the
``csv`` module's default dialect (comma separated, minimal quoting, ``\\r\\n``
line ends), one header line, and reals at 10 significant digits. Readers
check the header and the field count of every record, then the cells of
keyed tables, and raise the caller's error class naming the file and the
1-based line or the cell, so a malformed input fails as a stage-contract
error rather than a crash. A number must be plain ASCII, with no ``_``
and no surrounding whitespace, although ``float`` accepts all three.

The CSV is the only contract. Beside a one-block keyed table (a cube, the
statewide totals, the covariates, an expected-count table) ``write_cells``
also writes a binary sidecar, ``<table>.sidecar``: the sha256 of the
table's bytes, a digest of its header and axes labels, and the float64
values the record path would parse from the text. A keyed table has two
read paths.
:func:`read_keyed` returns the sidecar's values only when the table hashes
to the recorded digest, the caller's header and axes hash to the recorded
layout, the size matches and every value is finite; in every other case,
a missing, stale, truncated or foreign sidecar included, the table is read
one record at a time by ``csv.reader`` and its cells are filled through
one label dictionary per axis, and the first record at fault is named.

The keyed writer renders the cells of each block by one ``%`` format call
per chunk of about 2**15 lines: a template holds every line's key, with
each ``%`` doubled, and one value spec, ``%d`` for an integer array and
``%s`` for a real one, whose values are each rendered once by
:data:`REAL`, the spec of :func:`fmt`.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import time
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np

# wall seconds this process has spent in table reads and writes; a caller
# times a span by the difference of two readings
SECONDS = {"read": 0.0, "write": 0.0}


def _timed(kind):
    def wrap(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                SECONDS[kind] += time.perf_counter() - start

        return timed

    return wrap


REAL = ".10g"  # the one rendering of a real number: 10 significant digits


def fmt(x) -> str:
    """A real number rendered as every table renders it."""
    return format(x, REAL)


@_timed("write")
def write_table(path, header, rows) -> None:
    """A header line, then one line per row; a real cell (a ``float``, numpy's
    float64 included) is rendered by :func:`fmt`, any other by ``str``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([fmt(v) if isinstance(v, float) else v for v in row] for row in rows)


# renders one record as write_table would, "\r\n" included, and returns it
_render = csv.writer(SimpleNamespace(write=str)).writerow


def _key_fields(axes) -> list[list[str]]:
    """Each label of each axis as ``write_table`` would quote it, followed by
    its delimiter: a cell's key is its labels' fields joined, and the value
    completes the line. The one place a key's rendering is decided."""
    fields = []
    for axis in axes:
        # an axis that renders as one record without a quote has no label
        # to quote, which spares a render per label; [:-2] drops the "\r\n"
        plain = '"' not in _render(axis)
        fields.append([label + "," if plain else _render((label, ""))[:-2] for label in axis])
    return fields


_MAGIC = b"privmap1"  # a sidecar's first bytes: the format and its version
_HEAD = len(_MAGIC) + 64  # the magic, the table's sha256 and the layout digest


def sidecar_path(path) -> Path:
    """Where the sidecar of the table at ``path`` is written and read."""
    path = Path(path)
    return path.with_name(path.name + ".sidecar")


def sha256_file(path) -> str:
    """The hex sha256 of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _layout(header, axes) -> bytes:
    """The digest of a keyed table's header and axes labels."""
    return hashlib.sha256(json.dumps([list(header), [list(axis) for axis in axes]]).encode()).digest()


@_timed("write")
def write_cells(path, header, blocks) -> None:
    """The dual of :func:`read_keyed`: a header line, then for each block
    ``(axes, values)`` of the list ``blocks`` one line per cell of the
    product of ``axes`` in C order, the cell's key followed by its entry of
    the array ``values``, ``%d`` for an integer dtype and :data:`REAL`
    otherwise, one format call per chunk of labels of the first axis. Each
    distinct label is quoted once, as ``write_table`` would.

    A one-block table whose header has one field per axis and the value,
    and whose axes repeat no label, also gets its sidecar (see the module
    docstring), written after the table.
    """
    keyed = len(blocks) == 1 and len(header) == len(blocks[0][0]) + 1
    keyed = keyed and all(len(set(axis)) == len(axis) for axis in blocks[0][0])
    digest = hashlib.sha256()
    with open(path, "w", newline="") as fh:

        def emit(text):
            fh.write(text)
            if keyed:
                digest.update(text.encode(fh.encoding))

        emit(_render(header))
        for axes, values in blocks:
            values = np.asarray(values).reshape(math.prod(map(len, axes)))
            if values.dtype.kind in "iu":
                spec, cells = "%d", values.tolist()
            else:  # each real rendered once, by one format call, and read back as the record path reads it
                spec, cells = "%s", (("%" + REAL + "\n") * values.size % tuple(values.tolist())).split("\n")[:-1]
                values = np.fromiter(map(float, cells), float, len(cells))
            outer, *rest = [[field.replace("%", "%%") for field in fields] for fields in _key_fields(axes)]
            inner = ["".join(key) + spec for key in product(*rest)]
            n = len(inner)
            if not n:  # an empty axis: no cells
                continue
            step = max(1, (1 << 15) // n)  # bounded memory
            for start in range(0, len(outer), step):
                template = "".join(u + ("\r\n" + u).join(inner) + "\r\n" for u in outer[start : start + step])
                emit(template % tuple(cells[start * n : (start + step) * n]))
    if keyed:
        with open(sidecar_path(path), "wb") as fh:
            fh.write(_MAGIC + digest.digest() + _layout(header, axes) + values.astype("<f8").tobytes())


def number(text: str) -> float:
    """``float(text)`` for plain ASCII text with no ``_`` and no surrounding
    whitespace; ``float`` would take ``1_000``, `` 5`` and ``５`` too, so
    any other text raises ValueError."""
    if not text.isascii() or "_" in text or text.strip() != text:
        raise ValueError(f"{text!r} is not a plain number")
    return float(text)


@_timed("read")
def read_table(path, header, error) -> list[list[str]]:
    """The records of a file whose first line is exactly ``header``.

    An empty file, any other header, or a record without exactly
    ``len(header)`` fields raises ``error`` naming the file and the line.
    """
    header = list(header)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise error(f"{path}: empty file, expected header {','.join(header)}")
        if first != header:
            raise error(f"{path}:{reader.line_num}: header {','.join(first)}, expected {','.join(header)}")
        records = []
        for record in reader:
            if len(record) != len(header):
                raise error(f"{path}:{reader.line_num}: {len(record)} fields, expected {len(header)}")
            records.append(record)
    return records


@_timed("read")
def read_cells(path, records, axes, error) -> np.ndarray:
    """Dense array of the last field of ``records``, keyed by their leading
    fields, one per axis.

    ``axes`` holds the labels of each key field, in field order; a cell's
    position on an axis is its label's position there. The first record
    with an unknown label, a duplicate cell or a value that is not a finite
    number, and then a missing cell, raises ``error`` naming ``path`` and
    the cell.
    """
    index = [{label: i for i, label in enumerate(axis)} for axis in axes]
    values = np.full(tuple(map(len, axes)), np.nan)
    for record in records:
        try:  # map stops after the key fields, one per axis
            cell = tuple(map(dict.__getitem__, index, record))
        except KeyError as exc:
            raise error(f"{path}: unknown label {exc.args[0]!r} in cell {_cell(record[: len(axes)])}") from None
        if not math.isnan(values[cell]):
            raise error(f"{path}: duplicate cell {_cell(record[: len(axes)])}")
        try:
            value = number(record[-1])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise error(f"{path}: value {record[-1]!r} of cell {_cell(record[: len(axes)])} is not a finite number")
        values[cell] = value
    missing = np.argwhere(np.isnan(values))
    if len(missing):
        first = [axis[i] for axis, i in zip(axes, missing[0])]
        raise error(f"{path}: missing cell {_cell(first)} and {len(missing) - 1} more")
    return values


@_timed("read")
def read_sidecar(path, header, axes) -> np.ndarray | None:
    """The values of the keyed table at ``path`` from its sidecar, shaped
    by ``axes``, when the sidecar records the sha256 of the table's bytes
    and the digest of ``header`` and ``axes``, holds one value per cell and
    every value is finite; None otherwise, a missing sidecar included."""
    values = np.empty(tuple(map(len, axes)), "<f8")
    try:
        with open(sidecar_path(path), "rb") as fh:
            head = fh.read(_HEAD)
            if len(head) != _HEAD or not head.startswith(_MAGIC) or head[-32:] != _layout(header, axes):
                return None
            if fh.readinto(values.reshape(-1).view("u1")) != values.nbytes or fh.read(1):
                return None
        if sha256_file(path) != head[len(_MAGIC) : -32].hex():
            return None
    except OSError:
        return None
    return values.astype(float, copy=False) if np.isfinite(values).all() else None


def read_keyed(path, header, axes, error) -> np.ndarray:
    """Dense array of the last column of a keyed table whose first line is
    exactly ``header``, keyed by the columns before it over ``axes``.

    :func:`read_sidecar`'s values when it has them; otherwise
    :func:`read_table` and :func:`read_cells`, which raise ``error`` naming
    the file and the line or the first cell at fault.
    """
    found = read_sidecar(path, header, axes)
    return found if found is not None else read_cells(path, read_table(path, header, error), axes, error)


def check_cells(path, values, axes, bad, what, error) -> None:
    """Raise ``error`` naming ``path``, ``what`` and the value of the first
    cell of ``values`` where the mask ``bad`` is true."""
    at = np.argwhere(bad)
    if len(at):
        cell = [axis[i] for axis, i in zip(axes, at[0])]
        raise error(f"{path}: {what} {fmt(values[tuple(at[0])])} in cell {_cell(cell)}")


def _cell(keys) -> str:
    return f"({', '.join(keys)})"
