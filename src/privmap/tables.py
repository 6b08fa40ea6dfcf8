"""Delimited-text tables: the one place the on-disk format is decided.

Every file the pipeline reads or writes goes through this module: the
``csv`` module's default dialect (comma separated, minimal quoting, ``\\r\\n``
line ends), one header line, and reals at 10 significant digits. Readers
check the header and the field count of every record, then the cells of
keyed tables, and raise the caller's error class naming the file and the
1-based line or the cell, so a malformed input fails as a stage-contract
error rather than a crash.

A cube or an expected-count table is read in the writer's order first: a
file exactly as ``write_cells`` writes it is split once into lines, each
line is checked to start with its cell's key, and the rest is parsed as
one number, with no label lookup. Every other file, and every other table
(covariates among them), is read one record at a time by ``csv.reader``;
keyed cells are then filled one record at a time through one label
dictionary per axis, and the first record at fault is named. One helper
renders the keys for both the writer and the in-order reader.

The keyed writer renders the cells of each block by one ``%`` format call
per chunk of about 2**15 lines: a template holds every line's key, with
each ``%`` doubled, and one value spec, ``%d`` for an integer array and
``%.10g`` (:data:`REAL`, the spec of :func:`fmt`) for a real one.
"""

from __future__ import annotations

import csv
import functools
import math
import time
from itertools import product
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


@_timed("write")
def write_cells(path, header, blocks) -> None:
    """The dual of :func:`read_keyed`: a header line, then for each block
    ``(axes, values)`` one line per cell of the product of ``axes`` in C
    order, the cell's key followed by its entry of the array ``values``,
    ``%d`` for an integer dtype and :data:`REAL` otherwise, one format call
    per chunk of labels of the first axis. Each distinct label is quoted
    once, as ``write_table`` would.
    """
    with open(path, "w", newline="") as fh:
        fh.write(_render(header))
        for axes, values in blocks:
            values = np.asarray(values)
            spec = "%d" if values.dtype.kind in "iu" else "%" + REAL
            outer, *rest = [[field.replace("%", "%%") for field in fields] for fields in _key_fields(axes)]
            inner = ["".join(key) + spec for key in product(*rest)]
            n = len(inner)
            if not n:  # an empty axis: no cells
                continue
            values = values.reshape(len(outer) * n).tolist()
            step = max(1, (1 << 15) // n)  # bounded memory
            for start in range(0, len(outer), step):
                template = "".join(u + ("\r\n" + u).join(inner) + "\r\n" for u in outer[start : start + step])
                fh.write(template % tuple(values[start * n : (start + step) * n]))


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
            value = float(record[-1])
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
def read_in_order(path, header, axes) -> np.ndarray | None:
    """The fast path of :func:`read_keyed`, for a file exactly as
    :func:`write_cells` writes it: the values when ``path`` holds the header
    line and then one line per cell of the product of ``axes`` in C order,
    each the cell's key and a finite number, and every line ends in
    ``\\r\\n``; None for any other file.

    The text is split once into lines; each line loses its cell's key and
    the remainder is parsed by ``float``. A quote, a line end other than
    ``\\r\\n``, a missing final line end, another row count, another key or
    a remainder that is not one finite number leaves the file to the
    general path, which locates the fault.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    n = text.count("\n") - 1  # records, if the header and every line end in "\r\n"
    if n < 1 or n != math.prod(map(len, axes)) or text.count("\r") != n + 1 or '"' in text:
        return None
    lines, first = text.split("\r\n"), _render(header)[:-2]
    # as many "\r\n" as "\r" and "\n" (no line end but the writer's), and the last one ends the text
    if len(lines) != n + 2 or lines[0] != first or lines[-1]:
        return None
    del lines[0], lines[-1]
    record_chars = len(text) - len(first) - 2 * (n + 1)  # the n lines, without their line ends
    del text
    fields = _key_fields(axes)
    remainders = list(map(str.removeprefix, lines, map("".join, product(*fields))))
    del lines
    # a line whose key does not match keeps it whole, so the remainders are
    # this much shorter than the lines only if every key matched
    key_chars = sum(n // len(axis) * sum(map(len, axis)) for axis in fields)
    if sum(map(len, remainders)) != record_chars - key_chars:
        return None
    try:  # a remainder with a comma (an extra field) or no number fails
        values = np.fromiter(map(float, remainders), float, count=n)
    except ValueError:
        return None
    return values.reshape(tuple(map(len, fields))) if np.isfinite(values).all() else None


def read_keyed(path, header, axes, error) -> np.ndarray:
    """Dense array of the last column of a keyed table whose first line is
    exactly ``header``, keyed by the columns before it over ``axes``.

    A file as :func:`write_cells` writes it takes :func:`read_in_order`;
    any other goes through :func:`read_table` and :func:`read_cells`, which
    raise ``error`` naming the file and the line or the first cell at fault.
    """
    found = read_in_order(path, header, axes)
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
