"""Delimited-text tables: the one place the on-disk format is decided.

Every file the pipeline reads or writes goes through this module: the
``csv`` module's default dialect (comma separated, minimal quoting, ``\\r\\n``
line ends), one header line, and reals at 10 significant digits. Readers
check the header and the field count of every record, then the cells of
keyed tables, and raise the caller's error class naming the file and the
1-based line or the cell, so a malformed input fails as a stage-contract
error rather than a crash. Reading is columnar: a file becomes one list of
strings per field, and keyed cells are checked and parsed in bulk.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import time
from itertools import chain, islice, product, repeat
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


def fmt(x) -> str:
    """The one rendering of a real number: 10 significant digits."""
    return format(x, ".10g")


def fmt_ints(values):
    """The integer rendering of each value of an array, in C order, as a
    one-pass iterator."""
    return map(str, np.asarray(values).astype(np.int64).ravel().tolist())


@_timed("write")
def write_table(path, header, rows) -> None:
    """A header line, then one line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@_timed("write")
def write_cells(path, header, blocks) -> None:
    """The dual of :func:`read_cells`: a header line, then for each block
    ``(axes, values)`` one line per cell of the product of ``axes`` in C
    order, the cell's labels followed by its already rendered ``values``
    entry. Each distinct label is quoted once, as ``write_table`` would."""
    render = csv.writer(SimpleNamespace(write=str)).writerow  # returns the line
    with open(path, "w", newline="") as fh:
        fh.write(render(header))
        for axes, values in blocks:
            # each label field with its delimiter; [:-2] drops the "\r\n"
            fields = [[render((label, ""))[:-2] for label in axis] for axis in axes]
            lines = map(str.__add__, map("".join, product(*fields)), values)
            while chunk := list(islice(lines, 1 << 15)):  # bounded memory
                fh.write("\r\n".join(chunk) + "\r\n")


@_timed("read")
def read_table(path, header, error) -> list[list[str]]:
    """The columns, one list of strings per field, of a file whose first
    line is exactly ``header``.

    An empty file, any other header, or a record without exactly
    ``len(header)`` fields raises ``error`` naming the file and the line.
    Text with a quote in it goes through ``csv.reader``; other text is split
    at the line ends a file opened with ``newline=""`` has, then at commas.
    """
    header, k = list(header), len(header)
    with open(path, newline="") as fh:
        text = fh.read()
    if not text:
        raise error(f"{path}: empty file, expected header {','.join(header)}")
    quoted = '"' in text
    if quoted:
        records = list(csv.reader(io.StringIO(text, newline="")))
        first = records.pop(0)
        widths = np.fromiter(map(len, records), np.intp, count=len(records))
    else:
        records = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        if not records[-1]:
            records.pop()
        first = records.pop(0).split(",")
        widths = np.fromiter(map(str.count, records, repeat(",")), np.intp, count=len(records)) + 1
    bad = np.flatnonzero(widths != k)
    if first != header or bad.size:  # parse with csv up to the fault, for its line number
        reader = csv.reader(io.StringIO(text, newline=""))
        if first != header:
            next(reader)
            raise error(f"{path}:{reader.line_num}: header {','.join(first)}, expected {','.join(header)}")
        row = next(islice(reader, bad[0] + 1, None))
        raise error(f"{path}:{reader.line_num}: {len(row)} fields, expected {k}")
    del text
    if quoted:
        flat = list(chain.from_iterable(records))
    else:
        records = ",".join(records)  # frees the lines before the fields are split out
        flat = records.split(",") if records else []
    return [flat[j::k] for j in range(k)]


def _number(text) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


@_timed("read")
def read_cells(path, columns, axes, error) -> np.ndarray:
    """Dense array of the last of ``columns``, keyed by the columns before it.

    ``axes`` holds the labels of each key column, in column order; a cell's
    position on an axis is its label's position there. An unknown label, a
    value that is not a finite number, a duplicate cell or a missing cell
    raises ``error`` naming ``path`` and the cell; a record at fault is the
    first one in file order, and its first fault in that order is reported.
    """
    *keys, raw = columns
    n, shape = len(raw), tuple(map(len, axes))
    index = [
        np.fromiter(map({label: i for i, label in enumerate(axis)}.get, column, repeat(-1)), np.intp, count=n)
        for axis, column in zip(axes, keys)
    ]
    known = np.logical_and.reduce([i >= 0 for i in index])
    flat = np.ravel_multi_index(index, shape, mode="clip")
    try:
        values = np.fromiter(map(float, raw), float, count=n)
    except ValueError:
        values = np.fromiter(map(_number, raw), float, count=n)
    counts = np.bincount(flat[known], minlength=math.prod(shape))
    bad = ~known | ~np.isfinite(values)
    if bad.any() or counts.max(initial=0) > 1:
        seen = known.copy()  # a known cell seen on an earlier record
        seen[np.flatnonzero(known)[np.unique(flat[known], return_index=True)[1]]] = False
        r = np.flatnonzero(bad | seen)[0]
        cell = _cell([column[r] for column in keys])
        if not known[r]:
            label = next(column[r] for column, i in zip(keys, index) if i[r] < 0)
            raise error(f"{path}: unknown label {label!r} in cell {cell}")
        if seen[r]:
            raise error(f"{path}: duplicate cell {cell}")
        raise error(f"{path}: value {raw[r]!r} of cell {cell} is not a finite number")
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        first = [axis[i] for axis, i in zip(axes, np.unravel_index(missing[0], shape))]
        raise error(f"{path}: missing cell {_cell(first)} and {missing.size - 1} more")
    out = np.empty(counts.size)
    out[flat] = values
    return out.reshape(shape)


def check_nonnegative(path, values, axes, what, error) -> None:
    """Raise ``error`` naming ``path`` and the first cell of ``values`` below zero."""
    negative = np.argwhere(values < 0)
    if len(negative):
        cell = [axis[i] for axis, i in zip(axes, negative[0])]
        raise error(f"{path}: negative {what} {values[tuple(negative[0])]:g} in cell {_cell(cell)}")


def _cell(keys) -> str:
    return f"({', '.join(keys)})"
