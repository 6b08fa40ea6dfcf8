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
(covariates among them), is read by columns: it becomes one list of
strings per field, and keyed cells are located, checked and parsed in
bulk, naming the first fault. One helper
renders the keys for both the writer and the in-order reader.
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
    order, the cell's key followed by its already rendered ``values``
    entry. Each distinct label is quoted once, as ``write_table`` would."""
    with open(path, "w", newline="") as fh:
        fh.write(_render(header))
        for axes, values in blocks:
            lines = map(str.__add__, map("".join, product(*_key_fields(axes))), values)
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


@_timed("read")
def read_in_order(path, header, choices) -> tuple[int, np.ndarray] | None:
    """The fast path of :func:`read_keyed`, for a file exactly as
    :func:`write_cells` writes it: ``(i, values)`` when ``path`` holds the
    header line and then one line per cell of the product of the axes
    ``choices[i]`` in C order, each the cell's key and a finite number, and
    every line ends in ``\\r\\n``; None for any other file.

    The text is split once into lines; each line loses its cell's key and
    the remainder is parsed by ``float``. A quote, a line end other than
    ``\\r\\n``, a missing final line end, another row count, another key or
    a remainder that is not one finite number leaves the file to the
    general path, which locates the fault.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    n = text.count("\n") - 1  # records, if the header and every line end in "\r\n"
    picks = [i for i, axes in enumerate(choices) if math.prod(map(len, axes)) == n]
    if not picks or n < 1 or text.count("\r") != n + 1 or '"' in text:
        return None
    lines, first = text.split("\r\n"), _render(header)[:-2]
    # as many "\r\n" as "\r" and "\n" (no line end but the writer's), and the last one ends the text
    if len(lines) != n + 2 or lines[0] != first or lines[-1]:
        return None
    del lines[0], lines[-1]
    record_chars = len(text) - len(first) - 2 * (n + 1)  # the n lines, without their line ends
    del text
    for i in picks:
        fields = _key_fields(choices[i])
        remainders = list(map(str.removeprefix, lines, map("".join, product(*fields))))
        # a line whose key does not match keeps it whole, so the remainders
        # are this much shorter than the lines only if every key matched
        key_chars = sum(n // len(axis) * sum(map(len, axis)) for axis in fields)
        if sum(map(len, remainders)) != record_chars - key_chars:
            continue
        del lines
        try:  # a remainder with a comma (an extra field) or no number fails
            values = np.fromiter(map(float, remainders), float, count=n)
        except ValueError:
            return None
        return (i, values.reshape(tuple(map(len, fields)))) if np.isfinite(values).all() else None
    return None


def read_keyed(path, header, axes, error) -> np.ndarray:
    """Dense array of the last column of a keyed table whose first line is
    exactly ``header``, keyed by the columns before it over ``axes``.

    A file as :func:`write_cells` writes it takes :func:`read_in_order`;
    any other goes through :func:`read_table` and :func:`read_cells`, which
    raise ``error`` naming the file and the line or the first cell at fault.
    """
    found = read_in_order(path, header, [axes])
    return found[1] if found else read_cells(path, read_table(path, header, error), axes, error)


def check_nonnegative(path, values, axes, what, error) -> None:
    """Raise ``error`` naming ``path`` and the first cell of ``values`` below zero."""
    negative = np.argwhere(values < 0)
    if len(negative):
        cell = [axis[i] for axis, i in zip(axes, negative[0])]
        raise error(f"{path}: negative {what} {values[tuple(negative[0])]:g} in cell {_cell(cell)}")


def _cell(keys) -> str:
    return f"({', '.join(keys)})"
