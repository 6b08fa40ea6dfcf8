"""Delimited-text tables: the one place the on-disk format is decided.

Every file the pipeline reads or writes goes through this module: the
``csv`` module's default dialect (comma separated, minimal quoting, ``\\r\\n``
line ends), one header line, and reals at 10 significant digits. Readers
check the header and the field count of every record, then the cells of
keyed tables, and raise the caller's error class naming the file and the
1-based line or the cell, so a malformed input fails as a stage-contract
error rather than a crash.
"""

from __future__ import annotations

import csv
import math

import numpy as np


def fmt(x) -> str:
    """The one rendering of a real number: 10 significant digits."""
    return format(x, ".10g")


def write_table(path, header, rows) -> None:
    """A header line, then one line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise error(f"{path}:{reader.line_num}: {len(row)} fields, expected {len(header)}")
            rows.append(row)
    return rows


def read_cells(path, rows, axes, error) -> np.ndarray:
    """Dense array of the last field of ``rows``, keyed by their leading fields.

    ``axes`` holds the labels of each key field, in field order; a cell's
    position on an axis is its label's position there. An unknown label, a
    value that is not a finite number, a duplicate cell or a missing cell
    raises ``error`` naming ``path`` and the cell.
    """
    index = [{label: i for i, label in enumerate(axis)} for axis in axes]
    values = np.full([len(axis) for axis in axes], np.nan)
    for row in rows:
        try:  # map stops after the key fields, one per axis
            idx = tuple(map(dict.__getitem__, index, row))
        except KeyError as exc:
            raise error(f"{path}: unknown label {exc.args[0]!r} in cell {_cell(row, axes)}") from None
        if not math.isnan(values[idx]):
            raise error(f"{path}: duplicate cell {_cell(row, axes)}")
        try:
            value = float(row[-1])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise error(f"{path}: value {row[-1]!r} of cell {_cell(row, axes)} is not a finite number")
        values[idx] = value
    missing = np.argwhere(np.isnan(values))
    if len(missing):
        first = [axis[i] for axis, i in zip(axes, missing[0])]
        raise error(f"{path}: missing cell {_cell(first, axes)} and {len(missing) - 1} more")
    return values


def check_nonnegative(path, values, axes, what, error) -> None:
    """Raise ``error`` naming ``path`` and the first cell of ``values`` below zero."""
    negative = np.argwhere(values < 0)
    if len(negative):
        cell = [axis[i] for axis, i in zip(axes, negative[0])]
        raise error(f"{path}: negative {what} {values[tuple(negative[0])]:g} in cell {_cell(cell, axes)}")


def _cell(keys, axes) -> str:
    return f"({', '.join(keys[: len(axes)])})"
