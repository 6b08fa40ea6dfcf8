"""Delimited-text tables: the one place the on-disk format is decided.

Every file the pipeline reads or writes goes through this module: the
``csv`` module's default dialect (comma separated, minimal quoting, ``\\r\\n``
line ends), one header line, and reals at 10 significant digits. Readers
check the header and the field count of every record, then the cells of
keyed tables, and raise the caller's error class naming the file and the
1-based line or the cell, so a malformed input fails as a stage-contract
error rather than a crash. A number must be plain ASCII, with no ``_``
and no surrounding whitespace, although ``float`` accepts all three.

The CSV is the only contract. Two kinds of table also carry a binary
sidecar, ``<table>.sidecar``, written after the table: a one-block keyed
table (a cube, the statewide totals, the covariates, an expected-count
table), whose sidecar ``write_cells`` writes, and the geographic hierarchy,
whose sidecar ``geo.write_hierarchy`` writes. This module decides a
sidecar's envelope: a magic, the sha256 of the table's bytes and a digest
of the table's header and the labels of the axes its reader keys by; the
writer decides the payload that follows. :func:`sidecar_payload` hands a
reader the payload only when the envelope matches the table's bytes, its
header and its axes; in every other case, a missing, stale, truncated or
foreign sidecar included, the reader reads the table's records.
A keyed table's payload is the float64 values the record path would parse
from the text. :func:`read_keyed` returns them when they fill the table's
cells and every value is finite; otherwise the table is read one record at
a time by ``csv.reader`` and its cells are filled through one label
dictionary per axis, and the first record at fault is named.

Every reader and writer here hashes a file's bytes as they stream and
records the sha256 in :data:`DIGESTS` under the file's path. A pipeline
stage clears that record when it starts and takes its manifest's digests
from it, so each file is hashed once a stage; ``sha256_file`` hashes only a
file no reader or writer of this module passed over, a text report say.

The keyed writer renders the cells of each block by one ``%`` format call
per chunk of about 2**15 lines: a template holds every line's key, with
each ``%`` doubled, and one value spec, ``%d`` for an integer array and
``%s`` for a real one, whose values are each rendered once by
:data:`REAL`, the spec of :func:`fmt`. It encodes each chunk once, and
writes and hashes the same bytes.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import locale
import math
import time
from itertools import chain, product
from pathlib import Path
from types import SimpleNamespace

import numpy as np

# wall seconds this process has spent in table reads and writes; a caller
# times a span by the difference of two readings
SECONDS = {"read": 0.0, "write": 0.0}

# the hex sha256 of each file a reader or writer of this module last passed
# over, by path; a caller that clears it takes from it the digests of the
# files read and written since
DIGESTS: dict[Path, str] = {}
_CHUNK = 1 << 16  # the bytes a buffered stream moves, and hashes, at a time


class _HashedIO(io.RawIOBase):
    """An unbuffered binary file whose bytes, as they are read or written,
    also feed ``sha``."""

    def __init__(self, fh):
        self._fh = fh
        self.sha = hashlib.sha256()

    def readable(self):
        return self._fh.readable()

    def writable(self):
        return self._fh.writable()

    def readinto(self, b):
        n = self._fh.readinto(b)
        self.sha.update(memoryview(b).cast("B")[:n])
        return n

    def write(self, b):
        n = self._fh.write(b)
        self.sha.update(memoryview(b).cast("B")[:n])
        return n

    def close(self):
        self._fh.close()
        super().close()


@contextlib.contextmanager
def _hashed(path, mode):
    """``open(path, mode, newline="")`` for ``mode`` "r", "w", "rb" or "wb",
    hashing the bytes read or written; on a normal exit it records the
    sha256 of the file's bytes in :data:`DIGESTS`, a read hashing the bytes
    it left unread first."""
    key = Path(path)
    DIGESTS.pop(key, None)
    raw = _HashedIO(open(path, mode[0] + "b", buffering=0))
    buffered = io.BufferedReader(raw, _CHUNK) if mode[0] == "r" else io.BufferedWriter(raw, _CHUNK)
    with buffered if "b" in mode else io.TextIOWrapper(buffered, newline="") as fh:
        yield fh
        if mode[0] == "r":
            while raw.read(_CHUNK):
                pass
    DIGESTS[key] = raw.sha.hexdigest()


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
    """A header line, then one line per row of ``rows``, each a collection
    of cells, which is iterated twice; a real cell (a ``float``, numpy's
    float64 included) is rendered by :func:`fmt`, any other by ``str``."""
    rows = list(rows)
    if any(issubclass(kind, float) for kind in set(map(type, chain.from_iterable(rows)))):  # one C pass
        rows = ([fmt(v) if isinstance(v, float) else v for v in row] for row in rows)
    with _hashed(path, "w") as fh:
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


_MAGIC = b"privmap1"  # a sidecar's first bytes: the format and its version
_HEAD = len(_MAGIC) + 64  # the magic, the table's sha256 and the layout digest


def sidecar_path(path) -> Path:
    """Where the sidecar of the table at ``path`` is written and read."""
    path = Path(path)
    return path.with_name(path.name + ".sidecar")


def sha256_file(path) -> str:
    """The hex sha256 of a file's bytes, recorded in :data:`DIGESTS` too."""
    with _hashed(path, "rb"):
        pass
    return DIGESTS[Path(path)]


def _layout(header, axes) -> bytes:
    """The digest of a table's header and the labels of the axes its reader
    keys by."""
    return hashlib.sha256(json.dumps([list(header), [list(axis) for axis in axes]]).encode()).digest()


def _write_sidecar(path, header, axes, payload) -> None:
    """Write the sidecar of the table at ``path``, which a writer of this
    module has just written: the envelope (the magic, the table's sha256,
    the digest of ``header`` and ``axes``), then the bytes of ``payload``."""
    with _hashed(sidecar_path(path), "wb") as fh:
        fh.write(_MAGIC + bytes.fromhex(DIGESTS[Path(path)]) + _layout(header, axes))
        fh.write(payload)


write_sidecar = _timed("write")(_write_sidecar)  # write_cells, itself timed, calls the untimed one


@_timed("read")
def sidecar_payload(path, header, axes, parse):
    """What ``parse(fh)`` returns for the sidecar of the table at ``path``,
    ``fh`` being the sidecar read up to its payload, when the envelope holds
    the magic, the sha256 of the table's bytes and the digest of ``header``
    and ``axes``, and ``parse`` returns a value other than None and reads
    the sidecar to its end; None otherwise, a missing sidecar included."""
    try:
        with _hashed(sidecar_path(path), "rb") as fh:
            head = fh.read(_HEAD)
            if len(head) != _HEAD or not head.startswith(_MAGIC) or head[-32:] != _layout(header, axes):
                return None
            found = parse(fh)
            if found is None or fh.read(1):
                return None
        return found if sha256_file(path) == head[len(_MAGIC) : -32].hex() else None
    except OSError:
        return None


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
    encoding = locale.getpreferredencoding(False)  # as write_table's text layer encodes
    with _hashed(path, "wb") as fh:
        fh.write(_render(header).encode(encoding))
        for axes, values in blocks:
            values = np.asarray(values).reshape(math.prod(map(len, axes)))
            if values.dtype.kind in "iu":
                spec, cells = "%d", values.tolist()
            else:  # each real rendered once, by one format call, and read back as the record path reads it
                spec, cells = "%s", (("%" + REAL + "\n") * values.size % tuple(values.tolist())).split("\n")[:-1]
                values = np.fromiter(map(float, cells), float, len(cells))
            outer, *rest = [
                [field.replace("%", "%%") for field in fields] if "%" in "".join(fields) else fields
                for fields in _key_fields(axes)
            ]
            inner = ["".join(key) + spec for key in product(*rest)]
            n = len(inner)
            if not n:  # an empty axis: no cells
                continue
            step = max(1, (1 << 15) // n)  # bounded memory
            for start in range(0, len(outer), step):
                template = "".join(u + ("\r\n" + u).join(inner) + "\r\n" for u in outer[start : start + step])
                fh.write((template % tuple(cells[start * n : (start + step) * n])).encode(encoding))
    if keyed:
        _write_sidecar(path, header, axes, values.astype("<f8"))


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
    with _hashed(path, "r") as fh:
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


def read_sidecar(path, header, axes) -> np.ndarray | None:
    """The values of the keyed table at ``path`` from its sidecar, shaped
    by ``axes``, when :func:`sidecar_payload` takes the sidecar, it holds
    one value per cell and every value is finite; None otherwise."""
    values = np.empty(tuple(map(len, axes)), "<f8")

    def fill(fh):
        return values if fh.readinto(values.reshape(-1).view("u1")) == values.nbytes else None

    found = sidecar_payload(path, header, axes, fill)
    return found.astype(float, copy=False) if found is not None and np.isfinite(found).all() else None


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
