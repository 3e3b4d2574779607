"""Deterministic run reports and table output.

Payload files (the structured report and any CSV tables) are byte-stable
for a fixed config and seed; wall-clock timing goes to a separate meta
file that is excluded from determinism comparisons. All files are written
atomically (write to a temp name, then rename) as UTF-8, whatever the
locale. CSV tables are written from columns, a block of rows at a time;
a column given as `Indexed` formats each of its values once into a numpy
object array, and each block's cells are gathered from it in one indexing
step, so no per-cell Python call is made for such a column. A numpy block
of bools, ints or floats is formatted by one orjson call, with the bytes
`_fmt` writes: `repr` is called only where orjson's float notation differs.
A block's text is one join over its cells, each followed by its separator.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

REPORT_SCHEMA_VERSION = 1


def _fmt(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()  # a numpy scalar is written as its Python scalar
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return "null"
    if isinstance(value, str) and value and value.splitlines() != [value]:
        return repr(value)  # a line break would start a line of its own
    return str(value)


def atomic_write(path: str, chunks) -> None:
    """Write the strings `chunks` in turn to a temp file beside `path`,
    then rename it over `path`. The file is created as a plain `open` would
    create it, with mode 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(16).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def render_report(sections: dict) -> str:
    """Nested key-value text: 'section:' headers with two-space indented
    'key: value' lines; nested dicts indent further."""
    lines = [f"schema_version: {REPORT_SCHEMA_VERSION}"]

    def emit(d: dict, indent: int) -> None:
        pad = "  " * indent
        for key, value in d.items():
            if isinstance(value, dict):
                lines.append(f"{pad}{key}:")
                emit(value, indent + 1)
            elif isinstance(value, (list, tuple)):
                lines.append(f"{pad}{key}: [" + ", ".join(_fmt(v) for v in value) + "]")
            else:
                lines.append(f"{pad}{key}: {_fmt(value)}")

    emit(sections, 0)
    return "\n".join(lines) + "\n"


def write_report(path: str, sections: dict) -> None:
    atomic_write(path, [render_report(sections)])


@dataclass(frozen=True)
class Indexed:
    """The column `values[index]`: each of `values` is formatted once and its
    string repeated, as for a grid axis that tiles a few hundred values over
    many rows. `index` is an integer array."""
    values: np.ndarray
    index: np.ndarray

    def __len__(self) -> int:
        return len(self.index)


def _cells(col):
    """A column block's cells as `_fmt` formats them. A numpy block of bools,
    ints or floats takes one orjson call on a C-contiguous copy (orjson
    rejects a strided array) in float64 or native byte order (orjson reads a
    big-endian int as native). Its floats have `repr`'s shortest round-trip
    digits but another notation for 0 < |x| < 1e-4 (`0.00001`), |x| >= 1e16
    (`1e16`) and a non-finite x (`null`), so those cells take `repr`."""
    if not isinstance(col, np.ndarray) or col.dtype.kind not in "biuf":
        return map(_fmt, col)
    import orjson  # here, so a command that writes no numpy column never imports it

    floats = col.dtype.kind == "f"
    col = np.ascontiguousarray(col, np.float64 if floats else col.dtype.newbyteorder("="))
    if not len(col):
        return []
    cells = orjson.dumps(col, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    if floats:
        size = np.abs(col)
        for i in np.flatnonzero(~((size >= 1e-4) & (size < 1e16) | (col == 0.0))):
            cells[i] = repr(float(col[i]))
    return cells


def write_csv(path: str, header: list[str], columns) -> None:
    """Rectangular CSV with a header row, from one column (a numpy array, a
    list or an `Indexed`) per header name. A cell holds `_fmt`'s bytes (a
    float's Python `repr`), one orjson call per block of a numpy bool, int or
    float column, so identical runs emit identical bytes. Rows are formatted
    and written in blocks of 4096, a block's text being one join over its
    cells and their separators. An `Indexed` column's strings are
    formatted once into an object array; each block takes its cells as
    `strings[index block]`."""
    lengths = [len(col) for col in columns]
    if len(lengths) != len(header) or len(set(lengths)) > 1:
        raise ValueError(f"ragged columns: {len(header)} names, lengths {lengths}")
    block = 4096

    def block_cells(col):
        """lo -> the cells of rows lo .. lo + block of `col`."""
        if isinstance(col, Indexed):
            strings = np.array(list(_cells(col.values)), dtype=object)
            return lambda lo: strings[col.index[lo:lo + block]].tolist()
        return lambda lo: _cells(col[lo:lo + block])

    cells = [block_cells(col) for col in columns]
    # a row's separators: each cell goes in the slot before its separator
    row = [","] * (2 * len(cells) - 1) + ["\n"]

    def lines(lo: int) -> str:
        flat = row * min(block, lengths[0] - lo)
        for j, c in enumerate(cells):
            flat[2 * j::len(row)] = c(lo)
        return "".join(flat)

    atomic_write(path, itertools.chain(
        [",".join(header) + "\n"],
        map(lines, range(0, lengths[0] if lengths else 0, block))))


def write_meta(path: str, elapsed_seconds: float, version: str) -> None:
    atomic_write(path, [f"toolkit_version: {version}\n"
                        f"elapsed_seconds: {elapsed_seconds:.3f}\n"])
