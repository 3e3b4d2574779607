"""Deterministic run reports and table output.

Payload files (the structured report and any CSV tables) are byte-stable
for a fixed config and seed; wall-clock timing goes to a separate meta
file that is excluded from determinism comparisons. All files are written
atomically (write to a temp name, then rename).
"""

from __future__ import annotations

import itertools
import os
import tempfile

import numpy as np

REPORT_SCHEMA_VERSION = 1


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    if value is None:
        return "null"
    return str(value)


def atomic_write(path: str, chunks) -> None:
    """Write the strings `chunks` in turn to a temp file beside `path`,
    then rename it over `path`."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
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


def write_csv(path: str, header: list[str], rows) -> None:
    """Rectangular CSV with a header row; floats serialized with repr so
    identical runs emit identical bytes. The rows (a sequence) are
    formatted and written in blocks, never held as one string."""
    ncols = len(header)

    def line(row) -> str:
        if len(row) != ncols:
            raise ValueError(f"ragged row: {row!r}")
        return ",".join(map(_fmt, row)) + "\n"

    block = 4096
    atomic_write(path, itertools.chain(
        [",".join(header) + "\n"],
        ("".join(map(line, rows[lo:lo + block])) for lo in range(0, len(rows), block))))


def write_meta(path: str, elapsed_seconds: float, version: str) -> None:
    atomic_write(path, [f"toolkit_version: {version}\n"
                        f"elapsed_seconds: {elapsed_seconds:.3f}\n"])
