"""The ``#``-header file format shared by every artifact and CSV input.

A file opens with a block of ``# <line>`` comment lines (tool version,
config hash and seed on CLI artifacts), followed by the body: one CSV header
row and data rows, or YAML or plain text. Callers format their own cells;
this module owns only the header block and the comment skipping.
"""
from __future__ import annotations

import csv


class LoadError(ValueError):
    """Raised on malformed or incomplete input files."""


def open_artifact(path, header_lines=()):
    """Open ``path`` for writing with the header block already written."""
    fh = open(path, "w", newline="")
    fh.writelines(f"# {line}\n" for line in header_lines)
    return fh


def write_csv(path, columns, rows, header_lines=()):
    """Header block, one header row of ``columns``, then ``rows`` of
    preformatted cells."""
    with open_artifact(path, header_lines) as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """(header row, data rows) of a CSV file, skipping ``#`` lines and empty
    rows. Raises :class:`LoadError` when the file has no header row."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(
            line for line in fh if not line.startswith("#")) if row]
    if not rows:
        raise LoadError(f"{path}: empty file")
    return rows[0], rows[1:]
