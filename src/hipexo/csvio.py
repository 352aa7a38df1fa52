"""The ``#``-header file format shared by every artifact and CSV input.

A file opens with a block of ``# <line>`` comment lines (tool version,
config hash and seed on CLI artifacts), followed by the body: one CSV header
row and data rows, or YAML or plain text. :func:`write_csv` writes every CSV
line, from cells that the caller formatted; :func:`float_cells` and
:func:`write_float_columns` format float64 columns for it.
Every CSV input is read by :func:`read_columns`.
"""
from __future__ import annotations

import csv

import numpy as np

# what repr() of a numpy float64 scalar puts around repr() of the same
# Python float: ("np.float64(", ")") under numpy 2, ("", "") under numpy 1
_NP_PREFIX, _NP_SUFFIX = repr(np.float64(0.0)).split("0.0")


class LoadError(ValueError):
    """Raised on malformed or incomplete input files."""


def open_artifact(path, header_lines=()):
    """Open ``path`` for writing with the header block already written."""
    fh = open(path, "w", newline="")
    fh.writelines(f"# {line}\n" for line in header_lines)
    return fh


def write_csv(path, columns, rows, header_lines=(), numpy_repr=False):
    """Header block, one header row of ``columns``, then ``rows`` of
    preformatted cells, each line joined by commas and ended by ``\r\n``.

    These are the bytes of ``csv.writer``: no artifact cell holds a comma,
    a quote or a line break, so no cell needs quoting. With ``numpy_repr``
    each cell, a Python float repr, is wrapped as numpy prints a float64.
    Rows are streamed, never joined into one string.
    """
    pre, suf = (_NP_PREFIX, _NP_SUFFIX) if numpy_repr else ("", "")
    sep = suf + "," + pre
    with open_artifact(path, header_lines) as fh:
        fh.write(",".join(columns) + "\r\n")
        fh.writelines(pre + sep.join(row) + suf + "\r\n" for row in rows)


def float_cells(column) -> list[str]:
    """The cells of a float64 column: ``repr`` of each value as a Python
    float, converted once with ``tolist``."""
    return list(map(repr, np.asarray(column, dtype=np.float64).tolist()))


def write_float_columns(path, names, columns, header_lines=(),
                        numpy_repr=False):
    """:func:`write_csv` of one row per index of the equal-length float64
    ``columns``. Each column is converted once with ``tolist`` and
    formatted as its rows are written."""
    write_csv(path, names, zip(*(map(repr, np.asarray(c, np.float64).tolist())
                                 for c in columns), strict=True),
              header_lines, numpy_repr)


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """(header row, data rows) of a CSV file, skipping ``#`` lines and empty
    rows. Raises :class:`LoadError` when the file has no header row."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(
            line for line in fh if not line.startswith("#")) if row]
    if not rows:
        raise LoadError(f"{path}: empty file")
    return rows[0], rows[1:]


def read_columns(path, what: str, parsers=None) -> dict[str, list]:
    """{column: parsed cells} of a ``#``-header CSV, the one reader of every
    CSV input: the columns that ``parsers``, {column: parse}, names, or
    every column as float. Header names are stripped of spaces. A missing
    column (all are named), a row without a cell for a column, or a cell
    that its parser rejects raises :class:`LoadError`, so every column
    returned has one cell per row."""
    header, rows = read_csv(path)
    header = [name.strip() for name in header]
    parsers = dict.fromkeys(header, float) if parsers is None else parsers
    missing = [name for name in parsers if name not in header]
    if missing:
        raise LoadError(f"{path}: missing {what} columns {missing}")
    columns = {}
    for name, parse in parsers.items():
        j = header.index(name)
        try:
            columns[name] = [parse(row[j]) for row in rows]
        except IndexError:
            i = next(i for i, row in enumerate(rows) if len(row) <= j)
            raise LoadError(f"{path}: bad {what} row: data row {i + 1} has "
                            f"no cell for column {name!r}") from None
        except ValueError as exc:
            raise LoadError(f"{path}: bad {what} row: column {name!r}: "
                            f"{exc}") from exc
    return columns
