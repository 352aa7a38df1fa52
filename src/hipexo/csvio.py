"""The ``#``-header file format shared by every artifact and CSV input.

A file opens with a block of ``# <line>`` comment lines (tool version,
config hash and seed on CLI artifacts), followed by the body: one CSV header
row and data rows, or YAML or plain text. Callers format the cells of
:func:`write_csv`; :func:`write_float_columns` formats float columns itself,
and :func:`write_cell_columns` writes float columns that
:func:`float_cells` formatted before, so that a column written to several
files is formatted once.
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


def write_csv(path, columns, rows, header_lines=()):
    """Header block, one header row of ``columns``, then ``rows`` of
    preformatted cells."""
    with open_artifact(path, header_lines) as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def float_cells(column) -> list[str]:
    """The cells of a float64 column: ``repr`` of each value as a Python
    float, converted once with ``tolist``."""
    return list(map(repr, np.asarray(column, dtype=np.float64).tolist()))


def write_float_columns(path, names, columns, header_lines=(),
                        numpy_repr=False):
    """Header block, one header row of ``names``, then one row per index of
    the equal-length float64 ``columns``.

    Each cell is ``repr`` of the value as a Python float, or with
    ``numpy_repr`` as a numpy float64 scalar. Each column is converted once
    with ``tolist`` and formatted as its rows are written.
    """
    write_cell_columns(
        path, names,
        [map(repr, np.asarray(c, dtype=np.float64).tolist()) for c in columns],
        header_lines, numpy_repr)


def write_cell_columns(path, names, cells, header_lines=(), numpy_repr=False):
    """:func:`write_float_columns` of columns already formatted: ``cells``
    holds one iterable of float reprs per column, as :func:`float_cells`
    returns them.

    The bytes are those of :func:`write_csv` on the same cells: a float
    repr holds no delimiter, quote or newline, so no cell needs quoting.
    Rows are streamed, never joined into one string.
    """
    pre, suf = (_NP_PREFIX, _NP_SUFFIX) if numpy_repr else ("", "")
    sep = suf + "," + pre
    with open_artifact(path, header_lines) as fh:
        csv.writer(fh).writerow(names)
        fh.writelines(pre + sep.join(row) + suf + "\r\n"
                      for row in zip(*cells, strict=True))


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
