"""CSV ingestion and emission.

Input files are delimiter-separated values with a required header row,
"." as the decimal separator, UTF-8 encoded. Text, bytes and file objects
are read alike: one leading byte-order mark is dropped, and CRLF and bare CR
line ends read as LF (universal newlines), also inside a quoted cell, so a
CR in a cell reads back as LF. Floats are written with ``repr``, which
round-trips exactly.

Output is written a column at a time: ``_table`` %-formats a whole table
from its columns, with no Python-level call per row. A cell that holds a
comma, a quote, LF or CR is quoted, with its quotes doubled, as RFC 4180 asks
(``_csv_cell``). ``_escaped`` quotes a column of labels, or escapes it for a
report's JSON, cell by cell only where one search over a half of the column
finds a cell that needs it; a float or an index never does.

``parse_cloud_csv`` first parses the data rows with ``np.loadtxt``.
It keeps that result only when the input has no quote character, no line
longer than the csv module's field limit, exactly one parsed row per
non-empty data line and only finite values; its floats are then bit-identical
to ``float()`` on each cell. Any other input goes through the row-by-row
parser, which alone raises the ``ParseError``/``SchemaError`` messages, so
they are the same whichever path ran first.

A table of at least ``_SPLIT_ROWS`` (2**14) rows is parsed, and written, in
two halves at once: a forked child does the second half and sends back its
result, its values and labels or its text, as one pickle (``_in_halves``);
this process keeps its own half as it is. That needs ``os.fork``, at least two
CPUs in this process's affinity mask, and a Python older than 3.12, whose
``os.fork`` warns in a process with a second thread (OpenBLAS's pool is
one); otherwise one process does it all. Each cell is parsed or formatted on
its own, so the joined halves have the bits and bytes of one process, and a
rejected half sends the whole input to the row-by-row parser.

Each half makes its own per-row Python objects. To parse, this process reads
only the header; each half splits its own part of the body into lines, drops
the empty ones, checks their length, takes its labels and runs
``np.loadtxt``. To write, each half converts its slice of a float column to
Python floats, escapes its own labels and formats its own indices.

A delimiter is one character other than the quote ``"``, CR and LF
(``check_delimiter``); a number cell is ASCII without ``_``, as
``np.loadtxt`` takes it, so ``1_0``, ``１２`` and ``١٢`` are not numbers on
either path.

``parse_indicator_csv`` reads its table through ``parse_cloud_csv`` too, then
checks the country codes and years: a missing or non-numeric cell in any row
is reported before an empty country code or a non-integer year in an earlier row.
"""

from __future__ import annotations

import csv
import gc
import io
import math
import os
import pickle
import re
import sys
from itertools import chain

import numpy as np

from .economy import STATE_VARIABLES, IndicatorSeries
from .errors import InvalidInputError, ParseError, SchemaError
from .fitting import PointCloud

INDICATOR_FIELDS = ("country", "year", *STATE_VARIABLES)


def _source_text(source) -> str:
    """The input as one str: bytes decoded as UTF-8, file objects read, one
    leading byte-order mark dropped, CRLF and bare CR turned into LF."""
    if not isinstance(source, (str, bytes)):
        source = source.read()
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from None
    if source.startswith("\ufeff"):
        source = source[1:]
    if "\r" in source:
        source = source.replace("\r\n", "\n").replace("\r", "\n")
    return source


def check_delimiter(delimiter) -> str:
    """``delimiter`` if it is one character other than ``"``, CR and LF, the
    characters that quote a cell or end a line; else InvalidInputError."""
    if not isinstance(delimiter, str) or len(delimiter) != 1 or delimiter in '"\r\n':
        raise InvalidInputError(
            f"delimiter must be a single character other than '\"', CR and LF, not {delimiter!r}"
        )
    return delimiter


def _text_rows(text: str, delimiter: str):
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    try:
        return [row for row in reader if row]
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None


def _resolve_column(name_or_index, header: list[str]) -> int:
    """Column lookup: header name first, integer position as fallback.

    Only ASCII digits, with an optional leading '-', name a position:
    ``str.isdigit`` also takes '²', which ``int`` rejects, and ``int`` takes
    other scripts' digits such as '١'.
    """
    text = str(name_or_index).strip()
    if text in header:
        return header.index(text)
    if text.isascii() and text.removeprefix("-").isdigit():
        idx = int(text)
        if 0 <= idx < len(header):
            return idx
    raise SchemaError(f"column {text!r} not found (header: {', '.join(header)})")


def _cell_float(row, idx: int, row_number: int, name: str) -> float:
    if idx >= len(row):
        raise ParseError(f"row {row_number}: missing value for column {name!r}")
    cell = row[idx].strip()
    try:
        if not cell.isascii() or "_" in cell:  # float() takes them, np.loadtxt does not
            raise ValueError
        value = float(cell)
    except ValueError:
        raise ParseError(
            f"row {row_number}, column {name!r}: not a number: {cell!r}"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"row {row_number}, column {name!r}: non-finite value {cell!r}")
    return value


def _select_columns(header: list[str], columns, label_column):
    """(coordinate indices, their names, label index or None) in ``header``."""
    label_idx = None
    if label_column is not None:
        label_idx = _resolve_column(label_column, header)
    if columns is None:
        indices = [i for i in range(len(header)) if i != label_idx]
    else:
        indices = [_resolve_column(c, header) for c in columns]
    if not indices:
        raise InvalidInputError("no coordinate columns selected")
    return indices, [header[i] for i in indices], label_idx


def parse_cloud_csv(source, columns=None, label_column=None, delimiter: str = ",") -> PointCloud:
    """Read a point cloud from CSV text, bytes, or a text file object.

    ``columns`` selects and orders the coordinate columns by header name or
    0-based index; None takes every column except the label column. Any
    non-numeric selected cell aborts the parse with the offending row and
    column named.
    """
    check_delimiter(delimiter)
    text = _source_text(source)
    cloud = _parse_cloud_bulk(text, columns, label_column, delimiter)
    if cloud is None:
        cloud = _parse_cloud_rows(text, columns, label_column, delimiter)
    return cloud


#: The header: the first non-empty line, as csv skips empty lines.
_HEADER = re.compile("\n*([^\n]*)")


def _parse_cloud_bulk(text: str, columns, label_column, delimiter: str):
    """The cloud from ``np.loadtxt`` on the data lines, in halves for a large
    table (``_in_halves``), or None where it may differ.

    Without a quote character every csv row is its line split at the
    delimiter, so the header, the labels and the row count can be taken from
    the lines. None means: let ``_parse_cloud_rows`` parse the input or name
    its error.

    This process takes the header only. The body is cut after the first
    newline from its middle on, and each half splits its own lines, drops the
    empty ones, checks their length, takes its labels and parses its floats;
    the child's half crosses the pipe as a pickle, and the halves' values and
    labels are concatenated here.
    """
    if '"' in text:
        return None
    header = _HEADER.match(text)
    if len(header[1]) > csv.field_size_limit():
        return None
    try:
        names = [h.strip() for h in header[1].split(delimiter)]
        indices, _, label_idx = _select_columns(names, columns, label_column)
    except (SchemaError, InvalidInputError):
        return None
    start = header.end() + 1
    n = text.count("\n", start)  # the data rows, if no line is empty
    mid = (text.find("\n", (start + len(text)) // 2) + 1) or len(text)

    def parse(lo: int, hi: int):
        """One half's float64 values and its labels (None without a label
        column). The first half (``lo`` 0) starts at ``start``, the second at
        ``mid``; the last (``hi`` n) ends at the end of the text, the first
        at ``mid``."""
        lines = [line for line in text[mid if lo else start:mid if hi < n else None].split("\n")
                 if line]  # csv skips empty lines
        if not lines:
            return np.empty((0, len(indices))), None if label_idx is None else []
        if max(map(len, lines)) > csv.field_size_limit():
            raise ValueError("a line longer than a csv field may be")
        values = np.loadtxt(lines, delimiter=delimiter, comments=None, usecols=indices, ndmin=2)
        if values.shape[0] != len(lines) or not np.isfinite(values).all():
            raise ValueError("not one finite row per line")
        if label_idx is None:
            return values, None
        try:
            return values, [line.split(delimiter)[label_idx].strip() for line in lines]
        except IndexError:
            raise ValueError("a line without its label") from None

    try:
        halves = _in_halves(parse, n)
    except ValueError:
        return None
    points = np.concatenate([values for values, _ in halves])  # writable
    if not len(points):
        return None  # no data rows: the row parser names the error
    if label_idx is None:
        return PointCloud(points)
    return PointCloud(points, labels=chain.from_iterable(labels for _, labels in halves))


def _parse_cloud_rows(text: str, columns, label_column, delimiter: str) -> PointCloud:
    """Row-by-row parse of ``_source_text`` output; names the row of any error."""
    rows = _text_rows(text, delimiter)
    if not rows:
        raise InvalidInputError("empty input: a header row is required")
    header = [h.strip() for h in rows[0]]
    data = rows[1:]
    if not data:
        raise InvalidInputError("no data rows after the header")
    indices, names, label_idx = _select_columns(header, columns, label_column)

    points = []
    labels = [] if label_idx is not None else None
    for offset, row in enumerate(data):
        row_number = offset + 2  # header is row 1
        points.append(
            [_cell_float(row, idx, row_number, name) for idx, name in zip(indices, names)]
        )
        if label_idx is not None:
            if label_idx >= len(row):
                raise ParseError(
                    f"row {row_number}: missing value for column {header[label_idx]!r}"
                )
            labels.append(row[label_idx].strip())
    return PointCloud(points, labels=tuple(labels) if labels is not None else None)


#: A cell that holds one of these characters is quoted when written.
_QUOTED = re.compile('[,"\r\n]')


def _csv_cell(text: str) -> str:
    """``text`` as one CSV cell: quoted, with its quotes doubled, if it holds
    a comma, a quote, LF or CR. ``csv.writer`` with an LF line end leaves a
    CR bare, and a CR read back ends the row."""
    return '"' + text.replace('"', '""') + '"' if _QUOTED.search(text) else text


def _escaped(cells, pattern, escape):
    """A label column of ``_table``: each half's str ``cells``, each as
    ``escape`` writes it where ``pattern`` (a character that ``escape``
    changes) is in some cell of the half; else the half's cells themselves,
    found by one search with no call per cell. ``escape`` leaves a cell
    without such a character as it is, so the halves write what one search
    over the whole column would. A ``range`` of index labels is returned as
    it is: digits and ``-`` need no escaping."""
    if isinstance(cells, range):
        return cells

    def column(lo: int, hi: int):
        part = cells[lo:hi]
        return list(map(escape, part)) if pattern.search("".join(part)) else part

    return column


def _csv_line(cells) -> str:
    """One row of str ``cells`` as a CSV line. A row of one empty cell is
    written ``""``, as ``csv.writer`` writes it, so it does not read as a
    blank line."""
    line = ",".join(map(_csv_cell, cells))
    return (line or ('""' if cells else "")) + "\n"


def _csv_text(rows) -> str:
    """The rows of the iterable ``rows`` (sequences of str) as CSV with LF
    line ends."""
    return "".join(map(_csv_line, rows))


#: Tables of at least this many rows are parsed and written in two halves,
#: one in a forked child (``_in_halves``).
_SPLIT_ROWS = 2**14


def _splits(n: int) -> bool:
    """Whether ``_in_halves`` forks for ``n`` rows. From Python 3.12 on,
    ``os.fork`` warns in a process with a second thread, and OpenBLAS's
    thread pool is one."""
    return (
        n >= _SPLIT_ROWS
        and sys.version_info < (3, 12)
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
    )


def _in_halves(work, n: int) -> list:
    """``[work(0, h), work(h, n)]`` with ``h = n // 2``, the second half
    computed by a forked child while this process computes the first; or
    ``[work(0, n)]`` below ``_SPLIT_ROWS`` rows or where ``_splits`` says no.

    ``work(lo, hi)`` returns a picklable result for rows ``lo`` to ``hi``
    that depends on those rows alone. The child runs only ``work`` and
    pickles its result into its pipe, and leaves by ``os._exit``, so no
    atexit handler, buffer flush or finaliser runs in it. This process keeps
    its own half as ``work`` returned it, and unpickles only what its own
    child wrote. If the child fails or its pickle is not whole, this process
    computes the second half itself. If the first half raises, the pipe's
    read end is closed before the child is reaped, so a child blocked on a
    full pipe gets EPIPE and exits.
    """
    if not _splits(n):
        return [work(0, n)]
    h = n // 2
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return [work(0, n)]
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return [work(0, n)]
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            gc.disable()
            with open(write_fd, "wb") as pipe:
                pickle.dump(work(h, n), pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            first = work(0, h)
            second = pipe.read()
    finally:
        try:
            status = os.waitpid(pid, 0)[1]
        except ChildProcessError:  # reaped elsewhere: SIGCHLD is ignored
            status = -1
    if status == 0:
        try:
            return [first, pickle.loads(second)]
        except (pickle.UnpicklingError, EOFError):  # not a whole pickle
            pass
    return [first, work(h, n)]  # the child failed


def _cells(column, lo: int, hi: int):
    """Rows ``lo`` to ``hi`` of one column of ``_table``: a function's
    result, a float array's slice as Python floats, or a sequence's slice."""
    if callable(column):
        return column(lo, hi)
    part = column[lo:hi]
    return part.tolist() if isinstance(part, np.ndarray) else part


def _table(row: str, n: int, columns) -> str:
    """``row % cells`` for each of ``n`` rows of ``columns``, one %-format
    per half of the table (``_in_halves``). A column is a sequence (such as a
    ``range`` of indices), a float array, or a function of ``(lo, hi)`` that
    returns the cells of those rows (``_escaped``); each half takes its own
    rows of each (``_cells``), and the child's text crosses the pipe as a
    pickle."""
    def work(lo: int, hi: int) -> str:
        cells = chain.from_iterable(zip(*(_cells(column, lo, hi) for column in columns)))
        return (row * (hi - lo)) % tuple(cells)

    return "".join(_in_halves(work, n))


def format_cloud_csv(cloud: PointCloud, column_names, label_name=None) -> str:
    """Write a cloud as CSV with full-precision floats.

    With ``label_name`` the first column holds the labels, or else the indices.
    """
    header = list(column_names)
    if len(header) != cloud.dim:
        raise InvalidInputError("one column name per coordinate is required")
    columns = list(cloud.points.T)
    row = ",".join(["%r"] * cloud.dim) + "\n"
    if label_name is not None:
        header.insert(0, label_name)
        columns.insert(0, _escaped(cloud.labels or range(len(cloud)), _QUOTED, _csv_cell))
        row = "%s," + row
    return _csv_line(header) + _table(row, len(cloud), columns)


def format_indicator_csv(series_list) -> str:
    """Write indicator series in the long table schema INDICATOR_FIELDS."""
    rows = (
        (s.country, str(year), *map(repr, values))
        for s in series_list
        for year, *values in zip(s.years, *(getattr(s, v) for v in STATE_VARIABLES))
    )
    return _csv_text(chain([INDICATOR_FIELDS], rows))


def parse_indicator_csv(source, delimiter: str = ",") -> list[IndicatorSeries]:
    """Read indicator series from the long table schema INDICATOR_FIELDS.

    The table is read by ``parse_cloud_csv`` with the country column as
    labels, so it gets a cloud's errors, and the order of errors the module
    docstring gives.

    Rows are grouped by country in order of first appearance; within a
    country, rows may come in any year order and are returned sorted by
    year. A year repeated within a country is rejected.
    """
    cloud = parse_cloud_csv(
        source, columns=INDICATOR_FIELDS[1:], label_column="country", delimiter=delimiter
    )
    grouped: dict[str, list[list[float]]] = {}
    for row_number, (country, record) in enumerate(zip(cloud.labels, cloud.points.tolist()), 2):
        if not country:
            raise ParseError(f"row {row_number}: empty country code")
        if record[0] != int(record[0]):
            raise ParseError(f"row {row_number}, column 'year': not an integer")
        grouped.setdefault(country, []).append(record)
    return [IndicatorSeries(country, *zip(*records)) for country, records in grouped.items()]


__all__ = [
    "INDICATOR_FIELDS",
    "check_delimiter",
    "parse_cloud_csv",
    "format_cloud_csv",
    "format_indicator_csv",
    "parse_indicator_csv",
]
