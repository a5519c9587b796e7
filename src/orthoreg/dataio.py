"""CSV ingestion and emission.

Input files are delimiter-separated values with a required header row,
"." as the decimal separator, UTF-8 encoded. Text, bytes and file objects
are read alike: one leading byte-order mark is dropped, and CRLF and bare CR
line ends read as LF (universal newlines). Floats are written with ``repr``,
which round-trips exactly.

``parse_cloud_csv`` first parses the data rows with one ``np.loadtxt`` call.
It keeps that result only when the input has no quote character, no line
longer than the csv module's field limit, exactly one parsed row per
non-empty data line and only finite values; its floats are then bit-identical
to ``float()`` on each cell. Any other input goes through the row-by-row
parser, which alone raises the ``ParseError``/``SchemaError`` messages, so
they are the same whichever path ran first.

``parse_indicator_csv`` reads its table through ``parse_cloud_csv`` too, then
checks the country codes and years: a missing or non-numeric cell in any row
is reported before an empty country code or a non-integer year in an earlier row.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from .economy import IndicatorSeries
from .errors import InvalidInputError, ParseError, SchemaError
from .fitting import PointCloud

INDICATOR_FIELDS = ("country", "year", "unemployment", "gdp_change", "inflation")


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
    text = _source_text(source)
    cloud = _parse_cloud_bulk(text, columns, label_column, delimiter)
    if cloud is None:
        cloud = _parse_cloud_rows(text, columns, label_column, delimiter)
    return cloud


def _parse_cloud_bulk(text: str, columns, label_column, delimiter: str):
    """The cloud from one ``np.loadtxt`` call, or None where it may differ.

    Without a quote character every csv row is its line split at the
    delimiter, so the header, the labels and the row count can be taken from
    the lines. None means: let ``_parse_cloud_rows`` parse the input or name
    its error.
    """
    if len(delimiter) != 1 or delimiter in '"\n' or '"' in text:
        return None
    lines = [line for line in text.split("\n") if line]  # csv skips empty lines
    if len(lines) < 2 or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        header = [h.strip() for h in lines[0].split(delimiter)]
        indices, _, label_idx = _select_columns(header, columns, label_column)
    except (SchemaError, InvalidInputError):
        return None
    try:
        values = np.loadtxt(
            lines, delimiter=delimiter, comments=None, skiprows=1, usecols=indices, ndmin=2
        )
    except ValueError:
        return None
    if values.shape[0] != len(lines) - 1 or not np.isfinite(values).all():
        return None
    labels = None
    if label_idx is not None:
        try:
            labels = tuple(line.split(delimiter)[label_idx].strip() for line in lines[1:])
        except IndexError:
            return None
    return PointCloud(values, labels=labels)


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


def format_cloud_csv(cloud: PointCloud, column_names, label_name=None) -> str:
    """Write a cloud as CSV with full-precision floats.

    With ``label_name`` the first column holds the cloud's labels, or the
    point indices when it has none.
    """
    column_names = list(column_names)
    if len(column_names) != cloud.dim:
        raise InvalidInputError("one column name per coordinate is required")
    columns = [map(float.__repr__, column) for column in cloud.points.T.tolist()]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if label_name is not None:
        writer.writerow([label_name, *column_names])
        writer.writerows(zip(cloud.labels or map(str, range(len(cloud))), *columns))
    else:
        writer.writerow(column_names)
        writer.writerows(zip(*columns))
    return out.getvalue()


def format_indicator_csv(series_list) -> str:
    """Write indicator series in the long table schema INDICATOR_FIELDS."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(INDICATOR_FIELDS)
    for s in series_list:
        for year, u, g, i in zip(s.years, s.unemployment, s.gdp_change, s.inflation):
            writer.writerow([s.country, year, repr(float(u)), repr(float(g)), repr(float(i))])
    return out.getvalue()


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
    "parse_cloud_csv",
    "format_cloud_csv",
    "format_indicator_csv",
    "parse_indicator_csv",
]
