import csv
import dataclasses
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoreg import InvalidInputError, ParseError, SchemaError, v4_dataset
from orthoreg import dataio
from orthoreg.dataio import (
    format_cloud_csv,
    format_indicator_csv,
    parse_cloud_csv,
    parse_indicator_csv,
)
from orthoreg.economy import IndicatorSeries
from orthoreg.errors import OrthoregError
from orthoreg.fitting import PointCloud

from _helpers import LABELS, parse_outcome, reference_csv, reference_parse_indicator_csv

SAMPLE = "year,u,g,i\n1994,13.7,4.8,13.4\n1995,13.1,6.7,9.9\n"


class TestParseCloudCsv:
    def test_named_columns_and_label(self):
        cloud = parse_cloud_csv(SAMPLE, columns=("u", "g", "i"), label_column="year")
        assert (cloud.points[0] == [13.7, 4.8, 13.4]).all()
        assert cloud.labels == ("1994", "1995")

    def test_column_order_respected(self):
        cloud = parse_cloud_csv(SAMPLE, columns=("i", "u"))
        assert (cloud.points[0] == [13.4, 13.7]).all()

    def test_index_columns(self):
        cloud = parse_cloud_csv(SAMPLE, columns=("1", "2"), label_column="0")
        assert (cloud.points[0] == [13.7, 4.8]).all()
        assert cloud.labels[0] == "1994"

    def test_default_columns_skip_label(self):
        cloud = parse_cloud_csv(SAMPLE, label_column="year")
        assert cloud.dim == 3

    def test_bytes_input(self):
        cloud = parse_cloud_csv(SAMPLE.encode("utf-8"), columns=("u", "g"))
        assert len(cloud) == 2

    def test_bytes_with_byte_order_mark(self):
        cloud = parse_cloud_csv(b"\xef\xbb\xbf" + SAMPLE.encode("utf-8"), columns=("year", "u"))
        assert (cloud.points[0] == [1994.0, 13.7]).all()

    def test_text_file_object(self):
        cloud = parse_cloud_csv(io.StringIO(SAMPLE), columns=("year", "u"))
        assert (cloud.points == [[1994.0, 13.7], [1995.0, 13.1]]).all()

    def test_binary_file_object_like_its_bytes(self):
        data = b"\xef\xbb\xbf" + SAMPLE.replace("\n", "\r\n").encode("utf-8")
        cloud = parse_cloud_csv(io.BytesIO(data), label_column="year")
        assert (cloud.points == [[13.7, 4.8, 13.4], [13.1, 6.7, 9.9]]).all()
        assert cloud.labels == ("1994", "1995")

    def test_str_with_byte_order_mark(self):
        cloud = parse_cloud_csv("\ufeff" + SAMPLE, columns=("year", "u"))
        assert (cloud.points[0] == [1994.0, 13.7]).all()
        series = parse_indicator_csv("\ufeff" + format_indicator_csv(v4_dataset()))
        assert series == v4_dataset()

    @pytest.mark.parametrize("line_end", ["\r\n", "\r"])
    def test_crlf_and_bare_cr_line_ends(self, line_end):
        cloud = parse_cloud_csv(f"x,y{line_end}1,2{line_end}3,4{line_end}")
        assert (cloud.points == [[1.0, 2.0], [3.0, 4.0]]).all()

    def test_csv_reader_error_is_parse_error(self):
        # The stray quote opens a field that swallows every later row.
        text = 'x,y\n1,"2\n' + "3.25,4.5\n" * 30_000
        with pytest.raises(ParseError, match="field larger than field limit"):
            parse_cloud_csv(text, columns=("x", "y"))

    def test_header_only(self):
        with pytest.raises(InvalidInputError):
            parse_cloud_csv("year,u,g,i\n", columns=("u",))

    def test_empty_input(self):
        with pytest.raises(InvalidInputError):
            parse_cloud_csv("", columns=("u",))

    def test_missing_column_names_it(self):
        with pytest.raises(SchemaError, match="gdp"):
            parse_cloud_csv(SAMPLE, columns=("u", "gdp"))

    @pytest.mark.parametrize("name", ["\u00b2", "\u0661", "--1", "+1", "1.0", "-1", "4"])
    def test_only_ascii_digits_name_a_position(self, name):
        """'²' passes str.isdigit but not int, and int takes the Arabic-Indic
        '١' as 1: neither names a column, in the bulk or the row parser."""
        assert dataio._parse_cloud_bulk(SAMPLE, (name, "u"), None, ",") is None
        with pytest.raises(SchemaError, match="not found"):
            dataio._parse_cloud_rows(SAMPLE, (name, "u"), None, ",")
        with pytest.raises(SchemaError, match="not found"):
            parse_cloud_csv(SAMPLE, label_column=name)

    def test_a_header_name_of_digits_is_a_name(self):
        cloud = parse_cloud_csv("\u00b2,1\n2,3\n4,5\n", columns=("\u00b2", "1"))
        assert (cloud.points == [[2.0, 3.0], [4.0, 5.0]]).all()

    def test_non_numeric_cell_names_row_and_column(self):
        bad = "year,u,g,i\n1994,13.7,n/a,13.4\n"
        with pytest.raises(ParseError, match=r"row 2.*'g'"):
            parse_cloud_csv(bad, columns=("u", "g", "i"))

    def test_non_finite_cell_rejected(self):
        bad = "x,y\n1.0,nan\n"
        with pytest.raises(ParseError, match="non-finite"):
            parse_cloud_csv(bad, columns=("x", "y"))

    def test_short_row_rejected(self):
        bad = "x,y\n1.0\n"
        with pytest.raises(ParseError, match="row 2"):
            parse_cloud_csv(bad, columns=("x", "y"))

    def test_semicolon_delimiter(self):
        text = "x;y\n1.5;2.5\n"
        cloud = parse_cloud_csv(text, delimiter=";")
        assert (cloud.points == [[1.5, 2.5]]).all()

    @pytest.mark.parametrize("delimiter", ["", ";;", "\r", "\n", '"', "\r\n"])
    def test_a_delimiter_is_one_character_other_than_a_quote_or_line_end(self, delimiter):
        message = f"delimiter must be a single character other than '\"', CR and LF, not {delimiter!r}"
        for parse in (parse_cloud_csv, parse_indicator_csv):
            with pytest.raises(InvalidInputError) as raised:
                parse(SAMPLE, delimiter=delimiter)
            assert str(raised.value) == message

    @pytest.mark.parametrize("cell", ["1_0", "1_000.5", "\u0661\u0662", "\uff11\uff12"])
    def test_a_number_is_ascii_without_underscores_on_both_paths(self, cell):
        """``float()`` takes these cells and ``np.loadtxt`` does not; the row
        parser, which a quote anywhere in the input forces, agrees with it."""
        message = f"row 3, column 'x': not a number: {cell!r}"
        for header in ("x,y", '"x",y'):
            text = f"{header}\n3,4\n{cell},2\n"
            assert dataio._parse_cloud_bulk(text, None, None, ",") is None
            for parse in (parse_cloud_csv, lambda t: dataio._parse_cloud_rows(t, None, None, ",")):
                with pytest.raises(ParseError) as raised:
                    parse(text)
                assert str(raised.value) == message


_CLEAN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds(lambda m, e: f"{m:.{e % 20}e}", st.floats(-1e3, 1e3), st.integers(-330, 330)),
    st.integers(-10**6, 10**6).map(str),
)
_ODD_CELLS = st.sampled_from(
    ["nan", "inf", "-inf", "1e999", "1_0", "#", "# 1", "", " ", " 2.5 ", '"1.5"', '"a,b"',
     "abc", "0x10", "+.5", "5.", "\u0661", "1\t"]
)
_LABEL_CELLS = st.text(alphabet="ab1 é", max_size=3) | st.sampled_from(
    ['"a,b"', '"a;b"', '"q"', '"x\ty"']
)


@st.composite
def _cloud_csv_inputs(draw):
    """CSV sources with the arguments for parse_cloud_csv, often clean, often not."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    header = ["x", "y", "z"][: draw(st.integers(1, 3))]
    label_at = draw(st.none() | st.integers(0, len(header)))
    if label_at is not None:
        header.insert(label_at, "name")
    dirty = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        row = [
            draw(_LABEL_CELLS) if name == "name"
            else draw(_ODD_CELLS if dirty and draw(st.booleans()) else _CLEAN_CELLS)
            for name in header
        ]
        if dirty and draw(st.booleans()):  # ragged row
            row = row[: draw(st.integers(0, len(row)))] + draw(st.lists(_CLEAN_CELLS, max_size=2))
        rows.append(delimiter.join(row))
    lines = [delimiter.join(header)] + rows
    if draw(st.booleans()):
        lines = [line + delimiter for line in lines]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    line_end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = line_end.join(lines) + draw(st.sampled_from(["", line_end]))
    if draw(st.booleans()):
        text = "\ufeff" + text
    source = text.encode("utf-8") if draw(st.booleans()) else text

    names = header + ["w"]  # "w" is never in the header
    column = st.sampled_from(names) | st.integers(0, len(header)) | st.integers(0, 3).map(str)
    columns = draw(st.none() | st.lists(column, min_size=1, max_size=3).map(tuple))
    label_column = draw(st.none() | column)
    return source, columns, label_column, delimiter


class TestBulkParseMatchesRowParse:
    """parse_cloud_csv against the row-by-row parser it falls back to."""

    @settings(max_examples=400, deadline=None)
    @given(_cloud_csv_inputs())
    def test_same_points_labels_or_error(self, args):
        source, columns, label_column, delimiter = args
        reference = parse_outcome(
            dataio._parse_cloud_rows, dataio._source_text(source), columns, label_column,
            delimiter,
        )
        assert parse_outcome(parse_cloud_csv, source, columns, label_column, delimiter) == reference

    def test_field_over_the_csv_limit_is_an_error(self):
        text = "x,name\n1," + "a" * (csv.field_size_limit() + 1) + "\n"
        with pytest.raises(ParseError, match="field larger than field limit"):
            parse_cloud_csv(text, label_column="name")

    @pytest.mark.parametrize(
        "columns, label_column",
        [(None, "name"), (("z", "x"), None), (("2", 0), "name"), (None, "3")],
    )
    def test_clean_input_takes_the_bulk_path(self, columns, label_column):
        text = "x,y,z,name\n" + "".join(f"{i / 7!r},{-i}e3, {i}.5 ,p{i} \n" for i in range(50))
        bulk = dataio._parse_cloud_bulk(text, columns, label_column, ",")
        assert bulk is not None
        reference = dataio._parse_cloud_rows(text, columns, label_column, ",")
        assert bulk.points.tobytes() == reference.points.tobytes()
        assert bulk.labels == reference.labels


def _format_reference(cloud, column_names, label_name=None):
    """format_cloud_csv as one csv.writer row per point."""
    rows = [[repr(float(v)) for v in point] for point in cloud.points]
    if label_name is None:
        return reference_csv([column_names, *rows])
    labels = cloud.labels or tuple(str(i) for i in range(len(cloud)))
    return reference_csv(
        [[label_name, *column_names], *([label, *row] for label, row in zip(labels, rows))]
    )


_COORDINATES = st.sampled_from([-0.0, 5e-324, 1e16, 1e-5]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 6), st.booleans(), st.none() | LABELS)
def test_format_cloud_csv_matches_row_writer(data, dim, n, labeled, label_name):
    points = data.draw(st.lists(st.lists(_COORDINATES, min_size=dim, max_size=dim),
                                min_size=n, max_size=n))
    labels = data.draw(st.lists(LABELS, min_size=n, max_size=n)) if labeled else None
    names = data.draw(st.lists(LABELS, min_size=dim, max_size=dim))
    cloud = PointCloud(points, labels=labels)
    assert format_cloud_csv(cloud, names, label_name) == _format_reference(
        cloud, names, label_name
    )


class TestCloudCsvRoundTrip:
    def test_full_precision(self):
        cloud = PointCloud(
            [[0.1, 0.2, 0.30000000000000004], [1 / 3, 2 / 3, 1e-17]],
            labels=("a", "b"),
        )
        text = format_cloud_csv(cloud, ("x", "y", "z"), label_name="t")
        back = parse_cloud_csv(text, columns=("x", "y", "z"), label_column="t")
        assert (back.points == cloud.points).all()
        assert back.labels == cloud.labels

    def test_a_cr_in_a_label_is_quoted_and_reads_back_as_lf(self):
        cloud = PointCloud([[1, 2], [3, 4.5], [5, 7]], labels=["a\rb", "c", "d"])
        text = format_cloud_csv(cloud, ["x", "y"], label_name="name")
        assert text == 'name,x,y\n"a\rb",1.0,2.0\nc,3.0,4.5\nd,5.0,7.0\n'
        back = parse_cloud_csv(text, label_column="name")
        assert back.labels == ("a\nb", "c", "d")
        assert (back.points == cloud.points).all()

    @pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z", "w")])
    def test_one_column_name_per_coordinate(self, names):
        cloud = PointCloud([[1.0, 2.0, 3.0]])
        with pytest.raises(InvalidInputError, match="one column name per coordinate"):
            format_cloud_csv(cloud, names)
        with pytest.raises(InvalidInputError, match="one column name per coordinate"):
            format_cloud_csv(cloud, names, label_name="i")


class TestIndicatorCsv:
    def test_round_trip_is_lossless(self):
        data = v4_dataset()
        text = format_indicator_csv(data)
        assert data == parse_indicator_csv(text)

    def test_a_cr_in_a_country_code_reads_back_as_lf(self):
        series = IndicatorSeries("S\rK", (1994, 1995, 1996), (1, 2, 3), (2, 3, 1), (3, 1, 2))
        (back,) = parse_indicator_csv(format_indicator_csv([series]))
        assert back == dataclasses.replace(series, country="S\nK")

    def test_schema_enforced(self):
        with pytest.raises(SchemaError):
            parse_indicator_csv("country,year,unemployment\nSK,1994,13.7\n")

    @pytest.mark.parametrize("column", ["year", "gdp_change"])
    @pytest.mark.parametrize("cell", ["1_995", "\u0661\u0669\u0669\u0665", "\uff11\uff19\uff19\uff15"])
    @pytest.mark.parametrize("country", ["SK", '"SK"'])
    def test_a_number_is_ascii_without_underscores(self, column, cell, country):
        row = {"year": "1995", "gdp_change": "2"} | {column: cell}
        text = ("country,year,unemployment,gdp_change,inflation\n"
                f"SK,1994,1,2,3\n{country},{row['year']},1,{row['gdp_change']},4\n")
        with pytest.raises(ParseError) as raised:
            parse_indicator_csv(text)
        assert str(raised.value) == f"row 3, column {column!r}: not a number: {cell!r}"

    def test_year_must_be_integer(self):
        bad = "country,year,unemployment,gdp_change,inflation\nSK,1994.5,1,2,3\n"
        with pytest.raises(ParseError, match="year"):
            parse_indicator_csv(bad)

    def test_groups_by_country_first_seen(self):
        text = (
            "country,year,unemployment,gdp_change,inflation\n"
            "B,2000,1,2,3\nA,2000,4,5,6\nB,2001,7,8,9\n"
        )
        series = parse_indicator_csv(text)
        assert [s.country for s in series] == ["B", "A"]
        assert series[0].years == (2000, 2001)

    def test_unsorted_years_come_back_sorted(self):
        text = (
            "country,year,unemployment,gdp_change,inflation\n"
            "A,2002,3,30,0.3\nA,2000,1,10,0.1\nA,2001,2,20,0.2\n"
        )
        (series,) = parse_indicator_csv(text)
        assert series.years == (2000, 2001, 2002)
        assert series.unemployment == (1.0, 2.0, 3.0)
        assert series.gdp_change == (10.0, 20.0, 30.0)
        assert series.inflation == (0.1, 0.2, 0.3)


_H = "country,year,unemployment,gdp_change,inflation\n"

#: Indicator tables that each break one rule, with what parse_indicator_csv
#: gives: (country, years, unemployment, gdp_change, inflation) per series,
#: or the error type and message.
HOSTILE_INDICATOR_TABLES = {
    "missing-country-column": (
        "year,unemployment,gdp_change,inflation\n1995,1,2,3\n",
        (SchemaError, "column 'country' not found "
                      "(header: year, unemployment, gdp_change, inflation)"),
    ),
    "missing-inflation-column": (
        "country,year,unemployment,gdp_change\nSK,1995,1,2\n",
        (SchemaError, "column 'inflation' not found "
                      "(header: country, year, unemployment, gdp_change)"),
    ),
    "empty-input": ("", (InvalidInputError, "empty input: a header row is required")),
    "header-only": (_H, (InvalidInputError, "no data rows after the header")),
    "short-row": (_H + "SK,1995,1\n", (ParseError, "row 2: missing value for column 'gdp_change'")),
    "country-last-missing": (
        "year,unemployment,gdp_change,inflation,country\n1995,1,2,3\n",
        (ParseError, "row 2: missing value for column 'country'"),
    ),
    "empty-country": (_H + " ,1995,1,2,3\n", (ParseError, "row 2: empty country code")),
    "year-fraction": (
        _H + "SK,1995.5,1,2,3\n", (ParseError, "row 2, column 'year': not an integer")
    ),
    "year-text": (
        _H + "SK,abc,1,2,3\n", (ParseError, "row 2, column 'year': not a number: 'abc'")
    ),
    "year-exponent": (
        _H + "SK,1e3,1,2,3\nSK,1001,4,5,6\n",
        [("SK", (1000, 1001), (1.0, 4.0), (2.0, 5.0), (3.0, 6.0))],
    ),
    "non-number": (
        _H + "SK,1995,1,x,3\n", (ParseError, "row 2, column 'gdp_change': not a number: 'x'")
    ),
    "nan": (
        _H + "SK,1995,1,2,nan\n",
        (ParseError, "row 2, column 'inflation': non-finite value 'nan'"),
    ),
    "inf": (
        _H + "SK,1995,inf,2,3\n",
        (ParseError, "row 2, column 'unemployment': non-finite value 'inf'"),
    ),
    "duplicate-year": (
        _H + "SK,1995,1,2,3\nSK,1995,4,5,6\n",
        (InvalidInputError, "SK: duplicate years in series"),
    ),
    "quoted-cells": (
        _H + '"SK","1995","1.5",2,"3"\n"C,Z",1996,4,5,6\n',
        [("SK", (1995,), (1.5,), (2.0,), (3.0,)), ("C,Z", (1996,), (4.0,), (5.0,), (6.0,))],
    ),
    "stray-quote": (
        _H + 'SK,1995,1,"2,3\nSK,1996,4,5,6\n',
        (ParseError, "row 2, column 'gdp_change': not a number: '2,3\\nSK,1996,4,5,6'"),
    ),
    "crlf-bom": (
        "\ufeff" + (_H + "SK,1995,1,2,3\nCZ,1995,4,5,6\nSK,1994,7,8,9\n").replace("\n", "\r\n"),
        [("SK", (1994, 1995), (7.0, 1.0), (8.0, 2.0), (9.0, 3.0)),
         ("CZ", (1995,), (4.0,), (5.0,), (6.0,))],
    ),
    "blank-lines": (
        "\n" + _H + "\nSK,1995,1,2,3\n\n\nSK,1996,4,5,6\n\n",
        [("SK", (1995, 1996), (1.0, 4.0), (2.0, 5.0), (3.0, 6.0))],
    ),
}


class TestHostileIndicatorTables:
    @pytest.mark.parametrize(
        "text, expected", HOSTILE_INDICATOR_TABLES.values(), ids=HOSTILE_INDICATOR_TABLES
    )
    def test_series_or_error(self, text, expected):
        try:
            series = parse_indicator_csv(text)
        except OrthoregError as exc:
            assert (type(exc), str(exc)) == expected
        else:
            assert [
                (s.country, s.years, s.unemployment, s.gdp_change, s.inflation) for s in series
            ] == expected

    def test_cell_faults_come_before_schema_faults_in_earlier_rows(self):
        text = _H + "SK,1994.5,1,2,3\nSK,1995,x,2,3\n"
        with pytest.raises(ParseError) as info:
            parse_indicator_csv(text)
        assert str(info.value) == "row 3, column 'unemployment': not a number: 'x'"
        with pytest.raises(ParseError, match="^row 2: empty country code$"):
            parse_indicator_csv(_H + ",1994,1,2,3\nSK,1995,1,2,3\n")


_COUNTRY_CODES = st.text(alphabet='AZé ,;"', min_size=1, max_size=4).filter(str.strip)
_VALUE_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.floats(-1e3, 1e3).map(lambda v: f" {v:.3e} "),
)


@st.composite
def _indicator_tables(draw):
    """A valid indicator table in any column order, written by csv.writer."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    header = draw(st.permutations([*dataio.INDICATOR_FIELDS, "note"]))
    rows = []
    for country in draw(st.lists(_COUNTRY_CODES, min_size=1, max_size=3, unique_by=str.strip)):
        years = draw(st.lists(st.integers(1900, 2100), min_size=1, max_size=4, unique=True))
        for year in years:
            cells = {
                "country": country,
                "year": draw(st.sampled_from([str(year), f"{year}.0", f" {year} "])),
                "note": draw(st.text(alphabet='ab ,;"\n', max_size=3)),
            }
            for name in ("unemployment", "gdp_change", "inflation"):
                cells[name] = draw(_VALUE_CELLS)
            rows.append([cells[name] for name in header])
    order = draw(st.permutations(range(len(rows))))
    out = io.StringIO()
    line_end = draw(st.sampled_from(["\n", "\r\n"]))
    writer = csv.writer(out, delimiter=delimiter, lineterminator=line_end)
    writer.writerow(header)
    writer.writerows(rows[i] for i in order)
    return out.getvalue(), delimiter


@settings(max_examples=200, deadline=None)
@given(_indicator_tables())
def test_valid_indicator_tables_match_the_csv_reader_reference(table):
    text, delimiter = table
    assert parse_indicator_csv(text, delimiter) == reference_parse_indicator_csv(text, delimiter)
