import pytest

from orthoreg import InvalidInputError, ParseError, SchemaError, v4_dataset
from orthoreg.dataio import (
    format_cloud_csv,
    format_indicator_csv,
    parse_cloud_csv,
    parse_indicator_csv,
)
from orthoreg.fitting import PointCloud

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

    def test_header_only(self):
        with pytest.raises(InvalidInputError):
            parse_cloud_csv("year,u,g,i\n", columns=("u",))

    def test_empty_input(self):
        with pytest.raises(InvalidInputError):
            parse_cloud_csv("", columns=("u",))

    def test_missing_column_names_it(self):
        with pytest.raises(SchemaError, match="gdp"):
            parse_cloud_csv(SAMPLE, columns=("u", "gdp"))

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


class TestIndicatorCsv:
    def test_round_trip_is_lossless(self):
        data = v4_dataset()
        text = format_indicator_csv(data)
        assert data == parse_indicator_csv(text)

    def test_schema_enforced(self):
        with pytest.raises(SchemaError):
            parse_indicator_csv("country,year,unemployment\nSK,1994,13.7\n")

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
