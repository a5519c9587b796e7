"""One input rule: every public function and constructor that takes numbers
converts them with ``errors.float_array``, so a ragged, non-numeric or
wrongly shaped value raises InvalidInputError (exit 3), never numpy's or
Python's own ValueError or TypeError."""

import warnings

import numpy as np
import pytest

from orthoreg.economy import IndicatorSeries
from orthoreg.eigen import eigen_symmetric
from orthoreg.errors import InvalidInputError, float_array
from orthoreg.fitting import (
    FittedHyperplane,
    FittedLine,
    PointCloud,
    ResidualStats,
    distance_point_to_line,
    distance_point_to_plane,
)
from orthoreg.regression import (
    angle_between_lines_deg,
    compare_ols_tls,
    conjugate_line,
    ols_line,
)
from orthoreg.report import build_fit_report, render_fit, report_from_dict, report_to_dict
from orthoreg.svg import polyline_chart, scatter_chart
from orthoreg.synthetic import LineCloudSpec

STATS = ResidualStats([0.0, 1.0])
LINE = FittedLine([0.0, 0.0], [1.0, 0.0], STATS)
PLANE = FittedHyperplane([0.0, 1.0], [0.0, 0.0], 0.0, STATS)
VECTOR_RANK_WRONG = [[1.0, 2.0]]
MATRIX_RANK_WRONG = [1.0, 2.0]

#: (name, call taking the bad value, a value of the wrong rank there).
ENTRY_POINTS = [
    ("PointCloud", lambda v: PointCloud(v), MATRIX_RANK_WRONG),
    ("PointCloud.from_columns", lambda v: PointCloud.from_columns(v, [1.0, 2.0]), VECTOR_RANK_WRONG),
    ("PointCloud.from_columns-second", lambda v: PointCloud.from_columns([1.0, 2.0], v),
     VECTOR_RANK_WRONG),
    ("ResidualStats", ResidualStats, VECTOR_RANK_WRONG),
    ("FittedLine-anchor", lambda v: FittedLine(v, [1.0, 0.0], STATS), VECTOR_RANK_WRONG),
    ("FittedLine-direction", lambda v: FittedLine([0.0, 0.0], v, STATS), VECTOR_RANK_WRONG),
    ("FittedHyperplane-normal", lambda v: FittedHyperplane(v, [0.0, 0.0], 0.0, STATS),
     VECTOR_RANK_WRONG),
    ("FittedHyperplane-centroid", lambda v: FittedHyperplane([0.0, 1.0], v, 0.0, STATS),
     VECTOR_RANK_WRONG),
    ("distance_point_to_line", lambda v: distance_point_to_line(v, LINE), VECTOR_RANK_WRONG),
    ("distance_point_to_plane", lambda v: distance_point_to_plane(v, PLANE), VECTOR_RANK_WRONG),
    ("eigen_symmetric", eigen_symmetric, MATRIX_RANK_WRONG),
    ("scatter_chart", scatter_chart, MATRIX_RANK_WRONG),
    ("polyline_chart-xs", lambda v: polyline_chart([("a", v, [1.0, 2.0])]), VECTOR_RANK_WRONG),
    ("polyline_chart-values", lambda v: polyline_chart([("a", [1.0, 2.0], v)]),
     VECTOR_RANK_WRONG),
    ("LineCloudSpec-start", lambda v: LineCloudSpec(v, [1.0, 1.0, 1.0], 5, 0.0, 0),
     [[0.0, 0.0, 0.0]]),
    ("LineCloudSpec-end", lambda v: LineCloudSpec([0.0, 0.0, 0.0], v, 5, 0.0, 0),
     [[1.0, 1.0, 1.0]]),
    ("ols_line", lambda v: ols_line(v, [1.0, 2.0]), VECTOR_RANK_WRONG),
    ("conjugate_line", lambda v: conjugate_line([1.0, 2.0], v), VECTOR_RANK_WRONG),
    ("compare_ols_tls", lambda v: compare_ols_tls(v, [1.0, 2.0]), VECTOR_RANK_WRONG),
    ("angle_between_lines_deg", lambda v: angle_between_lines_deg(v, [1.0, 0.0]),
     VECTOR_RANK_WRONG),
    ("IndicatorSeries-years",
     lambda v: IndicatorSeries("XX", v, (1.0, 2.0), (1.0, 2.0), (1.0, 2.0)), VECTOR_RANK_WRONG),
    ("IndicatorSeries-values",
     lambda v: IndicatorSeries("XX", (1994, 1995), v, (1.0, 2.0), (1.0, 2.0)), VECTOR_RANK_WRONG),
]

BAD_VALUES = [
    ("ragged", lambda wrong_rank: [[1.0], [2.0, 3.0]]),
    ("string", lambda wrong_rank: "abc"),
    ("object", lambda wrong_rank: object()),
    ("wrong-rank", lambda wrong_rank: wrong_rank),
    ("complex", lambda wrong_rank: np.asarray(wrong_rank) + 1j),
]


@pytest.mark.parametrize("bad", [b for _, b in BAD_VALUES], ids=[n for n, _ in BAD_VALUES])
@pytest.mark.parametrize("call, wrong_rank", [(c, w) for _, c, w in ENTRY_POINTS],
                         ids=[n for n, _, _ in ENTRY_POINTS])
def test_bad_values_raise_invalid_input(call, wrong_rank, bad):
    with pytest.raises(InvalidInputError):
        call(bad(wrong_rank))


class TestFloatArray:
    def test_shape_entries_are_lengths_or_any(self):
        a = float_array([[1, 2, 3]], (None, 3), "m")
        assert a.dtype == float and a.shape == (1, 3)
        with pytest.raises(InvalidInputError, match="^m$"):
            float_array([[1, 2]], (None, 3), "m")
        with pytest.raises(InvalidInputError, match="^m$"):
            float_array([1, 2, 3], (None, 3), "m")

    @pytest.mark.parametrize("value", [
        np.array([[1 + 1j, 2.0]]),
        np.array([[1 + 0j, 2.0]]),
        [[np.complex128(1 + 1j), 2.0]],
        [np.array([1j, 2.0])],
    ])
    def test_complex_values_are_rejected_without_a_warning(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="^m$"):
                float_array(value, (1, 2), "m")
            with pytest.raises(InvalidInputError):
                PointCloud(value)

    def test_a_float_array_is_not_copied(self):
        a = np.zeros((4, 2))
        assert float_array(a, (None, 2), "m") is a


class TestIndicatorYears:
    def test_non_integer_year_is_rejected(self):
        with pytest.raises(InvalidInputError, match="^XX: years must be a vector of integers$"):
            IndicatorSeries("XX", (1994, 1995.9), (1.0, 2.0), (1.0, 2.0), (1.0, 2.0))

    def test_integral_float_years_are_ints(self):
        series = IndicatorSeries("XX", (1995.0, 1994.0), (1.0, 2.0), (1.0, 2.0), (1.0, 2.0))
        assert series.years == (1994, 1995)
        assert all(type(y) is int for y in series.years)


def test_report_with_int_labels_renders_like_str_labels():
    cloud = PointCloud([[0.0, 0.0], [1.0, 1.0], [2.0, 2.5]], labels=("1994", "1995", "1996"))
    model = FittedLine([1.0, 1.0], [0.6, 0.8], ResidualStats([0.5, 0.0, 0.25]))
    report = build_fit_report(cloud, model, "sum_abs", {"geometry": "line"})
    data = report_to_dict(report)
    for point in data["per_point"]:
        point["label"] = int(point["label"])
    back = report_from_dict(data)
    assert back.labels == report.labels
    for fmt in ("json", "csv", "text"):
        assert render_fit(back, fmt) == render_fit(report, fmt)
