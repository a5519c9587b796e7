import csv
import dataclasses
import io
import json
import math
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthoreg
from orthoreg import InvalidInputError, PointCloud, ResidualStats, v4_dataset
from orthoreg.cli import emit_plot_svg, main
from orthoreg.dataio import (
    _source_text,
    format_indicator_csv,
    parse_cloud_csv,
    parse_indicator_csv,
)
from orthoreg.economy import STATE_VARIABLES, economy_plane, trajectory
from orthoreg.errors import (
    DegenerateGeometryError,
    NumericalFailureError,
    ParseError,
    SchemaError,
    UsageError,
)
from orthoreg.fitting import FittedLine, fit_hyperplane, fit_line
from orthoreg.regression import compare_ols_tls
from orthoreg.report import (
    _JSON_ESCAPED,
    FitReport,
    _flatten,
    build_fit_report,
    render_fit,
    report_from_dict,
    report_to_dict,
    scene_dict,
)
from orthoreg.svg import PALETTE, _escape, _Frame, nice_ticks, polyline_chart, scatter_chart

from _helpers import LABELS, reference_csv

FIVE_CSV = "x,y\n1,4\n3,2\n4,6\n5,8\n7,5\n"
SVG_NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture
def five_csv(tmp_path):
    path = tmp_path / "five.csv"
    path.write_text(FIVE_CSV, encoding="utf-8")
    return str(path)


def v4_report(country, geometry, metric="sum_abs"):
    """The report ``fit --input builtin:v4`` prints, from library calls."""
    (series,) = [s for s in v4_dataset() if s.country == country]
    cloud = trajectory(series)
    model = fit_line(cloud) if geometry == "line" else fit_hyperplane(cloud)
    metadata = {"input": "builtin:v4", "country": country, "columns": list(STATE_VARIABLES),
                "geometry": geometry}
    return build_fit_report(cloud, model, metric, metadata)


def csv_report(path, geometry, metric="sum_abs"):
    """The report ``fit --input path`` prints, from library calls."""
    with open(path, encoding="utf-8") as f:
        cloud = parse_cloud_csv(f.read())
    model = fit_line(cloud) if geometry == "line" else fit_hyperplane(cloud)
    metadata = {"input": path, "columns": None, "geometry": geometry}
    return build_fit_report(cloud, model, metric, metadata)


def five_comparison():
    cloud = parse_cloud_csv(FIVE_CSV)
    return compare_ols_tls(cloud.points[:, 0], cloud.points[:, 1])


def svg_elements(svg_text, tag, cls):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter(f"{SVG_NS}{tag}") if el.get("class") == cls]


class TestRunFit:
    def test_builtin_plane(self):
        report = v4_report("SK", "plane")
        assert abs(report.err - 4.2633) < 1e-3
        assert report.metadata["country"] == "SK"
        assert report.per_point[0][0] == "1994"

    def test_csv_line(self, five_csv):
        report = csv_report(five_csv, "line")
        assert (report.model.anchor == [4.0, 5.0]).all()

    def test_metric_selector(self, five_csv):
        report = csv_report(five_csv, "line", "sum_sq")
        assert report.err == pytest.approx(11.0, abs=1e-9)


class TestReportSerialization:
    def test_json_round_trip_exact(self, five_csv):
        report = csv_report(five_csv, "line")
        data = json.loads(json.dumps(report_to_dict(report)))
        back = report_from_dict(data)
        assert (back.model.anchor == report.model.anchor).all()
        assert (back.model.direction == report.model.direction).all()
        assert back.err == report.err
        assert back.per_point == report.per_point
        assert back.model.error.sum_sq == report.model.error.sum_sq

    def test_plane_round_trip_exact(self):
        report = v4_report("PL", "plane")
        data = json.loads(json.dumps(report_to_dict(report)))
        back = report_from_dict(data)
        assert (back.model.normal == report.model.normal).all()
        assert back.model.offset == report.model.offset

    @pytest.mark.parametrize("metric", ["sum_sq", "root_sum_sq", "rms", "sum_abs", None])
    def test_err_is_the_aggregate_the_metadata_names(self, five_csv, metric):
        model = csv_report(five_csv, "line").model
        metadata = {} if metric is None else {"metric": metric}
        report = FitReport(model, range(5), metadata)
        assert report.err == model.error.metric(metric or "sum_abs")
        data = report_to_dict(report)
        data["err"] = -1.0  # read back from the distances, as the residuals are
        assert report_from_dict(data).err == report.err

    def test_an_unknown_metric_is_invalid(self, five_csv):
        model = csv_report(five_csv, "line").model
        with pytest.raises(InvalidInputError, match="^unknown error metric 'max'$"):
            FitReport(model, range(5), {"metric": "max"})
        with pytest.raises(TypeError):
            FitReport(model=model, err=1.0, labels=range(5))

    def test_unknown_model_geometry_or_format_is_invalid(self, five_csv):
        report = csv_report(five_csv, "line")
        with pytest.raises(InvalidInputError, match="^model must be a FittedLine or FittedHyperplane$"):
            report_to_dict(dataclasses.replace(report, model=SimpleNamespace(error=report.model.error)))
        data = report_to_dict(report)
        data["model"]["geometry"] = "circle"
        with pytest.raises(InvalidInputError, match="^unknown geometry 'circle'$"):
            report_from_dict(data)
        with pytest.raises(InvalidInputError, match="^unknown output format 'xml'$"):
            render_fit(report, "xml")

    def test_empty_per_point_is_invalid(self, five_csv):
        data = report_to_dict(csv_report(five_csv, "line"))
        data["per_point"] = []
        with pytest.raises(InvalidInputError, match="non-empty vector of distances"):
            report_from_dict(data)

    def test_renders_are_deterministic(self, five_csv):
        report = csv_report(five_csv, "line")
        for fmt in ("json", "csv", "text"):
            assert render_fit(report, fmt) == render_fit(report, fmt)

    def test_text_rounds_to_four_decimals(self, five_csv):
        report = csv_report(five_csv, "line")
        text = render_fit(report, "text")
        assert "0.7071" in text  # direction component of the diagonal line

    def test_labels_must_match_the_distances(self, five_csv):
        report = csv_report(five_csv, "line")
        assert report.per_point == tuple(
            zip(report.labels, report.model.error.per_point_distance.tolist())
        )
        with pytest.raises(InvalidInputError, match="labels must match"):
            FitReport(model=report.model, labels=report.labels[:-1])

    def test_err_recomputable_from_per_point(self, five_csv):
        for metric in ("sum_sq", "root_sum_sq", "rms", "sum_abs"):
            report = csv_report(five_csv, "line", metric)
            stats = ResidualStats([d for _, d in report.per_point])
            assert abs(stats.metric(metric) - report.err) <= 1e-12 * (1.0 + report.err)


def _kv_csv_reference(data):
    """A report dict flattened to key/value pairs, one csv.writer row each."""
    pairs = []
    _flatten("", data, pairs)
    return reference_csv([("key", "value"), *pairs])


#: Distances that repr, json and "%.4f" each spell in their own way.
_DISTANCES = st.sampled_from([math.inf, -0.0, 5e-324, 1e16, 1e-5]) | st.floats(min_value=0.0)


class TestFitRenderMatchesDictRender:
    """render_fit's json, csv and text against json.dumps and _flatten of
    report_to_dict, and against one formatted line per point."""

    @staticmethod
    def assert_renders_match(report):
        data = report_to_dict(report)
        assert render_fit(report, "json") == json.dumps(data, indent=2) + "\n"
        assert render_fit(report, "csv") == _kv_csv_reference(data)
        _, _, lines = render_fit(report, "text").partition("per-point distances:\n")
        assert lines == "".join(f"  {label:>8}  {d:.4f}\n" for label, d in report.per_point)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(LABELS, min_size=3, max_size=8), st.sampled_from(["line", "plane"]))
    def test_any_labels(self, labels, geometry):
        rng = np.random.default_rng(len(labels))
        cloud = PointCloud(rng.standard_normal((len(labels), 3)), labels=labels)
        model = fit_line(cloud) if geometry == "line" else fit_hyperplane(cloud)
        metadata = {"input": 'a "per_point": [] b', "columns": None, "geometry": geometry}
        self.assert_renders_match(build_fit_report(cloud, model, "rms", metadata))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(LABELS, _DISTANCES), min_size=1, max_size=8))
    def test_any_labels_and_distances(self, points):
        """Any distances a ResidualStats holds, +inf and -0.0 among them."""
        labels, distances = zip(*points)
        stats = ResidualStats(np.array(distances))
        model = FittedLine(np.array([1.0, 2.0]), np.array([0.6, 0.8]), stats)
        self.assert_renders_match(FitReport(model=model, labels=labels))

    def test_a_cr_in_a_label_reads_back_as_lf(self, five_csv):
        report = csv_report(five_csv, "line")
        report = dataclasses.replace(report, labels=("a\rb", "c", '"d\r"', "e", "f"))
        pairs = dict(csv.reader(io.StringIO(_source_text(render_fit(report, "csv")))))
        labels = [pairs[f"per_point.{i}.label"] for i in range(5)]
        assert labels == ["a\nb", "c", '"d\n"', "e", "f"]

    def test_index_labels(self, five_csv):
        self.assert_renders_match(csv_report(five_csv, "line"))

    def test_non_finite_distances(self, five_csv):
        """No fit yields NaN or negative distances, and neither
        ``report_from_dict`` nor ``ResidualStats`` takes them. +inf is kept,
        and json spells it Infinity."""
        report = csv_report(five_csv, "line")
        data = report_to_dict(report)
        for point, d in zip(data["per_point"], [float("inf"), float("nan"), -float("inf")]):
            point["distance"] = d
        with pytest.raises(InvalidInputError, match="non-negative"):
            report_from_dict(data)
        with pytest.raises(InvalidInputError, match="non-negative"):
            dataclasses.replace(
                report.model.error, per_point_distance=[p["distance"] for p in data["per_point"]]
            )
        data["per_point"][1]["distance"] = data["per_point"][2]["distance"] = 0.5
        report = report_from_dict(data)
        self.assert_renders_match(report)
        assert '"distance": Infinity' in render_fit(report, "json")

    def test_json_label_search_finds_what_json_dumps_escapes(self):
        """A label column is escaped whole where this search finds one
        character, so it must find each character that json.dumps escapes."""
        for c in map(chr, [*range(0x10000), 0x1F600, 0x10FFFF]):
            assert bool(_JSON_ESCAPED.fullmatch(c)) == (json.dumps(c) != f'"{c}"'), hex(ord(c))


class TestSvg:
    def test_comparison_chart_element_counts(self):
        report = five_comparison()
        svg = emit_plot_svg(report)
        assert len(svg_elements(svg, "circle", "point")) == 5
        assert len(svg_elements(svg, "line", "fit-line")) == 3

    def test_byte_identical_for_identical_input(self):
        a = emit_plot_svg(five_comparison())
        b = emit_plot_svg(five_comparison())
        assert a == b

    def test_2d_plane_fit_draws_line(self, five_csv):
        report = csv_report(five_csv, "plane")
        svg = emit_plot_svg(report)
        assert len(svg_elements(svg, "line", "fit-line")) == 1

    def test_3d_needs_projection(self):
        report = v4_report("SK", "plane")
        with pytest.raises(InvalidInputError):
            emit_plot_svg(report)
        svg = emit_plot_svg(report, projection=(0, 2))
        assert len(svg_elements(svg, "circle", "point")) == 7

    @pytest.mark.parametrize("geometry", ["line", "plane"])
    def test_2d_default_projection_is_0_1(self, five_csv, geometry):
        report = csv_report(five_csv, geometry)
        assert emit_plot_svg(report) == emit_plot_svg(report, projection=(0, 1))

    def test_bad_projection_rejected(self):
        report = v4_report("SK", "line")
        with pytest.raises(InvalidInputError):
            emit_plot_svg(report, projection=(0, 7))

    def test_no_points_rejected(self):
        with pytest.raises(InvalidInputError):
            scatter_chart(np.empty((0, 2)))

    def test_a_fit_report_without_its_cloud_is_not_plotted(self, five_csv):
        report = report_from_dict(report_to_dict(csv_report(five_csv, "line")))
        with pytest.raises(InvalidInputError, match="^fit report carries no data points to plot$"):
            emit_plot_svg(report)
        with pytest.raises(InvalidInputError, match="^expected a FitReport or ComparisonReport$"):
            emit_plot_svg(report.model)

    def test_polyline_chart_needs_a_series_with_points(self):
        with pytest.raises(InvalidInputError, match="^series 'a' needs one y value per x value"):
            polyline_chart([("a", [], [])])
        with pytest.raises(InvalidInputError, match="^polyline_chart needs at least one series$"):
            polyline_chart([])

    def test_clip_line(self):
        frame = _Frame(0.0, 10.0, 0.0, 10.0)
        # Falling lines: the bounds of t along one axis come in reverse order.
        assert frame.clip_line((5.0, 5.0), (1.0, -1.0)) == ((0.0, 10.0), (10.0, 0.0))
        assert frame.clip_line((5.0, 5.0), (-1.0, 1.0)) == ((10.0, 0.0), (0.0, 10.0))
        assert frame.clip_line((5.0, 2.0), (1.0, 0.0)) == ((0.0, 2.0), (10.0, 2.0))
        assert frame.clip_line((5.0, 20.0), (1.0, 0.0)) is None  # above, along x
        assert frame.clip_line((-3.0, 5.0), (0.0, 1.0)) is None  # left, along y
        assert frame.clip_line((20.0, 0.0), (1.0, 1.0)) is None  # passes the corner

    def test_a_line_that_misses_the_frame_is_left_out(self):
        lines = [("missed", (100.0, 0.0), (1.0, 1.0)), ("diagonal", (0.0, 0.0), (1.0, 1.0))]
        svg = scatter_chart([[0.0, 0.0], [1.0, 1.0]], lines)
        (drawn,) = svg_elements(svg, "line", "fit-line")
        assert drawn.get("stroke") == PALETTE[1]
        assert [el.text for el in svg_elements(svg, "text", "legend")] == ["diagonal"]

    @given(st.text())
    def test_escape_matches_saxutils(self, text):
        assert _escape(text) == escape(text)

    def test_cli_import_skips_xml_sax_and_the_network_stack(self):
        # urllib.parse is left out: pathlib imports it.
        code = (
            "import sys, orthoreg.cli; print(sorted(m for m in sys.modules if "
            "m.startswith(('xml.sax', 'urllib.request', 'http', 'email'))))"
        )
        env = {"PYTHONPATH": str(Path(orthoreg.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True, timeout=60)
        assert done.stdout.strip() == "[]"


@st.composite
def tick_bounds(draw):
    """(lo, hi) with lo <= hi: any two floats, or a float and one a few ulps above it."""
    lo = draw(st.floats(min_value=-1e300, max_value=1e300))
    if draw(st.booleans()):
        hi = draw(st.floats(min_value=-1e300, max_value=1e300))
    else:
        hi = lo
        for _ in range(draw(st.integers(0, 100))):
            hi = math.nextafter(hi, math.inf)
    return min(lo, hi), max(lo, hi)


@settings(max_examples=500, deadline=None)
@given(tick_bounds())
def test_nice_ticks_are_few_and_increasing(bounds):
    ticks, _ = nice_ticks(*bounds)
    assert len(ticks) <= 7
    assert all(a < b for a, b in zip(ticks, ticks[1:]))


@pytest.mark.parametrize("bounds", [
    (-1e308, 1e308), (-1.7e308, 1.7e308), (0.0, math.inf), (-math.inf, math.inf),
    (math.inf, math.inf), (math.nan, 1.0), (1.0, math.nan),
])
def test_nice_ticks_reject_bounds_or_widths_beyond_the_float_range(bounds):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="^tick bounds and their width must be finite$"):
            nice_ticks(*bounds)


def axis_ticks(svg_text, anchor):
    """The values of the axis labels: anchor "middle" for x, "end" for y."""
    return [float(el.text) for el in svg_elements(svg_text, "text", "axis")
            if el.get("text-anchor") == anchor]


class TestLargeCoordinatePlots:
    """Coordinates of 1e17 (nanosecond timestamps), where one ulp is 16."""

    def test_compare_x_one_ulp_wide(self, tmp_path, capsys):
        # x spans one ulp: a tick step below half an ulp never advanced.
        data = tmp_path / "ns.csv"
        data.write_text("t,y\n100000000000000000,1\n100000000000000016,2\n"
                        "100000000000000000,3\n", encoding="utf-8")
        argv = ["compare", "--input", str(data), "--plot", "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        ticks = axis_ticks((tmp_path / "compare.svg").read_text(encoding="utf-8"), "middle")
        assert 2 <= len(ticks) <= 7
        assert all(a < b for a, b in zip(ticks, ticks[1:]))

    def test_fit_constant_large_y(self, tmp_path, capsys):
        # y = 1e17 stays a zero-width range after widening by 1 on each side.
        data = tmp_path / "flat.csv"
        data.write_text("x,y\n5,1e17\n6,1e17\n7,1e17\n", encoding="utf-8")
        argv = ["fit", "--input", str(data), "--geometry", "line", "--plot",
                "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        ticks = axis_ticks((tmp_path / "fit_line.svg").read_text(encoding="utf-8"), "end")
        assert 2 <= len(ticks) <= 7
        assert all(a < b for a, b in zip(ticks, ticks[1:]))


class TestCliContract:
    def test_fit_json_stdout_is_byte_identical(self, capsys):
        argv = ["fit", "--input", "builtin:v4", "--country", "SK", "--geometry", "plane"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["metadata"]["metric"] == "sum_abs"

    def test_2d_fit_plot_takes_the_projection(self, tmp_path, five_csv, capsys):
        argv = ["fit", "--input", five_csv, "--geometry", "line", "--columns", "x,y",
                "--plot", "--projection", "1,0", "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        svg = (tmp_path / "fit_line.svg").read_text(encoding="utf-8")
        labels = [el.text for el in svg_elements(svg, "text", "axis-label")]
        assert labels == ["y", "x"]
        assert len(svg_elements(svg, "line", "fit-line")) == 1

    def test_compare_reference_lines(self, five_csv, capsys):
        assert main(["compare", "--input", five_csv]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ols"]["slope"] == pytest.approx(0.45, abs=1e-12)
        assert payload["ols"]["intercept"] == pytest.approx(3.2, abs=1e-12)
        assert payload["conjugate"]["slope"] == pytest.approx(0.45, abs=1e-12)
        assert payload["conjugate"]["intercept"] == pytest.approx(1.75, abs=1e-12)
        assert payload["tls_between_scissors"] is True

    def test_compare_text_says_whether_the_orthogonal_line_is_inside(self, five_csv, capsys):
        assert main(["compare", "--input", five_csv, "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[-1] == "orthogonal line inside the scissors: True"

    def test_compare_needs_two_columns(self, tmp_path, five_csv, capsys):
        assert main(["compare", "--input", five_csv, "--columns", "x"]) == 2
        assert capsys.readouterr() == ("", "error: compare needs exactly two columns\n")
        data = tmp_path / "three.csv"
        data.write_text("x,y,z\n1,4,0\n3,2,1\n4,6,5\n", encoding="utf-8")
        assert main(["compare", "--input", str(data)]) == 3
        expected = "error: comparison needs exactly 2 coordinate columns, got 3\n"
        assert capsys.readouterr() == ("", expected)

    def test_economy_row_order(self, capsys):
        assert main(["economy"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["countries"] == ["SK", "PL", "CZ", "HU"]
        assert payload["planes"][0]["err"] == pytest.approx(4.2633, abs=1e-3)

    def test_economy_dump_data_round_trip(self, capsys):
        assert main(["economy", "--dump-data"]) == 0
        text = capsys.readouterr().out
        assert parse_indicator_csv(text) == v4_dataset()

    def test_economy_external_data(self, tmp_path, capsys):
        assert main(["economy", "--dump-data"]) == 0
        dump = capsys.readouterr().out
        data_file = tmp_path / "v4.csv"
        data_file.write_text(dump, encoding="utf-8")
        assert main(["economy", "--data", str(data_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["countries"] == ["CZ", "HU", "PL", "SK"]  # file order

    def test_gen_bumblebee_round_trip(self, tmp_path, capsys):
        out = tmp_path / "bee.csv"
        argv = [
            "gen-bumblebee", "--start", "0,0,0", "--end", "10,10,10",
            "--n", "50", "--sigma", "0.1", "--seed", "42", "--output", str(out),
        ]
        assert main(argv) == 0
        assert main([
            "fit", "--input", str(out), "--geometry", "line",
            "--columns", "x,y,z", "--label-column", "i",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        direction = np.asarray(payload["model"]["direction"])
        truth = np.ones(3) / np.sqrt(3)
        assert abs(abs(float(direction @ truth)) - 1.0) < 1e-4

    def test_economy_fit_error_names_the_country(self, tmp_path, capsys):
        data = tmp_path / "wide.csv"
        rows = ("SK,1,1e200,1,2", "SK,2,-1e200,2,1", "SK,3,3,4,5", "SK,4,1,3,4")
        data.write_text("\n".join(["country,year,unemployment,gdp_change,inflation", *rows]),
                        encoding="utf-8")
        assert main(["economy", "--data", str(data)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: SK: points spread 1e+200 about their centroid")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_gen_bumblebee_to_stdout(self, tmp_path, capsys):
        argv = ["gen-bumblebee", "--start", "0,0,0", "--end", "1,2,3", "--n", "5",
                "--sigma", "0.1", "--seed", "7"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = out.splitlines()
        assert rows[0] == "i,x,y,z"
        assert [row.split(",")[0] for row in rows[1:]] == ["0", "1", "2", "3", "4"]
        path = tmp_path / "bee.csv"
        assert main([*argv, "--output", str(path)]) == 0
        capsys.readouterr()
        assert path.read_text(encoding="utf-8") == out

    @pytest.mark.parametrize("extra, code, err", [
        (["--n", "99999999999999999999"], 3, "error: n is too large for one array of points\n"),
        (["--sigma", "1e308"], 3, "error: point coordinates must be finite\n"),
        (["--start=-1e308,0,0", "--end=1e308,1,1"], 3, "error: end - start must be finite\n"),
        (["--end=1e308,1e308,1e308"], 0, ""),
    ], ids=["huge-n", "huge-sigma", "end-minus-start-overflows", "norm-overflows"])
    def test_gen_bumblebee_on_hostile_inputs(self, capsys, extra, code, err):
        """One error line and exit 3, or a cloud; never a numpy warning."""
        argv = ["gen-bumblebee", "--start=0,0,0", "--end=1,1,1", "--n", "3", *extra]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == code
        out, captured = capsys.readouterr()
        assert captured == err
        if code == 0:
            assert out.splitlines()[-1] == "2,1e+308,1e+308,1e+308"  # the end, at sigma 0
        else:
            assert out == ""

    def test_plot_files_written(self, tmp_path, five_csv, monkeypatch, capsys):
        monkeypatch.setenv("ORTHOREG_OUTPUT_DIR", str(tmp_path / "plots"))
        assert main(["compare", "--input", five_csv, "--plot"]) == 0
        capsys.readouterr()
        assert (tmp_path / "plots" / "compare.svg").is_file()
        assert main(["economy", "--plot"]) == 0
        capsys.readouterr()
        for name in (
            "economy_unemployment.svg",
            "economy_gdp_change.svg",
            "economy_inflation.svg",
            "scene_SK.json",
            "scene_HU.json",
        ):
            assert (tmp_path / "plots" / name).is_file()

    def test_scene_corners_lie_on_plane(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ORTHOREG_OUTPUT_DIR", str(tmp_path))
        assert main(["economy", "--plot"]) == 0
        capsys.readouterr()
        scene = json.loads((tmp_path / "scene_CZ.json").read_text())
        normal = np.asarray(scene["plane"]["normal"])
        offset = scene["plane"]["offset"]
        for corner in scene["plane"]["corners"]:
            assert abs(float(normal @ corner) + offset) < 1e-9
        assert len(scene["points"]) == 7

    def test_an_unlabelled_clouds_scene_lists_its_indices(self):
        """A scene's labels are the cloud's labels, or else its points'
        0-based indices as strings."""
        plane = economy_plane(v4_dataset()[0])
        labelled = trajectory(v4_dataset()[0])
        unlabelled = PointCloud(labelled.points)
        assert scene_dict(plane, labelled)["labels"] == list(labelled.labels)
        scene = json.loads(json.dumps(scene_dict(plane, unlabelled)))
        assert scene["labels"] == [str(i) for i in range(len(labelled))]

    def test_output_file_parents_created(self, tmp_path, capsys):
        out = tmp_path / "new" / "bee.csv"
        argv = ["gen-bumblebee", "--start", "0,0,0", "--end", "1,1,1", "--n", "3",
                "--output", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8").startswith("i,x,y,z\n")

    @staticmethod
    def economy_plot_years(tmp_path, capsys, series):
        """Run economy --data --plot on ``series``; read every plotted point's year back.

        Returns {variable: {country: [year, ...]}}, with the years recovered
        from each point's x pixel through the chart's own x-axis ticks.
        """
        data_file = tmp_path / "data.csv"
        data_file.write_text(format_indicator_csv(series), encoding="utf-8")
        out = tmp_path / "plots"
        assert main(["economy", "--data", str(data_file), "--plot", "--output-dir", str(out)]) == 0
        capsys.readouterr()
        years = {}
        for variable in STATE_VARIABLES:
            svg = (out / f"economy_{variable}.svg").read_text(encoding="utf-8")
            ticks = [
                (float(el.get("x")), float(el.text))
                for el in svg_elements(svg, "text", "axis")
                if el.get("text-anchor") == "middle"
            ]
            (px0, x0), (px1, x1) = ticks[0], ticks[-1]
            by_color = {}
            for el in svg_elements(svg, "circle", "series-point"):
                year = x0 + (float(el.get("cx")) - px0) * (x1 - x0) / (px1 - px0)
                by_color.setdefault(el.get("fill"), []).append(year)
            years[variable] = {s.country: by_color[PALETTE[i]] for i, s in enumerate(series)}
        return years

    def test_economy_plot_shifted_years(self, tmp_path, capsys):
        series = v4_dataset()
        sk = series[3]
        assert sk.country == "SK"
        series[3] = dataclasses.replace(sk, years=tuple(y - 4 for y in sk.years))  # 1990-1996
        for by_country in self.economy_plot_years(tmp_path, capsys, series).values():
            for s in series:
                assert by_country[s.country] == pytest.approx(s.years, abs=0.01)

    def test_economy_plot_mixed_counts(self, tmp_path, capsys):
        series = v4_dataset()
        sk = series[3]
        assert sk.country == "SK"
        series[3] = dataclasses.replace(  # SK loses 2000
            sk, years=sk.years[:-1], unemployment=sk.unemployment[:-1],
            gdp_change=sk.gdp_change[:-1], inflation=sk.inflation[:-1],
        )
        for by_country in self.economy_plot_years(tmp_path, capsys, series).values():
            for s in series:
                assert by_country[s.country] == pytest.approx(s.years, abs=0.01)

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("source", ["builtin", "csv"])
    def test_fit_stdout_is_the_library_report(self, five_csv, capsys, source, fmt):
        # Pins the metadata keys and their order, which main builds itself.
        if source == "builtin":
            argv = ["--input", "builtin:v4", "--country", "sk", "--geometry", "plane"]
            report = v4_report("SK", "plane")
        else:
            argv = ["--input", five_csv, "--geometry", "line"]
            report = csv_report(five_csv, "line")
        assert main(["fit", *argv, "--format", fmt]) == 0
        assert capsys.readouterr().out == render_fit(report, fmt)

    def test_byte_order_mark_header(self, tmp_path, capsys):
        data_file = tmp_path / "excel.csv"
        data_file.write_bytes(b"\xef\xbb\xbf" + FIVE_CSV.encode("utf-8"))
        assert main(["fit", "--input", str(data_file), "--geometry", "line",
                     "--columns", "x,y"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"]["anchor"] == [4.0, 5.0]


class TestCliExitCodes:
    # The README's exit-code table.
    @pytest.mark.parametrize("cls, code", [
        (UsageError, 2), (SchemaError, 3), (ParseError, 3), (InvalidInputError, 3),
        (DegenerateGeometryError, 4), (NumericalFailureError, 5),
    ])
    def test_main_returns_the_error_class_exit_code(self, five_csv, monkeypatch, capsys,
                                                     cls, code):
        def fail(cloud):
            raise cls("no fit")

        monkeypatch.setattr("orthoreg.cli.fit_line", fail)
        assert cls.exit_code == code
        assert main(["fit", "--input", five_csv, "--geometry", "line"]) == code
        assert capsys.readouterr() == ("", "error: no fit\n")

    def test_usage_missing_subcommand(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_usage_unknown_flag(self, capsys):
        assert main(["fit", "--nope"]) == 2
        capsys.readouterr()

    def test_usage_builtin_without_country(self, capsys):
        assert main(["fit", "--input", "builtin:v4", "--geometry", "plane"]) == 2
        assert "country" in capsys.readouterr().err

    def test_usage_unknown_country(self, capsys):
        assert main(["fit", "--input", "builtin:v4", "--country", "XX",
                     "--geometry", "plane"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flags", [
        ["--input", "FIVE", "--geometry", "line", "--country", "SK"],
        ["--input", "builtin:v4", "--country", "SK", "--geometry", "plane", "--columns", "a,b"],
        ["--input", "builtin:v4", "--country", "SK", "--geometry", "plane",
         "--label-column", "zz"],
        ["--input", "builtin:v4", "--country", "SK", "--geometry", "plane",
         "--columns", "a,b", "--label-column", "zz"],
        ["--input", "builtin:v4", "--country", "SK", "--geometry", "plane",
         "--delimiter", ";"],
    ], ids=["csv-country", "builtin-columns", "builtin-label-column", "builtin-both",
            "builtin-delimiter"])
    def test_usage_flags_the_input_ignores(self, five_csv, capsys, flags):
        argv = ["fit", *[five_csv if f == "FIVE" else f for f in flags]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "builtin:v4" in captured.err

    @pytest.mark.parametrize("source", [["FIVE"], ["builtin:v4", "--country", "SK"]])
    def test_usage_projection_without_plot(self, five_csv, capsys, source):
        argv = ["fit", "--input", *[five_csv if f == "FIVE" else f for f in source],
                "--geometry", "line", "--projection", "0,1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --projection applies only with --plot\n"

    @pytest.mark.parametrize("rows, code, message", [
        ("SK,1994,1,2,3\nSK,1995,2,1,4\n", 3,
         "SK: need at least 3 years to fit an economy plane"),
        ("SK,1994,1,2,3\nSK,1995,2,4,6\nSK,1996,3,6,9\n", 4,
         "SK: points span only a 1-dimensional flat"),
        ("SK,1994,1,2,3\nSK,1994,2,1,4\nSK,1995,3,3,3\n", 3,
         "SK: duplicate years in series"),
    ], ids=["two-years", "collinear-years", "repeated-year"])
    def test_economy_data_errors_name_the_country(self, tmp_path, capsys, rows, code, message):
        data = tmp_path / "indicators.csv"
        data.write_text("country,year,unemployment,gdp_change,inflation\n"
                        "CZ,1994,1,2,3\nCZ,1995,2,1,4\nCZ,1996,5,5,1\n" + rows,
                        encoding="utf-8")
        assert main(["economy", "--data", str(data)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    @pytest.mark.parametrize("command, rows", [
        ("compare", "0,0\n1e-170,3e-170\n2e-170,6.1e-170\n"),
        ("fit", "0,0\n1e160,3e160\n2e160,6.1e160\n"),
        ("fit", "1.7e308,0\n1.7e308,1\n-1.7e308,2\n"),
        ("compare", "1.7e308,0\n1.7e308,1\n-1.7e308,2\n"),
        ("compare", "0,0\n1e-170,1\n3e-170,2\n"),
        ("compare", "0,0\n1,1e-170\n2,3e-170\n"),
    ], ids=["compare-tiny", "fit-huge", "fit-centring-overflows", "compare-centring-overflows",
            "compare-tiny-x-spread", "compare-tiny-y-spread"])
    def test_unresolvable_spread_is_3(self, tmp_path, capsys, command, rows):
        data = tmp_path / "points.csv"
        data.write_text("x,y\n" + rows, encoding="utf-8")
        argv = [command, "--input", str(data)]
        if command == "fit":
            argv += ["--geometry", "line"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "spread" in captured.err

    def test_steep_classical_line_is_0(self, tmp_path, capsys):
        data = tmp_path / "points.csv"
        data.write_text("x,y\n0,0\n1e-150,1e150\n2e-150,3e150\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compare", "--input", str(data)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ols"]["slope"] == 1.5e300
        assert all(0.0 <= angle <= 1e-100 for angle in out["angles_deg"].values())

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_constant_x_near_the_float_maximum_is_0(self, tmp_path, capsys, command):
        data = tmp_path / "points.csv"
        data.write_text("x,y\n1.5e308,0\n1.5e308,1\n1.5e308,2.5\n", encoding="utf-8")
        argv = [command, "--input", str(data)]
        if command == "fit":
            argv += ["--geometry", "line"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        line = out["model"] if command == "fit" else out["tls"]
        assert line["anchor"][0] == 1.5e308
        assert line["direction"] == [0.0, 1.0]

    def test_usage_missing_file(self, capsys):
        assert main(["fit", "--input", "/no/such/file.csv", "--geometry", "line"]) == 2
        capsys.readouterr()

    def test_parse_error_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,n/a\n", encoding="utf-8")
        assert main(["fit", "--input", str(bad), "--geometry", "line"]) == 3
        assert "row 2" in capsys.readouterr().err

    def test_schema_error_is_3(self, tmp_path, capsys):
        f = tmp_path / "data.csv"
        f.write_text(FIVE_CSV, encoding="utf-8")
        assert main(["fit", "--input", str(f), "--geometry", "line",
                     "--columns", "x,z"]) == 3
        capsys.readouterr()

    def test_invalid_input_is_3(self, tmp_path, capsys):
        f = tmp_path / "header_only.csv"
        f.write_text("x,y\n", encoding="utf-8")
        assert main(["fit", "--input", str(f), "--geometry", "line"]) == 3
        capsys.readouterr()

    def test_degenerate_is_4(self, tmp_path, capsys):
        f = tmp_path / "same.csv"
        f.write_text("x,y\n1,2\n1,2\n1,2\n", encoding="utf-8")
        assert main(["fit", "--input", str(f), "--geometry", "line"]) == 4
        capsys.readouterr()

    def test_numerical_failure_is_5(self, five_csv, monkeypatch, capsys):
        def explode(cloud):
            raise NumericalFailureError("iteration cap reached")

        monkeypatch.setattr("orthoreg.cli.fit_line", explode)
        assert main(["fit", "--input", five_csv, "--geometry", "line"]) == 5
        capsys.readouterr()

    def test_csv_reader_error_is_3(self, tmp_path, capsys):
        f = tmp_path / "stray_quote.csv"
        f.write_text('x,y\n1,"2\n' + "3.25,4.5\n" * 30_000, encoding="utf-8")
        assert main(["fit", "--input", str(f), "--geometry", "line"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "field larger than field limit" in captured.err

    @pytest.mark.parametrize("argv, code, message", [
        (["fit", "--columns", ","], 2, "argument --columns: empty column list"),
        (["fit", "--projection", "1"], 2, "argument --projection: projection must be two indices i,j"),
        (["fit", "--projection", "a,b"], 2,
         "argument --projection: projection indices must be integers"),
        (["gen-bumblebee", "--start=1,2", "--end=1,1,1"], 2,
         "argument --start: expected three comma-separated coordinates"),
        (["gen-bumblebee", "--start=a,b,c", "--end=1,1,1"], 2,
         "argument --start: coordinates must be numbers"),
        # 2.4e18 bytes of points exceed the address space, so their
        # allocation is refused outright, never granted and touched.
        (["gen-bumblebee", "--start=0,0,0", "--end=1,1,1", "--n", "100000000000000000"], 3,
         "n is too large: its points do not fit in memory"),
    ], ids=["empty-columns", "one-projection-index", "non-integer-projection", "two-coordinates",
            "non-numeric-coordinates", "n-beyond-the-address-space"])
    def test_one_error_line(self, five_csv, capsys, argv, code, message):
        if argv[0] == "fit":
            argv = [*argv, "--input", five_csv, "--geometry", "line"]
        assert main(argv) == code
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_header_beyond_the_csv_field_limit_is_3(self, tmp_path, capsys):
        """The bulk parser leaves such a header to the row parser, which
        names the error."""
        f = tmp_path / "long_header.csv"
        f.write_text("x,y" + "z" * csv.field_size_limit() + "\n1,2\n3,4\n", encoding="utf-8")
        assert main(["fit", "--input", str(f), "--geometry", "line"]) == 3
        limit = csv.field_size_limit()
        assert capsys.readouterr() == ("", f"error: line 1: field larger than field limit ({limit})\n")

    @pytest.mark.parametrize("columns", ["\u00b2,y", "\u0661,y"])
    def test_non_ascii_digit_column_is_3(self, five_csv, capsys, columns):
        argv = ["fit", "--input", five_csv, "--geometry", "line", "--columns", columns]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not found" in captured.err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_non_utf8_input_is_3(self, tmp_path, capsys):
        f = tmp_path / "latin.csv"
        f.write_bytes(b"x,y\n1,2\n3,\xff5\n")
        assert main(["fit", "--input", str(f), "--geometry", "line"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not valid UTF-8" in captured.err

    @pytest.mark.parametrize("command", ["fit", "compare"])
    @pytest.mark.parametrize("delimiter", ["ab", ""])
    def test_delimiter_not_one_character_is_2(self, five_csv, capsys, command, delimiter):
        argv = [command, "--input", five_csv, "--delimiter", delimiter]
        if command == "fit":
            argv += ["--geometry", "line"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "delimiter must be a single character" in captured.err

    @pytest.mark.parametrize("command", ["fit", "compare"])
    @pytest.mark.parametrize("delimiter", ["\r", "\n", '"', ";;"])
    def test_delimiter_quote_or_line_end_is_2(self, five_csv, capsys, command, delimiter):
        """The delimiter rule of ``dataio.check_delimiter``, as a usage
        error: one ``error:`` line."""
        argv = [command, "--input", five_csv, "--delimiter", delimiter]
        if command == "fit":
            argv += ["--geometry", "line"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: argument --delimiter: delimiter must be a single character other than "
            f"'\"', CR and LF, not {delimiter!r}\n"
        )


class TestCliAllOrNothing:
    """A failing command leaves stdout empty and writes no file or directory."""

    def test_fit_plot_without_projection(self, tmp_path, capsys):
        out = tmp_path / "plots"
        argv = ["fit", "--input", "builtin:v4", "--country", "SK", "--geometry", "plane",
                "--plot", "--output-dir", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_2d_projection_out_of_range(self, tmp_path, five_csv, capsys):
        out = tmp_path / "plots"
        argv = ["fit", "--input", five_csv, "--geometry", "line", "--plot",
                "--projection", "0,5", "--output-dir", str(out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid projection (0, 5) for dim 2" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["fit", "--input", "FIVE", "--geometry", "line", "--output-dir", "out"],
         "--output-dir applies only with --plot"),
        (["fit", "--input", "builtin:v4", "--country", "SK", "--geometry", "plane",
          "--output-dir", "out"], "--output-dir applies only with --plot"),
        (["compare", "--input", "FIVE", "--output-dir", "out"],
         "--output-dir applies only with --plot"),
        (["economy", "--output-dir", "out"], "--output-dir applies only with --plot"),
        (["economy", "--dump-data", "--output-dir", "out"],
         "--output-dir applies only with --plot"),
        (["economy", "--dump-data", "--plot"], "--plot does not apply to --dump-data"),
        (["economy", "--dump-data", "--plot", "--output-dir", "out"],
         "--plot does not apply to --dump-data"),
    ], ids=["fit-csv", "fit-builtin", "compare", "economy", "economy-dump-output-dir",
            "economy-dump-plot", "economy-dump-plot-output-dir"])
    def test_plot_flags_without_a_plot_are_2(self, tmp_path, five_csv, monkeypatch, capsys,
                                             argv, message):
        """A flag that shapes only plot files, given where no plot is drawn,
        is one usage error line, with nothing on stdout and nothing written."""
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.delenv("ORTHOREG_OUTPUT_DIR", raising=False)
        assert main([five_csv if a == "FIVE" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("argv, names", [
        (["fit", "--input", "FIVE", "--geometry", "line"], ["fit_line.svg"]),
        (["compare", "--input", "FIVE"], ["compare.svg"]),
        (["economy"], sorted([f"economy_{v}.svg" for v in STATE_VARIABLES]
                             + [f"scene_{c}.json" for c in ("CZ", "HU", "PL", "SK")])),
    ], ids=["fit", "compare", "economy"])
    def test_plot_with_output_dir_writes_its_files(self, tmp_path, five_csv, capsys, argv, names):
        out = tmp_path / "out" / "sub"
        argv = [five_csv if a == "FIVE" else a for a in argv]
        assert main([*argv, "--plot", "--output-dir", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out != ""
        assert sorted(p.name for p in out.iterdir()) == names
        assert sorted(captured.err.splitlines()) == [f"wrote {out / name}" for name in names]

    def test_write_failure_is_2(self, tmp_path, five_csv, capsys):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("", encoding="utf-8")
        assert main(["compare", "--input", five_csv, "--plot", "--output-dir", str(blocker)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot write {blocker / 'compare.svg'}:" in captured.err

    def test_write_failure_leaves_no_file(self, tmp_path, capsys):
        # scene_SK.json is written after the three charts; it cannot be
        # written, so neither they nor any temporary file may be left.
        out = tmp_path / "Q"
        (out / "scene_SK.json").mkdir(parents=True)
        assert main(["economy", "--plot", "--output-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot write {out / 'scene_SK.json'}:" in captured.err
        assert [p.name for p in out.iterdir()] == ["scene_SK.json"]
        assert not any((out / "scene_SK.json").iterdir())

    @pytest.mark.parametrize("argv", [
        ["gen-bumblebee", "--start", "0,0,0", "--end", "1,1,1", "--n", "3",
         "--output", "a\0b.csv"],
        ["economy", "--plot", "--output-dir", "o\0ut"],
    ], ids=["gen-bumblebee-output", "economy-output-dir"])
    def test_output_path_holding_nul_is_2(self, tmp_path, monkeypatch, capsys, argv):
        """The system cannot name a file with a NUL byte in it; the command
        fails as for any other path it cannot write, and writes nothing."""
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ")
        assert "embedded null byte" in captured.err
        assert "\0" not in captured.err
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("argv", [
        ["fit", "--input", "a\0b.csv", "--geometry", "line"],
        ["compare", "--input", "a\0b.csv"],
        ["economy", "--data", "a\0b.csv"],
    ], ids=["fit-input", "compare-input", "economy-data"])
    def test_input_path_holding_nul_is_2(self, tmp_path, monkeypatch, capsys, argv):
        """An input path that the system cannot name fails as a missing file
        does, and the message shows the NUL escaped."""
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot read a\\x00b.csv: embedded null byte\n"

    def test_unprintable_path_is_escaped(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["compare", "--input", "tab\there\x1b.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read tab\\there\\x1b.csv: ")

    @pytest.mark.parametrize("code", ["a/../../../esc", "S\0K", "/abs"])
    def test_country_code_that_is_no_file_name_is_3(self, tmp_path, monkeypatch, capsys, code):
        """A scene file is named by its country code: a code with a path
        separator or NUL fails before any file or temporary is written."""
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        text = format_indicator_csv(v4_dataset()).replace("\nSK,", f"\n{code},")
        (tmp_path / "data.csv").write_text(text, encoding="utf-8")
        data = str(tmp_path / "data.csv")
        argv = ["economy", "--data", data, "--plot", "--output-dir", "out/sub"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["data.csv", "work"]

    def test_files_replace_existing(self, tmp_path, five_csv, capsys):
        out = tmp_path / "plots"
        out.mkdir()
        (out / "compare.svg").write_text("stale", encoding="utf-8")
        assert main(["compare", "--input", five_csv, "--plot", "--output-dir", str(out)]) == 0
        capsys.readouterr()
        assert [p.name for p in out.iterdir()] == ["compare.svg"]
        assert (out / "compare.svg").read_text(encoding="utf-8").startswith("<svg")
