"""Command-line interface.

Subcommands
-----------
fit            Fit a line or plane to CSV data (or the builtin V4 dataset).
compare        Classical vs conjugate vs orthogonal line on 2D data.
economy        Plane-based indicators for the builtin or external economies.
gen-bumblebee  Write a deterministic noisy-line cloud as CSV.

Each subcommand reads its parsed arguments and calls the public library
functions directly (for ``fit``: load the cloud, ``fit_line`` or
``fit_hyperplane``, ``build_fit_report``, ``render_fit``). argparse alone
checks the choices of a flag; a flag of several subcommands is declared once,
in a parent parser. Input files are read as bytes, which ``dataio`` decodes.

Exit codes: 0 success, 2 usage errors from argparse, else the ``exit_code``
of the ``errors`` class raised; any other exception propagates. Reports go
to stdout; plot and scene files go to --output-dir (or $ORTHOREG_OUTPUT_DIR,
default "."), with their paths announced on stderr so stdout stays
machine-readable. Each command builds its whole report and every file before
anything is written: on success the files are written first (parent
directories created), then the report. A command that fails writes nothing.
Files are written all or none: each goes to a temporary sibling, renamed
into place once all are written, so a file that cannot be written leaves
stdout empty and no output file behind.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import (
    format_cloud_csv,
    format_indicator_csv,
    parse_cloud_csv,
    parse_indicator_csv,
)
from .economy import (
    STATE_VARIABLES,
    V4_REPORT_ORDER,
    economy_indicators,
    trajectory,
    v4_dataset,
)
from .errors import InvalidInputError, OrthoregError, UsageError
from .fitting import (
    ERROR_METRICS,
    DEFAULT_ERROR_METRIC,
    FittedLine,
    fit_hyperplane,
    fit_line,
)
from .regression import ComparisonReport, compare_ols_tls
from .report import (
    FitReport,
    build_fit_report,
    render_compare,
    render_economy,
    render_fit,
    scene_dict,
)
from .svg import polyline_chart, scatter_chart
from .synthetic import LineCloudSpec, generate_line_cloud

BUILTIN_V4 = "builtin:v4"

OUTPUT_DIR_ENV = "ORTHOREG_OUTPUT_DIR"


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _builtin_series(country: str | None):
    if country is None:
        raise UsageError(f"{BUILTIN_V4} requires --country (one of CZ, HU, PL, SK)")
    for series in v4_dataset():
        if series.country == country.upper():
            return series
    raise UsageError(f"unknown country {country!r} (expected CZ, HU, PL, SK)")


def _read_cloud(args):
    return parse_cloud_csv(
        _read_bytes(args.input), columns=args.columns,
        label_column=args.label_column, delimiter=args.delimiter or ",",
    )


def emit_plot_svg(report, projection: tuple[int, int] | None = None) -> str:
    """Scatter plot of a fit or comparison report as an SVG string.

    A fit report is drawn on the coordinate pair ``projection`` (i, j), which
    2D data may leave out for (0, 1). A fitted line is drawn projected, as is
    a 2D "plane", which is itself the line along (-n1, n0); a projected
    hyperplane of higher dimension fills the view and is not drawn.
    """
    if isinstance(report, ComparisonReport):
        if report.cloud is None:
            raise InvalidInputError("comparison report carries no data points to plot")
        lines = []
        c = report.centroid
        if report.ols is not None:
            lines.append(("classical y(x)", c, report.ols.direction()))
        if report.conjugate is not None:
            lines.append(("conjugate x(y)", c, report.conjugate.direction()))
        lines.append(("orthogonal", report.tls.anchor, report.tls.direction))
        return scatter_chart(
            report.cloud.points, lines, title="classical vs orthogonal regression",
            x_label="x", y_label="y",
        )

    if not isinstance(report, FitReport):
        raise InvalidInputError("expected a FitReport or ComparisonReport")
    if report.cloud is None:
        raise InvalidInputError("fit report carries no data points to plot")
    cloud = report.cloud
    model = report.model
    if projection is None:
        if cloud.dim != 2:
            raise InvalidInputError(
                f"data is {cloud.dim}-dimensional: a 2D projection (i,j) is required"
            )
        projection = (0, 1)
    i, j = projection
    if not (0 <= i < cloud.dim and 0 <= j < cloud.dim and i != j):
        raise InvalidInputError(f"invalid projection {projection!r} for dim {cloud.dim}")
    axes = [i, j]
    flats = []
    if isinstance(model, FittedLine):
        flats.append((model.anchor, model.direction))
    elif cloud.dim == 2:
        flats.append((model.centroid, np.array([-model.normal[1], model.normal[0]])))
    # A line orthogonal to both plotted axes projects to a point and is not drawn.
    lines = [("fit", o[axes], u[axes]) for o, u in flats if float(np.linalg.norm(u[axes])) > 1e-12]
    columns = report.metadata.get("columns") or [f"x{k}" for k in range(cloud.dim)]
    return scatter_chart(
        cloud.points[:, axes], lines,
        title=f"orthogonal {report.metadata.get('geometry', 'fit')}",
        x_label=str(columns[i]), y_label=str(columns[j]),
    )


def _output_dir(args) -> Path:
    return Path(args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or ".")


def _write_files(files) -> None:
    """Write every (path, content) or none of them.

    Each file is first written to a temporary sibling in its target
    directory; only when all are written are they renamed into place, so a
    failure leaves no target file and no temporary behind.
    """
    staged = []
    try:
        for path, content in files:
            # A directory in the way would fail only at its rename, after
            # the files before it were already in place.
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            path.parent.mkdir(parents=True, exist_ok=True)
            temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            staged.append((temporary, path))
            temporary.write_text(content, encoding="utf-8")
        for temporary, path in staged:
            os.replace(temporary, path)
    except OSError as exc:
        for temporary, _ in staged:
            temporary.unlink(missing_ok=True)
        raise UsageError(f"cannot write {path}: {exc}") from None
    for _, path in staged:
        print(f"wrote {path}", file=sys.stderr)


def _delimiter_arg(text: str) -> str:
    if len(text) != 1:
        raise argparse.ArgumentTypeError("delimiter must be a single character")
    return text


def _columns_arg(text: str | None):
    if text is None:
        return None
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    if not parts:
        raise argparse.ArgumentTypeError("empty column list")
    return parts


def _projection_arg(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("projection must be two indices i,j")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError("projection indices must be integers") from None


def _vec3_arg(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated coordinates")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise argparse.ArgumentTypeError("coordinates must be numbers") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthoreg",
        description="Orthogonal-distance (total least squares) fitting of lines and planes.",
        epilog=(
            "exit codes: 0 ok, 2 usage, 3 parse/schema/invalid input, "
            "4 degenerate geometry, 5 numerical failure"
        ),
    )
    parser.add_argument("--version", action="version", version=f"orthoreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common_out = argparse.ArgumentParser(add_help=False)
    common_out.add_argument(
        "--format", choices=("json", "csv", "text"), default="json", dest="output_format"
    )
    common_out.add_argument("--plot", action="store_true", help="also write an SVG plot")
    common_out.add_argument(
        "--output-dir", default=None,
        help=f"directory for plot/scene files (default ${OUTPUT_DIR_ENV} or .)",
    )

    cloud_in = argparse.ArgumentParser(add_help=False)
    cloud_in.add_argument(
        "--columns", type=_columns_arg, default=None,
        help="comma-separated coordinate columns, names or indices (default: all but the label)",
    )
    cloud_in.add_argument("--label-column", default=None)
    cloud_in.add_argument("--delimiter", type=_delimiter_arg, default=None, help="default ,")

    metric = argparse.ArgumentParser(add_help=False)
    metric.add_argument("--error-metric", choices=ERROR_METRICS, default=DEFAULT_ERROR_METRIC)

    p_fit = sub.add_parser(
        "fit", parents=[common_out, cloud_in, metric],
        help="fit a line or plane to a point cloud",
    )
    p_fit.add_argument("--input", required=True, help=f"CSV path or {BUILTIN_V4}")
    p_fit.add_argument("--geometry", choices=("line", "plane"), required=True)
    p_fit.add_argument("--country", default=None, help=f"country code with {BUILTIN_V4}")
    p_fit.add_argument(
        "--projection", type=_projection_arg, default=None,
        help="coordinate pair i,j to plot (default 0,1; required above 2D)",
    )

    p_cmp = sub.add_parser(
        "compare", parents=[common_out, cloud_in],
        help="classical, conjugate, and orthogonal lines on 2D data",
    )
    p_cmp.add_argument("--input", required=True, help="CSV path with 2D data")

    p_eco = sub.add_parser(
        "economy", parents=[common_out, metric],
        help="plane-based economy indicators (builtin V4 data by default)",
    )
    p_eco.add_argument(
        "--data", default=None,
        help="external indicator CSV (schema: country,year,unemployment,gdp_change,inflation)",
    )
    p_eco.add_argument(
        "--dump-data", action="store_true",
        help="write the indicator dataset as CSV to stdout and exit",
    )

    p_gen = sub.add_parser(
        "gen-bumblebee", help="generate a deterministic noisy line cloud as CSV"
    )
    p_gen.add_argument("--start", type=_vec3_arg, required=True, help="x,y,z of the segment start")
    p_gen.add_argument("--end", type=_vec3_arg, required=True, help="x,y,z of the segment end")
    p_gen.add_argument("--n", type=int, required=True, help="number of sample points")
    p_gen.add_argument("--sigma", type=float, default=0.0, help="noise standard deviation")
    p_gen.add_argument("--seed", type=int, default=0, help="64-bit generator seed")
    p_gen.add_argument("--output", default=None, help="CSV file (default: stdout)")
    return parser


def _cmd_fit(args):
    # The metadata keys and their order are part of the json and csv output.
    if args.projection is not None and not args.plot:
        raise UsageError("--projection applies only with --plot")
    if args.input == BUILTIN_V4:
        if (args.columns, args.label_column, args.delimiter) != (None, None, None):
            raise UsageError(
                f"--columns, --label-column and --delimiter do not apply to {BUILTIN_V4}"
            )
        series = _builtin_series(args.country)
        cloud = trajectory(series)
        meta = {"input": BUILTIN_V4, "country": series.country, "columns": list(STATE_VARIABLES)}
    else:
        if args.country is not None:
            raise UsageError(f"--country applies only to {BUILTIN_V4}")
        cloud = _read_cloud(args)
        columns = None if args.columns is None else list(args.columns)
        meta = {"input": args.input, "columns": columns}
    meta["geometry"] = args.geometry
    model = fit_line(cloud) if args.geometry == "line" else fit_hyperplane(cloud)
    report = build_fit_report(cloud, model, args.error_metric, meta)
    text = render_fit(report, args.output_format)
    files = []
    if args.plot:
        svg = emit_plot_svg(report, projection=args.projection)
        files.append((_output_dir(args) / f"fit_{args.geometry}.svg", svg))
    return text, files


def _cmd_compare(args):
    if args.columns is not None and len(args.columns) != 2:
        raise UsageError("compare needs exactly two columns")
    cloud = _read_cloud(args)
    if cloud.dim != 2:
        raise InvalidInputError(
            f"comparison needs exactly 2 coordinate columns, got {cloud.dim}"
        )
    report = compare_ols_tls(cloud.points[:, 0], cloud.points[:, 1])
    text = render_compare(report, {"input": args.input}, args.output_format)
    files = []
    if args.plot:
        files.append((_output_dir(args) / "compare.svg", emit_plot_svg(report)))
    return text, files


def _cmd_economy(args):
    if args.data is not None:
        series_list = parse_indicator_csv(_read_bytes(args.data))
        provenance = args.data
    else:
        series_list = v4_dataset()
        provenance = BUILTIN_V4
    if args.dump_data:
        return format_indicator_csv(series_list), []
    if args.data is None:
        by_code = {s.country: s for s in series_list}
        series_list = [by_code[c] for c in V4_REPORT_ORDER]
    if args.plot:
        # Each country code names a scene file in the output directory.
        unsafe = set("/\0" + os.sep + (os.altsep or ""))
        for series in series_list:
            if unsafe & set(series.country):
                raise InvalidInputError(f"country code {series.country!r} cannot name a file")
    indicators = economy_indicators(series_list, metric=args.error_metric)
    text = render_economy(
        indicators, {"input": provenance, "metric": args.error_metric}, args.output_format
    )
    files = []
    if args.plot:
        out = _output_dir(args)
        for variable in STATE_VARIABLES:
            chart = polyline_chart(
                [(s.country, s.years, getattr(s, variable)) for s in series_list],
                title=f"{variable} by year",
                x_label="year",
                y_label=f"{variable} (%)",
            )
            files.append((out / f"economy_{variable}.svg", chart))
        for series, plane in zip(series_list, indicators.planes):
            scene = scene_dict(plane, trajectory(series))
            files.append((out / f"scene_{plane.country}.json", json.dumps(scene, indent=2) + "\n"))
    return text, files


def _cmd_gen_bumblebee(args):
    spec = LineCloudSpec(
        start=args.start, end=args.end, n=args.n, sigma=args.sigma, seed=args.seed
    )
    sample = generate_line_cloud(spec)
    csv_text = format_cloud_csv(sample.cloud, ("x", "y", "z"), label_name="i")
    if args.output is None:
        return csv_text, []
    return "", [(Path(args.output), csv_text)]


#: Each command returns (stdout text, [(path, file content), ...]); main
#: writes them only after the command has returned without error.
_COMMANDS = {
    "fit": _cmd_fit,
    "compare": _cmd_compare,
    "economy": _cmd_economy,
    "gen-bumblebee": _cmd_gen_bumblebee,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and usage errors (2)
        return int(exc.code or 0)
    try:
        text, files = _COMMANDS[args.command](args)
        _write_files(files)
    except OrthoregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
