"""Fit reports and their serializations (JSON, CSV, text, 3D scene files).

JSON and CSV write floats with ``repr`` (shortest round-tripping decimal
form), so re-reading a report reproduces every numeric field exactly. The
text format rounds to 4 decimals for reading, matching the precision of the
reference tables. No serialization embeds timestamps: identical inputs give
identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .economy import COORDINATE_PLANES, EconomyIndicators, EconomyPlane
from .eigen import eigen_symmetric
from .errors import InvalidInputError
from .fitting import (
    DEFAULT_ERROR_METRIC,
    FittedHyperplane,
    FittedLine,
    PointCloud,
    ResidualStats,
    scatter_matrix,
)
from .regression import ComparisonReport


@dataclass(frozen=True)
class FitReport:
    """Result of one fit: the model, the reported error, and one label per
    distance in ``model.error.per_point_distance``.

    ``cloud`` keeps the fitted data for plotting; it is not serialized.
    """

    model: FittedLine | FittedHyperplane
    err: float
    labels: tuple[str, ...]
    metadata: dict = field(default_factory=dict)
    cloud: PointCloud | None = None

    def __post_init__(self):
        if len(self.labels) != len(self.model.error.per_point_distance):
            raise InvalidInputError("report labels must match the per-point distances")

    @property
    def per_point(self) -> tuple[tuple[str, float], ...]:
        """The (label, distance) pairs."""
        return tuple(zip(self.labels, self.model.error.per_point_distance.tolist()))


def point_labels(cloud: PointCloud) -> tuple[str, ...]:
    return cloud.labels or tuple(str(i) for i in range(len(cloud)))


def build_fit_report(cloud: PointCloud, model, metric: str, metadata: dict) -> FitReport:
    return FitReport(
        model=model,
        err=model.error.metric(metric),
        labels=point_labels(cloud),
        metadata={**metadata, "metric": metric, "version": __version__},
        cloud=cloud,
    )


def _vec(v) -> list[float]:
    return [float(x) for x in v]


def _model_dict(model) -> dict:
    if isinstance(model, FittedLine):
        return {
            "geometry": "line",
            "anchor": _vec(model.anchor),
            "direction": _vec(model.direction),
        }
    if isinstance(model, FittedHyperplane):
        return {
            "geometry": "plane",
            "normal": _vec(model.normal),
            "centroid": _vec(model.centroid),
            "offset": float(model.offset),
        }
    raise InvalidInputError("model must be a FittedLine or FittedHyperplane")


def _residuals_dict(stats: ResidualStats) -> dict:
    return {
        "sum_sq": stats.sum_sq,
        "root_sum_sq": stats.root_sum_sq,
        "rms": stats.rms,
        "sum_abs": stats.sum_abs,
    }


def _report_dict(report: FitReport, per_point: list) -> dict:
    return {
        "model": _model_dict(report.model),
        "err": report.err,
        "residuals": _residuals_dict(report.model.error),
        "per_point": per_point,
        "metadata": dict(report.metadata),
    }


def report_to_dict(report: FitReport) -> dict:
    return _report_dict(
        report, [{"label": lab, "distance": d} for lab, d in report.per_point]
    )


def report_from_dict(data: dict) -> FitReport:
    """Rebuild a report from its dict form (the cloud is not recoverable)."""
    m = data["model"]
    stats = ResidualStats.from_distances([p["distance"] for p in data["per_point"]])
    if m["geometry"] == "line":
        model = FittedLine(
            anchor=np.asarray(m["anchor"], dtype=float),
            direction=np.asarray(m["direction"], dtype=float),
            error=stats,
        )
    elif m["geometry"] == "plane":
        model = FittedHyperplane(
            normal=np.asarray(m["normal"], dtype=float),
            centroid=np.asarray(m["centroid"], dtype=float),
            offset=float(m["offset"]),
            error=stats,
        )
    else:
        raise InvalidInputError(f"unknown geometry {m['geometry']!r}")
    return FitReport(
        model=model,
        err=float(data["err"]),
        labels=tuple(p["label"] for p in data["per_point"]),
        metadata=dict(data.get("metadata", {})),
    )


def _to_json(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"


def _kv_rows(pairs) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(pairs)
    return out.getvalue()


def _flatten(prefix: str, data, pairs: list) -> None:
    if isinstance(data, dict):
        for key, value in data.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), value, pairs)
    elif isinstance(data, (list, tuple)):
        for i, value in enumerate(data):
            _flatten(f"{prefix}.{i}", value, pairs)
    elif isinstance(data, float):
        pairs.append((prefix, repr(data)))
    else:
        pairs.append((prefix, "" if data is None else str(data)))


def _to_kv_csv(data: dict) -> str:
    pairs: list = [("key", "value")]
    _flatten("", data, pairs)
    return _kv_rows(pairs)


#: The per-point items as json.dumps(..., indent=2) writes them inside the
#: report, and as rows of the flattened key/value csv.
_JSON_POINT = '    {{\n      "label": {},\n      "distance": {}\n    }}'
_CSV_POINT = "per_point.{0}.label,{1}\nper_point.{0}.distance,{2}\n"
#: json.dumps' spelling of the non-finite floats (allow_nan=True).
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _fit_json(report: FitReport) -> str:
    """``_to_json(report_to_dict(report))``, with the points joined directly."""
    text = _to_json(_report_dict(report, []))
    if not report.labels:
        return text
    # The first match is the key: a quote inside a JSON string is escaped.
    head, _, tail = text.partition('"per_point": []')
    distances = list(map(float.__repr__, report.model.error.per_point_distance.tolist()))
    items = map(
        _JSON_POINT.format,
        map(encode_basestring_ascii, report.labels),
        map(_JSON_NON_FINITE.get, distances, distances),
    )
    return "".join((head, '"per_point": [\n', ",\n".join(items), "\n  ]", tail))


def _fit_kv_csv(report: FitReport) -> str:
    """``_to_kv_csv(report_to_dict(report))``, with the points joined directly."""
    joined = "".join(report.labels)
    if any(c in joined for c in ',"\r\n'):  # a label csv.writer may quote
        return _to_kv_csv(report_to_dict(report))
    data = _report_dict(report, [])
    metadata = data.pop("metadata")  # the rows after the points
    head: list = [("key", "value")]
    _flatten("", data, head)
    tail: list = []
    _flatten("metadata", metadata, tail)
    distances = map(float.__repr__, report.model.error.per_point_distance.tolist())
    points = map(_CSV_POINT.format, range(len(report.labels)), report.labels, distances)
    return "".join((_kv_rows(head), "".join(points), _kv_rows(tail)))


def _f4(value) -> str:
    return f"{value:.4f}"


def _vec4(v) -> str:
    return "(" + ", ".join(_f4(x) for x in v) + ")"


def render_fit(report: FitReport, output_format: str) -> str:
    if output_format == "json":
        return _fit_json(report)
    if output_format == "csv":
        return _fit_kv_csv(report)
    if output_format == "text":
        lines = []
        model = report.model
        if isinstance(model, FittedLine):
            lines.append("geometry: line")
            lines.append(f"anchor:    {_vec4(model.anchor)}")
            lines.append(f"direction: {_vec4(model.direction)}")
        else:
            lines.append("geometry: plane")
            lines.append(f"normal:   {_vec4(model.normal)}")
            lines.append(f"centroid: {_vec4(model.centroid)}")
            lines.append(f"offset:   {_f4(model.offset)}")
        metric = report.metadata.get("metric", DEFAULT_ERROR_METRIC)
        lines.append(f"err ({metric}): {_f4(report.err)}")
        lines.append("per-point distances:")
        lines.extend(f"  {label:>8}  {d:.4f}" for label, d in report.per_point)
        return "\n".join(lines) + "\n"
    raise InvalidInputError(f"unknown output format {output_format!r}")


def _line2d_dict(line) -> dict | None:
    if line is None:
        return None
    return {
        "slope": float(line.slope),
        "intercept": float(line.intercept),
        "orientation": line.orientation.value,
    }


def compare_to_dict(report: ComparisonReport, metadata: dict) -> dict:
    return {
        "centroid": _vec(report.centroid),
        "ols": _line2d_dict(report.ols),
        "conjugate": _line2d_dict(report.conjugate),
        "tls": {
            "anchor": _vec(report.tls.anchor),
            "direction": _vec(report.tls.direction),
            "sum_sq": report.tls.error.sum_sq,
        },
        "angles_deg": {
            "ols_conjugate": report.angle_ols_conjugate_deg,
            "ols_tls": report.angle_ols_tls_deg,
            "conjugate_tls": report.angle_conjugate_tls_deg,
        },
        "tls_between_scissors": report.tls_between_scissors,
        "metadata": {**metadata, "version": __version__},
    }


def render_compare(report: ComparisonReport, metadata: dict, output_format: str) -> str:
    data = compare_to_dict(report, metadata)
    if output_format == "json":
        return _to_json(data)
    if output_format == "csv":
        return _to_kv_csv(data)
    if output_format == "text":
        lines = [f"centroid: {_vec4(report.centroid)}"]
        if report.ols is not None:
            lines.append(
                f"classical (y on x): y = {_f4(report.ols.slope)} x + {_f4(report.ols.intercept)}"
            )
        else:
            lines.append("classical (y on x): unavailable (xs constant)")
        if report.conjugate is not None:
            lines.append(
                f"conjugate (x on y): x = {_f4(report.conjugate.slope)} y + "
                f"{_f4(report.conjugate.intercept)}"
            )
        else:
            lines.append("conjugate (x on y): unavailable (ys constant)")
        lines.append(
            f"orthogonal: anchor {_vec4(report.tls.anchor)}, "
            f"direction {_vec4(report.tls.direction)}, sum_sq {_f4(report.tls.error.sum_sq)}"
        )
        for name, value in (
            ("classical/conjugate", report.angle_ols_conjugate_deg),
            ("classical/orthogonal", report.angle_ols_tls_deg),
            ("conjugate/orthogonal", report.angle_conjugate_tls_deg),
        ):
            if value is not None:
                lines.append(f"angle {name}: {_f4(value)} deg")
        if report.tls_between_scissors is not None:
            lines.append(f"orthogonal line inside the scissors: {report.tls_between_scissors}")
        return "\n".join(lines) + "\n"
    raise InvalidInputError(f"unknown output format {output_format!r}")


def economy_to_dict(indicators: EconomyIndicators, metadata: dict) -> dict:
    planes = []
    for ep in indicators.planes:
        planes.append(
            {
                "country": ep.country,
                "normal": _vec(ep.plane.normal),
                "centroid": _vec(ep.plane.centroid),
                "offset": float(ep.plane.offset),
                "err": ep.err_reported,
                "yearly_distances": {str(y): d for y, d in ep.yearly_distances.items()},
            }
        )
    slope_names = [name for name, _ in COORDINATE_PLANES]
    return {
        "countries": list(indicators.countries),
        "planes": planes,
        "pairwise_angles_deg": [[float(a) for a in row] for row in indicators.pairwise_angles_deg],
        "slopes_deg": {
            country: dict(zip(slope_names, values))
            for country, values in indicators.slopes.items()
        },
        "metadata": {**metadata, "version": __version__},
    }


def render_economy(indicators: EconomyIndicators, metadata: dict, output_format: str) -> str:
    data = economy_to_dict(indicators, metadata)
    if output_format == "json":
        return _to_json(data)
    if output_format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["country", "normal_u", "normal_g", "normal_i",
             "centroid_u", "centroid_g", "centroid_i", "err"]
        )
        for ep in indicators.planes:
            writer.writerow(
                [ep.country]
                + [repr(float(x)) for x in ep.plane.normal]
                + [repr(float(x)) for x in ep.plane.centroid]
                + [repr(float(ep.err_reported))]
            )
        writer.writerow([])
        writer.writerow(["angle_deg", *indicators.countries])
        for country, row in zip(indicators.countries, indicators.pairwise_angles_deg):
            writer.writerow([country, *[repr(float(a)) for a in row]])
        writer.writerow([])
        writer.writerow(["country", *[name for name, _ in COORDINATE_PLANES]])
        for country in indicators.countries:
            writer.writerow([country, *[repr(float(s)) for s in indicators.slopes[country]]])
        return out.getvalue()
    if output_format == "text":
        lines = ["country   normal                          centroid                        err"]
        for ep in indicators.planes:
            lines.append(
                f"{ep.country:<8}  {_vec4(ep.plane.normal):<30}  "
                f"{_vec4(ep.plane.centroid):<30}  {_f4(ep.err_reported)}"
            )
        lines.append("")
        lines.append("pairwise plane angles (deg):")
        header = "        " + "".join(f"{c:>10}" for c in indicators.countries)
        lines.append(header)
        for country, row in zip(indicators.countries, indicators.pairwise_angles_deg):
            lines.append(f"{country:<8}" + "".join(f"{_f4(a):>10}" for a in row))
        lines.append("")
        lines.append("plane slopes against coordinate planes (deg):")
        lines.append("        " + "".join(f"{name:>26}" for name, _ in COORDINATE_PLANES))
        for country in indicators.countries:
            lines.append(
                f"{country:<8}"
                + "".join(f"{_f4(s):>26}" for s in indicators.slopes[country])
            )
        return "\n".join(lines) + "\n"
    raise InvalidInputError(f"unknown output format {output_format!r}")


def scene_dict(plane: EconomyPlane, cloud: PointCloud) -> dict:
    """3D scene description: points, trajectory polyline, plane patch corners.

    The patch is a parallelogram around the centroid spanned by the two
    in-plane principal axes, sized to cover the projected data with a small
    margin. Intended for external 3D viewers; nothing here renders it.
    """
    dec = eigen_symmetric(scatter_matrix(cloud))
    e1, e2 = dec.eigenvectors[0], dec.eigenvectors[1]
    b = cloud.points - plane.plane.centroid
    half_u = 1.1 * float(np.abs(b @ e1).max() or 1.0)
    half_v = 1.1 * float(np.abs(b @ e2).max() or 1.0)
    c = plane.plane.centroid
    corners = [
        c + half_u * e1 + half_v * e2,
        c + half_u * e1 - half_v * e2,
        c - half_u * e1 - half_v * e2,
        c - half_u * e1 + half_v * e2,
    ]
    return {
        "country": plane.country,
        "labels": list(point_labels(cloud)),
        "points": [_vec(p) for p in cloud.points],
        "trajectory": list(range(len(cloud))),
        "plane": {
            "normal": _vec(plane.plane.normal),
            "centroid": _vec(c),
            "offset": float(plane.plane.offset),
            "corners": [_vec(p) for p in corners],
        },
        "version": __version__,
    }


__all__ = [
    "FitReport",
    "build_fit_report",
    "report_to_dict",
    "report_from_dict",
    "render_fit",
    "compare_to_dict",
    "render_compare",
    "economy_to_dict",
    "render_economy",
    "scene_dict",
    "point_labels",
]
