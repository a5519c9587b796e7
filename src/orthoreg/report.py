"""Fit reports and their serializations (JSON, CSV, text, 3D scene files).

Each report becomes one dict (``report_to_dict``, ``compare_to_dict``,
``economy_to_dict``), and one dispatch renders that dict as json, csv
(key/value rows, or the economy's tables) or text; no renderer reads the
report object. The one special case is a fit's per-point rows: json and csv
splice them, and text lists them, from the fit's labels and distances, not
from a dict per point. Each of those blocks is written a column at a time
by ``dataio._table``, so no Python-level call is made per point, and a large
table is written in two halves at once, one by a forked child. Every cell
is decided before the split: ``dataio._escaped`` escapes a label column, as
CSV cells or as JSON strings, by one search over the whole column, and json
spells an infinite distance ``Infinity``. The halves only slice and format:
each converts its own distances to Python floats, and a report of an
unlabelled cloud keeps its labels as a ``range`` (``_IndexLabels``), so each
half also formats its own indices.

JSON and CSV write floats with ``repr`` (shortest round-tripping decimal
form), so re-reading a report reproduces every numeric field exactly. The
text format rounds to 4 decimals for reading, matching the precision of the
reference tables. No serialization embeds timestamps: on one host, with one
BLAS thread count, identical inputs give identical bytes. A cloud of more
than 10000 points may not keep its last bits across thread counts, as the
BLAS may split its long dot products across threads.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .dataio import _QUOTED, _csv_cell, _csv_text, _escaped, _table
from .economy import COORDINATE_PLANES, EconomyIndicators, EconomyPlane
from .eigen import eigen_symmetric
from .errors import InvalidInputError
from .fitting import (
    DEFAULT_ERROR_METRIC,
    ERROR_METRICS,
    FittedHyperplane,
    FittedLine,
    PointCloud,
    ResidualStats,
    scatter_matrix,
)
from .regression import ComparisonReport


class _IndexLabels(Sequence):
    """The labels of an unlabelled cloud's points: ``str`` of each index in
    ``range``, made only when read. It equals, and hashes as, the tuple of
    those strings. The writers hand ``range`` to ``dataio._table``, so each
    half of a large table formats its own indices."""

    __slots__ = ("range",)

    def __init__(self, indices: range):
        self.range = indices

    def __len__(self) -> int:
        return len(self.range)

    def __getitem__(self, i):
        return _IndexLabels(self.range[i]) if isinstance(i, slice) else str(self.range[i])

    def __iter__(self):
        return map(str, self.range)

    def __eq__(self, other):
        if isinstance(other, _IndexLabels):
            return self.range == other.range
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class FitReport:
    """Result of one fit: the model and one label per distance in
    ``model.error.per_point_distance``. Its ``err`` is the aggregate of those
    distances that ``metadata["metric"]`` names, ``DEFAULT_ERROR_METRIC``
    where it names none; an unknown metric is an InvalidInputError. ``err``
    is fixed at construction, where ``metadata`` is copied.

    ``labels`` reads as a sequence of ``str``, as in PointCloud. A ``range``
    (``build_fit_report``'s labels for an unlabelled cloud) is kept as the
    indices' labels (``_IndexLabels``), so no label string is made before
    the writers' halves format them; any other labels are stored as a tuple
    of ``str`` of each.

    ``cloud`` keeps the fitted data for plotting; it is not serialized.
    """

    model: FittedLine | FittedHyperplane
    labels: Sequence[str]
    metadata: dict = field(default_factory=dict)
    cloud: PointCloud | None = None
    err: float = field(init=False)

    def __post_init__(self):
        labels = self.labels
        if isinstance(labels, range):
            labels = _IndexLabels(labels)
        elif not isinstance(labels, _IndexLabels):
            labels = tuple(str(x) for x in labels)
        if len(labels) != len(self.model.error.per_point_distance):
            raise InvalidInputError("report labels must match the per-point distances")
        metadata = dict(self.metadata)
        err = self.model.error.metric(metadata.get("metric", DEFAULT_ERROR_METRIC))
        for name, value in (("labels", labels), ("metadata", metadata), ("err", err)):
            object.__setattr__(self, name, value)

    @property
    def per_point(self) -> tuple[tuple[str, float], ...]:
        """The (label, distance) pairs."""
        return tuple(zip(self.labels, self.model.error.per_point_distance.tolist()))


def build_fit_report(cloud: PointCloud, model, metric: str, metadata: dict) -> FitReport:
    return FitReport(
        model=model,
        labels=cloud.labels or range(len(cloud)),
        metadata={**metadata, "metric": metric, "version": __version__},
        cloud=cloud,
    )


def _vec(v) -> list[float]:
    return [float(x) for x in v]


def _plane_dict(plane: FittedHyperplane) -> dict:
    return {
        "normal": _vec(plane.normal),
        "centroid": _vec(plane.centroid),
        "offset": float(plane.offset),
    }


def _model_dict(model) -> dict:
    if isinstance(model, FittedLine):
        return {"geometry": "line", "anchor": _vec(model.anchor),
                "direction": _vec(model.direction)}
    if isinstance(model, FittedHyperplane):
        return {"geometry": "plane", **_plane_dict(model)}
    raise InvalidInputError("model must be a FittedLine or FittedHyperplane")


def _report_dict(report: FitReport, per_point: list) -> dict:
    return {
        "model": _model_dict(report.model),
        "err": report.err,
        "residuals": {name: report.model.error.metric(name) for name in ERROR_METRICS},
        "per_point": per_point,
        "metadata": dict(report.metadata),
    }


def report_to_dict(report: FitReport) -> dict:
    return _report_dict(report, [{"label": lab, "distance": d} for lab, d in report.per_point])


def _entry(data, key: str, kind=object):
    """``data[key]``, if ``data`` is a dict holding a ``kind`` there."""
    if not (isinstance(data, dict) and key in data and isinstance(data[key], kind)):
        raise InvalidInputError(f"report dict: {key!r} is missing or of the wrong type")
    return data[key]


def report_from_dict(data: dict) -> FitReport:
    """Rebuild a report from its dict form (the cloud is not recoverable).
    Its residuals and ``err`` are computed again from the distances. A
    missing key, or a value of the wrong type, is an InvalidInputError."""
    m = _entry(data, "model", dict)
    points = _entry(data, "per_point", list)
    stats = ResidualStats([_entry(p, "distance") for p in points])
    geometry = _entry(m, "geometry")
    if geometry == "line":
        model = FittedLine(_entry(m, "anchor"), _entry(m, "direction"), stats)
    elif geometry == "plane":
        offset = float(_entry(m, "offset", (int, float)))
        model = FittedHyperplane(_entry(m, "normal"), _entry(m, "centroid"), offset, stats)
    else:
        raise InvalidInputError(f"unknown geometry {geometry!r}")
    metadata = _entry(data, "metadata", dict) if "metadata" in data else {}
    return FitReport(model, tuple(_entry(p, "label") for p in points), metadata)


#: The characters that ``encode_basestring_ascii`` escapes: all but printable
#: ASCII other than the quote and the backslash.
_JSON_ESCAPED = re.compile(r'[^ !#-\[\]-~]')

#: One per-point item as json.dumps(..., indent=2) writes it inside the
#: report, with the comma that follows every item but the last. ``%s`` of a
#: float writes its ``repr``.
_JSON_ITEM = '\n    {\n      "label": "%s",\n      "distance": %s\n    },'


def _to_json(data: dict, points=None) -> str:
    """``json.dumps(data, indent=2)``; a fit's ``points`` (labels, distances)
    are the items of ``data``'s empty ``per_point`` list, one ``_table``. A
    distance is written as its ``repr``, and +inf, the one non-finite
    distance a ``ResidualStats`` holds, as json.dumps' ``Infinity``."""
    text = json.dumps(data, indent=2) + "\n"
    if points is None:
        return text
    labels, distances = points
    labels = _escaped(labels, _JSON_ESCAPED, lambda s: encode_basestring_ascii(s)[1:-1])
    if distances.max() == math.inf:
        distances = ["Infinity" if d == math.inf else d for d in distances.tolist()]
    # The first match is the key: a quote inside a JSON string is escaped.
    head, _, tail = text.partition('"per_point": []')
    body = _table(_JSON_ITEM, len(distances), (labels, distances))
    return "".join((head, '"per_point": [', body[:-1], "\n  ]", tail))


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


def _to_kv_csv(data: dict, points=None) -> str:
    """``data`` flattened to key/value rows; a fit's ``points`` (labels,
    distances) are the rows of ``data``'s empty ``per_point`` list."""
    pairs: list = [("key", "value")]
    split = 0
    for key, value in data.items():
        if key == "per_point":
            split = len(pairs)
        _flatten(key, value, pairs)
    if points is None:
        return _csv_text(pairs)
    labels, distances = points
    index = range(len(labels))
    rows = _table(
        "per_point.%d.label,%s\nper_point.%d.distance,%r\n",
        len(labels),
        (index, _escaped(labels, _QUOTED, _csv_cell), index, distances),
    )
    return "".join((_csv_text(pairs[:split]), rows, _csv_text(pairs[split:])))


def _render(output_format: str, data: dict, text, csv=None, points=None) -> str:
    """``data`` as json, as csv (``csv(data)``, by default its key/value
    rows) or as ``text(data)``. ``points``, a fit's (labels, distances), are
    the json and key/value csv rows of the empty ``per_point``, and go to
    ``text(data, points)``."""
    if output_format == "json":
        return _to_json(data, points)
    if output_format == "csv":
        return csv(data) if csv else _to_kv_csv(data, points)
    if output_format == "text":
        return text(data) if points is None else text(data, points)
    raise InvalidInputError(f"unknown output format {output_format!r}")


def _f4(value) -> str:
    return f"{value:.4f}"


def _vec4(v) -> str:
    return "(" + ", ".join(_f4(x) for x in v) + ")"


def _fit_text(data: dict, points) -> str:
    model = data["model"]
    lines = [f"geometry: {model['geometry']}"]
    if model["geometry"] == "line":
        lines += [f"anchor:    {_vec4(model['anchor'])}",
                  f"direction: {_vec4(model['direction'])}"]
    else:
        lines += [f"normal:   {_vec4(model['normal'])}",
                  f"centroid: {_vec4(model['centroid'])}",
                  f"offset:   {_f4(model['offset'])}"]
    metric = data["metadata"].get("metric", DEFAULT_ERROR_METRIC)
    lines += [f"err ({metric}): {_f4(data['err'])}", "per-point distances:"]
    # "%8s" and "%.4f" write what the formats ">8" and ".4f" write.
    return "\n".join(lines) + "\n" + _table("  %8s  %.4f\n", len(points[0]), points)


def render_fit(report: FitReport, output_format: str) -> str:
    labels = report.labels
    if isinstance(labels, _IndexLabels):
        labels = labels.range
    points = (labels, report.model.error.per_point_distance)
    return _render(output_format, _report_dict(report, []), _fit_text, points=points)


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


def _compare_text(data: dict) -> str:
    lines = [f"centroid: {_vec4(data['centroid'])}"]
    for key, name, y, x, constant in (
        ("ols", "classical (y on x)", "y", "x", "xs"),
        ("conjugate", "conjugate (x on y)", "x", "y", "ys"),
    ):
        line = data[key]
        if line is None:
            lines.append(f"{name}: unavailable ({constant} constant)")
        else:
            lines.append(f"{name}: {y} = {_f4(line['slope'])} {x} + {_f4(line['intercept'])}")
    tls = data["tls"]
    lines.append(
        f"orthogonal: anchor {_vec4(tls['anchor'])}, "
        f"direction {_vec4(tls['direction'])}, sum_sq {_f4(tls['sum_sq'])}"
    )
    names = ("classical/conjugate", "classical/orthogonal", "conjugate/orthogonal")
    for name, angle in zip(names, data["angles_deg"].values()):
        if angle is not None:
            lines.append(f"angle {name}: {_f4(angle)} deg")
    if data["tls_between_scissors"] is not None:
        lines.append(f"orthogonal line inside the scissors: {data['tls_between_scissors']}")
    return "\n".join(lines) + "\n"


def render_compare(report: ComparisonReport, metadata: dict, output_format: str) -> str:
    return _render(output_format, compare_to_dict(report, metadata), _compare_text)


_SLOPE_NAMES = tuple(name for name, _ in COORDINATE_PLANES)


def economy_to_dict(indicators: EconomyIndicators, metadata: dict) -> dict:
    planes = [
        {
            "country": ep.country,
            **_plane_dict(ep.plane),
            "err": ep.err_reported,
            "yearly_distances": {str(y): d for y, d in ep.yearly_distances.items()},
        }
        for ep in indicators.planes
    ]
    return {
        "countries": list(indicators.countries),
        "planes": planes,
        "pairwise_angles_deg": [[float(a) for a in row] for row in indicators.pairwise_angles_deg],
        "slopes_deg": {c: dict(zip(_SLOPE_NAMES, v)) for c, v in indicators.slopes.items()},
        "metadata": {**metadata, "version": __version__},
    }


def _economy_csv(data: dict) -> str:
    """Three tables: each plane, the pairwise angles, the slopes."""
    def reprs(values):
        return [repr(float(x)) for x in values]

    countries = data["countries"]
    rows = [["country", "normal_u", "normal_g", "normal_i",
             "centroid_u", "centroid_g", "centroid_i", "err"]]
    rows += [[p["country"], *reprs(p["normal"]), *reprs(p["centroid"]), *reprs([p["err"]])]
             for p in data["planes"]]
    rows += [[], ["angle_deg", *countries]]
    rows += [[c, *reprs(row)] for c, row in zip(countries, data["pairwise_angles_deg"])]
    rows += [[], ["country", *_SLOPE_NAMES]]
    rows += [[c, *reprs(data["slopes_deg"][c].values())] for c in countries]
    return _csv_text(rows)


def _economy_text(data: dict) -> str:
    countries = data["countries"]
    lines = ["country   normal                          centroid                        err"]
    lines += [
        f"{p['country']:<8}  {_vec4(p['normal']):<30}  {_vec4(p['centroid']):<30}  {_f4(p['err'])}"
        for p in data["planes"]
    ]
    lines += ["", "pairwise plane angles (deg):",
              "        " + "".join(f"{c:>10}" for c in countries)]
    lines += [
        f"{c:<8}" + "".join(f"{_f4(a):>10}" for a in row)
        for c, row in zip(countries, data["pairwise_angles_deg"])
    ]
    lines += ["", "plane slopes against coordinate planes (deg):",
              "        " + "".join(f"{name:>26}" for name in _SLOPE_NAMES)]
    lines += [
        f"{c:<8}" + "".join(f"{_f4(s):>26}" for s in data["slopes_deg"][c].values())
        for c in countries
    ]
    return "\n".join(lines) + "\n"


def render_economy(indicators: EconomyIndicators, metadata: dict, output_format: str) -> str:
    data = economy_to_dict(indicators, metadata)
    return _render(output_format, data, _economy_text, csv=_economy_csv)


def scene_dict(plane: EconomyPlane, cloud: PointCloud) -> dict:
    """3D scene description: points, trajectory polyline, plane patch corners.

    The patch is a parallelogram around the centroid spanned by the two
    in-plane principal axes, sized to cover the projected data with a small
    margin. Intended for external 3D viewers; nothing here renders it.
    """
    e1, e2 = eigen_symmetric(scatter_matrix(cloud)).eigenvectors[:2]
    c = plane.plane.centroid
    b = cloud.points - c
    half_u, half_v = (1.1 * float(np.abs(b @ e).max() or 1.0) for e in (e1, e2))
    signs = ((1, 1), (1, -1), (-1, -1), (-1, 1))
    corners = [c + s * half_u * e1 + t * half_v * e2 for s, t in signs]
    return {
        "country": plane.country,
        "labels": list(cloud.labels or _IndexLabels(range(len(cloud)))),
        "points": [_vec(p) for p in cloud.points],
        "trajectory": list(range(len(cloud))),
        "plane": {**_plane_dict(plane.plane), "corners": [_vec(p) for p in corners]},
        "version": __version__,
    }


__all__ = [
    "FitReport", "build_fit_report", "report_to_dict", "report_from_dict", "render_fit",
    "compare_to_dict", "render_compare", "economy_to_dict", "render_economy", "scene_dict",
]
