"""Output checks against the benchmark's own numpy/SVD reference.

Every check takes what the program returned (a library object, or the text a
CLI op printed) together with the input the benchmark generated, recomputes
the answer with ``np.linalg.svd`` of the centred points, and raises
``CheckFailed`` on any disagreement. Checks return the axis accuracies they
saw, as digits: -log10 of the angle in radians between the program's axis
and the reference axis, capped at ``DIGITS_CAP``.

Axis tolerances follow from the problem, not from the program: an algorithm
that diagonalises the scatter matrix B'B can lose eps * s1^2 / gap radians
on an axis whose squared singular value is ``gap`` away from its neighbour,
so thin and nearly tied clouds get a wider tolerance and well-separated ones
a tight one. The factor of 1024 also covers an eigensolver that stops once
the off-diagonal mass is below 1e-14 of the matrix norm (about 45 times the
rounding term); over 30 seeds of lib-small the worst axis used 0.63 of the
64-times tolerance. Per-point distances may move by the axis tolerance times
the point's distance from the centroid.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np

EPS = float(np.finfo(float).eps)
DIGITS_CAP = 16.0

#: Multiple of eps * s1^2 / gap allowed for an axis.
AXIS_TOL_FACTOR = 1024.0

#: Decimal places of the CLI text format.
TEXT_HALF_ULP = 0.5e-4


class CheckFailed(Exception):
    """The program's output disagrees with the reference."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Reference:
    """Centroid, singular values and right singular vectors of one cloud."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)
        self.n, self.dim = self.points.shape
        self.centroid = self.points.mean(axis=0)
        self.centred = self.points - self.centroid
        _, self.s, self.axes = np.linalg.svd(self.centred, full_matrices=False)
        self.radii = np.linalg.norm(self.centred, axis=1)

    def axis_tol(self, k: int) -> float:
        """Angle tolerance for axis k (0: line direction, dim-1: normal)."""
        s2 = self.s**2
        if k == 0:
            gap = s2[0] - s2[1] if self.dim > 1 else s2[0]
        else:
            gap = s2[k - 1] - s2[k]
        if gap <= 0.0:
            return math.pi / 2
        return AXIS_TOL_FACTOR * EPS * max(s2[0], np.finfo(float).tiny) / gap + 1e-15

    def line_distances(self, direction):
        b = self.centred
        return np.linalg.norm(b - np.outer(b @ direction, direction), axis=1)

    def plane_distances(self, normal):
        return np.abs(self.centred @ normal)

    def distance_tol(self, angle_tol: float):
        scale = self.radii + float(np.linalg.norm(self.centroid))
        return angle_tol * self.radii + 64.0 * EPS * scale + 1e-300


def angle(u, v) -> float:
    """Angle in radians between two undirected axes, accurate when small."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    if u @ v < 0:
        v = -v
    return 2.0 * math.asin(min(1.0, float(np.linalg.norm(u - v)) / 2.0))


def digits(theta: float) -> float:
    return DIGITS_CAP if theta <= 0.0 else min(DIGITS_CAP, -math.log10(theta))


def check_axis(got, ref: Reference, k: int, what: str, rounding: float = 0.0) -> float:
    got = np.asarray(got, dtype=float)
    require(got.shape == (ref.dim,), f"{what}: expected {ref.dim} components")
    require(np.isfinite(got).all(), f"{what}: non-finite component")
    if rounding == 0.0:
        require(abs(float(np.linalg.norm(got)) - 1.0) <= 1e-12, f"{what}: not a unit vector")
    theta = angle(got, ref.axes[k])
    tol = ref.axis_tol(k) + 2.0 * rounding * math.sqrt(ref.dim)
    require(theta <= tol, f"{what}: {theta:.3e} rad from the reference axis (tolerance {tol:.3e})")
    return digits(theta)


def check_vector(got, want, tol, what: str) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    require(got.shape == want.shape, f"{what}: expected shape {want.shape}, got {got.shape}")
    bad = np.abs(got - want) > tol
    require(not np.any(bad), f"{what}: {int(np.count_nonzero(bad))} values outside tolerance")


def centroid_tol(ref: Reference, rounding: float = 0.0) -> float:
    return 64.0 * EPS * float(np.abs(ref.points).max()) + rounding


def check_sums(distances, sums: dict, what: str) -> None:
    """The residual aggregates agree with the per-point distances they summarise."""
    d = np.asarray(distances, dtype=float)
    sum_sq = math.fsum(d * d)
    want = {
        "sum_sq": sum_sq,
        "root_sum_sq": math.sqrt(sum_sq),
        "rms": math.sqrt(sum_sq / d.shape[0]),
        "sum_abs": math.fsum(d),
    }
    for key, value in sums.items():
        expected = want[key]
        require(
            abs(float(value) - expected) <= 1e-9 * abs(expected) + 1e-300,
            f"{what}: {key} {value!r} does not match its distances ({expected!r})",
        )


# -- library results -------------------------------------------------------


def check_line_model(model, ref: Reference) -> list[float]:
    d = check_axis(model.direction, ref, 0, "direction")
    check_vector(model.anchor, ref.centroid, centroid_tol(ref), "anchor")
    want = ref.line_distances(ref.axes[0])
    check_vector(model.error.per_point_distance, want, ref.distance_tol(ref.axis_tol(0)), "distances")
    check_stats(model.error)
    return [d]


def check_plane_model(model, ref: Reference) -> list[float]:
    k = ref.dim - 1
    d = check_axis(model.normal, ref, k, "normal")
    check_vector(model.centroid, ref.centroid, centroid_tol(ref), "centroid")
    offset = -float(np.asarray(model.normal) @ np.asarray(model.centroid))
    require(
        abs(float(model.offset) - offset) <= 64.0 * EPS * (abs(offset) + centroid_tol(ref) + 1.0),
        "offset is not -normal.centroid",
    )
    want = ref.plane_distances(ref.axes[k])
    check_vector(model.error.per_point_distance, want, ref.distance_tol(ref.axis_tol(k)), "distances")
    check_stats(model.error)
    return [d]


def check_stats(stats) -> None:
    check_sums(
        stats.per_point_distance,
        {k: getattr(stats, k) for k in ("sum_sq", "root_sum_sq", "rms", "sum_abs")},
        "residuals",
    )


def check_error_against_model(stats, points, model) -> None:
    """total_orthogonal_error: distances of ``points`` to the given model."""
    p = np.asarray(points, dtype=float)
    if hasattr(model, "direction"):
        b = p - model.anchor
        want = np.linalg.norm(b - np.outer(b @ model.direction, model.direction), axis=1)
    else:
        want = np.abs(p @ model.normal + model.offset)
    scale = np.linalg.norm(p, axis=1) + 1.0
    check_vector(stats.per_point_distance, want, 64.0 * EPS * scale, "distances")
    check_stats(stats)


def classical_lines(x, y):
    """Reference (slope, intercept) of y-on-x and x-on-y least squares."""
    xm, ym = x.mean(), y.mean()
    dx, dy = x - xm, y - ym
    sxx, syy, sxy = math.fsum(dx * dx), math.fsum(dy * dy), math.fsum(dx * dy)
    ols = (sxy / sxx, ym - sxy / sxx * xm) if sxx > 0 else None
    conj = (sxy / syy, xm - sxy / syy * ym) if syy > 0 else None
    return ols, conj, sxy


def _line_dir(slope: float, y_on_x: bool):
    d = np.array([1.0, slope]) if y_on_x else np.array([slope, 1.0])
    return d / np.linalg.norm(d)


def _inclination(direction) -> float:
    ang = math.degrees(math.atan2(float(direction[1]), float(direction[0])))
    if ang > 90.0:
        ang -= 180.0
    elif ang <= -90.0:
        ang += 180.0
    return ang


def _undirected_deg(u, v) -> float:
    return math.degrees(angle(u, v))


def check_comparison(data: dict, x, y, rounding: float = 0.0) -> list[float]:
    """Checks a comparison given as the dict the CLI prints (json or kv-csv).

    ``rounding`` is the half-ulp of the printed decimals (0 for full
    precision).
    """
    ref = Reference(np.column_stack([x, y]))
    check_vector(_floats(data["centroid"]), ref.centroid, centroid_tol(ref, rounding), "centroid")
    tls = data["tls"]
    d = check_axis(_floats(tls["direction"]), ref, 0, "tls direction", rounding)
    check_vector(_floats(tls["anchor"]), ref.centroid, centroid_tol(ref, rounding), "tls anchor")
    want = ref.line_distances(ref.axes[0])
    tol = ref.distance_tol(ref.axis_tol(0))
    sum_sq = float(tls["sum_sq"])
    slack = math.fsum(2.0 * want * tol + tol * tol) + rounding
    require(abs(sum_sq - math.fsum(want * want)) <= slack + 1e-9 * sum_sq, "tls sum_sq")
    ols, conj, sxy = classical_lines(np.asarray(x, float), np.asarray(y, float))
    for key, line in (("ols", ols), ("conjugate", conj)):
        got = data[key]
        if line is None:
            require(got in (None, "", {}), f"{key}: expected no line")
            continue
        require(isinstance(got, dict), f"{key}: missing")
        for name, want_value in zip(("slope", "intercept"), line):
            value = float(got[name])
            tol_v = 1e-8 * (abs(want_value) + abs(line[0]) * float(np.abs(ref.centroid).max()) + 1.0)
            require(abs(value - want_value) <= tol_v + rounding, f"{key} {name}")
    dirs = {"ols": None, "conjugate": None, "tls": _floats(tls["direction"])}
    if ols is not None:
        dirs["ols"] = _line_dir(float(data["ols"]["slope"]), True)
    if conj is not None:
        dirs["conjugate"] = _line_dir(float(data["conjugate"]["slope"]), False)
    for key, (a, b) in {
        "ols_conjugate": ("ols", "conjugate"),
        "ols_tls": ("ols", "tls"),
        "conjugate_tls": ("conjugate", "tls"),
    }.items():
        got = data["angles_deg"][key]
        if dirs[a] is None or dirs[b] is None:
            require(got in (None, ""), f"angle {key}: expected none")
            continue
        want_angle = _undirected_deg(dirs[a], dirs[b])
        require(abs(float(got) - want_angle) <= 1e-6 + rounding, f"angle {key}")
    between = data["tls_between_scissors"]
    if ols is not None and conj is not None and sxy != 0.0:
        incs = sorted([_inclination(dirs["ols"]), _inclination(dirs["conjugate"])])
        inc = _inclination(dirs["tls"])
        inside = incs[0] - 1e-9 <= inc <= incs[1] + 1e-9
        near_edge = min(abs(inc - incs[0]), abs(inc - incs[1])) < 1e-6
        require(near_edge or _bool(between) == inside, "tls_between_scissors")
    return [d]


def check_comparison_model(report, x, y) -> list[float]:
    """A library ComparisonReport, through the same dict the CLI would print."""

    def line(value):
        if value is None:
            return None
        return {"slope": value.slope, "intercept": value.intercept}

    data = {
        "centroid": report.centroid,
        "ols": line(report.ols),
        "conjugate": line(report.conjugate),
        "tls": {
            "anchor": report.tls.anchor,
            "direction": report.tls.direction,
            "sum_sq": report.tls.error.sum_sq,
        },
        "angles_deg": {
            "ols_conjugate": report.angle_ols_conjugate_deg,
            "ols_tls": report.angle_ols_tls_deg,
            "conjugate_tls": report.angle_conjugate_tls_deg,
        },
        "tls_between_scissors": report.tls_between_scissors,
    }
    out = check_comparison(data, x, y)
    ref = Reference(np.column_stack([x, y]))
    check_vector(
        report.tls.error.per_point_distance,
        ref.line_distances(ref.axes[0]),
        ref.distance_tol(ref.axis_tol(0)),
        "tls distances",
    )
    return out


def check_economy_planes(planes, series, rounding: float = 0.0, with_yearly=True) -> list[float]:
    """``planes``: list of dicts (country, normal, centroid, offset?, err, yearly?).

    ``series``: list of (country, years, points) in the expected order.
    """
    require(len(planes) == len(series), f"expected {len(series)} planes, got {len(planes)}")
    out = []
    for plane, (country, years, points) in zip(planes, series):
        require(plane["country"] == country, f"plane order: {plane['country']} != {country}")
        ref = Reference(points)
        k = ref.dim - 1
        normal = _floats(plane["normal"])
        out.append(check_axis(normal, ref, k, f"{country} normal", rounding))
        check_vector(_floats(plane["centroid"]), ref.centroid, centroid_tol(ref, rounding), f"{country} centroid")
        want = ref.plane_distances(ref.axes[k])
        tol = ref.distance_tol(ref.axis_tol(k))
        err = float(plane["err"])
        require(abs(err - math.fsum(want)) <= math.fsum(tol) + rounding + 1e-12 * err, f"{country} err")
        if "offset" in plane:
            require(abs(float(plane["offset"]) + float(normal @ ref.centroid)) <= 1e-9 * (1 + abs(err)), f"{country} offset")
        if with_yearly:
            yearly = plane["yearly_distances"]
            require(list(yearly) == [str(y) for y in years], f"{country} years")
            check_vector([float(v) for v in yearly.values()], want, tol, f"{country} yearly distances")
    return out


def check_derived_indicators(normals, countries, angles, slopes, rounding: float = 0.0) -> None:
    """Pairwise plane angles and coordinate-plane slopes, from the reported normals."""
    n = len(countries)
    require(len(angles) == n and all(len(row) == n for row in angles), "angle matrix shape")
    for i in range(n):
        for j in range(n):
            want = 0.0 if i == j else _undirected_deg(normals[i], normals[j])
            require(abs(float(angles[i][j]) - want) <= 1e-6 + rounding, f"angle {countries[i]}/{countries[j]}")
    axes = (np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    for country, normal in zip(countries, normals):
        got = slopes[country]
        require(len(got) == 3, f"{country} slopes")
        for value, axis in zip(got, axes):
            require(abs(float(value) - _undirected_deg(normal, axis)) <= 1e-6 + rounding, f"{country} slope")


def check_economy_model(indicators, series) -> list[float]:
    planes = [
        {
            "country": p.country,
            "normal": p.plane.normal,
            "centroid": p.plane.centroid,
            "offset": p.plane.offset,
            "err": p.err_reported,
            "yearly_distances": {str(y): d for y, d in p.yearly_distances.items()},
        }
        for p in indicators.planes
    ]
    out = check_economy_planes(planes, series)
    normals = [p.plane.normal for p in indicators.planes]
    countries = [p.country for p in indicators.planes]
    check_derived_indicators(normals, countries, indicators.pairwise_angles_deg, indicators.slopes)
    return out


# -- CLI outputs -------------------------------------------------------------


def _floats(values):
    return np.array([float(v) for v in values], dtype=float)


def _bool(value):
    if isinstance(value, bool) or value is None:
        return value
    return {"True": True, "False": False, "": None}[value]


def unflatten_kv_csv(text: str) -> dict:
    """Rebuild the nested report from the CLI's key,value CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    require(rows and rows[0] == ["key", "value"], "csv: missing key,value header")
    root: dict = {}
    for row in rows[1:]:
        require(len(row) == 2, f"csv: bad row {row!r}")
        parts = row[0].split(".")
        node = root
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = row[1]
    return _listify(root)


def _listify(node):
    if not isinstance(node, dict):
        return node
    if node and all(k.isdigit() for k in node):
        keys = sorted(node, key=int)
        require(keys == [str(i) for i in range(len(keys))], "csv: list indices not contiguous")
        return [_listify(node[k]) for k in keys]
    return {k: _listify(v) for k, v in node.items()}


def check_fit_dict(data: dict, points, geometry: str, labels) -> list[float]:
    ref = Reference(points)
    model = data["model"]
    require(model["geometry"] == geometry, "geometry")
    if geometry == "line":
        k = 0
        out = [check_axis(_floats(model["direction"]), ref, 0, "direction")]
        check_vector(_floats(model["anchor"]), ref.centroid, centroid_tol(ref), "anchor")
        want = ref.line_distances(ref.axes[0])
    else:
        k = ref.dim - 1
        normal = _floats(model["normal"])
        out = [check_axis(normal, ref, k, "normal")]
        check_vector(_floats(model["centroid"]), ref.centroid, centroid_tol(ref), "centroid")
        require(abs(float(model["offset"]) + float(normal @ ref.centroid)) <= 1e-9 * (1 + float(np.abs(ref.centroid).max())), "offset")
        want = ref.plane_distances(ref.axes[k])
    per_point = data["per_point"]
    require(len(per_point) == ref.n, f"per_point: expected {ref.n} entries")
    require([p["label"] for p in per_point] == list(labels), "per_point labels")
    distances = _floats([p["distance"] for p in per_point])
    check_vector(distances, want, ref.distance_tol(ref.axis_tol(k)), "per_point distances")
    residuals = data["residuals"]
    check_sums(distances, residuals, "residuals")
    metric = data["metadata"]["metric"]
    require(float(data["err"]) == float(residuals[metric]), "err is not the named residual")
    return out


def check_fit_json(text: str, points, geometry: str, labels) -> list[float]:
    return check_fit_dict(json.loads(text), points, geometry, labels)


def check_fit_csv(text: str, points, geometry: str, labels) -> list[float]:
    return check_fit_dict(unflatten_kv_csv(text), points, geometry, labels)


_VEC = re.compile(r"\(([^)]*)\)")


def _text_vec(line: str):
    m = _VEC.search(line)
    require(m is not None, f"text: no vector in {line!r}")
    return _floats(m.group(1).split(","))


def check_fit_text(text: str, points, geometry: str, labels) -> list[float]:
    """4-decimal text report: values within rounding of the reference."""
    ref = Reference(points)
    lines = text.splitlines()
    require(lines and lines[0] == f"geometry: {geometry}", "text: geometry line")
    r = TEXT_HALF_ULP
    if geometry == "line":
        k = 0
        check_vector(_text_vec(lines[1]), ref.centroid, centroid_tol(ref, r), "text anchor")
        check_axis(_text_vec(lines[2]), ref, 0, "text direction", r)
        head = 3
        want = ref.line_distances(ref.axes[0])
    else:
        k = ref.dim - 1
        check_axis(_text_vec(lines[1]), ref, k, "text normal", r)
        check_vector(_text_vec(lines[2]), ref.centroid, centroid_tol(ref, r), "text centroid")
        head = 4
        want = ref.plane_distances(ref.axes[k])
    tol = ref.distance_tol(ref.axis_tol(k)) + r
    require(lines[head].startswith("err (sum_abs): "), "text: err line")
    err = float(lines[head].split(":", 1)[1])
    require(abs(err - math.fsum(want)) <= math.fsum(tol) + r, "text err")
    require(lines[head + 1] == "per-point distances:", "text: per-point header")
    rows = [row.split() for row in lines[head + 2 :]]
    require(len(rows) == ref.n, "text: per-point count")
    require([row[0] for row in rows] == list(labels), "text labels")
    check_vector(_floats([row[1] for row in rows]), want, tol, "text distances")
    return []


def check_compare_json(text: str, x, y) -> list[float]:
    return check_comparison(json.loads(text), x, y)


def check_economy_output(text: str, fmt: str, series) -> list[float]:
    countries = [c for c, _, _ in series]
    if fmt == "json":
        data = json.loads(text)
        require(data["countries"] == countries, "countries")
        out = check_economy_planes(data["planes"], series)
        normals = [_floats(p["normal"]) for p in data["planes"]]
        slopes = {c: list(v.values()) for c, v in data["slopes_deg"].items()}
        check_derived_indicators(normals, countries, data["pairwise_angles_deg"], slopes)
        return out
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        n = len(countries)
        require(rows[0][0] == "country" and len(rows) == 3 * n + 5, "economy csv layout")
        planes = [
            {"country": r[0], "normal": r[1:4], "centroid": r[4:7], "err": r[7]}
            for r in rows[1 : 1 + n]
        ]
        out = check_economy_planes(planes, series, with_yearly=False)
        normals = [_floats(p["normal"]) for p in planes]
        angles = [r[1:] for r in rows[n + 3 : 2 * n + 3]]
        slopes = {r[0]: r[1:] for r in rows[2 * n + 5 :]}
        check_derived_indicators(normals, countries, angles, slopes)
        return out
    lines = text.splitlines()
    n = len(countries)
    r = TEXT_HALF_ULP
    planes = []
    for line in lines[1 : 1 + n]:
        vecs = _VEC.findall(line)
        require(len(vecs) == 2, "economy text row")
        planes.append(
            {
                "country": line.split()[0],
                "normal": vecs[0].split(","),
                "centroid": vecs[1].split(","),
                "err": line.split()[-1],
            }
        )
    check_economy_planes(planes, series, rounding=r, with_yearly=False)
    normals = [_floats(p["normal"]) for p in planes]
    angles = [line.split()[1:] for line in lines[n + 4 : 2 * n + 4]]
    slopes = {line.split()[0]: line.split()[1:] for line in lines[2 * n + 7 : 3 * n + 7]}
    # Angles from 4-decimal normals are only good to about 1e-2 degrees.
    check_derived_indicators(normals, countries, angles, slopes, rounding=1e-2)
    return []


def check_svg(text: str, series_count: int, what: str) -> None:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckFailed(f"{what}: not well-formed SVG: {exc}") from None
    require(root.tag.endswith("svg"), f"{what}: root is not <svg>")
    found = sum(1 for el in root.iter() if el.get("class") == "series")
    require(found == series_count, f"{what}: {found} series, expected {series_count}")


def check_scene(text: str, country: str, points) -> list[float]:
    scene = json.loads(text)
    require(scene["country"] == country, "scene country")
    require(np.array_equal(_floats(np.ravel(scene["points"])), np.ravel(points)), "scene points")
    ref = Reference(points)
    plane = scene["plane"]
    normal = _floats(plane["normal"])
    out = check_axis(normal, ref, ref.dim - 1, f"scene {country} normal")
    offset = float(plane["offset"])
    scale = 1.0 + float(np.abs(points).max())
    for corner in plane["corners"]:
        require(abs(float(_floats(corner) @ normal) + offset) <= 1e-9 * scale * 10, "scene corner off the plane")
    require(len(plane["corners"]) == 4, "scene corners")
    return [out]
