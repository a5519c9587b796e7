"""State-space description of national economies.

A country's economy at a given year is a point in a 3D state space with
coordinates (unemployment, GDP change, inflation), all in percent. The
year-by-year points form a phase trajectory; for the embedded V4 dataset
(Czech Republic, Hungary, Poland, Slovakia; 1994-2000) each trajectory lies
close to a plane, so the plane's unit normal, the data centroid, and the
approximation error act as compact whole-economy indicators. Pairwise angles
between country planes and the slopes of each plane against the coordinate
planes are derived indicators.

The reported error is the sum of absolute point-to-plane distances; of the
residual aggregates in ``fitting.ERROR_METRICS`` it is the one that
reproduces the reference errors for SK, PL, and CZ (4.2633, 4.3106, 4.6111).

Note: the HU series is shipped verbatim, but its mean inflation is 17.5,
whereas the reference centroid has 16.0714; the source tables are mutually
inconsistent for HU, so HU plane values are documented as derived only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InvalidInputError, float_array
from .fitting import (
    DEFAULT_ERROR_METRIC,
    FittedHyperplane,
    PointCloud,
    fit_hyperplane,
)

#: State-space coordinate order.
STATE_VARIABLES = ("unemployment", "gdp_change", "inflation")

#: Coordinate planes paired with their unit normals, in slope-report order.
COORDINATE_PLANES = (
    ("unemployment_gdp", (0.0, 0.0, 1.0)),
    ("unemployment_inflation", (0.0, 1.0, 0.0)),
    ("gdp_inflation", (1.0, 0.0, 0.0)),
)

_V4_YEARS = tuple(range(1994, 2001))

# Annual indicator values, percent. Rows follow the year order above.
_V4_UNEMPLOYMENT = {
    "CZ": (3.2, 2.9, 3.5, 5.2, 7.5, 9.4, 8.7),
    "HU": (11.2, 10.5, 9.2, 7.7, 7.0, 6.5, 6.5),
    "PL": (16.0, 14.9, 13.5, 10.5, 10.4, 13.0, 13.5),
    "SK": (13.7, 13.1, 11.3, 11.8, 12.5, 16.2, 18.5),
}
_V4_GDP_CHANGE = {
    "CZ": (2.2, 5.9, 4.8, -0.1, -2.2, -0.2, 2.5),
    "HU": (2.9, 1.5, 1.3, 4.4, 5.1, 4.5, 5.6),
    "PL": (5.2, 7.0, 6.0, 6.8, 4.8, 4.1, 5.0),
    "SK": (4.8, 6.7, 6.2, 6.2, 4.1, 1.9, 2.0),
}
_V4_INFLATION = {
    "CZ": (10.0, 9.1, 8.8, 8.5, 10.7, 2.1, 4.1),
    "HU": (18.8, 28.2, 23.6, 18.3, 14.3, 10.0, 9.3),
    "PL": (33.2, 28.0, 19.9, 14.8, 11.6, 7.3, 9.9),
    "SK": (13.4, 9.9, 5.8, 6.1, 6.7, 10.6, 11.5),
}

#: Dataset order of v4_dataset().
V4_COUNTRIES = ("CZ", "HU", "PL", "SK")

#: Row order used by the plane-indicator reports.
V4_REPORT_ORDER = ("SK", "PL", "CZ", "HU")


@dataclass(frozen=True)
class IndicatorSeries:
    """Per-year indicator values for one country.

    Records are stored sorted by year (construction sorts them if needed, so
    the fit downstream cannot depend on input order); duplicate and
    non-integer years are rejected.
    """

    country: str
    years: tuple[int, ...]
    unemployment: tuple[float, ...]
    gdp_change: tuple[float, ...]
    inflation: tuple[float, ...]

    def __post_init__(self):
        message = f"{self.country}: years must be a vector of integers"
        years = float_array(self.years, (None,), message).tolist()
        if not all(map(float.is_integer, years)):
            raise InvalidInputError(message)
        years = tuple(map(int, years))
        values = {}
        for field in ("unemployment", "gdp_change", "inflation"):
            message = f"{field} length must match years"
            values[field] = tuple(float_array(getattr(self, field), (len(years),), message).tolist())
        if len(set(years)) != len(years):
            raise InvalidInputError(f"{self.country}: duplicate years in series")
        if any(b <= a for a, b in zip(years, years[1:])):
            order = sorted(range(len(years)), key=years.__getitem__)
            years = tuple(years[i] for i in order)
            values = {
                field: tuple(column[i] for i in order) for field, column in values.items()
            }
        object.__setattr__(self, "years", years)
        for field, column in values.items():
            object.__setattr__(self, field, column)

    def __len__(self) -> int:
        return len(self.years)


@dataclass(frozen=True)
class EconomyPlane:
    """Fitted state-space plane of one economy plus its per-year distances."""

    country: str
    plane: FittedHyperplane
    yearly_distances: dict[int, float]
    err_reported: float


@dataclass(frozen=True)
class EconomyIndicators:
    """Plane descriptors for a set of economies and the derived indicators."""

    planes: tuple[EconomyPlane, ...]
    pairwise_angles_deg: np.ndarray
    slopes: dict[str, tuple[float, float, float]]

    @property
    def countries(self) -> tuple[str, ...]:
        return tuple(p.country for p in self.planes)


def v4_dataset() -> list[IndicatorSeries]:
    """The embedded V4 dataset, 1994-2000, in CZ, HU, PL, SK order."""
    return [
        IndicatorSeries(
            country=code,
            years=_V4_YEARS,
            unemployment=_V4_UNEMPLOYMENT[code],
            gdp_change=_V4_GDP_CHANGE[code],
            inflation=_V4_INFLATION[code],
        )
        for code in V4_COUNTRIES
    ]


def trajectory(series: IndicatorSeries) -> PointCloud:
    """Phase trajectory of a series: one labeled 3D point per year."""
    if len(series) == 0:
        raise InvalidInputError("series has no years")
    return PointCloud.from_columns(
        series.unemployment, series.gdp_change, series.inflation, labels=series.years
    )


def economy_plane(series: IndicatorSeries, metric: str = DEFAULT_ERROR_METRIC) -> EconomyPlane:
    """Fit the state-space plane of one economy; errors name the country."""
    if len(series) < 3:
        raise InvalidInputError(
            f"{series.country}: need at least 3 years to fit an economy plane"
        )
    cloud = trajectory(series)
    try:
        plane = fit_hyperplane(cloud)
    except DegenerateGeometryError as exc:
        raise DegenerateGeometryError(
            f"{series.country}: {exc}", exc.flat_dim, exc.flat_point, exc.flat_basis
        ) from None
    distances = plane.error.per_point_distance
    yearly = {year: float(d) for year, d in zip(series.years, distances)}
    return EconomyPlane(
        country=series.country,
        plane=plane,
        yearly_distances=yearly,
        err_reported=plane.error.metric(metric),
    )


def plane_angle(a: EconomyPlane, b: EconomyPlane) -> float:
    """Dihedral angle between two economy planes, degrees in [0, 90]."""
    cosine = abs(float(a.plane.normal @ b.plane.normal))
    return math.degrees(math.acos(min(1.0, cosine)))


def plane_slopes(p: EconomyPlane) -> tuple[float, float, float]:
    """Angles of the plane against the three coordinate planes, degrees.

    Order follows COORDINATE_PLANES: (unemployment-GDP,
    unemployment-inflation, GDP-inflation).
    """
    slopes = []
    for _, axis_normal in COORDINATE_PLANES:
        cosine = abs(float(p.plane.normal @ np.asarray(axis_normal)))
        slopes.append(math.degrees(math.acos(min(1.0, cosine))))
    return tuple(slopes)


def economy_indicators(
    series_list, metric: str = DEFAULT_ERROR_METRIC
) -> EconomyIndicators:
    """Fit all planes and assemble the derived indicator set, input order kept."""
    planes = tuple(economy_plane(s, metric=metric) for s in series_list)
    n = len(planes)
    angles = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            angles[i, j] = angles[j, i] = plane_angle(planes[i], planes[j])
    slopes = {p.country: plane_slopes(p) for p in planes}
    return EconomyIndicators(planes=planes, pairwise_angles_deg=angles, slopes=slopes)


__all__ = [
    "STATE_VARIABLES",
    "COORDINATE_PLANES",
    "V4_COUNTRIES",
    "V4_REPORT_ORDER",
    "IndicatorSeries",
    "EconomyPlane",
    "EconomyIndicators",
    "v4_dataset",
    "trajectory",
    "economy_plane",
    "plane_angle",
    "plane_slopes",
    "economy_indicators",
]
