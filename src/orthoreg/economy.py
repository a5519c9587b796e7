"""State-space description of national economies.

A country's economy at a given year is a point in a 3D state space with
coordinates (unemployment, GDP change, inflation), all in percent. The
year-by-year points form a phase trajectory; for the embedded V4 dataset
(Czech Republic, Hungary, Poland, Slovakia; 1994-2000) each trajectory lies
close to a plane, so the plane's unit normal, the data centroid, and the
approximation error act as compact whole-economy indicators. Pairwise angles
between country planes and the slopes of each plane against the coordinate
planes are derived indicators. ``EconomyPlane`` and ``EconomyIndicators``
compute each of these figures from the fitted planes they hold.

The reported error is the sum of absolute point-to-plane distances; of the
residual aggregates in ``fitting.ERROR_METRICS`` it is the one that
reproduces the reference errors for SK, PL, and CZ (4.2633, 4.3106, 4.6111).

Note: the HU series is shipped verbatim, but its mean inflation is 17.5,
whereas the reference centroid has 16.0714; the source tables are mutually
inconsistent for HU, so HU plane values are documented as derived only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, OrthoregError, float_array
from .fitting import (
    DEFAULT_ERROR_METRIC,
    FittedHyperplane,
    PointCloud,
    _acute_angle_deg,
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

# Annual indicator values, percent: per country one row per state variable,
# in STATE_VARIABLES order, each in the year order above.
_V4_DATA = {
    "CZ": (
        (3.2, 2.9, 3.5, 5.2, 7.5, 9.4, 8.7),
        (2.2, 5.9, 4.8, -0.1, -2.2, -0.2, 2.5),
        (10.0, 9.1, 8.8, 8.5, 10.7, 2.1, 4.1),
    ),
    "HU": (
        (11.2, 10.5, 9.2, 7.7, 7.0, 6.5, 6.5),
        (2.9, 1.5, 1.3, 4.4, 5.1, 4.5, 5.6),
        (18.8, 28.2, 23.6, 18.3, 14.3, 10.0, 9.3),
    ),
    "PL": (
        (16.0, 14.9, 13.5, 10.5, 10.4, 13.0, 13.5),
        (5.2, 7.0, 6.0, 6.8, 4.8, 4.1, 5.0),
        (33.2, 28.0, 19.9, 14.8, 11.6, 7.3, 9.9),
    ),
    "SK": (
        (13.7, 13.1, 11.3, 11.8, 12.5, 16.2, 18.5),
        (4.8, 6.7, 6.2, 6.2, 4.1, 1.9, 2.0),
        (13.4, 9.9, 5.8, 6.1, 6.7, 10.6, 11.5),
    ),
}

#: Dataset order of v4_dataset().
V4_COUNTRIES = tuple(_V4_DATA)

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
        if not isinstance(self.country, str):
            raise InvalidInputError(f"country code must be a str, not {type(self.country).__name__}")
        message = f"{self.country}: years must be a vector of integers"
        years = float_array(self.years, (None,), message).tolist()
        if not all(map(float.is_integer, years)):
            raise InvalidInputError(message)
        years = tuple(map(int, years))
        values = {}
        for name in STATE_VARIABLES:
            message = f"{name} length must match years"
            values[name] = tuple(float_array(getattr(self, name), (len(years),), message).tolist())
        if len(set(years)) != len(years):
            raise InvalidInputError(f"{self.country}: duplicate years in series")
        if any(b <= a for a, b in zip(years, years[1:])):
            order = sorted(range(len(years)), key=years.__getitem__)
            years = tuple(years[i] for i in order)
            values = {
                name: tuple(column[i] for i in order) for name, column in values.items()
            }
        object.__setattr__(self, "years", years)
        for name, column in values.items():
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.years)


@dataclass(frozen=True)
class EconomyPlane:
    """Fitted state-space plane of one economy, with its per-year distances
    and the error aggregate ``metric`` names, both computed from the plane."""

    country: str
    plane: FittedHyperplane
    years: tuple[int, ...]
    metric: str = DEFAULT_ERROR_METRIC
    yearly_distances: dict[int, float] = field(init=False)
    err_reported: float = field(init=False)

    def __post_init__(self):
        years, distances = tuple(self.years), self.plane.error.per_point_distance
        if self.plane.dim != len(STATE_VARIABLES):
            raise InvalidInputError(f"{self.country}: an economy plane must be 3-D")
        if len(set(years)) != len(years) or len(years) != len(distances):
            raise InvalidInputError(f"{self.country}: years must match the distances one to one")
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "yearly_distances", dict(zip(years, distances.tolist())))
        object.__setattr__(self, "err_reported", self.plane.error.metric(self.metric))


@dataclass(frozen=True)
class EconomyIndicators:
    """Plane descriptors for a set of economies and the indicators derived
    from them. InvalidInputError if a country code repeats."""

    planes: tuple[EconomyPlane, ...]
    pairwise_angles_deg: np.ndarray = field(init=False)
    slopes: dict[str, tuple[float, float, float]] = field(init=False)

    def __post_init__(self):
        planes = tuple(self.planes)
        codes = [p.country for p in planes]
        for i, code in enumerate(codes):
            if code in codes[:i]:
                raise InvalidInputError(f"{code}: country code repeated")
        n = len(planes)
        angles = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                angles[i, j] = angles[j, i] = plane_angle(planes[i], planes[j])
        object.__setattr__(self, "planes", planes)
        object.__setattr__(self, "pairwise_angles_deg", angles)
        object.__setattr__(self, "slopes", {p.country: plane_slopes(p) for p in planes})

    @property
    def countries(self) -> tuple[str, ...]:
        return tuple(p.country for p in self.planes)


def v4_dataset() -> list[IndicatorSeries]:
    """The embedded V4 dataset, 1994-2000, in CZ, HU, PL, SK order."""
    return [IndicatorSeries(code, _V4_YEARS, *columns) for code, columns in _V4_DATA.items()]


def trajectory(series: IndicatorSeries) -> PointCloud:
    """Phase trajectory of a series: one labeled 3D point per year."""
    if len(series) == 0:
        raise InvalidInputError("series has no years")
    columns = (getattr(series, variable) for variable in STATE_VARIABLES)
    return PointCloud.from_columns(*columns, labels=series.years)


def economy_plane(series: IndicatorSeries, metric: str = DEFAULT_ERROR_METRIC) -> EconomyPlane:
    """Fit the state-space plane of one economy; errors name the country."""
    if len(series) < 3:
        raise InvalidInputError(
            f"{series.country}: need at least 3 years to fit an economy plane"
        )
    cloud = trajectory(series)
    try:
        plane = fit_hyperplane(cloud)
    except OrthoregError as exc:  # same class and fields, the message names the country
        exc.args = (f"{series.country}: {exc}",)
        raise
    return EconomyPlane(series.country, plane, series.years, metric)


def plane_angle(a: EconomyPlane, b: EconomyPlane) -> float:
    """Dihedral angle between two economy planes, degrees in [0, 90]."""
    u, v = a.plane.normal, b.plane.normal
    return _acute_angle_deg(float(u @ v), u, v)


def plane_slopes(p: EconomyPlane) -> tuple[float, float, float]:
    """Angles of the plane against the three coordinate planes, degrees.

    Order follows COORDINATE_PLANES: (unemployment-GDP,
    unemployment-inflation, GDP-inflation).
    """
    normal = p.plane.normal
    axes = [np.asarray(n) for _, n in COORDINATE_PLANES]
    return tuple(_acute_angle_deg(float(normal @ n), normal, n) for n in axes)


def economy_indicators(series_list, metric: str = DEFAULT_ERROR_METRIC) -> EconomyIndicators:
    """Fit all planes and assemble the derived indicator set, input order kept."""
    return EconomyIndicators(tuple(economy_plane(s, metric=metric) for s in series_list))


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
