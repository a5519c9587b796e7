"""Classical least-squares lines in 2D, for contrast with the orthogonal fit.

Minimizing squared *vertical* offsets is not symmetric in the variables:
regressing y on x and x on y gives two different ("conjugate") lines. The
orthogonal fit gives one line, lying inside the scissors the two classical
lines form. ``compare_ols_tls`` computes all three side by side.

Each function takes (xs, ys) as the cloud ``PointCloud.from_columns(xs, ys)``
builds, with its rules and messages, and needs at least 2 points; the
orthogonal fit is ``fit_line`` of that cloud. The classical lines are built
from the centred moments of the cloud's x and y columns. Each column is
centred on its own by ``fitting._centred``, so each must have a spread a sum
of squares can resolve (see there), or be constant; otherwise
InvalidInputError is raised.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InvalidInputError, float_array
from .fitting import FittedLine, PointCloud, _centred, fit_line


class Orientation(enum.Enum):
    """Which variable a classical line treats as dependent."""

    Y_ON_X = "y_on_x"  # y = slope * x + intercept
    X_ON_Y = "x_on_y"  # x = slope * y + intercept


@dataclass(frozen=True)
class AffineLine2D:
    """A classical regression line, in the parameterization it was fitted in."""

    slope: float
    intercept: float
    orientation: Orientation

    def direction(self) -> np.ndarray:
        """Unit direction vector of the line in the (x, y) plane."""
        if self.orientation is Orientation.Y_ON_X:
            d = np.array([1.0, self.slope])
        else:
            d = np.array([self.slope, 1.0])
        slope = float(self.slope)
        if math.isinf(slope * slope):
            # 1 + slope**2 overflows; (1, slope) / |slope| has norm 1 to the bit
            return d / abs(slope)
        return d / np.linalg.norm(d)


@dataclass(frozen=True)
class ComparisonReport:
    """Classical line, conjugate line, and orthogonal line for one 2D cloud.

    A classical line is None when its fit is degenerate (constant independent
    variable). All available lines pass through ``centroid``. Angles are
    between undirected lines, in degrees within [0, 90].
    ``tls_between_scissors`` records whether the orthogonal line's inclination
    lies weakly between the two classical inclinations (None when either
    classical line is missing or the covariance is zero).
    """

    centroid: np.ndarray
    ols: AffineLine2D | None
    conjugate: AffineLine2D | None
    tls: FittedLine
    angle_ols_conjugate_deg: float | None
    angle_ols_tls_deg: float | None
    angle_conjugate_tls_deg: float | None
    tls_between_scissors: bool | None
    cloud: PointCloud | None = None


def _cloud(xs, ys) -> PointCloud:
    cloud = PointCloud.from_columns(xs, ys)
    if len(cloud) < 2:
        raise InvalidInputError("need at least 2 points")
    return cloud


def _moments(x, y):
    (xm, dx), (ym, dy) = _centred(x), _centred(y)
    return xm, ym, float(dx @ dx), float(dy @ dy), float(dx @ dy)


def _y_on_x(x, moments) -> AffineLine2D:
    if (x == x[0]).all():
        raise DegenerateGeometryError("xs are constant: no y-on-x line exists")
    xm, ym, sxx, _, sxy = moments
    k = sxy / sxx
    return AffineLine2D(slope=k, intercept=ym - k * xm, orientation=Orientation.Y_ON_X)


def _x_on_y(y, moments) -> AffineLine2D:
    if (y == y[0]).all():
        raise DegenerateGeometryError("ys are constant: no x-on-y line exists")
    xm, ym, _, syy, sxy = moments
    c = sxy / syy
    return AffineLine2D(slope=c, intercept=xm - c * ym, orientation=Orientation.X_ON_Y)


def ols_line(xs, ys) -> AffineLine2D:
    """Least-squares line y = k x + b (squared vertical offsets).

    Raises DegenerateGeometryError when all xs are identical (vertical data
    cannot be written as y of x).
    """
    x, y = _cloud(xs, ys).points.T
    return _y_on_x(x, _moments(x, y))


def conjugate_line(xs, ys) -> AffineLine2D:
    """Least-squares line with the roles swapped: x = c y + d."""
    x, y = _cloud(xs, ys).points.T
    return _x_on_y(y, _moments(x, y))


def angle_between_lines_deg(u, v) -> float:
    """Angle between two undirected directions, degrees in [0, 90]."""
    message = "directions must be vectors of equal length"
    u = float_array(u, (None,), message)
    v = float_array(v, u.shape, message)
    cosine = abs(float(u @ v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    return math.degrees(math.acos(min(1.0, cosine)))


def _inclination_deg(direction) -> float:
    """Line inclination from the x-axis, degrees in (-90, 90]."""
    ang = math.degrees(math.atan2(float(direction[1]), float(direction[0])))
    if ang > 90.0:
        ang -= 180.0
    elif ang <= -90.0:
        ang += 180.0
    return ang


def compare_ols_tls(xs, ys) -> ComparisonReport:
    """Fit the classical, conjugate, and orthogonal lines to the same cloud."""
    cloud = _cloud(xs, ys)
    x, y = cloud.points.T
    tls = fit_line(cloud)
    moments = _moments(x, y)
    xm, ym, _, _, sxy = moments

    try:
        ols = _y_on_x(x, moments)
    except DegenerateGeometryError:
        ols = None
    try:
        conj = _x_on_y(y, moments)
    except DegenerateGeometryError:
        conj = None

    def pair_angle(a, b):
        if a is None or b is None:
            return None
        da = a.direction() if isinstance(a, AffineLine2D) else a.direction
        db = b.direction() if isinstance(b, AffineLine2D) else b.direction
        return angle_between_lines_deg(da, db)

    between = None
    if ols is not None and conj is not None and sxy != 0.0:
        incs = sorted([_inclination_deg(ols.direction()), _inclination_deg(conj.direction())])
        tls_inc = _inclination_deg(tls.direction)
        between = incs[0] - 1e-9 <= tls_inc <= incs[1] + 1e-9

    return ComparisonReport(
        centroid=np.array([xm, ym]),
        ols=ols,
        conjugate=conj,
        tls=tls,
        angle_ols_conjugate_deg=pair_angle(ols, conj),
        angle_ols_tls_deg=pair_angle(ols, tls),
        angle_conjugate_tls_deg=pair_angle(conj, tls),
        tls_between_scissors=between,
        cloud=cloud,
    )


__all__ = [
    "Orientation",
    "AffineLine2D",
    "ComparisonReport",
    "ols_line",
    "conjugate_line",
    "compare_ols_tls",
    "angle_between_lines_deg",
]
