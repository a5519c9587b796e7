"""Classical least-squares lines in 2D, for contrast with the orthogonal fit.

y(x) and its conjugate x(y) are one least-squares fit with the roles
swapped: an ``Orientation`` names the regressor column and ``_classical``
fits the other column on it, from the centred moments of both. The
orthogonal line lies inside the scissors the two form; ``compare_ols_tls``
computes all three and checks that, reading every inclination on the side
of vertical the covariance leans to, so lines either side of it still nest.

Each function takes (xs, ys) as the cloud ``PointCloud.from_columns(xs, ys)``
builds, with its rules and messages, and needs at least 2 points; the
orthogonal fit is ``fit_line`` of that cloud. Each column is centred on its
own by ``fitting._centred``, so each must have a spread a sum of squares can
resolve (see there), or be constant; otherwise InvalidInputError is raised.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InvalidInputError, float_array
from .fitting import FittedLine, PointCloud, _acute_angle_deg, _centred, fit_line


class Orientation(enum.Enum):
    """Which variable a classical line treats as dependent."""

    Y_ON_X = "y_on_x"  # y = slope * x + intercept
    X_ON_Y = "x_on_y"  # x = slope * y + intercept

    @property
    def regressor(self) -> int:  # the column the line is fitted on
        return 0 if self is Orientation.Y_ON_X else 1


@dataclass(frozen=True)
class AffineLine2D:
    """A classical regression line, in the parameterization it was fitted in."""

    slope: float
    intercept: float
    orientation: Orientation

    def direction(self) -> np.ndarray:
        """Unit direction vector of the line in the (x, y) plane."""
        slope = float(self.slope)
        d = np.array([slope, slope])
        d[self.orientation.regressor] = 1.0
        # Where 1 + slope**2 overflows, (1, slope) / |slope| has norm 1 to the bit.
        return d / (abs(slope) if math.isinf(slope * slope) else np.linalg.norm(d))


@dataclass(frozen=True)
class ComparisonReport:
    """Classical line, conjugate line, and orthogonal line for one 2D cloud.

    A classical line is None when its fit is degenerate (constant independent
    variable). The classical lines pass through ``centroid``, the means of
    x and y, each column summed on its own. The orthogonal line passes
    through ``tls.anchor``, the centre ``fit_line`` sums by rows. On a cloud
    far from the origin the two orders of summation can round differently,
    so the two centres agree to a few ulps but need not be equal (for nine
    points at x ~ 1e8: 100000000.00000034 and 100000000.00000037). Angles
    are between undirected lines, in degrees within [0, 90].
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


def _moments(columns):
    """Means and sums of squares, indexed by column, and the cross product."""
    (xm, dx), (ym, dy) = map(_centred, columns)
    return (xm, ym), (float(dx @ dx), float(dy @ dy)), float(dx @ dy)


def _classical(columns, moments, orientation: Orientation) -> AffineLine2D:
    """The least-squares line of the response column on the regressor."""
    r = orientation.regressor
    if (columns[r] == columns[r][0]).all():
        x, y = "xy"[r], "xy"[1 - r]
        raise DegenerateGeometryError(f"{x}s are constant: no {y}-on-{x} line exists")
    means, squares, cross = moments
    slope = cross / squares[r]
    return AffineLine2D(slope, means[1 - r] - slope * means[r], orientation)


def ols_line(xs, ys) -> AffineLine2D:
    """Least-squares line y = k x + b (squared vertical offsets).

    Raises DegenerateGeometryError when all xs are identical (vertical data
    cannot be written as y of x).
    """
    columns = tuple(_cloud(xs, ys).points.T)
    return _classical(columns, _moments(columns), Orientation.Y_ON_X)


def conjugate_line(xs, ys) -> AffineLine2D:
    """Least-squares line with the roles swapped: x = c y + d."""
    columns = tuple(_cloud(xs, ys).points.T)
    return _classical(columns, _moments(columns), Orientation.X_ON_Y)


def _power_of_two_scaled(w: np.ndarray) -> np.ndarray:
    """``w`` scaled exactly, by a power of two, to a largest |entry| in
    [0.5, 1). InvalidInputError for a zero or non-finite vector."""
    entries = w.tolist()
    if not any(entries) or not all(map(math.isfinite, entries)):
        raise InvalidInputError("directions must be non-zero and finite")
    return np.ldexp(w, -math.frexp(max(map(abs, entries)))[1])


def angle_between_lines_deg(u, v) -> float:
    """Angle between two undirected directions, degrees in [0, 90].

    The directions must be non-zero and finite, else InvalidInputError. Each
    is scaled by a power of two first, which is exact, so that the dot
    product and the norms neither overflow nor lose a tiny vector to
    underflow: the angle does not depend on the directions' lengths.
    """
    message = "directions must be vectors of equal length"
    u = _power_of_two_scaled(float_array(u, (None,), message))
    v = _power_of_two_scaled(float_array(v, u.shape, message))
    norm_u, norm_v = np.linalg.norm(u), np.linalg.norm(v)
    return _acute_angle_deg(float(u @ v) / (norm_u * norm_v), u / norm_u, v / norm_v)


def _inclination_deg(direction, lean: float) -> float:
    """Line inclination from the x-axis, degrees in (lean - 90, lean + 90]."""
    ang = math.degrees(math.atan2(float(direction[1]), float(direction[0])))
    return ang - 180.0 if ang > lean + 90.0 else ang + 180.0 if ang <= lean - 90.0 else ang


def compare_ols_tls(xs, ys) -> ComparisonReport:
    """Fit the classical, conjugate, and orthogonal lines to the same cloud."""
    cloud = _cloud(xs, ys)
    columns = tuple(cloud.points.T)
    tls = fit_line(cloud)
    moments = _moments(columns)
    lines = []
    for orientation in Orientation:
        try:
            lines.append(_classical(columns, moments, orientation))
        except DegenerateGeometryError:
            lines.append(None)
    directions = [None if line is None else line.direction() for line in lines] + [tls.direction]
    angles = [
        None if u is None or v is None else angle_between_lines_deg(u, v)
        for u, v in itertools.combinations(directions, 2)
    ]
    between = None
    if None not in lines and moments[2] != 0.0:
        # All three lines lean the way the covariance does, so each is read
        # within 90 degrees of +-45: a line at vertical reads on their side.
        lean = math.copysign(45.0, moments[2])
        low, high = sorted(_inclination_deg(d, lean) for d in directions[:2])
        between = low - 1e-9 <= _inclination_deg(tls.direction, lean) <= high + 1e-9
    return ComparisonReport(np.array(moments[0]), *lines, tls, *angles, between, cloud)


__all__ = [
    "Orientation",
    "AffineLine2D",
    "ComparisonReport",
    "ols_line",
    "conjugate_line",
    "compare_ols_tls",
    "angle_between_lines_deg",
]
