"""Orthogonal-distance (total least squares) fitting of lines and hyperplanes.

A flat is fitted to an n-dimensional point cloud by minimizing the sum of
squared shortest distances from the points to the flat. Both fits go through
the principal axes of the centered scatter matrix: the largest-eigenvalue axis
is the best line direction, the smallest-eigenvalue axis is the best
hyperplane normal. Unlike a classical regression, the result does not depend
on which coordinate is declared "dependent", and it is invariant under rigid
motions of the data.

Every centring goes through ``_centred``, which also applies the spread rule.
The fits take both the scatter matrix and the residuals from its centred
points; the classical lines in ``regression`` centre each coordinate with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import SymmetricMatrix, eigen_symmetric
from .errors import DegenerateGeometryError, InvalidInputError

#: Residual-aggregate fields of ResidualStats, in reporting order.
ERROR_METRICS = ("sum_sq", "root_sum_sq", "rms", "sum_abs")

#: Aggregate reported as "err" by the higher-level tools: the sum of absolute
#: orthogonal distances. Selected empirically against the reference V4 plane
#: errors; see the economy module.
DEFAULT_ERROR_METRIC = "sum_abs"

#: Relative eigenvalue cutoff below which a principal axis counts as unspread.
RANK_TOLERANCE = 1e-12


@dataclass(frozen=True)
class PointCloud:
    """An ordered list of n-dimensional points with optional string labels.

    ``points`` is coerced to a float array of shape (n_points, dim); labels,
    when given, must match the number of points (e.g. observation years).
    """

    points: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise InvalidInputError("points must be a 2-D array of shape (n, dim)")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InvalidInputError("point cloud needs at least one point and one dimension")
        if not np.isfinite(pts).all():
            raise InvalidInputError("point coordinates must be finite")
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != pts.shape[0]:
                raise InvalidInputError("labels length must match number of points")
            object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    @classmethod
    def from_columns(cls, *columns, labels=None) -> "PointCloud":
        """Assemble a cloud from per-coordinate sequences of equal length."""
        cols = [np.asarray(c, dtype=float) for c in columns]
        if any(c.ndim != 1 for c in cols):
            raise InvalidInputError("columns must be one-dimensional")
        if len({c.shape[0] for c in cols}) > 1:
            raise InvalidInputError("columns must have equal length")
        return cls(np.column_stack(cols), labels=labels)


@dataclass(frozen=True)
class ResidualStats:
    """Orthogonal-distance residual aggregates for a fitted flat."""

    per_point_distance: np.ndarray
    sum_sq: float
    sum_abs: float
    rms: float
    root_sum_sq: float

    @classmethod
    def from_distances(cls, distances) -> "ResidualStats":
        d = np.asarray(distances, dtype=float)
        sum_sq = float(d @ d)
        return cls(
            per_point_distance=d,
            sum_sq=sum_sq,
            sum_abs=float(d.sum()),
            rms=math.sqrt(sum_sq / d.shape[0]),
            root_sum_sq=math.sqrt(sum_sq),
        )

    def metric(self, name: str) -> float:
        """Value of one named aggregate (see ERROR_METRICS)."""
        if name not in ERROR_METRICS:
            raise InvalidInputError(f"unknown error metric {name!r}")
        return getattr(self, name)


@dataclass(frozen=True)
class FittedLine:
    """A best-fit line: the cloud centroid plus a unit direction."""

    anchor: np.ndarray
    direction: np.ndarray
    error: ResidualStats

    @property
    def dim(self) -> int:
        return self.anchor.shape[0]


@dataclass(frozen=True)
class FittedHyperplane:
    """A best-fit hyperplane ``normal . x + offset = 0`` through the centroid."""

    normal: np.ndarray
    centroid: np.ndarray
    offset: float
    error: ResidualStats

    @property
    def dim(self) -> int:
        return self.normal.shape[0]


def _column_means(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=0)``, also where a column sum overflows. Call it under
    ``np.errstate(over="ignore", invalid="ignore")``.

    Such a sum is taken again over ``a * 2**-k``, with ``2**k >= len(a)`` so
    that it cannot overflow, and its mean is scaled back. Rounding can carry
    that mean just past the column's least or greatest entry (a constant
    column at 1.5e308 would get a spread of one ulp there, 2e292), so the
    mean is clamped to them.
    """
    n = a.shape[0]
    total = np.add.reduce(a, axis=0)  # a numpy scalar when ``a`` is 1-D
    if all(map(math.isfinite, total.reshape(-1).tolist())):
        return total / n
    k = n.bit_length()
    mean = np.ldexp(np.add.reduce(np.ldexp(a, -k), axis=0) / n, k)
    return np.clip(mean, a.min(axis=0), a.max(axis=0))


def _centred(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The centre ``c`` of the points ``a`` (or of one coordinate's values)
    and the centred points ``a - c``.

    ``c`` is the column mean, but a constant column is centred on its value:
    its rounded mean can be up to n ulps off, as its first centred entry is.

    The spread of the points, their largest |p - c|, must lie in
    [2**-511, 2**511 / sqrt(a.size)]: below it the squares leave the normal
    float range, above it the trace overflows. Outside it InvalidInputError
    is raised; a spread of 0 (identical points) is allowed. A coordinate of
    ``p - c`` beyond the float range is infinite, so its spread is rejected.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        c = _column_means(a)
        b = a - c
        pairs = zip(b[0].reshape(-1).tolist(), a[0].reshape(-1).tolist())
        if any(0.0 < abs(x) <= len(a) * math.ulp(v) for x, v in pairs):
            c = np.where((a == a[0]).all(axis=0), a[0], c)[()]
            b = a - c
    spread = max(float(b.max()), -float(b.min()))
    if spread and not 2.0**-511 <= spread <= 2.0**511 / math.sqrt(b.size):
        raise InvalidInputError(
            f"points spread {spread:.3g} about their centroid; a scatter matrix "
            "needs a spread between about 1e-153 and 1e153"
        )
    return c, b


def centroid(cloud: PointCloud) -> np.ndarray:
    """Coordinate-wise mean of the cloud. Every fitted flat passes through it,
    up to the few ulps by which it can miss the value of a constant column
    (a fit centres such a column on its value; see ``_centred``)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _column_means(cloud.points)


def scatter_matrix(cloud: PointCloud) -> SymmetricMatrix:
    """Unnormalized centered scatter matrix sum_i (p_i - c)(p_i - c)^T.

    No 1/(n-1) factor: normalization rescales eigenvalues uniformly and does
    not move the principal axes. numpy mirrors one triangle of ``b.T @ b``.
    """
    b = _centred(cloud.points)[1]
    return SymmetricMatrix(b.T @ b)


def _all_points_identical(cloud: PointCloud) -> bool:
    return bool((cloud.points == cloud.points[0]).all())


def _line_distances(b: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Orthogonal distance of each point of ``b``, centred on the line's
    anchor, to the line t * direction."""
    r = b - np.outer(b @ direction, direction)
    return np.sqrt(np.add.reduce(r * r, axis=1))


def _plane_distances(b: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Orthogonal distance of each point of ``b``, centred on the centroid of
    the hyperplane with unit ``normal``. Centred, as ``normal . p + offset``
    cancels when the points lie far from the origin."""
    d = b @ normal
    return np.abs(d, out=d)


def fit_line(cloud: PointCloud) -> FittedLine:
    """Fit a line minimizing the sum of squared orthogonal distances.

    The direction is the largest-eigenvalue principal axis of the scatter
    matrix; the anchor is the centroid.

    Raises
    ------
    InvalidInputError
        Fewer than 2 points, dim < 2, or a spread the scatter matrix cannot
        represent (see ``_centred``).
    DegenerateGeometryError
        All points identical (no direction is distinguished).
    """
    if len(cloud) < 2:
        raise InvalidInputError("line fit needs at least 2 points")
    if cloud.dim < 2:
        raise InvalidInputError("line fit needs dimension >= 2")
    if _all_points_identical(cloud):
        raise DegenerateGeometryError(
            "all points identical: any direction fits equally well",
            flat_dim=0,
            flat_point=cloud.points[0].copy(),
        )
    anchor, b = _centred(cloud.points)
    direction = eigen_symmetric(SymmetricMatrix(b.T @ b)).eigenvectors[0]
    distances = _line_distances(b, direction)
    return FittedLine(anchor, direction, ResidualStats.from_distances(distances))


def fit_hyperplane(cloud: PointCloud) -> FittedHyperplane:
    """Fit a hyperplane minimizing the sum of squared orthogonal distances.

    The normal is the smallest-eigenvalue principal axis of the scatter
    matrix, so it is orthogonal to the directions in which the data spreads.

    Raises
    ------
    InvalidInputError
        Fewer than ``dim`` points, dim < 2, or a spread the scatter matrix
        cannot represent (see ``_centred``).
    DegenerateGeometryError
        The points span a flat of dimension < dim-1, so infinitely many
        hyperplanes contain them; the spanned flat is reported on the error.
    """
    if cloud.dim < 2:
        raise InvalidInputError("hyperplane fit needs dimension >= 2")
    if len(cloud) < cloud.dim:
        raise InvalidInputError(
            f"hyperplane fit in dimension {cloud.dim} needs at least {cloud.dim} points"
        )
    c, b = _centred(cloud.points)
    dec = eigen_symmetric(SymmetricMatrix(b.T @ b))
    values = dec.eigenvalues.tolist()
    cutoff = values[0] * RANK_TOLERANCE
    rank = sum(x > cutoff for x in values) if values[0] > 0.0 else 0
    if rank < cloud.dim - 1:
        raise DegenerateGeometryError(
            f"points span only a {rank}-dimensional flat; "
            f"a hyperplane in dimension {cloud.dim} is not unique",
            flat_dim=rank,
            flat_point=c,
            flat_basis=dec.eigenvectors[:rank].copy(),
        )
    normal = dec.eigenvectors[-1]
    offset = -float(normal @ c)
    distances = _plane_distances(b, normal)
    return FittedHyperplane(normal, c, offset, ResidualStats.from_distances(distances))


def _check_dim(p: np.ndarray, expected: int, what: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (expected,):
        raise InvalidInputError(f"{what}: expected a vector of dimension {expected}")
    if not np.isfinite(p).all():
        raise InvalidInputError(f"{what}: coordinates must be finite")
    return p


def distance_point_to_line(p, line: FittedLine) -> float:
    """Shortest (perpendicular) distance from a point to a fitted line."""
    p = _check_dim(p, line.dim, "distance_point_to_line")
    r = p - line.anchor
    return float(np.linalg.norm(r - (r @ line.direction) * line.direction))


def distance_point_to_plane(p, plane: FittedHyperplane) -> float:
    """Shortest distance from a point to a fitted hyperplane: |normal.(p - centroid)|."""
    p = _check_dim(p, plane.dim, "distance_point_to_plane")
    return float(_plane_distances(p[None] - plane.centroid, plane.normal)[0])


def total_orthogonal_error(cloud: PointCloud, model) -> ResidualStats:
    """Residual aggregates of a cloud against a fitted line or hyperplane.

    This is the quantity the fits minimize (in its sum-of-squares form), so
    for the model fitted to ``cloud`` it reproduces ``model.error``.
    """
    if isinstance(model, FittedLine):
        if cloud.dim != model.dim:
            raise InvalidInputError("cloud and line dimensions differ")
        distances = _line_distances(cloud.points - model.anchor, model.direction)
    elif isinstance(model, FittedHyperplane):
        if cloud.dim != model.dim:
            raise InvalidInputError("cloud and hyperplane dimensions differ")
        distances = _plane_distances(cloud.points - model.centroid, model.normal)
    else:
        raise InvalidInputError("model must be a FittedLine or FittedHyperplane")
    return ResidualStats.from_distances(distances)


__all__ = [
    "ERROR_METRICS",
    "DEFAULT_ERROR_METRIC",
    "PointCloud",
    "ResidualStats",
    "FittedLine",
    "FittedHyperplane",
    "centroid",
    "scatter_matrix",
    "fit_line",
    "fit_hyperplane",
    "distance_point_to_line",
    "distance_point_to_plane",
    "total_orthogonal_error",
]
