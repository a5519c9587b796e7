"""Orthogonal-distance (total least squares) fitting of lines and hyperplanes.

A flat is fitted to an n-dimensional point cloud by minimizing the sum of
squared shortest distances from the points to the flat. Unlike a classical
regression, the result does not depend on which coordinate is declared
"dependent", and it is invariant under rigid motions of the data.

Both fits are one k-flat fit (Pearson 1901), ``_principal_axes``: the
principal axes of the centred scatter matrix, with k = 1 for a line (its
direction is the first axis) and k = dim - 1 for a hyperplane (its normal is
the last). Every centre comes from ``_centre``, and every spread passes
``_check_spread``. The classical lines in ``regression`` centre each
coordinate of their cloud with ``_centred``.

No fit makes a centred copy of its cloud. The scatter matrix is one pass,
``_centred_scatter``. A cloud of up to ``_SCATTER_BLOCK`` points is centred
into one buffer ``b`` and its scatter matrix has the bits of ``b.T @ b``. A
larger cloud is centred ``_SCATTER_BLOCK`` rows at a time, coordinate-major,
into one reused buffer, and each block adds the dot products of its
coordinates' rows: no rank-k matrix product, which costs several times
more. That scatter matrix is within a documented bound of the exact sum,
not ``b.T @ b`` to the bit, and typically nearer the exact sum. Its last
bits follow how the BLAS splits a long dot product, which may depend on its
thread count. Residuals are one pass, ``_distances``, for the fits,
``total_orthogonal_error`` and the point distances alike. It takes the
points in blocks of ``_BLOCK`` rows and centres each block on the flat's
centre into one reused buffer (``a[i:j] - c`` is ``(a - c)[i:j]`` to the
bit), so the temporaries of both passes are a few blocks whatever the
cloud's size. ``_checked_distances`` adds the rescue of distances whose
squares leave the float range; a fit's spread rule already rules them out.

A ``PointCloud`` holds its points C-ordered, copying any other layout once,
so every pass over the n rows sees one layout and a fit's bits do not
depend on the layout. Each pass runs numpy's inner loop down the rows, not
across the few coordinates of one row, whose per-loop overhead would
dominate: the column sums go through ``einsum`` (``_column_means``), the
centring through a tiled centre (``_minus``), and a line's residuals are
coordinate-major. Each keeps numpy's operations in numpy's order, so every
result has the bits of the plain expressions ``a.mean(axis=0)``, ``a - c``
and ``q @ u`` on the C-ordered points.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .eigen import eigen_symmetric
from .errors import DegenerateGeometryError, InvalidInputError, float_array

#: Residual-aggregate fields of ResidualStats, in reporting order.
ERROR_METRICS = ("sum_sq", "root_sum_sq", "rms", "sum_abs")

#: Aggregate reported as "err" by the higher-level tools: the sum of absolute
#: orthogonal distances. Selected empirically against the reference V4 plane
#: errors; see the economy module.
DEFAULT_ERROR_METRIC = "sum_abs"

#: Relative eigenvalue cutoff below which a principal axis counts as unspread.
RANK_TOLERANCE = 1e-12

#: Rows per block of the residual pass (see ``_distances``).
_BLOCK = 2**15

#: Rows per block of the scatter pass (see ``_centred_scatter``), 3 MiB of
#: centred points at d = 3; a cloud of up to this many points is one block.
_SCATTER_BLOCK = 2**17

#: Rows over which a centre is tiled (see ``_minus``); below it the plain
#: numpy expressions cost less than the row-major passes.
_TILE = 2**8

#: Largest departure from unit length of a fitted flat's direction or normal.
#: Fitted vectors come within about 1e-15.
_UNIT_TOLERANCE = 1e-12


@dataclass(frozen=True)
class PointCloud:
    """An ordered list of n-dimensional points with optional string labels.

    ``points`` is coerced to a C-ordered float array of shape (n_points,
    dim): a C-ordered float64 array is kept as it is, any other input is
    copied once. Labels, when given, must match the number of points (e.g.
    observation years).
    """

    points: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        message = "points must be a 2-D array of shape (n, dim)"
        pts = float_array(self.points, (None, None), message)
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InvalidInputError("point cloud needs at least one point and one dimension")
        # min and max propagate NaN, and they allocate no (n, dim) mask.
        if not (math.isfinite(pts.min()) and math.isfinite(pts.max())):
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
        if not columns:
            raise InvalidInputError("no columns")
        message = "columns must be one-dimensional and of equal length"
        first = float_array(columns[0], (None,), message)
        rest = [float_array(c, first.shape, message) for c in columns[1:]]
        return cls(np.column_stack([first, *rest]), labels=labels)


@dataclass(frozen=True)
class ResidualStats:
    """Orthogonal-distance residual aggregates of a fitted flat, computed
    from its one field, a non-empty vector of non-negative distances. +inf is
    kept, so that ``total_orthogonal_error`` can name a distance beyond the
    float range; an aggregate beyond it reads inf, with no numpy warning."""

    per_point_distance: np.ndarray
    sum_sq: float = field(init=False)
    sum_abs: float = field(init=False)
    rms: float = field(init=False)
    root_sum_sq: float = field(init=False)

    def __post_init__(self):
        message = "residual stats need a non-empty vector of distances"
        d = float_array(self.per_point_distance, (None,), message)
        if d.shape[0] < 1:
            raise InvalidInputError(message)
        # min propagates NaN and allocates no mask.
        if not float(d.min()) >= 0.0:
            raise InvalidInputError("distances must be non-negative numbers")
        with np.errstate(over="ignore"):
            sum_sq, sum_abs = float(d @ d), float(d.sum())
        aggregates = dict(per_point_distance=d, sum_sq=sum_sq, sum_abs=sum_abs,
                          rms=math.sqrt(sum_sq / d.shape[0]), root_sum_sq=math.sqrt(sum_sq))
        for name, value in aggregates.items():
            object.__setattr__(self, name, value)

    def metric(self, name: str) -> float:
        """Value of one named aggregate (see ERROR_METRICS)."""
        if name not in ERROR_METRICS:
            raise InvalidInputError(f"unknown error metric {name!r}")
        return getattr(self, name)


def _check_flat(flat, origin: str, unit: str) -> None:
    """Coerce a fitted flat's ``origin`` and ``unit`` fields to float arrays.
    InvalidInputError unless ``origin`` is finite and ``unit`` is a vector of
    the origin's length and of unit length within _UNIT_TOLERANCE, as every
    distance assumes."""
    message = f"{unit} must be a vector of the {origin}'s length"
    o = float_array(getattr(flat, origin), (None,), message)
    u = float_array(getattr(flat, unit), o.shape, message)
    if not all(map(math.isfinite, o.tolist())):
        raise InvalidInputError(f"{origin} must be finite")
    if not abs(math.hypot(*u.tolist()) - 1.0) <= _UNIT_TOLERANCE:
        raise InvalidInputError(f"{unit} must be a unit vector")
    object.__setattr__(flat, origin, o)
    object.__setattr__(flat, unit, u)


@dataclass(frozen=True)
class FittedLine:
    """A best-fit line: the cloud centroid plus a unit direction."""

    anchor: np.ndarray
    direction: np.ndarray
    error: ResidualStats

    def __post_init__(self):
        _check_flat(self, "anchor", "direction")

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

    def __post_init__(self):
        _check_flat(self, "centroid", "normal")

    @property
    def dim(self) -> int:
        return self.normal.shape[0]


def _column_means(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=0)`` of C-ordered points or of 1-D values, also where
    a column sum overflows. Call it under ``np.errstate(over="ignore",
    invalid="ignore")``.

    numpy's ``add.reduce`` on C-ordered (n, d) points adds the rows one by
    one, but through an inner loop only d entries long per row, whose
    overhead dominates for a few coordinates. ``einsum("ij->j")`` adds the
    rows in the same order with its loop running down the rows, so it has
    the same bits, several times faster. For 1-D values (``regression``)
    and a single column ``add.reduce`` adds pairwise and einsum does not,
    so those keep it. So do clouds of fewer than ``_TILE`` points, where
    einsum's call costs more than it saves.

    A sum that overflows is taken again over ``a * 2**-k``, with
    ``2**k >= len(a)`` so that it cannot overflow, and its mean is scaled
    back. Rounding can carry that mean just past the column's least or
    greatest entry (a constant column at 1.5e308 would get a spread of one
    ulp there, 2e292), so the mean is clamped to them.
    """
    n = a.shape[0]
    by_rows = n >= _TILE and a.ndim == 2 and a.shape[1] > 1
    total = np.einsum("ij->j", a) if by_rows else np.add.reduce(a, axis=0)  # a scalar for 1-D
    if all(map(math.isfinite, total.reshape(-1).tolist())):
        return total / n
    k = n.bit_length()
    mean = np.ldexp(np.add.reduce(np.ldexp(a, -k), axis=0) / n, k)
    return np.clip(mean, a.min(axis=0), a.max(axis=0))


def _minus(a: np.ndarray, c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a - c`` to the bit for C-ordered points ``a``, written into the
    caller's C-ordered buffer ``out`` of the shape of ``a``, and returned.

    ``a - c`` broadcasts ``c`` over each row, an inner loop only d entries
    long. So each ``_TILE`` rows are taken as one row of an
    (n // _TILE, _TILE * d) view, less ``c`` tiled over ``_TILE`` rows: the
    loop runs over ``_TILE * d`` entries, and each entry still gets its one
    subtraction. The last n % _TILE rows broadcast, as do all rows of fewer
    than ``_TILE``, where the tile would cost more than it saves.
    """
    split = len(a) - len(a) % _TILE
    if split:
        width = _TILE * a.shape[1]
        np.subtract(a[:split].reshape(-1, width), np.tile(c, _TILE), out=out[:split].reshape(-1, width))
    np.subtract(a[split:], c, out=out[split:])
    return out


def _centre(a: np.ndarray) -> np.ndarray:
    """The centre ``c`` of the points ``a`` (or of one coordinate's values).
    Call it under ``np.errstate(over="ignore", invalid="ignore")``.

    ``c`` is the column mean, but a constant column is centred on its value:
    its rounded mean can be up to n ulps off, as its first centred entry
    ``a[0] - c`` is.
    """
    c = _column_means(a)
    pairs = zip((a[0] - c).reshape(-1).tolist(), a[0].reshape(-1).tolist())
    if any(0.0 < abs(x) <= len(a) * math.ulp(v) for x, v in pairs):
        c = np.where((a == a[0]).all(axis=0), a[0], c)[()]
    return c


def _check_spread(spread: float, size: int) -> None:
    """The spread of ``size`` centred values, the largest |p - c|, must be 0
    (identical points) or lie in [2**-511, 2**511 / sqrt(size)]: below it
    the squares leave the normal float range, above it the trace overflows,
    and beyond the float range ``p - c`` is infinite. Otherwise
    InvalidInputError."""
    if spread and not 2.0**-511 <= spread <= 2.0**511 / math.sqrt(size):
        raise InvalidInputError(
            f"points spread {spread:.3g} about their centroid; a scatter matrix "
            "needs a spread between about 1e-153 and 1e153"
        )


def _centred(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The centre ``c`` of one coordinate's values ``a`` (see ``_centre``)
    and the centred values ``a - c``, whose spread must pass
    ``_check_spread``."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = _centre(a)
        b = a - c
    _check_spread(max(float(b.max()), -float(b.min())), b.size)
    return c, b


def _centred_scatter(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The centre ``c`` of the points ``a`` (see ``_centre``) and their
    scatter matrix ``b.T @ b`` about it, ``b = a - c``, without ``b``.

    A cloud of up to ``_SCATTER_BLOCK`` points is centred by ``_minus`` into
    a C-ordered buffer ``b`` and takes ``b.T @ b``, to the bit; numpy
    mirrors one triangle of it. A larger cloud is taken in blocks of
    ``_SCATTER_BLOCK`` rows, each centred coordinate-major into one reused
    (d, ``_SCATTER_BLOCK``) buffer, with the same subtractions. Each block
    adds the dot product of coordinates r and k, ``q[r] @ q[k]``, to entry
    (r, k) for r <= k, and the sums are mirrored, so the scatter is exactly
    symmetric, as ``eigen_symmetric`` requires. The d(d + 1)/2 dot products
    of a block cost a fraction of its rank-k product ``q.T @ q``. Each
    entry, a sum of n rounded products, is within gamma_n = n eps / (1 - n
    eps) of the exact sum relative to sqrt(S_rr S_kk), as any order of
    adding them is, and typically nearer the exact sum than ``b.T @ b``. Its
    last bits follow how the BLAS splits a long dot product, which may
    depend on its thread count. The spread of the whole cloud must pass
    ``_check_spread``; it is checked after the pass, which ignores the
    overflow of a cloud that fails it.
    """
    n, dim = a.shape
    with np.errstate(over="ignore", invalid="ignore"):
        c = _centre(a)
        if n <= _SCATTER_BLOCK:
            b = _minus(a, c, out=np.empty((n, dim)))
            spread = max(float(b.max()), -float(b.min()))
            scatter = b.T @ b
        else:
            spread = 0.0
            sums = [[0.0] * dim for _ in range(dim)]
            q = np.empty((dim, _SCATTER_BLOCK))
            for i in range(0, n, _SCATTER_BLOCK):
                rows = a[i : i + _SCATTER_BLOCK]
                block = np.subtract(rows.T, c[:, None], out=q[:, : len(rows)])
                spread = max(spread, float(block.max()), -float(block.min()))
                for r in range(dim):
                    for k in range(r, dim):
                        sums[r][k] += float(block[r] @ block[k])
            scatter = np.array([[sums[min(r, k)][max(r, k)] for k in range(dim)] for r in range(dim)])
    _check_spread(spread, a.size)
    return c, scatter


def centroid(cloud: PointCloud) -> np.ndarray:
    """Coordinate-wise mean of the cloud, with a constant column centred on
    its value (see ``_centre``). Every fitted flat passes through it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _centre(cloud.points)


def scatter_matrix(cloud: PointCloud) -> np.ndarray:
    """Unnormalized centered scatter matrix sum_i (p_i - c)(p_i - c)^T,
    exactly symmetric (see ``_centred_scatter``).

    No 1/(n-1) factor: normalization rescales eigenvalues uniformly and does
    not move the principal axes. A cloud of up to 2**17 points
    (``_SCATTER_BLOCK``) gets the bits of ``b.T @ b`` for the centred
    points ``b``.
    """
    return _centred_scatter(cloud.points)[1]


def _principal_axes(cloud: PointCloud, k: int, name: str):
    """The centre ``c`` and principal axes (rows, by decreasing eigenvalue)
    of a cloud to be fitted by a k-flat, a ``name``: the eigenvectors of
    its scatter matrix, formed block by block without a centred copy (see
    ``_centred_scatter``).

    InvalidInputError: dim < 2, fewer than k + 1 points, or a spread that
    ``_check_spread`` rejects. DegenerateGeometryError, with the spanned
    flat: a rank (eigenvalues above RANK_TOLERANCE times the largest)
    below k.
    """
    dim = cloud.dim
    if dim < 2:
        raise InvalidInputError(f"{name} fit needs dimension >= 2")
    if len(cloud) < k + 1:
        raise InvalidInputError(f"{name} fit in dimension {dim} needs at least {k + 1} points")
    c, scatter = _centred_scatter(cloud.points)
    dec = eigen_symmetric(scatter)
    values = dec.eigenvalues.tolist()
    cutoff = values[0] * RANK_TOLERANCE
    rank = sum(x > cutoff for x in values) if values[0] > 0.0 else 0
    if rank < k:
        raise DegenerateGeometryError(
            f"points span only a {rank}-dimensional flat; "
            f"a {name} in dimension {dim} is not unique",
            flat_dim=rank,
            flat_point=c,
            flat_basis=dec.eigenvectors[:rank].copy(),
        )
    return c, dec.eigenvectors


def _distances(points: np.ndarray, origin: np.ndarray, u: np.ndarray, line: bool) -> np.ndarray:
    """Orthogonal distance of each row of the C-ordered ``points`` to the
    flat through ``origin``: the line along the unit vector ``u`` if
    ``line``, else the hyperplane with unit normal ``u``.

    Each block of ``_BLOCK`` rows is centred on ``origin`` first, as
    ``normal . p + offset`` cancels when the points lie far from the origin.
    Nothing overflows where the points' spread about ``origin`` passes
    ``_check_spread``, as in a fit; ``_checked_distances`` takes any points.

    A line's residuals are taken coordinate-major, as a (dim, rows) array:
    numpy's loops then run over the block's rows, not over the few
    coordinates of one row, whose per-loop overhead bound the row-major
    form. Adding the squared coordinates down axis 0 adds them one by one,
    which for dim < 8 is numpy's order along a row to the bit (from 8 terms
    on, numpy adds a row pairwise, a few ulps away). ``q @ u`` stays on the
    row-major block: a gemv on the transposed block has other bits. Each
    block is centred by ``_minus`` into one reused buffer, and a line's
    residuals reuse another.
    """
    # numpy takes the ``q @ u`` of a one-row block as a vector dot, not gemv,
    # with other bits. So a single point is taken as two copies of itself,
    # and a lone last row joins the block before it.
    if points.shape[0] == 1:
        return _distances(np.vstack((points, points)), origin, u, line)[:1]
    n, dim = points.shape
    d = np.empty(n)
    q_buffer = np.empty((min(n, _BLOCK + 1), dim))
    r = np.empty((dim, min(n, _BLOCK + 1))) if line else None
    i = 0
    while i < n:
        j = i + _BLOCK if n - i > _BLOCK + 1 else n
        q, out = _minus(points[i:j], origin, out=q_buffer[: j - i]), d[i:j]
        np.matmul(q, u, out=out)
        if line:
            rq = r[:, : j - i]
            np.multiply.outer(u, out, out=rq)
            np.subtract(q.T, rq, out=rq)
            rq *= rq
            np.sqrt(np.add.reduce(rq, axis=0, out=out), out=out)
        else:
            np.abs(out, out=out)
        i = j
    return d


def _checked_distances(points: np.ndarray, origin: np.ndarray, u: np.ndarray, line: bool) -> np.ndarray:
    """``_distances`` of points at any distance from the flat, without a
    RuntimeWarning; a distance is ``inf`` only where it exceeds the float
    range.

    Rows whose distance overflows or comes out NaN (a square, a dot product
    or ``p - origin`` beyond the float range) are taken again with the row
    and ``origin`` scaled by a power of two 2**-e that brings them below 1;
    a line's residual is scaled again by its largest entry before it is
    squared, and its squares are added as in ``_distances``. The other rows
    keep their bits, and a rescued row's bits do not depend on how many rows
    need rescue: a lone one is taken as two copies of itself, as in
    ``_distances``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = _distances(points, origin, u, line)
        if math.isfinite(d.max()):
            return d
        far = np.flatnonzero(~np.isfinite(d))
        p = points[far.repeat(2) if len(far) == 1 else far]
        e = np.frexp(np.maximum(np.abs(p).max(axis=1), np.abs(origin).max()))[1]
        q = np.ldexp(p, -e[:, None]) - np.ldexp(origin, -e[:, None])
        if line:
            r = q.T - np.multiply.outer(u, q @ u)
            f = np.frexp(np.abs(r).max(axis=0))[1]
            r = np.ldexp(r, -f)
            rescued = np.ldexp(np.sqrt(np.add.reduce(r * r, axis=0)), e + f)
        else:
            rescued = np.ldexp(np.abs(q @ u), e)
        d[far] = rescued[: len(far)]
    return d


def fit_line(cloud: PointCloud) -> FittedLine:
    """Fit a line minimizing the sum of squared orthogonal distances.

    The direction is the largest-eigenvalue principal axis of the scatter
    matrix; the anchor is the centroid.

    Raises
    ------
    InvalidInputError
        Fewer than 2 points, dim < 2, or a spread the scatter matrix cannot
        represent (see ``_check_spread``).
    DegenerateGeometryError
        All points identical; the error reports them as a 0-dimensional flat.
    """
    anchor, axes = _principal_axes(cloud, 1, "line")
    direction = axes[0]
    distances = _distances(cloud.points, anchor, direction, True)
    return FittedLine(anchor, direction, ResidualStats(distances))


def fit_hyperplane(cloud: PointCloud) -> FittedHyperplane:
    """Fit a hyperplane minimizing the sum of squared orthogonal distances.

    The normal is the smallest-eigenvalue principal axis of the scatter
    matrix, so it is orthogonal to the directions in which the data spreads.

    Raises
    ------
    InvalidInputError
        Fewer than ``dim`` points, dim < 2, or a spread the scatter matrix
        cannot represent (see ``_check_spread``).
    DegenerateGeometryError
        The points span a flat of dimension < dim-1, so infinitely many
        hyperplanes contain them; the spanned flat is reported on the error.
    """
    c, axes = _principal_axes(cloud, cloud.dim - 1, "hyperplane")
    normal = axes[-1]
    offset = -float(normal @ c)
    distances = _distances(cloud.points, c, normal, False)
    return FittedHyperplane(normal, c, offset, ResidualStats(distances))


def _point_distance(p, origin: np.ndarray, u: np.ndarray, line: bool, what: str) -> float:
    p = float_array(p, u.shape, f"{what}: expected a vector of dimension {u.shape[0]}")
    if not np.isfinite(p).all():
        raise InvalidInputError(f"{what}: coordinates must be finite")
    d = float(_checked_distances(p[None], origin, u, line)[0])
    if d == math.inf:
        raise InvalidInputError(f"{what}: the distance exceeds the float range")
    return d


def distance_point_to_line(p, line: FittedLine) -> float:
    """Shortest (perpendicular) distance from a point to a fitted line.
    InvalidInputError if it exceeds the float range."""
    return _point_distance(p, line.anchor, line.direction, True, "distance_point_to_line")


def distance_point_to_plane(p, plane: FittedHyperplane) -> float:
    """Shortest distance from a point to a fitted hyperplane: |normal.(p - centroid)|.
    InvalidInputError if it exceeds the float range."""
    return _point_distance(p, plane.centroid, plane.normal, False, "distance_point_to_plane")


def _acute_angle_deg(cosine: float, u: np.ndarray, v: np.ndarray) -> float:
    """Angle in [0, 90] degrees between undirected flats whose unit axes
    ``u`` and ``v`` have this cosine.

    ``acos`` loses a small angle: a cosine within 2**-30 of 1 (an angle
    below about 0.0025 degrees) has few bits left to tell it from 1, and one
    that rounds to 1 reads 0. There the angle is taken as ``2 asin(h / 2)``
    from the chord ``h = |u - v|`` (``u + v`` for a negative cosine), which
    keeps its relative accuracy down to the smallest angles.
    """
    if abs(cosine) <= 1.0 - 2.0**-30:
        return math.degrees(math.acos(abs(cosine)))
    chord = math.hypot(*(u - math.copysign(1.0, cosine) * v).tolist())
    return math.degrees(2.0 * math.asin(chord / 2.0))


def total_orthogonal_error(cloud: PointCloud, model) -> ResidualStats:
    """Residual aggregates of a cloud against a fitted line or hyperplane.

    This is the quantity the fits minimize (in its sum-of-squares form), so
    for the model fitted to ``cloud`` it reproduces ``model.error``.
    InvalidInputError if the sum of squared distances exceeds the float range.
    """
    if isinstance(model, FittedLine):
        name, origin, u = "line", model.anchor, model.direction
    elif isinstance(model, FittedHyperplane):
        name, origin, u = "hyperplane", model.centroid, model.normal
    else:
        raise InvalidInputError("model must be a FittedLine or FittedHyperplane")
    if cloud.dim != model.dim:
        raise InvalidInputError(f"cloud and {name} dimensions differ")
    distances = _checked_distances(cloud.points, origin, u, name == "line")
    stats = ResidualStats(distances)
    if not math.isfinite(stats.sum_sq):
        raise InvalidInputError(
            f"points lie up to {float(distances.max()):.3g} from the {name}; a sum of "
            f"squared distances needs them within about {math.sqrt(sys.float_info.max / len(cloud)):.3g}"
        )
    return stats


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
