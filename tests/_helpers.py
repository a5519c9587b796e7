"""Independent oracles and random-geometry helpers shared by the tests."""

import csv
import io
import math
from fractions import Fraction

import numpy as np

from orthoreg.dataio import INDICATOR_FIELDS
from orthoreg.economy import IndicatorSeries
from orthoreg.eigen import MAX_SWEEPS, OFF_DIAGONAL_TOLERANCE, SIGN_TOLERANCE
from orthoreg.errors import NumericalFailureError


def cofactor_det(m: np.ndarray) -> float:
    """Determinant by first-row cofactor expansion (independent of any solver)."""
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * float(m[0, j]) * cofactor_det(minor)
    return total


def random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform-ish random rotation matrix (QR of a Gaussian, det fixed to +1)."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_symmetric(rng: np.random.Generator, order: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(order, order)) * scale
    return (a + a.T) / 2.0


def same_up_to_sign(u: np.ndarray, v: np.ndarray, tol: float) -> bool:
    return bool(np.abs(u - v).max() <= tol or np.abs(u + v).max() <= tol)


def best_candidate_line_sum_sq(points: np.ndarray, rng: np.random.Generator, candidates: int = 10_000) -> float:
    """Smallest sum of squared orthogonal distances over random candidate lines.

    Candidate lines have uniformly random inclinations and anchors scattered
    around the data; a brute-force lower benchmark for the fitted optimum.
    """
    theta = rng.uniform(0.0, np.pi, size=candidates)
    normals = np.column_stack([-np.sin(theta), np.cos(theta)])
    lo, hi = points.min(axis=0), points.max(axis=0)
    span = np.maximum(hi - lo, 1.0)
    anchors = rng.uniform(lo - 0.5 * span, hi + 0.5 * span, size=(candidates, 2))
    # distance of point p to line(anchor, theta) = |(p - anchor) . normal|
    offsets = points[None, :, :] - anchors[:, None, :]
    dists = np.abs(np.einsum("cpk,ck->cp", offsets, normals))
    return float((dists**2).sum(axis=1).min())


def _gemv_rows(points: np.ndarray) -> np.ndarray:
    """``points``, with a single point as two copies of itself: numpy takes a
    one-row ``@ u`` as a vector dot, whose bits differ from gemv's."""
    return np.vstack((points, points)) if len(points) == 1 else points


def reference_line_distances(points: np.ndarray, origin: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Distances to the line through ``origin`` along ``u`` as one unblocked
    expression over all rows: the residual pass before it took row blocks."""
    b = _gemv_rows(points) - origin
    r = b - np.outer(b @ u, u)
    return np.sqrt(np.add.reduce(r * r, axis=1))[:len(points)]


def reference_plane_distances(points: np.ndarray, origin: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Distances to the hyperplane through ``origin`` with unit normal ``u``,
    unblocked, as ``reference_line_distances``."""
    d = (_gemv_rows(points) - origin) @ u
    return np.abs(d, out=d)[:len(points)]


def exact_line_distance(p, origin, u) -> float:
    """Distance from ``p`` to the line through ``origin`` along ``u``, in
    exact rational arithmetic on the given floats (``u`` need not be exactly
    unit), rounded once at the end. Finite wherever the distance is."""
    q = [Fraction(float(a)) - Fraction(float(o)) for a, o in zip(p, origin)]
    v = [Fraction(float(x)) for x in u]
    qu = sum(a * b for a, b in zip(q, v))
    sq = sum(a * a for a in q) - qu * qu / sum(b * b for b in v)
    if sq == 0:
        return 0.0
    k = (sq.numerator.bit_length() - sq.denominator.bit_length()) // 2
    return math.ldexp(math.sqrt(sq / 4**k), k)


def reference_parse_indicator_csv(text: str, delimiter: str = ",") -> list[IndicatorSeries]:
    """Indicator series of a valid long table, read with ``csv.reader`` and
    ``float`` per cell and grouped by country in order of first appearance."""
    rows = [row for row in csv.reader(io.StringIO(text), delimiter=delimiter) if row]
    header = [name.strip() for name in rows[0]]
    at = [header.index(name) for name in INDICATOR_FIELDS]
    grouped = {}
    for row in rows[1:]:
        country, year, *values = (row[i].strip() for i in at)
        grouped.setdefault(country, []).append((int(float(year)), *map(float, values)))
    return [IndicatorSeries(country, *zip(*records)) for country, records in grouped.items()]


def reference_eigen_symmetric(m):
    """The cyclic Jacobi solver with masked numpy updates: the array form that
    ``orthoreg.eigen.eigen_symmetric`` computes with Python scalars.

    Kept as the reference: the scalar solver runs the same IEEE operations in
    the same order, so both must return byte-equal eigenpairs. ``m`` is an
    exactly symmetric float array. Returns ``(eigenvalues, eigenvectors)``.
    """
    def off_diagonal_mass(a):
        off = a - np.diag(np.diag(a))
        return float(np.sqrt(np.sum(off * off)))

    def rotate(a, v, p, q):
        apq = a[p, q]
        theta = (a[q, q] - a[p, p]) / (2.0 * apq)
        if abs(theta) < 1e150:
            t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
        else:
            t = 1.0 / (2.0 * theta)
        c = 1.0 / math.sqrt(t * t + 1.0)
        s = t * c
        mask = np.ones(a.shape[0], dtype=bool)
        mask[p] = mask[q] = False
        aip = a[mask, p]
        aiq = a[mask, q]
        new_p = c * aip - s * aiq
        new_q = s * aip + c * aiq
        a[mask, p] = new_p
        a[p, mask] = new_p
        a[mask, q] = new_q
        a[q, mask] = new_q
        a[p, p] -= t * apq
        a[q, q] += t * apq
        a[p, q] = a[q, p] = 0.0
        vp = v[:, p].copy()
        vq = v[:, q].copy()
        v[:, p] = c * vp - s * vq
        v[:, q] = s * vp + c * vq

    def canonical_sign(u):
        """``u`` flipped so its first component with |x| > SIGN_TOLERANCE is positive."""
        lead = u[np.abs(u) > SIGN_TOLERANCE]
        return -u if lead.size and lead[0] < 0 else u

    m = np.asarray(m, dtype=float)
    # The same power-of-two normalisation as the solver: largest entry in [0.5, 1).
    exponent = math.frexp(float(np.abs(m).max()))[1]
    a = np.ldexp(m, -exponent)
    n = m.shape[0]
    v = np.eye(n)
    norm = float(np.sqrt(np.sum(a * a)))
    # theta overflows to inf when |a[p, q]| is tiny; that is the intended path.
    with np.errstate(over="ignore"):
        for _ in range(MAX_SWEEPS):
            if off_diagonal_mass(a) <= OFF_DIAGONAL_TOLERANCE * norm:
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    if a[p, q] != 0.0:
                        rotate(a, v, p, q)
        else:
            if off_diagonal_mass(a) > OFF_DIAGONAL_TOLERANCE * norm:
                raise NumericalFailureError("reference Jacobi iteration did not converge")
    values = np.ldexp(np.diag(a), exponent)
    order = np.argsort(-values, kind="stable")
    vectors = np.array([canonical_sign(v[:, j]) for j in order])
    return values[order], vectors
