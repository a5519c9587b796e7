"""Independent oracles and random-geometry helpers shared by the tests."""

import csv
import io
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from orthoreg.dataio import INDICATOR_FIELDS
from orthoreg.economy import IndicatorSeries
from orthoreg.eigen import MAX_SWEEPS, OFF_DIAGONAL_TOLERANCE, SIGN_TOLERANCE
from orthoreg.errors import NumericalFailureError, OrthoregError


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


def _two_product(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``p = x * y`` rounded and its rounding error ``e``, so that
    ``p + e == x * y`` exactly (Dekker's TwoProduct, with Veltkamp's split
    of each factor into two halves of at most 26 significant bits). Exact
    where nothing overflows or underflows."""
    def split(v):
        t = 134217729.0 * v  # 2**27 + 1
        hi = t - (t - v)
        return hi, v - hi

    p = x * y
    (xh, xl), (yh, yl) = split(x), split(y)
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def exact_scatter(b: np.ndarray) -> np.ndarray:
    """The scatter matrix ``b.T @ b`` of the (n, d) floats ``b``, each entry
    the correctly rounded exact sum: every product split exactly into two
    floats, then ``math.fsum``."""
    dim = b.shape[1]
    columns = np.ascontiguousarray(b.T)
    s = np.empty((dim, dim))
    for r in range(dim):
        for k in range(r, dim):
            s[r, k] = s[k, r] = math.fsum(memoryview(np.concatenate(_two_product(columns[r], columns[k]))))
    return s


def _decimal_asin(x: Decimal) -> Decimal:
    """asin(x) for 0 <= x <= 0.75 by its Taylor series, to the context's precision."""
    total, previous, term, k = x, None, x, 0
    while total != previous:
        k += 1
        term *= x * x * (2 * k - 1) * (2 * k - 1) / ((2 * k) * (2 * k + 1))
        previous, total = total, total + term
    return total


def reference_angle_deg(u, v) -> Decimal:
    """The angle in degrees between the undirected lines along ``u`` and
    ``v``, from their exact float values at 60 digits: ``2 asin(h / 2)`` for
    the chord ``h = |u/|u| - v/|v||`` (``+`` when ``u . v < 0``)."""
    with localcontext() as context:
        context.prec = 60
        u = [Decimal(float(x)) for x in u]
        v = [Decimal(float(x)) for x in v]
        norm_u = sum(x * x for x in u).sqrt()
        norm_v = sum(x * x for x in v).sqrt()
        sign = -1 if sum(a * b for a, b in zip(u, v)) < 0 else 1
        chord = sum((a / norm_u - sign * b / norm_v) ** 2 for a, b in zip(u, v)).sqrt()
        return 2 * _decimal_asin(chord / 2) * 180 / (6 * _decimal_asin(Decimal("0.5")))


#: Unit roundoff of float64.
UNIT_ROUNDOFF = 2.0**-53

#: Angles (radians) below which ``_acute_angle_deg`` takes the chord, not acos.
CHORD_BELOW = math.acos(1.0 - 2.0**-30)


def angle_error_bound_deg(theta_deg: float, dim: int) -> float:
    """How far an angle between flats in ``dim`` dimensions may be from the
    exact angle ``theta_deg`` between the lines its float inputs span.

    With u = 2**-53, a rounded unit axis (``w / np.linalg.norm(w)``, or a
    fitted unit normal) is within eta = (dim/2 + 2) u of the exact unit axis:
    (dim/2 + 1) u from the norm, u from the division. So:

    - the chord branch (angles below CHORD_BELOW) takes ``2 asin(h / 2)`` of
      a chord ``h`` that is off by at most 2 eta = (dim + 4) u, and asin's
      slope there is 1;
    - the acos branch takes a cosine off by at most (2 dim + 4) u: dim u
      from the dot product, 2 eta from the axes' lengths. acos has slope
      1 / sin(theta).

    Each branch then adds a relative 8 u for its own roundings (difference,
    hypot or acos, asin, the conversion to degrees). Near the switch either
    branch may be taken, so the looser acos bound holds from CHORD_BELOW / 2.
    """
    theta = math.radians(theta_deg)
    if theta < CHORD_BELOW / 2.0:
        absolute = (dim + 4) * UNIT_ROUNDOFF
    else:
        absolute = (2 * dim + 4) * UNIT_ROUNDOFF / math.sin(theta)
    return math.degrees(absolute + 8.0 * UNIT_ROUNDOFF * theta)


def directions_at_angle(rng: np.random.Generator, dim: int, theta_deg: float, axis=None):
    """Two directions in ``dim`` dimensions about ``theta_deg`` apart, each of
    a random length in 1e-3..1e3, the second flipped at random. The first is
    along the unit ``axis`` if one is given, else random."""
    if axis is None:
        u = rng.normal(size=dim)
        u /= np.linalg.norm(u)
    else:
        u = np.array(axis, dtype=float)
    w = rng.normal(size=dim)
    w -= (w @ u) * u
    w /= np.linalg.norm(w)
    theta = math.radians(theta_deg)
    v = math.cos(theta) * u + math.sin(theta) * w
    return u * 10.0 ** rng.uniform(-3, 3), v * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)


#: Labels that a CSV or JSON writer must escape, or a %-format or
#: str.format template would misread, and any text at all.
LABELS = st.text(alphabet=st.sampled_from(list('ab1 ,"\n\r\x00%{}é€😀'))) | st.text()


def parse_outcome(parse, *args):
    """What a parse gives: the points' bits and the labels, or the error."""
    try:
        cloud = parse(*args)
    except OrthoregError as exc:
        return type(exc), str(exc)
    return cloud.points.shape, cloud.points.tobytes(), cloud.labels


def reference_csv(rows) -> str:
    """``rows`` as ``csv.writer`` writes them, with LF line ends and RFC 4180
    quoting: each row is written with a CRLF line end, so that a cell with a
    CR is quoted as well as one with an LF, and that line end becomes LF."""
    lines = []
    for row in rows:
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(row)
        lines.append(out.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines)


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
        return math.sqrt(math.fsum((off * off).ravel()))

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
    norm = math.sqrt(math.fsum((a * a).ravel()))
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
