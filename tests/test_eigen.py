import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoreg import (
    InvalidInputError,
    PointCloud,
    eigen_symmetric,
    scatter_matrix,
    v4_dataset,
)
from orthoreg.eigen import _leads_negative

from _helpers import (
    cofactor_det,
    random_rotation,
    random_symmetric,
    reference_eigen_symmetric,
)


def test_identity_matrix():
    dec = eigen_symmetric(np.eye(3))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
    gram = dec.eigenvectors @ dec.eigenvectors.T
    assert np.abs(gram - np.eye(3)).max() < 1e-12


def test_diagonal_matrix():
    dec = eigen_symmetric(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(dec.eigenvalues, [3.0, 2.0, 1.0], atol=1e-14)
    assert np.abs(dec.eigenvectors - np.eye(3)).max() < 1e-14


def test_order_one():
    dec = eigen_symmetric(np.array([[4.5]]))
    assert dec.eigenvalues[0] == 4.5
    assert dec.eigenvectors[0, 0] == 1.0


def test_sk_scatter_smallest_axis_matches_reference():
    sk = next(s for s in v4_dataset() if s.country == "SK")
    cloud = PointCloud(np.column_stack([sk.unemployment, sk.gdp_change, sk.inflation]))
    dec = eigen_symmetric(scatter_matrix(cloud))
    normal = dec.eigenvectors[-1]
    reference = np.array([0.6704, 0.7195, -0.1811])
    delta = min(np.abs(normal - reference).max(), np.abs(normal + reference).max())
    assert delta < 1e-3


@pytest.mark.parametrize("scale", [2e-193, 1e-300, 1e160, 1e300])
def test_extreme_entries_are_rotated(scale):
    dec = eigen_symmetric([[0.0, scale], [scale, 0.0]])
    assert dec.eigenvalues.tolist() == [scale, -scale]
    assert np.abs(np.abs(dec.eigenvectors) - np.sqrt(0.5)).max() < 1e-15


def test_eigenvalue_beyond_the_float_range_rejected():
    with pytest.raises(InvalidInputError, match="overflow"):
        eigen_symmetric(np.full((2, 2), 1e308))


def test_entries_near_the_float_maximum_are_not_overflowed():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = eigen_symmetric([[1e308, 0.0], [0.0, 1.0]])
    assert dec.eigenvalues.tolist() == [1e308, 1.0]
    assert dec.eigenvectors.tolist() == [[1.0, 0.0], [0.0, 1.0]]


_SQUARE = "symmetric matrix must be square of order >= 1"
_FINITE = "symmetric matrix entries must be finite"
_SYMMETRIC = "matrix is not exactly symmetric"


@pytest.mark.parametrize("array, message", [
    (np.zeros((2, 3)), _SQUARE),
    (np.zeros(3), _SQUARE),
    (np.zeros((2, 2, 2)), _SQUARE),
    (np.zeros((0, 0)), _SQUARE),
    ([[np.nan, 1.0, 2.0]], _SQUARE),
    ([[1.0, 2.0], [3.0]], _SQUARE),
    ([[1.0, np.nan], [np.nan, 1.0]], _FINITE),
    ([[np.inf, 0.0], [0.0, 1.0]], _FINITE),
    ([[1.0, np.inf], [0.0, 1.0]], _FINITE),
    ([[1.0, 2.0], [2.0 + 1e-15, 1.0]], _SYMMETRIC),
    ([[1.0, 1.7e308], [-1.7e308, 1.0]], _SYMMETRIC),
], ids=[
    "not-square", "one-dimensional", "three-dimensional", "empty", "not-square-before-nan", "ragged",
    "nan", "inf", "inf-before-asymmetry", "asymmetric", "asymmetric-near-the-float-maximum",
])
def test_validation_errors_and_messages(array, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError) as raised:
            eigen_symmetric(array)
    assert str(raised.value) == message


def test_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        eigen_symmetric(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_rejects_asymmetric():
    with pytest.raises(InvalidInputError):
        eigen_symmetric(np.array([[1.0, 2.0], [1.0, 1.0]]))


def test_non_convergence_raises(monkeypatch):
    import orthoreg.eigen as eigen_mod
    from orthoreg import NumericalFailureError

    monkeypatch.setattr(eigen_mod, "MAX_SWEEPS", 0)
    with pytest.raises(NumericalFailureError):
        eigen_symmetric(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_canonical_sign():
    """Each eigenvector's first component above SIGN_TOLERANCE is positive."""
    assert _leads_negative([0.0, -0.6, 0.8])
    # components below tolerance do not decide the sign
    assert _leads_negative([1e-13, -0.6, 0.8])
    assert not _leads_negative([-1e-13, 0.6, -0.8])
    assert not _leads_negative([0.0, 0.0])
    dec = eigen_symmetric([[3.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    assert dec.eigenvectors[2, 0] == 0.0
    assert dec.eigenvectors[2, 1] > 0.0 > dec.eigenvectors[2, 2]


def test_matches_lapack_eigenvalues():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m = random_symmetric(rng, n, scale=10.0 ** float(rng.integers(-2, 3)))
        dec = eigen_symmetric(m)
        expected = np.sort(np.linalg.eigvalsh(m))[::-1]
        scale = 1.0 + np.abs(expected).max()
        assert np.abs(dec.eigenvalues - expected).max() / scale < 1e-12


def test_reconstruction_and_orthonormality():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        m = random_symmetric(rng, n, scale=10.0 ** float(rng.integers(-3, 4)))
        dec = eigen_symmetric(m)
        v = dec.eigenvectors
        rebuilt = v.T @ np.diag(dec.eigenvalues) @ v
        assert np.abs(rebuilt - m).max() <= 1e-9 * (1.0 + np.abs(m).max())
        assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() <= 1e-12
        gram = v @ v.T - np.eye(n)
        assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-10
        assert (np.diff(dec.eigenvalues) <= 1e-12).all()


def test_trace_and_determinant_identities():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        m = random_symmetric(rng, n)
        dec = eigen_symmetric(m)
        trace = float(np.trace(m))
        assert abs(dec.eigenvalues.sum() - trace) <= 1e-9 * (1.0 + abs(trace))
        if n <= 4:
            det = cofactor_det(m)
            assert abs(np.prod(dec.eigenvalues) - det) <= 1e-8 * (1.0 + abs(det))


def test_order_two_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b, c = rng.uniform(-2.0, 2.0, size=3)
        m = np.array([[a, b], [b, c]])
        mean = (a + c) / 2.0
        radius = np.sqrt(((a - c) / 2.0) ** 2 + b * b)
        expected = np.array([mean + radius, mean - radius])
        dec = eigen_symmetric(m)
        assert np.abs(dec.eigenvalues - expected).max() <= 1e-12


def test_rotation_invariance_of_spectrum():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        m = random_symmetric(rng, n)
        r = random_rotation(rng, n)
        rotated = r @ m @ r.T
        rotated = 0.5 * (rotated + rotated.T)  # rounding leaves it inexactly symmetric
        w1 = eigen_symmetric(m).eigenvalues
        w2 = eigen_symmetric(rotated).eigenvalues
        assert np.abs(w1 - w2).max() <= 1e-9 * (1.0 + np.abs(w1).max())


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=16, max_size=16),
)
def test_hypothesis_spectrum_properties(order, values):
    m = np.array(values[: order * order]).reshape(order, order)
    m = (m + m.T) / 2.0
    dec = eigen_symmetric(m)
    trace = float(np.trace(m))
    assert abs(dec.eigenvalues.sum() - trace) <= 1e-9 * (1.0 + abs(trace))
    rebuilt = dec.eigenvectors.T @ np.diag(dec.eigenvalues) @ dec.eigenvectors
    assert np.abs(rebuilt - m).max() <= 1e-9 * (1.0 + np.abs(m).max())


# -- bit identity with the array-form reference solver ---------------------------

_mantissa = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def scaled_symmetric(draw):
    """Order 1..8, each entry a mantissa times 10**e with e in -8..8."""
    n = draw(st.integers(min_value=1, max_value=8))
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            a[i, j] = a[j, i] = draw(_mantissa) * 10.0 ** draw(st.integers(-8, 8))
    return a


@st.composite
def special_symmetric(draw):
    """Zero, diagonal and all-ones matrices of order 1..8 at scales 1e-8..1e8."""
    n = draw(st.integers(min_value=1, max_value=8))
    scale = 10.0 ** draw(st.integers(-8, 8))
    kind = draw(st.sampled_from(["zero", "diagonal", "ones"]))
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "ones":
        return np.full((n, n), scale)
    return np.diag([draw(_mantissa) * scale for _ in range(n)])


HOSTILE_KINDS = ("thin", "offset", "tied", "duplicated", "n_eq_d")


def hostile_points(rng, dim, kind, n):
    """A thin, 1e8-offset, near-tied, duplicated or n = d cloud of ``n`` points
    in ``dim`` dimensions (an n_eq_d cloud has ``dim`` points whatever ``n``)."""
    n = dim if kind == "n_eq_d" else n
    spread = np.geomspace(4.0, 0.5, dim)
    shift = rng.normal(size=dim) * 3.0
    if kind == "thin":
        spread[1:] = np.array([0.7, 0.6, 0.5, 0.4, 0.3, 1e-6, 5e-7])[-(dim - 1):]
    elif kind == "offset":
        shift = rng.choice([-1.0, 1.0], dim) * 1e8
    elif kind == "tied":
        spread[1] = spread[0] * (1.0 - 1e-4 * rng.uniform(0.5, 2.0))
    points = (rng.normal(size=(n, dim)) * spread) @ random_rotation(rng, dim).T + shift
    if kind == "duplicated":
        points = points[rng.integers(0, max(dim + 1, n // 3), n)]
    return points


@st.composite
def hostile_scatter(draw):
    """Scatter matrix of a thin, 1e8-offset, near-tied, duplicated or n = d cloud."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(min_value=2, max_value=8))
    kind = draw(st.sampled_from(HOSTILE_KINDS))
    n = draw(st.integers(min_value=dim + 1, max_value=50))
    return scatter_matrix(PointCloud(hostile_points(rng, dim, kind, n)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(scaled_symmetric(), special_symmetric(), hostile_scatter()))
def test_bit_identical_to_array_reference(m):
    dec = eigen_symmetric(m)
    values, vectors = reference_eigen_symmetric(m)
    assert dec.eigenvalues.tobytes() == values.tobytes()
    assert dec.eigenvectors.tobytes() == vectors.tobytes()


# -- the solver's bits on a fixed corpus ------------------------------------------

#: numpy builds the corpus (its random streams, QR and ``b.T @ b``); the
#: solver itself runs on Python floats.
SOLVER_RECORDED_WITH_NUMPY = "2.4.6"

SOLVER_DIGEST = "a9b3d24c135aaf7fa518729f82b13baa9f56667e1750498c00bafa7535a62170"


def solver_corpus():
    """2000 seeded matrices: 40 scatters of each hostile kind for each dim
    2..8, then 75 symmetric matrices of each order 1..8 whose entries are
    mantissas times 10**e (e in -8..8), scaled by 1e-150, 1 or 1e150."""
    rng = np.random.default_rng(2023)
    for dim in range(2, 9):
        for kind in HOSTILE_KINDS:
            for _ in range(40):
                n = int(rng.integers(dim + 1, 51))
                yield scatter_matrix(PointCloud(hostile_points(rng, dim, kind, n)))
    for order in range(1, 9):
        for _ in range(75):
            a = rng.uniform(-1.0, 1.0, (order, order)) * 10.0 ** rng.integers(-8, 9, (order, order))
            a = np.triu(a) + np.triu(a, 1).T
            yield a * rng.choice([1e-150, 1.0, 1e150])


@pytest.mark.skipif(
    np.__version__ != SOLVER_RECORDED_WITH_NUMPY,
    reason=f"digest recorded with numpy {SOLVER_RECORDED_WITH_NUMPY}",
)
def test_solver_bits():
    """The eigenvalue and eigenvector bytes of every corpus matrix, in one
    sha256: a change in any bit of any eigenpair changes the digest."""
    digest = hashlib.sha256()
    for m in solver_corpus():
        dec = eigen_symmetric(m)
        digest.update(dec.eigenvalues.tobytes())
        digest.update(dec.eigenvectors.tobytes())
    assert digest.hexdigest() == SOLVER_DIGEST
