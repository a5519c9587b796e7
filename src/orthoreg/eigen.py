"""Eigendecomposition of real symmetric matrices by cyclic Jacobi rotations.

Self-contained (no LAPACK): the scatter matrices this package diagonalizes are
tiny (order 2..5), where Jacobi is accurate, simple, and keeps the working
matrix exactly symmetric at every step.

The rotations work on Python lists of floats, one scalar at a time. At this
size a numpy call costs far more in dispatch than in arithmetic: a rotation
with masked array updates needs about 20 numpy calls on 2..5 elements and
makes a solve about 4x slower. The scalar form does the same IEEE operations
in the same order as that array form (kept in the tests as the reference), so
the eigenpairs are the same to the bit. The convergence test stays a numpy
reduction over the whole matrix, once per sweep: a Python sum would add in
another order, and one ulp there can change the number of sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalFailureError

#: Hard cap on full Jacobi sweeps before giving up.
MAX_SWEEPS = 100

#: Convergence: off-diagonal Frobenius mass below this fraction of ||m||_F.
OFF_DIAGONAL_TOLERANCE = 1e-14

#: Components smaller than this are treated as zero when fixing eigenvector signs.
SIGN_TOLERANCE = 1e-12


@dataclass(frozen=True)
class SymmetricMatrix:
    """A real symmetric matrix, stored exactly symmetric (entries[i,j] == entries[j,i])."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise InvalidInputError("symmetric matrix must be square of order >= 1")
        if not np.isfinite(a).all():
            raise InvalidInputError("symmetric matrix entries must be finite")
        if not (a == a.T).all():
            raise InvalidInputError(
                "entries are not exactly symmetric; use SymmetricMatrix.from_array"
            )
        object.__setattr__(self, "entries", a)

    @property
    def order(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_array(cls, array, asymmetry_tol: float = 1e-12) -> "SymmetricMatrix":
        """Build from a nearly-symmetric array, symmetrizing exactly.

        Asymmetry beyond ``asymmetry_tol`` relative to the largest entry is an
        error rather than something to silently average away.
        """
        a = np.asarray(array, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise InvalidInputError("symmetric matrix must be square of order >= 1")
        if not np.isfinite(a).all():
            raise InvalidInputError("symmetric matrix entries must be finite")
        scale = max(1.0, float(np.abs(a).max()))
        if float(np.abs(a - a.T).max()) > asymmetry_tol * scale:
            raise InvalidInputError("matrix is not symmetric within tolerance")
        return cls(0.5 * (a + a.T))


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a symmetric matrix.

    ``eigenvalues`` are sorted descending (ties keep the rotation output
    order); ``eigenvectors[i]`` is the unit eigenvector for ``eigenvalues[i]``,
    sign-fixed so its first component larger than SIGN_TOLERANCE in magnitude
    is positive. Eigenvectors of a repeated eigenvalue span the eigenspace but
    are not individually unique.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # row i <-> eigenvalues[i]

    @property
    def order(self) -> int:
        return self.eigenvalues.shape[0]


def canonical_sign(v: np.ndarray, tol: float = SIGN_TOLERANCE) -> np.ndarray:
    """Flip ``v`` if needed so its first component with |x| > tol is positive."""
    for x in v:
        if abs(x) > tol:
            return -v if x < 0 else v
    return v


def _rotate(a: list[list[float]], v: list[list[float]], p: int, q: int) -> None:
    """One Jacobi rotation zeroing a[p][q], keeping ``a`` exactly symmetric."""
    apq = a[p][q]
    theta = (a[q][q] - a[p][p]) / (2.0 * apq)
    if abs(theta) < 1e150:
        t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
    else:
        t = 1.0 / (2.0 * theta)  # avoids overflow of theta**2
    c = 1.0 / math.sqrt(t * t + 1.0)
    s = t * c

    ap, aq = a[p], a[q]
    for i, row in enumerate(a):
        if i != p and i != q:
            x, y = row[p], row[q]
            row[p] = ap[i] = c * x - s * y
            row[q] = aq[i] = s * x + c * y
    ap[p] -= t * apq
    aq[q] += t * apq
    ap[q] = aq[p] = 0.0

    for row in v:
        x, y = row[p], row[q]
        row[p] = c * x - s * y
        row[q] = s * x + c * y


def _off_diagonal_mass(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt(np.sum(off * off)))


def eigen_symmetric(m) -> EigenDecomposition:
    """Diagonalize a symmetric matrix.

    Parameters
    ----------
    m : SymmetricMatrix or array-like
        Array input is validated and exactly symmetrized first.

    Returns
    -------
    EigenDecomposition
        Orthonormal eigenvectors, eigenvalues descending, signs canonical.

    Raises
    ------
    InvalidInputError
        Non-finite entries, asymmetry beyond tolerance, or an eigenvalue
        beyond the float range (entries near the largest float).
    NumericalFailureError
        No convergence within MAX_SWEEPS sweeps (not observed in practice).
    """
    if not isinstance(m, SymmetricMatrix):
        m = SymmetricMatrix.from_array(m)
    # Jacobi commutes exactly with a power-of-two scaling, and scaling the
    # largest entry into [0.5, 1) keeps the squares in the norm and in the
    # convergence test from overflowing or underflowing.
    _, exponent = math.frexp(float(np.abs(m.entries).max()))
    start = np.ldexp(m.entries, -exponent)
    n = m.order
    norm = float(np.sqrt(np.sum(start * start)))
    a = start.tolist()
    v = np.eye(n).tolist()

    converged = False
    for _ in range(MAX_SWEEPS):
        if _off_diagonal_mass(np.array(a)) <= OFF_DIAGONAL_TOLERANCE * norm:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p][q] != 0.0:
                    _rotate(a, v, p, q)
    else:
        converged = _off_diagonal_mass(np.array(a)) <= OFF_DIAGONAL_TOLERANCE * norm
    if not converged:
        raise NumericalFailureError(
            f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps"
        )

    try:
        values = np.array([math.ldexp(a[i][i], exponent) for i in range(n)])
    except OverflowError:
        raise InvalidInputError("eigenvalues overflow the float range") from None
    order = np.argsort(-values, kind="stable")  # descending, stable on ties
    values = values[order]
    columns = np.array(v).T
    vectors = np.array([canonical_sign(columns[j]) for j in order])
    return EigenDecomposition(eigenvalues=values, eigenvectors=vectors)
