"""Eigendecomposition of real symmetric matrices by cyclic Jacobi rotations.

Self-contained (no LAPACK): the scatter matrices this package diagonalizes are
tiny (order 2..5), where Jacobi is accurate, simple, and keeps the working
matrix exactly symmetric at every step.

The input must be exactly symmetric, as the fits' scatter matrix ``b.T @ b``
is (numpy mirrors one triangle); nothing is symmetrized. Between the input
array and the returned arrays everything runs on Python lists of floats:
validation, the power-of-two scaling, the norms, the rotations, the sort and
the sign fix. At this size a numpy call costs far more in dispatch than in
arithmetic. The rotations do the same IEEE operations in the same order as
the array form with masked updates (kept in the tests as the reference), so
the eigenpairs are the same to the bit. The norm and the per-sweep
off-diagonal mass are sums of squares, and one ulp in the convergence test
can change the number of sweeps, so both are taken with ``math.fsum``: it
rounds the exact sum once, so the sweep count depends on no summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, float_array

#: Hard cap on full Jacobi sweeps before giving up.
MAX_SWEEPS = 100

#: Convergence: off-diagonal Frobenius mass below this fraction of ||m||_F.
OFF_DIAGONAL_TOLERANCE = 1e-14

#: Components smaller than this are treated as zero when fixing eigenvector signs.
SIGN_TOLERANCE = 1e-12


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


def _leads_negative(v) -> bool:
    """Whether the first component of ``v`` with |x| > SIGN_TOLERANCE is negative."""
    for x in v:
        if abs(x) > SIGN_TOLERANCE:
            return x < 0
    return False


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


def _off_diagonal_mass(a: list[list[float]]) -> float:
    """Frobenius norm of ``a`` without its diagonal."""
    return math.sqrt(
        math.fsum(x * x for i, row in enumerate(a) for j, x in enumerate(row) if i != j)
    )


def eigen_symmetric(m) -> EigenDecomposition:
    """Diagonalize a symmetric matrix.

    Parameters
    ----------
    m : array-like
        Square of order >= 1, finite and exactly symmetric
        (``m[i][j] == m[j][i]``), as ``b.T @ b`` is.

    Returns
    -------
    EigenDecomposition
        Orthonormal eigenvectors, eigenvalues descending, signs canonical.

    Raises
    ------
    InvalidInputError
        Not square, non-finite entries, inexact symmetry, or an eigenvalue
        beyond the float range (entries near the largest float).
    NumericalFailureError
        No convergence within MAX_SWEEPS sweeps (not observed in practice).
    """
    shape_message = "symmetric matrix must be square of order >= 1"
    array = float_array(m, (None, None), shape_message)
    if array.shape[0] != array.shape[1] or array.shape[0] < 1:
        raise InvalidInputError(shape_message)
    entries = array.tolist()
    if not all(map(math.isfinite, chain.from_iterable(entries))):
        raise InvalidInputError("symmetric matrix entries must be finite")
    if list(zip(*entries)) != list(map(tuple, entries)):
        raise InvalidInputError("matrix is not exactly symmetric")
    n = len(entries)
    # Jacobi commutes exactly with a power-of-two scaling, and scaling the
    # largest entry into [0.5, 1) keeps the squares in the norm and in the
    # convergence test from overflowing or underflowing.
    _, exponent = math.frexp(max(map(abs, chain.from_iterable(entries))))
    a = [[math.ldexp(x, -exponent) for x in row] for row in entries]
    tolerance = OFF_DIAGONAL_TOLERANCE * math.sqrt(math.fsum(x * x for row in a for x in row))
    v = [[float(i == j) for j in range(n)] for i in range(n)]

    for _ in range(MAX_SWEEPS):
        if _off_diagonal_mass(a) <= tolerance:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p][q] != 0.0:
                    _rotate(a, v, p, q)
    else:
        if _off_diagonal_mass(a) > tolerance:
            raise NumericalFailureError(
                f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps"
            )

    try:
        values = [math.ldexp(a[i][i], exponent) for i in range(n)]
    except OverflowError:
        raise InvalidInputError("eigenvalues overflow the float range") from None
    order = sorted(range(n), key=values.__getitem__, reverse=True)  # descending, stable on ties
    vectors = []
    for j in order:
        column = [row[j] for row in v]
        vectors.append([-x for x in column] if _leads_negative(column) else column)
    return EigenDecomposition(
        eigenvalues=np.array([values[j] for j in order]), eigenvectors=np.array(vectors)
    )
