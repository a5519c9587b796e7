"""Exception types shared across the package, and the one rule by which a
caller's values become float arrays. Each class's ``exit_code`` is the exit
status of a command that fails with it.

Every public function and constructor that takes arrays of numbers converts
them with ``float_array``, so ragged rows, values that numpy cannot convert
to float (strings, objects) and a wrong shape all raise InvalidInputError
(exit 3), never numpy's or Python's own errors. Each caller keeps only the
rules a shape cannot express: non-empty, square, finite, unit length.
"""

import numpy as np


class OrthoregError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InvalidInputError(OrthoregError, ValueError):
    """Malformed or out-of-contract input (wrong shape, non-finite, empty)."""

    exit_code = 3


def float_array(value, shape, message: str) -> np.ndarray:
    """``value`` as a float array of ``shape``, which has one entry per axis:
    a length, or None for any length. InvalidInputError(message) for ragged
    rows, values numpy cannot convert to float, or any other shape."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):  # ragged rows, strings, objects
        raise InvalidInputError(message) from None
    if a.ndim != len(shape) or not all(k is None or k == m for k, m in zip(shape, a.shape)):
        raise InvalidInputError(message)
    return a


class DegenerateGeometryError(OrthoregError):
    """The data does not determine the requested fit (e.g. all points identical,
    or the cloud spans a flat of too low a dimension for a unique hyperplane).

    When raised by a line or hyperplane fit, ``flat_dim``, ``flat_point`` and
    ``flat_basis`` describe the flat actually spanned by the data (a point,
    with a basis of shape (0, dim), when all points are identical).
    """

    exit_code = 4

    def __init__(self, message, flat_dim=None, flat_point=None, flat_basis=None):
        super().__init__(message)
        self.flat_dim = flat_dim
        self.flat_point = flat_point
        self.flat_basis = flat_basis


class NumericalFailureError(OrthoregError):
    """An iterative numerical procedure failed to converge."""

    exit_code = 5


class UsageError(OrthoregError):
    """The command line was valid syntax but asked for something impossible
    (unknown country, unreadable input file, inconsistent flags)."""

    exit_code = 2


class SchemaError(OrthoregError):
    """A required column is missing from tabular input."""

    exit_code = 3


class ParseError(OrthoregError):
    """A cell of tabular input could not be parsed as a finite number."""

    exit_code = 3
