"""Exception types shared across the package. Each class's ``exit_code`` is
the exit status of a command that fails with it."""


class OrthoregError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InvalidInputError(OrthoregError, ValueError):
    """Malformed or out-of-contract input (wrong shape, non-finite, empty)."""

    exit_code = 3


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
