"""Orthogonal-distance regression toolkit.

Fits lines and hyperplanes to n-dimensional point clouds by total least
squares (principal-axis decomposition of the centered scatter matrix),
contrasts the result with classical least squares, and applies the method to
state-space trajectories of national economies.
"""

from .eigen import EigenDecomposition, eigen_symmetric
from .errors import (
    DegenerateGeometryError,
    InvalidInputError,
    NumericalFailureError,
    OrthoregError,
    ParseError,
    SchemaError,
)
from .fitting import (
    DEFAULT_ERROR_METRIC,
    ERROR_METRICS,
    FittedHyperplane,
    FittedLine,
    PointCloud,
    ResidualStats,
    centroid,
    distance_point_to_line,
    distance_point_to_plane,
    fit_hyperplane,
    fit_line,
    scatter_matrix,
    total_orthogonal_error,
)
from .regression import (
    AffineLine2D,
    ComparisonReport,
    Orientation,
    compare_ols_tls,
    conjugate_line,
    ols_line,
)
from .economy import (
    EconomyIndicators,
    EconomyPlane,
    IndicatorSeries,
    economy_indicators,
    economy_plane,
    plane_angle,
    plane_slopes,
    trajectory,
    v4_dataset,
)
from .synthetic import LineCloudSample, LineCloudSpec, generate_line_cloud

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "OrthoregError",
    "InvalidInputError",
    "DegenerateGeometryError",
    "NumericalFailureError",
    "SchemaError",
    "ParseError",
    # eigen
    "EigenDecomposition",
    "eigen_symmetric",
    # fitting
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
    "ERROR_METRICS",
    "DEFAULT_ERROR_METRIC",
    # classical regression
    "AffineLine2D",
    "Orientation",
    "ComparisonReport",
    "ols_line",
    "conjugate_line",
    "compare_ols_tls",
    # economy
    "IndicatorSeries",
    "EconomyPlane",
    "EconomyIndicators",
    "v4_dataset",
    "trajectory",
    "economy_plane",
    "plane_angle",
    "plane_slopes",
    "economy_indicators",
    # synthetic
    "LineCloudSpec",
    "LineCloudSample",
    "generate_line_cloud",
]
