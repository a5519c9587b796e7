import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthoreg import (
    DegenerateGeometryError,
    InvalidInputError,
    PointCloud,
    centroid,
    compare_ols_tls,
    eigen_symmetric,
    distance_point_to_line,
    distance_point_to_plane,
    fit_hyperplane,
    fit_line,
    ols_line,
    scatter_matrix,
    total_orthogonal_error,
    trajectory,
    v4_dataset,
)

from orthoreg.fitting import (
    _BLOCK,
    _SCATTER_BLOCK,
    FittedHyperplane,
    FittedLine,
    ResidualStats,
    _checked_distances,
    _column_means,
    _distances,
)

from _helpers import (
    best_candidate_line_sum_sq,
    exact_line_distance,
    exact_scatter,
    random_rotation,
    reference_line_distances,
    reference_plane_distances,
    same_up_to_sign,
)

SK_REFERENCE_NORMAL = np.array([0.6704, 0.7195, -0.1811])
PL_REFERENCE_NORMAL = np.array([-0.4083, -0.9059, 0.1123])


def sk_cloud():
    sk = next(s for s in v4_dataset() if s.country == "SK")
    return trajectory(sk)


def pl_cloud():
    pl = next(s for s in v4_dataset() if s.country == "PL")
    return trajectory(pl)


def _traced_peak(call):
    """Bytes allocated at the peak of ``call()``, above what was live before."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPointCloud:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            PointCloud(np.empty((0, 2)))
        with pytest.raises(InvalidInputError):
            PointCloud([[1.0, np.inf]])
        with pytest.raises(InvalidInputError):
            PointCloud([[1.0, 2.0]], labels=("a", "b"))
        cloud = PointCloud([[1, 2], [3, 4]], labels=("p", "q"))
        assert cloud.dim == 2 and len(cloud) == 2
        assert cloud.points.dtype == float

    def test_ragged_rows_are_rejected(self):
        with pytest.raises(InvalidInputError, match=r"^points must be a 2-D array of shape \(n, dim\)$"):
            PointCloud([[1.0, 2.0], [3.0]])

    def test_nan_is_rejected(self):
        with pytest.raises(InvalidInputError, match="point coordinates must be finite"):
            PointCloud([[1.0, 2.0], [np.nan, 3.0]])

    def test_c_ordered_points_are_kept_and_other_layouts_copied(self):
        """A C-ordered float64 array is the cloud's points; any other layout
        or dtype is copied once to a C-ordered float64 array of its values."""
        points = np.random.default_rng(3).normal(size=(50, 3))
        assert PointCloud(points).points is points
        for other in list(_layouts(points).values())[1:] + [points.astype(np.float32)]:
            kept = PointCloud(other).points
            assert kept is not other and kept.flags.c_contiguous and kept.dtype == float
            assert (kept == other).all()

    def test_a_fortran_ordered_integer_array_is_copied_once(self):
        """Conversion to float and to C order is one copy, not two."""
        points = np.asfortranarray(np.arange(3_000_000).reshape(-1, 3))
        assert _traced_peak(lambda: PointCloud(points)) <= points.nbytes + 2**20

    def test_validation_allocates_no_mask(self):
        """The finiteness check allocates less than a bool per coordinate."""
        points = np.random.default_rng(0).normal(size=(100_000, 3))
        assert _traced_peak(lambda: PointCloud(points)) < points.size // 2

    def test_from_columns(self):
        cloud = PointCloud.from_columns([1, 2], [3, 4], labels=("a", "b"))
        assert (cloud.points == [[1.0, 3.0], [2.0, 4.0]]).all()
        with pytest.raises(InvalidInputError):
            PointCloud.from_columns([1, 2], [3.0])
        with pytest.raises(InvalidInputError, match="^no columns$"):
            PointCloud.from_columns()


class TestCentroidAndScatter:
    def test_single_point(self):
        cloud = PointCloud([[7.0, -2.0]])
        assert (centroid(cloud) == [7.0, -2.0]).all()
        assert (scatter_matrix(cloud) == np.zeros((2, 2))).all()

    def test_five_point_centroid(self, five_points_cloud):
        assert (centroid(five_points_cloud) == [4.0, 5.0]).all()

    def test_five_point_scatter(self, five_points_cloud):
        expected = np.array([[20.0, 9.0], [9.0, 20.0]])
        assert np.abs(scatter_matrix(five_points_cloud) - expected).max() < 1e-12

    def test_two_point_scatter(self):
        cloud = PointCloud([[0.0, 0.0], [2.0, 0.0]])
        assert np.allclose(scatter_matrix(cloud), [[2.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("n", [1, 2, 7, 129, _BLOCK - 1, _BLOCK + 1, 40_000])
    def test_scatter_is_exactly_symmetric(self, n):
        """``eigen_symmetric`` rejects inexact symmetry, so every scatter
        matrix the fits hand it must be exactly symmetric: C-order,
        Fortran-order and strided points, offset up to 1e8."""
        rng = np.random.default_rng(n)
        for dim in range(1, 9):
            shift = rng.choice([-1.0, 1.0], dim) * 10.0 ** rng.uniform(0, 8, dim)
            base = rng.normal(size=(n, 2 * dim)) * 10.0 ** rng.uniform(-3, 3, 2 * dim)
            for points in (
                base[:, :dim] + shift,
                np.asfortranarray(base[:, :dim] + shift),
                (base + np.tile(shift, 2))[:, ::2],
            ):
                s = scatter_matrix(PointCloud(points))
                assert (s == s.T).all()

    def test_centroid_allocates_no_centred_copy(self):
        """The centre needs only the column sums and row 0 less the mean."""
        points = np.random.default_rng(0).normal(size=(100_000, 3))
        assert _traced_peak(lambda: centroid(PointCloud(points))) < points.nbytes // 2

    def test_sk_centroid_matches_reference(self):
        assert np.abs(centroid(sk_cloud()) - [13.8714, 4.5571, 9.1429]).max() < 1e-4

    def test_centroid_is_the_column_mean_to_the_bit(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n, dim = int(rng.integers(1, 300)), int(rng.integers(1, 6))
            points = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-150, 150, dim)
            points += rng.normal(size=dim) * 10.0 ** float(rng.uniform(-150, 150))
            expected = np.where((points == points[0]).all(axis=0), points[0], points.mean(axis=0))
            assert centroid(PointCloud(points)).tobytes() == expected.tobytes()

    def test_centroid_is_the_fits_anchor_on_a_constant_column(self):
        points = np.column_stack([np.full(3, 3.0025617935164518e100), np.arange(3.0)])
        cloud = PointCloud(points)
        assert centroid(cloud)[0] == points[0, 0]
        assert centroid(cloud).tobytes() == fit_line(cloud).anchor.tobytes()

    def test_constant_column_near_the_float_maximum(self):
        points = np.array([[1.5e308, 0.0], [1.5e308, 1.0], [1.5e308, 2.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert centroid(PointCloud(points)).tolist() == [1.5e308, 3.5 / 3.0]
            line = fit_line(PointCloud(points))
            plane = fit_hyperplane(PointCloud(points))
        assert line.direction.tolist() == [0.0, 1.0]
        assert plane.normal.tolist() == [1.0, 0.0]
        assert line.error.sum_sq == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 200), st.sampled_from([-1.0, 1.0]), st.data())
    def test_constant_column_whose_sum_overflows(self, n, sign, data):
        largest = np.finfo(float).max
        value = data.draw(st.floats(min_value=largest / n * (1.0 + 1e-12), max_value=largest))
        points = np.column_stack([np.full(n, sign * value), np.arange(n, dtype=float)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert centroid(PointCloud(points))[0] == sign * value
            assert fit_line(PointCloud(points)).direction.tolist() == [0.0, 1.0]

    def test_centring_overflow_is_an_unresolvable_spread(self):
        points = np.array([[1.7e308, 0.0], [1.7e308, 1.0], [-1.7e308, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fit in (fit_line, fit_hyperplane, scatter_matrix):
                with pytest.raises(InvalidInputError, match="spread inf"):
                    fit(PointCloud(points))


def _fit_constant_x(value, n):
    """Line and plane fits and compare's report for the points (value, 0),
    (value, 1), ..., (value, n - 1), with warnings as errors; ols_line must
    find the xs constant."""
    x, y = np.full(n, value), np.arange(n, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = fit_line(PointCloud(np.column_stack([x, y])))
        plane = fit_hyperplane(PointCloud(np.column_stack([x, y])))
        with pytest.raises(DegenerateGeometryError, match="xs are constant"):
            ols_line(x, y)
        report = compare_ols_tls(x, y)
    return line, plane, report


class TestConstantColumn:
    """A constant column is centred on its value, even where the sum of its
    entries or the quotient by n rounds the mean off it."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 60), st.sampled_from([-1.0, 1.0]),
           st.floats(min_value=1e154, max_value=np.finfo(float).max))
    def test_beyond_the_resolvable_spread_of_its_mean(self, n, sign, value):
        line, plane, report = _fit_constant_x(sign * value, n)
        assert line.anchor[0] == plane.centroid[0] == sign * value
        assert report.ols is None

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 60), st.sampled_from([-1.0, 1.0]),
           st.floats(min_value=1e-300, max_value=1e154))
    @example(3, 1.0, 3.0025617935164518e100)
    def test_within_it_the_column_has_no_spread(self, n, sign, value):
        line, plane, report = _fit_constant_x(sign * value, n)
        assert line.anchor[0] == plane.centroid[0] == sign * value
        assert line.direction.tolist() == [0.0, 1.0]
        assert plane.normal.tolist() == [1.0, 0.0]
        assert line.error.sum_sq == plane.error.sum_sq == 0.0
        assert report.ols is None
        assert (report.conjugate.slope, report.conjugate.intercept) == (0.0, sign * value)


class TestFitLine:
    def test_exact_collinear(self):
        cloud = PointCloud([[0.0, 0, 0], [1, 1, 1], [2, 2, 2]])
        line = fit_line(cloud)
        assert np.abs(line.direction - np.ones(3) / np.sqrt(3)).max() < 1e-12
        assert line.error.sum_sq < 1e-24
        assert (line.anchor == [1.0, 1.0, 1.0]).all()

    def test_five_point_line(self, five_points_cloud):
        line = fit_line(five_points_cloud)
        assert (line.anchor == [4.0, 5.0]).all()
        assert np.abs(line.direction - np.array([1.0, 1.0]) / np.sqrt(2)).max() < 1e-9
        assert abs(line.error.sum_sq - 11.0) < 1e-9

    def test_too_few_points(self):
        with pytest.raises(InvalidInputError):
            fit_line(PointCloud([[1.0, 2.0]]))

    def test_one_dimensional_rejected(self):
        with pytest.raises(InvalidInputError):
            fit_line(PointCloud([[1.0], [2.0]]))

    def test_identical_points_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            fit_line(PointCloud([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("fit", [fit_line, fit_hyperplane])
def test_identical_points_span_a_point(fit, dim):
    point = np.random.default_rng(dim).normal(size=dim) * 1e3
    with pytest.raises(DegenerateGeometryError, match="0-dimensional flat") as info:
        fit(PointCloud(np.tile(point, (dim + 2, 1))))
    assert info.value.flat_dim == 0
    assert info.value.flat_point.tobytes() == point.tobytes()
    assert info.value.flat_basis.shape == (0, dim)


class TestFitHyperplane:
    def test_exact_plane(self):
        cloud = PointCloud([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        plane = fit_hyperplane(cloud)
        assert np.abs(plane.normal - [0.0, 0.0, 1.0]).max() < 1e-12
        assert plane.error.sum_sq < 1e-24
        assert abs(plane.normal @ plane.centroid + plane.offset) < 1e-12

    def test_sk_plane_matches_reference(self):
        plane = fit_hyperplane(sk_cloud())
        assert same_up_to_sign(plane.normal, SK_REFERENCE_NORMAL, 1e-3)

    def test_pl_plane_matches_reference(self):
        plane = fit_hyperplane(pl_cloud())
        assert same_up_to_sign(plane.normal, PL_REFERENCE_NORMAL, 1e-3)
        assert np.abs(plane.centroid - [13.1143, 5.5571, 17.8143]).max() < 1e-4

    def test_too_few_points(self):
        with pytest.raises(InvalidInputError):
            fit_hyperplane(PointCloud([[0.0, 0, 0], [1, 1, 1]]))

    def test_collinear_points_degenerate_with_flat(self):
        cloud = PointCloud([[0.0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3]])
        with pytest.raises(DegenerateGeometryError) as info:
            fit_hyperplane(cloud)
        err = info.value
        assert err.flat_dim == 1
        assert err.flat_basis.shape == (1, 3)
        assert same_up_to_sign(err.flat_basis[0], np.ones(3) / np.sqrt(3), 1e-9)
        assert np.allclose(err.flat_point, [1.5, 1.5, 1.5])

    def test_normal_orthogonal_to_leading_axes(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cloud = PointCloud(rng.normal(size=(8, 3)) * [3.0, 2.0, 0.2])
            plane = fit_hyperplane(cloud)
            dec = eigen_symmetric(scatter_matrix(cloud))
            for axis in dec.eigenvectors[:-1]:
                assert abs(float(axis @ plane.normal)) < 1e-10


class TestFittedFlats:
    STATS = ResidualStats.from_distances([0.0])

    @pytest.mark.parametrize("u", [[2.0, 0.0], [1.0 + 1e-11, 0.0], [0.0, 0.0], [np.nan, 1.0]])
    def test_vector_of_other_than_unit_length_rejected(self, u):
        with pytest.raises(InvalidInputError, match="^direction must be a unit vector$"):
            FittedLine(np.zeros(2), np.array(u), self.STATS)
        with pytest.raises(InvalidInputError, match="^normal must be a unit vector$"):
            FittedHyperplane(np.array(u), np.zeros(2), 0.0, self.STATS)

    @pytest.mark.parametrize("u", [[1.0, 0.0, 0.0], [1.0], [[1.0, 0.0]], 1.0])
    def test_vector_of_another_length_rejected(self, u):
        with pytest.raises(InvalidInputError, match="direction must be a vector of the anchor's length"):
            FittedLine(np.zeros(2), u, self.STATS)
        with pytest.raises(InvalidInputError, match="normal must be a vector of the centroid's length"):
            FittedHyperplane(u, np.zeros(2), 0.0, self.STATS)

    def test_unit_vectors_within_the_tolerance_are_kept(self):
        u = [0.6, 0.8 * (1.0 + 1e-13)]
        line = FittedLine([0, 0], u, self.STATS)
        assert line.direction.tolist() == u and line.anchor.dtype == float

    def test_fits_pass_the_check_and_round_trip_through_the_report_dict(self):
        from orthoreg.report import build_fit_report, report_from_dict, report_to_dict

        rng = np.random.default_rng(3)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            cloud = PointCloud(rng.normal(size=(12, dim)) * 10.0 ** rng.uniform(-3, 3, dim))
            for model in (fit_line(cloud), fit_hyperplane(cloud)):
                report = build_fit_report(cloud, model, "sum_abs", {})
                back = report_from_dict(report_to_dict(report)).model
                assert type(back) is type(model)
                for name in ("anchor", "direction", "normal", "centroid"):
                    if hasattr(model, name):
                        assert getattr(back, name).tobytes() == getattr(model, name).tobytes()

    @pytest.mark.parametrize("distances", [[], np.zeros((0, 2)), 1.0])
    def test_stats_need_a_non_empty_vector(self, distances):
        with pytest.raises(InvalidInputError, match="non-empty vector of distances"):
            ResidualStats.from_distances(distances)

    @pytest.mark.parametrize("origin", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0]])
    def test_non_finite_anchor_or_centroid_rejected(self, origin):
        with pytest.raises(InvalidInputError, match="^anchor must be finite$"):
            FittedLine(origin, [1.0, 0.0], self.STATS)
        with pytest.raises(InvalidInputError, match="^centroid must be finite$"):
            FittedHyperplane([1.0, 0.0], origin, 0.0, self.STATS)

    @pytest.mark.parametrize("distances", [[np.nan], [0.0, -1.0], [1.0, np.nan, 2.0], [-np.inf]])
    def test_stats_reject_nan_and_negative_distances(self, distances):
        with pytest.raises(InvalidInputError, match="^distances must be non-negative numbers$"):
            ResidualStats.from_distances(distances)

    def test_stats_keep_infinite_distances(self):
        stats = ResidualStats.from_distances([0.0, np.inf])
        assert stats.sum_abs == stats.sum_sq == np.inf


class TestDistances:
    def test_point_on_line(self, five_points_cloud):
        line = fit_line(five_points_cloud)
        on_line = line.anchor + 2.5 * line.direction
        assert distance_point_to_line(on_line, line) < 1e-12

    def test_five_point_line_distance(self, five_points_cloud):
        line = fit_line(five_points_cloud)  # y = x + 1
        assert abs(distance_point_to_line([1.0, 4.0], line) - np.sqrt(2)) < 1e-12

    def test_unit_offset_from_axis(self):
        line = fit_line(PointCloud([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]]))
        assert abs(distance_point_to_line([0.0, 0.0, 1.0], line) - 1.0) < 1e-12

    def test_dimension_mismatch(self, five_points_cloud):
        line = fit_line(five_points_cloud)
        with pytest.raises(InvalidInputError):
            distance_point_to_line([1.0, 2.0, 3.0], line)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, five_points_cloud, bad):
        line, plane = fit_line(five_points_cloud), fit_hyperplane(five_points_cloud)
        for distance, flat in ((distance_point_to_line, line), (distance_point_to_plane, plane)):
            with pytest.raises(InvalidInputError, match=f"^{distance.__name__}: coordinates"):
                distance([1.0, bad], flat)

    def test_line_distance_is_the_residual_bits(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            offset = rng.normal(size=dim) * 10.0 ** float(rng.uniform(0, 8))
            cloud = PointCloud(rng.normal(size=(int(rng.integers(2, 30)), dim)) + offset)
            line = fit_line(cloud)
            for p in cloud.points:
                single = total_orthogonal_error(PointCloud(p[None]), line).per_point_distance
                assert distance_point_to_line(p, line) == single[0]

    def test_point_distances_are_the_fit_bits(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            offset = rng.normal(size=dim) * 10.0 ** float(rng.uniform(0, 8))
            cloud = PointCloud(rng.normal(size=(int(rng.integers(dim, 30)), dim)) + offset)
            line, plane = fit_line(cloud), fit_hyperplane(cloud)
            for p, on_line, on_plane in zip(
                cloud.points, line.error.per_point_distance, plane.error.per_point_distance
            ):
                assert distance_point_to_line(p, line) == on_line
                assert distance_point_to_plane(p, plane) == on_plane

    def test_point_on_plane(self):
        plane = fit_hyperplane(PointCloud([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]))
        assert distance_point_to_plane([0.3, 0.4, 0.0], plane) < 1e-12
        assert abs(distance_point_to_plane([0.0, 0.0, 5.0], plane) - 5.0) < 1e-12
        with pytest.raises(InvalidInputError):
            distance_point_to_plane([1.0, 2.0], plane)

    def test_sk_distances_aggregate_to_reference_error(self):
        cloud = sk_cloud()
        plane = fit_hyperplane(cloud)
        summed = sum(distance_point_to_plane(p, plane) for p in cloud.points)
        assert abs(summed - 4.2633) < 1e-3


class TestTotalOrthogonalError:
    def test_exact_fit_zero(self):
        cloud = PointCloud([[0.0, 0], [1, 1], [2, 2]])
        line = fit_line(cloud)
        assert total_orthogonal_error(cloud, line).sum_sq < 1e-24

    def test_five_point_minimum(self, five_points_cloud):
        line = fit_line(five_points_cloud)
        stats = total_orthogonal_error(five_points_cloud, line)
        assert abs(stats.sum_sq - 11.0) < 1e-9

    def test_sk_reference_error(self):
        cloud = sk_cloud()
        stats = total_orthogonal_error(cloud, fit_hyperplane(cloud))
        assert abs(stats.sum_abs - 4.2633) < 1e-3

    def test_aggregates_consistent(self, five_points_cloud):
        stats = total_orthogonal_error(five_points_cloud, fit_line(five_points_cloud))
        d = stats.per_point_distance
        assert (d >= 0).all()
        assert abs(stats.sum_sq - float(d @ d)) <= 1e-12 * stats.sum_sq
        assert stats.rms == pytest.approx(np.sqrt(stats.sum_sq / len(d)), rel=1e-15)
        assert stats.root_sum_sq == pytest.approx(np.sqrt(stats.sum_sq), rel=1e-15)

    def test_dimension_mismatch(self, five_points_cloud):
        line3d = fit_line(PointCloud([[0.0, 0, 0], [1, 1, 1]]))
        with pytest.raises(InvalidInputError):
            total_orthogonal_error(five_points_cloud, line3d)
        with pytest.raises(InvalidInputError):
            total_orthogonal_error(five_points_cloud, "not a model")

    def test_reproduces_model_error_bits(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            cloud = PointCloud(rng.normal(size=(12, dim)) + rng.normal(size=dim) * 5.0)
            for model in (fit_line(cloud), fit_hyperplane(cloud)):
                stats = total_orthogonal_error(cloud, model)
                distances = stats.per_point_distance
                assert distances.tobytes() == model.error.per_point_distance.tobytes()
                assert stats.sum_abs == model.error.sum_abs

    def test_plane_offset_far_from_the_origin(self):
        """Distances are taken about the centroid, not as normal.p + offset,
        which cancels at 1e8 and loses every digit of a 1e-15 distance."""
        rng = np.random.default_rng(3)
        points = np.column_stack(
            [rng.normal(size=20), rng.normal(size=20), 1e-6 * rng.normal(size=20)]
        ) + 1e8
        cloud = PointCloud(points)
        plane = fit_hyperplane(cloud)
        assert total_orthogonal_error(cloud, plane).sum_abs == plane.error.sum_abs
        p = plane.centroid.copy()
        p[0] = np.nextafter(p[0], np.inf)
        exact = abs(sum(
            Fraction(float(n)) * (Fraction(float(a)) - Fraction(float(c)))
            for n, a, c in zip(plane.normal, p, plane.centroid)
        ))
        assert exact > 0
        assert distance_point_to_plane(p, plane) == pytest.approx(float(exact), rel=1e-12)

    def test_metric_lookup(self, five_points_cloud):
        stats = total_orthogonal_error(five_points_cloud, fit_line(five_points_cloud))
        assert stats.metric("sum_abs") == stats.sum_abs
        with pytest.raises(InvalidInputError):
            stats.metric("median")


def _offset_cloud_and_line(n, dim):
    """A random cloud far from the origin, and a line's origin and unit
    direction near it."""
    rng = np.random.default_rng(n * 10 + dim)
    offset = rng.normal(size=dim) * 10.0 ** float(rng.uniform(0, 8))
    cloud = PointCloud(rng.normal(size=(n, dim)) * rng.uniform(0.1, 3.0, size=dim) + offset)
    origin = rng.normal(size=dim) + offset
    u = rng.normal(size=dim)
    return cloud, origin, u / np.linalg.norm(u)


class TestBlockedResiduals:
    """The residual pass takes row blocks, and a line's in coordinate-major
    form; across block edges its bits are those of the unblocked row-major
    expressions in ``_helpers`` wherever numpy adds a row's squares one by
    one, that is for fewer than 8 coordinates."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7])
    def test_same_bits_as_one_unblocked_pass(self, n, dim):
        cloud, origin, u = _offset_cloud_and_line(n, dim)
        assert (_distances(cloud.points, origin, u, True).tobytes()
                == reference_line_distances(cloud.points, origin, u).tobytes())
        assert (_distances(cloud.points, origin, u, False).tobytes()
                == reference_plane_distances(cloud.points, origin, u).tobytes())
        if n < dim:
            return
        line, plane = fit_line(cloud), fit_hyperplane(cloud)
        cases = [
            (line, reference_line_distances(cloud.points, line.anchor, line.direction)),
            (plane, reference_plane_distances(cloud.points, plane.centroid, plane.normal)),
        ]
        for model, expected in cases:
            expected = ResidualStats.from_distances(expected)
            for stats in (model.error, total_orthogonal_error(cloud, model)):
                assert stats.per_point_distance.tobytes() == expected.per_point_distance.tobytes()
                assert (stats.sum_sq, stats.sum_abs) == (expected.sum_sq, expected.sum_abs)

    @pytest.mark.parametrize("dim", [8, 9, 10])
    def test_eight_or_more_coordinates_within_a_few_ulps(self, dim):
        """From 8 terms on, numpy adds a row's squares pairwise, while the pass
        adds them one by one. Either order is within dim - 1 roundings of the
        exact sum of the non-negative squares, so the two sums differ by at
        most 2 (dim - 1) * 2**-53 relatively; the square root halves that and
        rounds each once more. An ulp is at least 2**-53 of the distance."""
        cloud, origin, u = _offset_cloud_and_line(2 * _BLOCK + 7, dim)
        got = _distances(cloud.points, origin, u, True)
        expected = reference_line_distances(cloud.points, origin, u)
        assert (np.abs(got - expected) <= (dim + 1) * np.spacing(expected)).all()

    @pytest.mark.parametrize("dim", [2, 3, 7, 9])
    def test_rescue_adds_the_squares_in_the_same_order(self, dim):
        """``_checked_distances`` keeps ``_distances``' bits on the rows that need
        no rescue. Rows scaled by 2**1000 have squares beyond the float range;
        the rescue scales them back by powers of two, which is exact, so it
        finds the unscaled distances times 2**1000 to the bit."""
        rng = np.random.default_rng(dim)
        near = rng.normal(size=(40, dim))
        origin = np.zeros(dim)
        u = rng.normal(size=dim)
        u /= np.linalg.norm(u)
        expected = _distances(near, origin, u, True)
        got = _checked_distances(np.vstack((near, np.ldexp(near, 1000))), origin, u, True)
        assert got[:40].tobytes() == expected.tobytes()
        assert got[40:].tobytes() == np.ldexp(expected, 1000).tobytes()

    @pytest.mark.parametrize("line", [True, False])
    def test_a_rescued_row_has_the_same_bits_alone_and_in_a_group(self, line):
        """numpy takes a one-row ``q @ u`` as a vector dot, with other bits
        than the matrix-vector product of several rows, so a lone far row is
        rescued as two copies of itself. A line's rows at 2**1000 have
        squares beyond the float range; a plane's rows lie across the origin
        from a far ``origin``, so that ``p - origin`` overflows."""
        rng = np.random.default_rng(1)
        for trial in range(200):
            dim = 2 + trial % 4
            if line:
                points, origin = rng.normal(size=(3, dim)) * 2.0**1000, np.zeros(dim)
            else:
                points = rng.uniform(1.0, 1.9, size=(3, dim)) * 2.0**1023
                origin = -rng.uniform(1.0, 1.9, size=dim) * 2.0**1023
            u = rng.normal(size=dim)
            u /= np.linalg.norm(u)
            with np.errstate(over="ignore", invalid="ignore"):
                assert not np.isfinite(_distances(points, origin, u, line)).any()
            alone = [_checked_distances(p[None], origin, u, line) for p in points]
            group = _checked_distances(points, origin, u, line)
            assert np.concatenate(alone).tobytes() == group.tobytes()


#: The layouts of ``_layouts``.
LAYOUTS = ("C", "F", "sliced", "strided", "reversed")


def _layouts(points):
    """``points`` as a C-ordered array, a Fortran-ordered copy, views of the
    first columns and of every other column of a wider array, and a view
    with a negative row stride: the same values in every layout."""
    sliced = np.hstack((points, points))[:, : points.shape[1]]
    strided = np.repeat(points, 2, axis=1)[:, ::2]
    reversed_rows = points[::-1].copy()[::-1]
    views = (points, np.asfortranarray(points), sliced, strided, reversed_rows)
    return dict(zip(LAYOUTS, views))


def _per_block_distances(points, origin, u, line):
    """``_distances`` as it took each row block with plain numpy
    expressions: ``points[i:j] - origin``, then ``q @ u``."""
    if points.shape[0] == 1:
        return _per_block_distances(np.vstack((points, points)), origin, u, line)[:1]
    n = points.shape[0]
    d = np.empty(n)
    i = 0
    while i < n:
        j = i + _BLOCK if n - i > _BLOCK + 1 else n
        q = points[i:j] - origin
        if line:
            r = q.T - np.multiply.outer(u, q @ u)
            r *= r
            np.sqrt(np.add.reduce(r, axis=0, out=d[i:j]), out=d[i:j])
        else:
            d[i:j] = np.abs(q @ u)
        i = j
    return d


class TestRowMajorPasses:
    """The n-row passes of a fit run their loops down the rows of the
    C-ordered points, with numpy's operations in numpy's order, so every
    result keeps the bits of the plain expressions; a cloud in any other
    layout is copied to C order first and gets the same bits."""

    @pytest.mark.parametrize("n", [1, 2, 7, _BLOCK + 1, 100_000])
    def test_column_sums_are_add_reduce_to_the_bit(self, n):
        rng = np.random.default_rng(n)
        for dim in range(1, 10):
            offset = rng.choice([-1e8, 0.0, 1e8], size=dim)
            points = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3, dim) + offset
            expected = np.add.reduce(points, axis=0) / n
            assert _column_means(points).tobytes() == expected.tobytes(), dim
            # regression's 1-D coordinates
            assert _column_means(points[:, 0]) == np.add.reduce(points[:, 0]) / n

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_a_column_sum_that_overflows_takes_the_scaled_path(self, layout):
        n = 9
        points = np.column_stack([np.full(n, 1.5e308), np.linspace(1e308, 1.7e308, n),
                                  np.arange(n, dtype=float)])
        points = _layouts(points)[layout]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = centroid(PointCloud(points))
        assert c[0] == 1.5e308
        assert c[1] == pytest.approx(1.35e308, rel=1e-15)
        assert c[2] == 4.0

    @pytest.mark.parametrize("n", [1, 2, _BLOCK, _BLOCK + 1, _BLOCK + 2, 2 * _BLOCK + 1])
    def test_residual_pass_keeps_the_per_block_bits(self, n):
        for dim in range(2, 10):
            cloud, origin, u = _offset_cloud_and_line(n, dim)
            for line in (True, False):
                got = _distances(cloud.points, origin, u, line)
                expected = _per_block_distances(cloud.points, origin, u, line)
                assert got.tobytes() == expected.tobytes(), (dim, line)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n, dim", [(5, 2), (300, 3), (_BLOCK + 1, 5), (2 * _BLOCK + 1, 9),
                                        (_SCATTER_BLOCK - 1, 5), (_SCATTER_BLOCK, 4)])
    def test_fits_keep_the_add_reduce_bits(self, layout, n, dim):
        """In every layout, a fit is the mean by ``np.add.reduce`` of the
        C-ordered points ``a``, ``b = a - c``, the eigenvectors of
        ``b.T @ b`` and the per-block residual pass over ``a``. The scatter
        pass takes up to ``_SCATTER_BLOCK`` points as one block, so there it
        has the bits of ``b.T @ b``."""
        a = _offset_cloud_and_line(n, dim)[0].points
        c = np.add.reduce(a, axis=0) / n
        b = a - c
        axes = eigen_symmetric(b.T @ b).eigenvectors
        points = _layouts(a)[layout]
        cloud = PointCloud(points)
        assert centroid(cloud).tobytes() == c.tobytes()
        assert scatter_matrix(cloud).tobytes() == (b.T @ b).tobytes()
        line, plane = fit_line(cloud), fit_hyperplane(cloud)
        rows = sorted({0, n // 2, n - 1})
        cases = ((line, line.anchor, line.direction, distance_point_to_line, True),
                 (plane, plane.centroid, plane.normal, distance_point_to_plane, False))
        for model, origin, u, point_distance, is_line in cases:
            assert origin.tobytes() == c.tobytes()
            assert u.tobytes() == (axes[0] if is_line else axes[-1]).tobytes()
            expected = _per_block_distances(a, c, u, is_line)
            assert model.error.per_point_distance.tobytes() == expected.tobytes()
            total = total_orthogonal_error(cloud, model)
            assert total.per_point_distance.tobytes() == expected.tobytes()
            for k in rows:
                alone = _per_block_distances(a[k : k + 1], c, u, is_line)[0]
                assert point_distance(points[k], model) == alone, k


class TestScatterBlocks:
    """Beyond ``_SCATTER_BLOCK`` points the scatter matrix is a sum of block
    products: exactly symmetric, and within the rounding of ``b.T @ b``."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n", [_SCATTER_BLOCK + 1, 3 * _SCATTER_BLOCK + 5])
    def test_a_sum_of_block_products_is_within_the_rounding_of_one(self, layout, n):
        """Any order of adding the n products of an entry, each rounded once,
        is within gamma_n = n eps / (1 - n eps) of the exact sum relative to
        the sum of the products' moduli (Higham, Accuracy and Stability of
        Numerical Algorithms, 3.1), eps = 2**-53; so two such orders are
        within 2 gamma_n of each other. The moduli's sum, taken in floats,
        is at least (1 - gamma_n) of the exact one."""
        for dim in (2, 3, 5):
            points = _layouts(_offset_cloud_and_line(n, dim)[0].points)[layout]
            b = points - centroid(PointCloud(points))
            s = scatter_matrix(PointCloud(points))
            assert (s == s.T).all()
            gamma = n * 2.0**-53 / (1.0 - n * 2.0**-53)
            moduli = np.abs(b).T @ np.abs(b)
            assert (np.abs(s - b.T @ b) <= 2.0 * gamma / (1.0 - gamma) * moduli).all(), dim

    @pytest.mark.parametrize("n", [_SCATTER_BLOCK + 1, 3 * _SCATTER_BLOCK + 5])
    def test_a_far_row_in_the_last_block_is_an_unresolvable_spread(self, n):
        """The spread rule reads the whole cloud's spread after the pass, with
        the message of the centred copy's spread, and the pass's overflow
        (the far row's square) raises no RuntimeWarning."""
        points = np.random.default_rng(n).normal(size=(n, 3))
        points[-1] = [1e200, 0.0, -1e200]
        b = points - points.mean(axis=0)
        spread = max(float(b.max()), -float(b.min()))
        message = (f"points spread {spread:.3g} about their centroid; a scatter matrix "
                   "needs a spread between about 1e-153 and 1e153")
        assert spread > 1e199
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fit in (fit_line, fit_hyperplane, scatter_matrix):
                with pytest.raises(InvalidInputError) as raised:
                    fit(PointCloud(points))
                assert str(raised.value) == message


class TestExactScatter:
    """Beyond ``_SCATTER_BLOCK`` points, the scatter pass against the exact
    scatter matrix of the same centred floats (``_helpers.exact_scatter``)."""

    @pytest.mark.parametrize("n, dims", [(_SCATTER_BLOCK + 1, (1, 2, 3, 9)),
                                         (2 * _SCATTER_BLOCK + 1, (1, 2, 3, 5)),
                                         (3 * _SCATTER_BLOCK + 5, (1, 2, 3))])
    def test_each_entry_is_within_gamma_n_of_the_exact_sum(self, n, dims):
        """Any order of adding the n products of an entry, each rounded once,
        is within gamma_n = n eps / (1 - n eps) of the exact sum relative to
        the sum of the products' moduli (Higham, Accuracy and Stability of
        Numerical Algorithms, 3.1), eps = 2**-53; by Cauchy-Schwarz that sum
        is at most sqrt(S_rr S_kk). The reference rounds each entry once, and
        sqrt(S_rr) sqrt(S_kk) formed from its rounded diagonal is within four
        more roundings, so each entry is allowed gamma_(n+5) sqrt(S_rr S_kk)
        (Higham, lemma 3.3).
        The points lie up to 1e8 from the origin, and the scatter must be
        exactly symmetric."""
        rng = np.random.default_rng(n)
        for dim in dims:
            offset = rng.choice([-1.0, 1.0], dim) * 10.0 ** rng.uniform(6, 8, dim)
            points = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-1, 1, dim) + offset
            cloud = PointCloud(points)
            s = scatter_matrix(cloud)
            assert (s == s.T).all(), dim
            exact = exact_scatter(points - centroid(cloud))
            root = np.sqrt(np.diag(exact))
            m = n + 5
            gamma = m * 2.0**-53 / (1.0 - m * 2.0**-53)
            assert (np.abs(s - exact) <= gamma * np.multiply.outer(root, root)).all(), dim


class TestResidualMemory:
    """The fit's passes hold a few blocks of rows, not copies of the cloud:
    the scatter pass peaks at one ``_SCATTER_BLOCK`` buffer, and a fit and
    ``total_orthogonal_error`` at their distances."""

    N, DIM = 300_000, 3
    #: Four blocks of rows, plus room for small Python objects.
    SLACK = 4 * _BLOCK * DIM * 8 + 2**16

    @pytest.fixture(scope="class")
    def cloud(self):
        rng = np.random.default_rng(5)
        return PointCloud(rng.normal(size=(self.N, self.DIM)) * [3.0, 1.0, 0.1] + 1e3)

    def test_scatter_peaks_at_one_block(self, cloud):
        """One block's buffer, plus the 64 KiB buffer of numpy's ufunc loop
        and small Python objects."""
        block = _SCATTER_BLOCK * self.DIM * 8
        assert _traced_peak(lambda: scatter_matrix(cloud)) <= block + 2**17

    @pytest.mark.parametrize("fit", [fit_line, fit_hyperplane])
    def test_fit_peaks_at_its_distances(self, cloud, fit):
        assert _traced_peak(lambda: fit(cloud)) <= 8 * self.N + self.SLACK

    @pytest.mark.parametrize("fit", [fit_line, fit_hyperplane])
    def test_total_orthogonal_error_peaks_at_its_distances(self, cloud, fit):
        model = fit(cloud)
        peak = _traced_peak(lambda: total_orthogonal_error(cloud, model))
        assert peak <= 8 * self.N + self.SLACK


def _steep_line():
    return fit_line(PointCloud([[0.0, 0.0], [1.0, 3.0], [2.0, 6.1], [3.0, 8.9]]))


class TestFarPoints:
    """Distances whose squares, dot products or ``p - origin`` leave the
    float range are still found, without a RuntimeWarning, where they are
    representable; otherwise InvalidInputError, never inf or nan."""

    @pytest.mark.parametrize("p", [[1e200, -1e200], [1.5e308, 1e308], [1.6e308, 1.6e308]])
    def test_line_distance_beyond_the_squares_range(self, p):
        line = _steep_line()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = distance_point_to_line(p, line)
        assert d == pytest.approx(exact_line_distance(p, line.anchor, line.direction), rel=1e-12)

    def test_unrepresentable_distance_raises(self):
        line = fit_line(PointCloud([[0.0, 0.0], [1.0, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="float range"):
                distance_point_to_line([1.7e308, -1.7e308], line)
            with pytest.raises(InvalidInputError, match="float range"):
                distance_point_to_plane([1.7e308, -1.7e308], fit_hyperplane(PointCloud([[0.0, 0.0], [1.0, 1.0]])))

    def test_overflowing_sum_of_squares_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="squared distances"):
                total_orthogonal_error(PointCloud([[1.7e308, 0.0], [1.7e308, 1.0]]), _steep_line())

    def test_offset_beyond_the_float_range(self):
        """``p - origin`` overflows, yet the distance is small."""
        stats = ResidualStats.from_distances([0.0])
        line = FittedLine(np.array([-1e308, 0.0]), np.array([1.0, 0.0]), stats)
        plane = FittedHyperplane(np.array([0.0, 1.0]), np.array([-1e308, 2.0]), -2.0, stats)
        cloud = PointCloud([[1.7e308, 3.0], [1.7e308, 2.0], [0.0, 2.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert distance_point_to_line([1.7e308, 3.0], line) == 3.0
            assert distance_point_to_plane([1.7e308, 3.0], plane) == 1.0
            assert total_orthogonal_error(cloud, line).per_point_distance.tolist() == [3.0, 2.0, 2.5]
            assert total_orthogonal_error(cloud, plane).per_point_distance.tolist() == [1.0, 0.0, 0.5]


class TestGeometricInvariances:
    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(4, 10))
            points = rng.normal(size=(n, 3)) * [4.0, 2.0, 0.5]
            rotation = random_rotation(rng, 3)
            shift = rng.normal(size=3) * 5.0
            cloud = PointCloud(points)
            moved = PointCloud(points @ rotation.T + shift)

            line, moved_line = fit_line(cloud), fit_line(moved)
            rel = abs(moved_line.error.sum_sq - line.error.sum_sq) / (1 + line.error.sum_sq)
            assert rel < 1e-9
            assert same_up_to_sign(moved_line.direction, rotation @ line.direction, 1e-9)

            plane, moved_plane = fit_hyperplane(cloud), fit_hyperplane(moved)
            rel = abs(moved_plane.error.sum_sq - plane.error.sum_sq) / (1 + plane.error.sum_sq)
            assert rel < 1e-9
            assert same_up_to_sign(moved_plane.normal, rotation @ plane.normal, 1e-9)

    def test_coordinate_permutation_equivariance(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            points = rng.normal(size=(int(rng.integers(dim + 1, 9)), dim))
            perm = rng.permutation(dim)
            cloud = PointCloud(points)
            permuted = PointCloud(points[:, perm])

            direction = fit_line(cloud).direction
            assert same_up_to_sign(fit_line(permuted).direction, direction[perm], 1e-12)
            normal = fit_hyperplane(cloud).normal
            assert same_up_to_sign(fit_hyperplane(permuted).normal, normal[perm], 1e-12)

    def test_scaling(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            points = rng.normal(size=(6, 3))
            s = float(rng.uniform(0.1, 10.0))
            line = fit_line(PointCloud(points))
            scaled = fit_line(PointCloud(points * s))
            rel = abs(scaled.error.sum_sq - s * s * line.error.sum_sq) / (
                1 + s * s * line.error.sum_sq
            )
            assert rel < 1e-9
            assert same_up_to_sign(scaled.direction, line.direction, 1e-9)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            points = rng.normal(size=(7, 3))
            cloud = PointCloud(points)
            line = fit_line(cloud)
            rel_line = points - line.anchor
            feet = line.anchor + np.outer(rel_line @ line.direction, line.direction)
            residuals = points - feet
            assert np.abs(residuals @ line.direction).max() < 1e-10

            plane = fit_hyperplane(cloud)
            signed = (points - plane.centroid) @ plane.normal
            residuals = np.outer(signed, plane.normal)
            off_normal = residuals - np.outer(residuals @ plane.normal, plane.normal)
            assert np.abs(off_normal).max() < 1e-10

    def test_line_fit_beats_random_candidates(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            points = rng.normal(size=(n, 2)) * 3.0
            fitted = fit_line(PointCloud(points)).error.sum_sq
            assert fitted <= best_candidate_line_sum_sq(points, rng) + 1e-12


@st.composite
def _exact_clouds(draw):
    """4 or 8 points with integer coordinates in [-64, 64], not all identical.

    The centroid, the centred points and the scatter matrix are then exact,
    so scaling the cloud by 2**k scales each of them exactly.
    """
    dim = draw(st.integers(2, 3))
    n = draw(st.sampled_from([4, 8]))
    rows = draw(st.lists(
        st.lists(st.integers(-64, 64), min_size=dim, max_size=dim), min_size=n, max_size=n,
    ).filter(lambda rows: any(row != rows[0] for row in rows)))
    return np.array(rows, dtype=float)


def _axis_bits(fit, points):
    """The fitted axis as bytes, or the type of the error the fit raised."""
    try:
        model = fit(PointCloud(points))
    except (InvalidInputError, DegenerateGeometryError) as exc:
        return type(exc)
    return (model.direction if fit is fit_line else model.normal).tobytes()


class TestExtremeScales:
    """Fits of cloud * 2**k: Jacobi commutes with power-of-two scaling."""

    @settings(max_examples=150, deadline=None)
    @given(_exact_clouds(), st.integers(-500, 500))
    def test_same_axis_bits_within_the_resolvable_spread(self, points, k):
        for fit in (fit_line, fit_hyperplane):
            reference = _axis_bits(fit, points)
            assert reference is not InvalidInputError
            assert _axis_bits(fit, np.ldexp(points, k)) == reference

    @settings(max_examples=100, deadline=None)
    @given(_exact_clouds(), st.integers(520, 1000), st.sampled_from([-1, 1]))
    def test_beyond_the_resolvable_spread_raises(self, points, k, sign):
        for fit in (fit_line, fit_hyperplane):
            with pytest.raises(InvalidInputError, match="spread"):
                fit(PointCloud(np.ldexp(points, sign * k)))

    @pytest.mark.parametrize("k", [256, 300, 500, -280, -400, -500])
    def test_line_direction_at_scale(self, k):
        base = np.array([[0.0, 0.0], [1.0, 3.0], [2.0, 6.1], [3.0, 8.9]])
        reference = fit_line(PointCloud(base)).direction
        assert fit_line(PointCloud(base * 2.0**k)).direction.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("value", [1e-170, 1e200])
    def test_identical_points_stay_degenerate(self, value):
        points = np.full((3, 2), value)
        for fit in (fit_line, fit_hyperplane):
            with pytest.raises(DegenerateGeometryError):
                fit(PointCloud(points))
