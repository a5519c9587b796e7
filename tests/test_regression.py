import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orthoreg import (
    AffineLine2D,
    DegenerateGeometryError,
    InvalidInputError,
    Orientation,
    compare_ols_tls,
    conjugate_line,
    ols_line,
)

from orthoreg.regression import angle_between_lines_deg

from _helpers import angle_error_bound_deg, directions_at_angle, reference_angle_deg, same_up_to_sign


class TestOlsLine:
    def test_five_point_reference(self, five_points_xy):
        line = ols_line(*five_points_xy)
        assert abs(line.slope - 0.45) < 1e-12
        assert abs(line.intercept - 3.2) < 1e-12
        assert line.orientation is Orientation.Y_ON_X

    def test_two_point_interpolation(self):
        line = ols_line([0.0, 1.0], [0.0, 1.0])
        assert line.slope == 1.0 and line.intercept == 0.0

    def test_flat_data(self):
        line = ols_line([0.0, 1.0, 2.0], [5.0, 5.0, 5.0])
        assert line.slope == 0.0 and line.intercept == 5.0

    def test_constant_xs_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            ols_line([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            ols_line([1.0, 2.0], [1.0])

    def test_passes_through_centroid(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.normal(size=6) * 3.0
            y = rng.normal(size=6) * 3.0
            line = ols_line(x, y)
            assert abs(y.mean() - (line.slope * x.mean() + line.intercept)) < 1e-10


class TestConjugateLine:
    def test_five_point_reference(self, five_points_xy):
        line = conjugate_line(*five_points_xy)
        assert abs(line.slope - 0.45) < 1e-12
        assert abs(line.intercept - 1.75) < 1e-12
        assert line.orientation is Orientation.X_ON_Y

    def test_two_point_interpolation(self):
        line = conjugate_line([0.0, 1.0], [0.0, 1.0])
        assert line.slope == 1.0 and line.intercept == 0.0

    def test_symmetric_cross(self):
        line = conjugate_line([-1.0, 1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 1.0])
        assert line.slope == 0.0 and line.intercept == 0.0

    def test_constant_ys_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            conjugate_line([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])


class TestCompare:
    def test_five_point_reference(self, five_points_xy):
        report = compare_ols_tls(*five_points_xy)
        assert abs(report.ols.slope - 0.45) < 1e-12
        assert abs(report.ols.intercept - 3.2) < 1e-12
        assert abs(report.conjugate.slope - 0.45) < 1e-12
        assert abs(report.conjugate.intercept - 1.75) < 1e-12
        # orthogonal fit is y = x + 1
        assert (report.tls.anchor == [4.0, 5.0]).all()
        assert same_up_to_sign(report.tls.direction, np.ones(2) / np.sqrt(2), 1e-9)
        assert (report.centroid == [4.0, 5.0]).all()
        assert report.tls_between_scissors is True

    def test_one_point_rejected(self):
        with pytest.raises(InvalidInputError, match="^need at least 2 points$"):
            compare_ols_tls([1.0], [2.0])

    def test_collinear_all_lines_coincide(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = 2.0 * x + 1.0
        report = compare_ols_tls(x, y)
        assert abs(report.ols.slope - 2.0) < 1e-10
        assert abs(report.ols.intercept - 1.0) < 1e-10
        # conjugate x = 0.5 y - 0.5 is the same geometric line
        assert abs(report.conjugate.slope - 0.5) < 1e-10
        assert abs(report.conjugate.intercept + 0.5) < 1e-10
        direction = report.tls.direction
        expected = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert same_up_to_sign(direction, expected, 1e-10)
        assert report.angle_ols_conjugate_deg < 1e-5
        assert report.angle_ols_tls_deg < 1e-5

    def test_balanced_spread_gives_diagonal(self):
        # swap-symmetric cloud: Sxx == Syy, so the orthogonal slope is +-1
        rng = np.random.default_rng(8)
        base = rng.normal(size=(5, 2))
        points = np.vstack([base, base[:, ::-1]])
        report = compare_ols_tls(points[:, 0], points[:, 1])
        dx, dy = report.tls.direction
        assert abs(abs(dx) - abs(dy)) < 1e-9

    def test_vertical_data_marks_ols_unavailable(self):
        report = compare_ols_tls([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
        assert report.ols is None
        assert report.conjugate is not None
        assert same_up_to_sign(report.tls.direction, np.array([0.0, 1.0]), 1e-12)
        assert report.angle_ols_tls_deg is None
        assert report.tls_between_scissors is None

    def test_constant_x_near_the_float_maximum(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compare_ols_tls([1.5e308] * 3, [0.0, 1.0, 2.5])
        assert report.centroid.tolist() == [1.5e308, 3.5 / 3.0]
        assert report.ols is None
        assert (report.conjugate.slope, report.conjugate.intercept) == (0.0, 1.5e308)
        assert report.tls.direction.tolist() == [0.0, 1.0]

    def test_all_identical_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            compare_ols_tls([1.0, 1.0], [2.0, 2.0])

    def test_classical_lines_match_standalone_fits(self):
        # compare_ols_tls computes the moments once; the lines it reports must
        # be exactly those of ols_line and conjugate_line.
        rng = np.random.default_rng(61)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            x = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3) + rng.normal() * 1e4
            y = 0.3 * x + rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
            report = compare_ols_tls(x, y)
            assert report.ols == ols_line(x, y)
            assert report.conjugate == conjugate_line(x, y)
            assert report.centroid.tobytes() == np.array([np.mean(x), np.mean(y)]).tobytes()
        report = compare_ols_tls([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
        assert report.ols is None
        assert report.conjugate == conjugate_line([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
        report = compare_ols_tls([0.0, 1.0, 2.0], [5.0, 5.0, 5.0])
        assert report.conjugate is None
        assert report.ols == ols_line([0.0, 1.0, 2.0], [5.0, 5.0, 5.0])


class TestSpreadRule:
    """Each coordinate of the classical lines must have a spread a sum of
    squares can resolve (as for the fits), or be constant."""

    @pytest.mark.parametrize("xs, ys", [
        ([1e200, -1e200, 0.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0], [1e200, -1e200, 0.0]),
        ([0.0, 1e-170, 3e-170], [0.0, 1.0, 2.0]),
        ([0.0, 1.0, 2.0], [0.0, 1e-170, 3e-170]),
    ], ids=["huge-x", "huge-y", "tiny-x", "tiny-y"])
    def test_unresolvable_spread_raises(self, xs, ys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fit in (ols_line, conjugate_line, compare_ols_tls):
                with pytest.raises(InvalidInputError, match="spread"):
                    fit(xs, ys)


class TestSteepLines:
    """A slope whose square overflows still gives a unit direction."""

    @pytest.mark.parametrize("slope", [
        3.0, -1e100, 1.3407807929942596e154, 1.3407807929942597e154, -1e200,
        1.7976931348623157e308,
    ])
    def test_direction(self, slope):
        for orientation in Orientation:
            along = [1.0, slope] if orientation is Orientation.Y_ON_X else [slope, 1.0]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                direction = AffineLine2D(slope, 0.0, orientation).direction()
            if math.isinf(slope * slope):
                assert direction.tolist() == [x / abs(slope) for x in along]
                assert math.hypot(*direction) == 1.0
            else:
                d = np.array(along)
                assert direction.tobytes() == (d / np.linalg.norm(d)).tobytes()

    def test_compare(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compare_ols_tls([0.0, 1e-150, 2e-150], [0.0, 1e150, 3e150])
        assert report.ols.slope == 1.5e300
        assert report.ols.direction().tolist() == [1.0 / 1.5e300, 1.0]
        angles = (report.angle_ols_conjugate_deg, report.angle_ols_tls_deg,
                  report.angle_conjugate_tls_deg)
        assert all(0.0 <= a <= 1e-100 for a in angles)
        assert report.tls_between_scissors is True


@st.composite
def _thin_clouds(draw):
    """2 to 8 points about the origin, one coordinate squeezed by up to 1e-16:
    clouds near vertical, near horizontal, and (unsqueezed) anywhere."""
    n = draw(st.integers(2, 8))
    coordinate = st.floats(-10.0, 10.0)
    along = draw(st.lists(coordinate, min_size=n, max_size=n))
    across = draw(st.lists(coordinate, min_size=n, max_size=n))
    lean = draw(st.floats(-2.0, 2.0))
    scale = 10.0 ** draw(st.integers(-16, 0))
    thin = [scale * (a + lean * t) for t, a in zip(along, across)]
    return (thin, along) if draw(st.booleans()) else (along, thin)


class TestScissors:
    """The orthogonal line lies between the two classical lines, also where
    inclinations wrap at vertical: a line a hair past it reads about -90
    degrees, one a hair short of it 90."""

    @settings(max_examples=300, deadline=None)
    @given(_thin_clouds())
    # Both classical lines a hair short of vertical, the orthogonal one past it.
    @example(([4.532046469838416e-15, 1.2381093964760504e-13, 5.615780163032626e-14],
              [10.915277865864471, 3.114825613362102, -4.394389030275389]))
    @example(([0.0, -1e-15], [0.0, 1.0]))
    # A covariance of rounding size: the classical lines lie along the axes,
    # and the orthogonal line is exactly vertical.
    @example(([1.4388735938426587, 0.00020164295512421895, 0.3239119776314283],
              [0.4976524704995538, 0.012825777833487251, 1.5775243072511553]))
    def test_inside_whenever_both_classical_lines_exist(self, cloud):
        try:
            report = compare_ols_tls(*cloud)
        except (DegenerateGeometryError, InvalidInputError):
            assume(False)  # identical points, tied axes or an unresolvable spread
        assume(report.tls_between_scissors is not None)
        assert report.tls_between_scissors is True


class TestProperties:
    def test_centroid_incidence_all_lines(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            x = rng.normal(size=7) * 4.0 + rng.normal() * 3.0
            y = rng.normal(size=7) * 4.0 + rng.normal() * 3.0
            report = compare_ols_tls(x, y)
            xm, ym = x.mean(), y.mean()
            assert abs(ym - (report.ols.slope * xm + report.ols.intercept)) < 1e-10
            assert abs(xm - (report.conjugate.slope * ym + report.conjugate.intercept)) < 1e-10
            assert (report.tls.anchor == report.centroid).all()

    def test_offset_centres_agree_to_a_few_ulps(self):
        # From 8 values on, numpy sums a column pairwise and fit_line sums the
        # rows one by one, so far from the origin the two centres can differ.
        # Each rounded sum of 9 values is within about 3 ulps of the exact
        # mean; 4 is the largest difference seen in 20000 such clouds.
        rng = np.random.default_rng(23)
        differ = 0
        for _ in range(200):
            x = 1e8 + rng.normal(size=9) * 1e-6
            y = -3e7 + 0.3 * (x - 1e8) + rng.normal(size=9) * 1e-6
            report = compare_ols_tls(x, y)
            ulps = np.abs(report.tls.anchor - report.centroid) / np.spacing(np.abs(report.centroid))
            assert ulps.max() <= 8
            differ += (ulps > 0).any()
        assert differ > 0

    def test_scissors_betweenness(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            x = rng.normal(size=6) * 2.0
            y = 0.7 * x + rng.normal(size=6)
            report = compare_ols_tls(x, y)
            if report.tls_between_scissors is not None:
                assert report.tls_between_scissors is True

    def test_slope_product_cauchy_schwarz(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            x = rng.normal(size=6) * 2.0
            y = x + rng.normal(size=6) * 0.5  # noisy, never exactly collinear
            k = ols_line(x, y).slope
            c = conjugate_line(x, y).slope
            assert k * c <= 1.0 + 1e-12
        # equality only for exactly collinear data
        x = np.arange(5.0)
        y = 3.0 * x - 1.0
        assert ols_line(x, y).slope * conjugate_line(x, y).slope == pytest.approx(1.0, abs=1e-12)

    def test_tls_swap_invariance(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            x = rng.normal(size=6) * 2.0
            y = rng.normal(size=6) * 2.0
            direct = compare_ols_tls(x, y).tls
            swapped = compare_ols_tls(y, x).tls
            # the swapped fit describes the same geometric line with axes exchanged
            assert np.abs(swapped.anchor - direct.anchor[::-1]).max() < 1e-12
            assert same_up_to_sign(swapped.direction, direct.direction[::-1], 1e-10)

    def test_ols_beats_random_candidates(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            x = rng.normal(size=n) * 2.0
            if (x == x[0]).all():
                continue
            y = rng.normal(size=n) * 2.0
            line = ols_line(x, y)
            best = float(np.sum((y - line.slope * x - line.intercept) ** 2))
            ks = line.slope + rng.normal(size=10_000)
            bs = line.intercept + rng.normal(size=10_000)
            errs = ((y[None, :] - ks[:, None] * x[None, :] - bs[:, None]) ** 2).sum(axis=1)
            assert best <= float(errs.min()) + 1e-12


class TestAngleBetweenLines:
    """Angles between undirected directions, accurate down to the smallest."""

    def test_a_direction_makes_no_angle_with_itself(self):
        rng = np.random.default_rng(21)
        for _ in range(10_000):
            u = rng.normal(size=int(rng.integers(2, 6)))
            assert angle_between_lines_deg(u, u) == 0.0
            assert angle_between_lines_deg(u, -u) == 0.0

    def test_small_angles_keep_their_relative_accuracy(self):
        """The angle of ``[1, y]`` from the x-axis is atan(y)."""
        for y in np.logspace(-16, 0, 1601).tolist():
            expected = math.degrees(math.atan(y))
            got = angle_between_lines_deg([1.0, 0.0], [1.0, y])
            assert abs(got - expected) <= 1e-9, y
            if expected < 1e-3:
                assert abs(got - expected) <= 1e-14 * expected, y

    @pytest.mark.parametrize("dim", [2, 3])
    def test_angles_against_a_high_precision_reference(self, dim):
        """From 1e-12 to 90 degrees, within ``angle_error_bound_deg`` of the
        60-digit angle between the lines the float inputs span."""
        rng = np.random.default_rng(40 + dim)
        for theta in np.logspace(-12, math.log10(90.0), 600).tolist():
            u, v = directions_at_angle(rng, dim, theta)
            expected = reference_angle_deg(u, v)
            got = angle_between_lines_deg(u, v)
            assert abs(Decimal(got) - expected) <= angle_error_bound_deg(float(expected), dim), theta

    @pytest.mark.parametrize("u, v", [([1e200, 1e200], [1e200, -1e200]),
                                      ([1e-200, 0.0], [0.0, 1e-200])])
    def test_lengths_beyond_the_squares_range(self, u, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert angle_between_lines_deg(u, v) == 90.0

    @pytest.mark.parametrize("u", [[0.0, 0.0], [math.inf, 1.0], [math.nan, 1.0], []])
    def test_zero_or_non_finite_directions_raise(self, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pair in ((u, [1.0, 2.0][: len(u)]), ([1.0, 2.0][: len(u)], u)):
                with pytest.raises(InvalidInputError, match="non-zero and finite"):
                    angle_between_lines_deg(*pair)
