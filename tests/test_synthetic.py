import numpy as np
import pytest

from orthoreg import (
    InvalidInputError,
    LineCloudSpec,
    fit_line,
    generate_line_cloud,
)
from orthoreg.synthetic import standard_normals

# Frozen regression values for the reference spec
# (origin -> (10,10,10), n=50, sigma=0.1, seed=42), measured once.
SEED42_FIRST_POINT = (
    0.048424389323920236,
    -0.046996183406679534,
    0.09951652253585261,
)
SEED42_ANGLE_TO_TRUTH_DEG = 0.39473505513757956


def reference_spec(**overrides):
    params = dict(
        start=np.zeros(3), end=np.array([10.0, 10.0, 10.0]), n=50, sigma=0.1, seed=42
    )
    params.update(overrides)
    return LineCloudSpec(**params)


class TestSpecValidation:
    def test_single_point_rejected(self):
        with pytest.raises(InvalidInputError):
            reference_spec(n=1)

    def test_equal_endpoints_rejected(self):
        with pytest.raises(InvalidInputError):
            reference_spec(end=np.zeros(3))

    @pytest.mark.parametrize("field", ["start", "end"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_endpoint_rejected(self, field, bad):
        with pytest.raises(InvalidInputError, match="^start and end must be finite$"):
            reference_spec(**{field: np.array([1.0, bad, 2.0])})

    def test_negative_normal_count_rejected(self):
        with pytest.raises(InvalidInputError, match="^count must be nonnegative$"):
            standard_normals(-1, 0)
        assert standard_normals(0, 0).shape == (0,)

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidInputError):
            reference_spec(sigma=-0.1)

    def test_seed_range(self):
        with pytest.raises(InvalidInputError):
            reference_spec(seed=-1)
        with pytest.raises(InvalidInputError):
            reference_spec(seed=2**64)

    @pytest.mark.parametrize("field, value, message", [
        ("n", "5", "n must be an integer"),
        ("n", 5.0, "n must be an integer"),
        ("seed", "42", "seed must be an integer"),
        ("seed", 4.2, "seed must be an integer"),
        ("sigma", "x", "sigma must be a number"),
        ("sigma", None, "sigma must be a number"),
        ("sigma", 10**400, "sigma must be a number"),
    ], ids=["n-str", "n-float", "seed-str", "seed-float", "sigma-str", "sigma-none", "sigma-huge-int"])
    def test_values_of_another_kind_are_rejected(self, field, value, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            reference_spec(**{field: value})

    def test_numpy_scalars_become_python_numbers(self):
        spec = reference_spec(n=np.int64(50), sigma=np.float32(0.5), seed=np.uint64(42))
        assert (type(spec.n), type(spec.sigma), type(spec.seed)) == (int, float, int)
        assert (spec.n, spec.sigma, spec.seed) == (50, 0.5, 42)


class TestNoiselessClouds:
    def test_points_exactly_on_segment(self):
        sample = generate_line_cloud(reference_spec(sigma=0.0))
        t = np.arange(50) / 49.0
        expected = np.outer(t, [10.0, 10.0, 10.0])
        assert (sample.cloud.points == expected).all()

    def test_fit_recovers_direction_exactly(self):
        sample = generate_line_cloud(reference_spec(sigma=0.0, seed=7))
        line = fit_line(sample.cloud)
        assert line.error.sum_sq < 1e-20
        assert min(
            np.abs(line.direction - sample.true_direction).max(),
            np.abs(line.direction + sample.true_direction).max(),
        ) < 1e-12


class TestDeterminism:
    def test_bitwise_reproducible(self):
        a = generate_line_cloud(reference_spec())
        b = generate_line_cloud(reference_spec())
        assert (a.cloud.points == b.cloud.points).all()

    def test_frozen_first_point(self):
        sample = generate_line_cloud(reference_spec())
        assert tuple(sample.cloud.points[0]) == SEED42_FIRST_POINT

    def test_frozen_fit_angle(self):
        sample = generate_line_cloud(reference_spec())
        line = fit_line(sample.cloud)
        cosine = abs(float(line.direction @ sample.true_direction))
        angle = float(np.degrees(np.arccos(min(1.0, cosine))))
        assert angle == SEED42_ANGLE_TO_TRUTH_DEG

    def test_different_seeds_differ(self):
        a = generate_line_cloud(reference_spec(seed=1))
        b = generate_line_cloud(reference_spec(seed=2))
        assert not (a.cloud.points == b.cloud.points).all()

    def test_normal_stream_is_prefix_stable(self):
        long = standard_normals(301, 99)
        short = standard_normals(17, 99)
        assert (long[:17] == short).all()


class TestNoiseQuality:
    def test_moments_close_to_standard(self):
        z = standard_normals(20_000, 1234)
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03
        # both tails populated
        assert (z > 2.0).any() and (z < -2.0).any()

    def test_isotropy_of_point_noise(self):
        sample = generate_line_cloud(reference_spec(n=2000, sigma=0.5, seed=5))
        t = np.arange(2000) / 1999.0
        noise = sample.cloud.points - np.outer(t, [10.0, 10.0, 10.0])
        stds = noise.std(axis=0)
        assert np.abs(stds - 0.5).max() < 0.05
