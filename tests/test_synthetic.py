import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from orthoreg import (
    InvalidInputError,
    LineCloudSpec,
    fit_line,
    generate_line_cloud,
)
from orthoreg import synthetic
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


class TestHostileSpecs:
    """A spec whose cloud cannot be held or overflows float64 is an
    InvalidInputError, and no spec makes numpy warn."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_n_beyond_one_array_of_points(self):
        most = sys.maxsize // 24  # 3 float64 coordinates per point
        for n in (most + 1, 10**20):
            with pytest.raises(InvalidInputError, match="^n is too large for one array of points$"):
                reference_spec(n=n)
        assert reference_spec(n=most).n == most

    @pytest.mark.parametrize("start, end", [
        ([-1e308, 0.0, 0.0], [1e308, 1.0, 1.0]),
        ([0.0, 1e308, 0.0], [0.0, -1e308, 1.0]),
    ])
    def test_end_minus_start_must_be_finite(self, start, end):
        with pytest.raises(InvalidInputError, match="^end - start must be finite$"):
            reference_spec(start=np.array(start), end=np.array(end))

    @pytest.mark.parametrize("overrides", [
        dict(sigma=1e308),
        dict(start=np.full(3, 1.5e308), end=np.full(3, 1.7e308), sigma=1e307),
    ])
    def test_points_that_overflow(self, overrides):
        with pytest.raises(InvalidInputError, match="^point coordinates must be finite$"):
            generate_line_cloud(reference_spec(n=5, **overrides))

    @pytest.mark.parametrize("scale", [1e308, 1e200, 1e-200, 5e-324])
    def test_a_direction_whose_norm_overflows_or_underflows(self, scale):
        sample = generate_line_cloud(reference_spec(end=np.full(3, scale), n=3, sigma=0.0))
        assert np.abs(sample.true_direction - 1.0 / math.sqrt(3.0)).max() < 1e-15

    def test_direction_has_the_bits_of_the_unscaled_quotient(self):
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            delta = rng.standard_normal(3) * 10.0 ** rng.integers(-100, 101)
            sample = generate_line_cloud(reference_spec(end=delta, n=2, sigma=0.0))
            assert sample.true_direction.tobytes() == (delta / np.linalg.norm(delta)).tobytes()


class TestNormalsInBlocks:
    """``standard_normals`` draws at most ``_PAIRS`` uniform pairs at once,
    so the same stream comes out at any block size and its memory is bound
    by the block, not by the count."""

    @pytest.mark.parametrize("pairs", [1, 3, 8, 100])
    def test_the_stream_across_block_boundaries(self, monkeypatch, pairs):
        expected = {count: standard_normals(count, 31) for count in (0, 1, 2, 7, 16, 17, 1001)}
        monkeypatch.setattr(synthetic, "_PAIRS", pairs)
        for count, z in expected.items():
            assert standard_normals(count, 31).tobytes() == z.tobytes()

    @pytest.mark.parametrize("pairs", [2**10, synthetic._PAIRS])
    def test_peak_memory_is_bound_by_the_block(self, monkeypatch, pairs):
        """A block's temporaries (its uniforms, their squared norms, the
        accepted pairs, their factors and normals) take under 16 float64s
        per pair."""
        monkeypatch.setattr(synthetic, "_PAIRS", pairs)
        standard_normals(1, 5)  # what a first call imports is not the draw's
        tracemalloc.start()
        try:
            z = standard_normals(300_000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= z.nbytes + 16 * 8 * pairs + 2**13
