"""Deterministic noisy-line generator for ground-truth recovery tests.

Models an erratic flight between two 3D points: sample positions sit at
equally spaced stations along the segment, displaced by isotropic Gaussian
noise. The true direction is known, so line-fit accuracy can be measured
exactly.

Reproducibility contract: the noise stream is a pure function of the seed.
Uniform doubles are the top 53 bits of Philox 4x64-10 output (the generator
is keyed directly with the seed, counter starting at zero), mapped by
``(word >> 11) * 2**-53``; standard normals come from the Marsaglia polar
transform applied to consecutive uniform pairs, keeping both normals of each
accepted pair. Point i consumes normals 3i, 3i+1, 3i+2. Identical specs give
bitwise-identical clouds, independent of platform or batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, float_array
from .fitting import PointCloud

_U53 = 2.0**-53


@dataclass(frozen=True)
class LineCloudSpec:
    """Recipe for one noisy line cloud: segment, sample count, noise, seed."""

    start: np.ndarray
    end: np.ndarray
    n: int
    sigma: float
    seed: int

    def __post_init__(self):
        start = float_array(self.start, (3,), "start and end must be 3-vectors")
        end = float_array(self.end, (3,), "start and end must be 3-vectors")
        if not (np.isfinite(start).all() and np.isfinite(end).all()):
            raise InvalidInputError("start and end must be finite")
        if (start == end).all():
            raise InvalidInputError("start and end must differ")
        if self.n < 2:
            raise InvalidInputError("need at least 2 sample points")
        if not (np.isfinite(self.sigma) and self.sigma >= 0.0):
            raise InvalidInputError("sigma must be a nonnegative finite number")
        if not (0 <= int(self.seed) < 2**64):
            raise InvalidInputError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)


@dataclass(frozen=True)
class LineCloudSample:
    """A generated cloud together with the ground truth it was drawn from."""

    cloud: PointCloud
    true_direction: np.ndarray  # unit vector from start towards end
    spec: LineCloudSpec


def standard_normals(count: int, seed: int) -> np.ndarray:
    """First ``count`` values of the seed's standard-normal stream."""
    if count < 0:
        raise InvalidInputError("count must be nonnegative")
    bitgen = np.random.Philox(key=int(seed))
    out = np.empty(count, dtype=float)
    have = 0
    while have < count:
        pairs = max(8, count - have)
        raw = bitgen.random_raw(2 * pairs)
        u = (raw >> np.uint64(11)) * _U53
        v = 2.0 * u - 1.0
        v1, v2 = v[0::2], v[1::2]
        s = v1 * v1 + v2 * v2
        keep = (s > 0.0) & (s < 1.0)
        v1, v2, s = v1[keep], v2[keep], s[keep]
        factor = np.sqrt(-2.0 * np.log(s) / s)
        z = np.empty((s.shape[0], 2), dtype=float)
        z[:, 0] = v1 * factor
        z[:, 1] = v2 * factor
        z = z.ravel()
        take = min(count - have, z.shape[0])
        out[have : have + take] = z[:take]
        have += take
    return out


def generate_line_cloud(spec: LineCloudSpec) -> LineCloudSample:
    """Sample points along the segment of ``spec`` with isotropic noise.

    Stations are t = i/(n-1) for i = 0..n-1; the point is
    start + t*(end-start) + sigma*z_i with z_i a standard-normal 3-vector.
    sigma = 0 skips the noise stream entirely, so the points are exactly
    collinear.
    """
    delta = spec.end - spec.start
    t = np.arange(spec.n, dtype=float) / (spec.n - 1)
    points = spec.start + np.outer(t, delta)
    if spec.sigma > 0.0:
        noise = standard_normals(3 * spec.n, spec.seed).reshape(spec.n, 3)
        points = points + spec.sigma * noise
    direction = delta / np.linalg.norm(delta)
    return LineCloudSample(
        cloud=PointCloud(points),
        true_direction=direction,
        spec=spec,
    )


__all__ = ["LineCloudSpec", "LineCloudSample", "standard_normals", "generate_line_cloud"]
