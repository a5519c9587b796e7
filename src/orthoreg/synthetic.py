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
bitwise-identical clouds, independent of platform or batch size. The stream
is drawn in blocks of at most ``_PAIRS`` uniform pairs, so the draw holds a
few blocks' temporaries beside its result.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, float_array
from .fitting import PointCloud
from .regression import _power_of_two_scaled

_U53 = 2.0**-53

#: The most uniform pairs ``standard_normals`` draws and transforms at once.
_PAIRS = 2**14


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
        with np.errstate(over="ignore"):
            if not np.isfinite(end - start).all():
                raise InvalidInputError("end - start must be finite")
        n = _converted(operator.index, self.n, "n must be an integer")
        sigma = _converted(float, self.sigma, "sigma must be a number")
        seed = _converted(operator.index, self.seed, "seed must be an integer")
        if n < 2:
            raise InvalidInputError("need at least 2 sample points")
        if 3 * 8 * n > sys.maxsize:  # bytes of the float64 cloud
            raise InvalidInputError("n is too large for one array of points")
        if not (math.isfinite(sigma) and sigma >= 0.0):
            raise InvalidInputError("sigma must be a nonnegative finite number")
        if not 0 <= seed < 2**64:
            raise InvalidInputError("seed must fit in an unsigned 64-bit integer")
        converted = {"start": start, "end": end, "n": n, "sigma": sigma, "seed": seed}
        for name, value in converted.items():
            object.__setattr__(self, name, value)


def _converted(convert, value, message: str):
    """``convert(value)``; InvalidInputError(message) where it cannot be done."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(message) from None


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
        pairs = min(_PAIRS, max(8, count - have))
        v = 2.0 * ((bitgen.random_raw(2 * pairs) >> np.uint64(11)) * _U53) - 1.0
        s = v[0::2] * v[0::2] + v[1::2] * v[1::2]
        keep = (s > 0.0) & (s < 1.0)
        s = s[keep]
        z = (v.reshape(-1, 2)[keep] * np.sqrt(-2.0 * np.log(s) / s)[:, None]).ravel()
        take = min(count - have, z.shape[0])
        out[have : have + take] = z[:take]
        have += take
    return out


def generate_line_cloud(spec: LineCloudSpec) -> LineCloudSample:
    """Sample points along the segment of ``spec`` with isotropic noise.

    Stations are t = i/(n-1) for i = 0..n-1; the point is
    start + t*(end-start) + sigma*z_i with z_i a standard-normal 3-vector.
    sigma = 0 skips the noise stream entirely, so the points are exactly
    collinear. A point that overflows float64 is an InvalidInputError, with
    no numpy warning. The true direction is ``end - start`` scaled by a
    power of two, which is exact, before it is normalised, so its norm
    cannot overflow.
    """
    delta = spec.end - spec.start
    t = np.arange(spec.n, dtype=float) / (spec.n - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        points = spec.start + np.outer(t, delta)
        if spec.sigma > 0.0:
            noise = standard_normals(3 * spec.n, spec.seed).reshape(spec.n, 3)
            points = points + spec.sigma * noise
    scaled = _power_of_two_scaled(delta)
    direction = scaled / np.linalg.norm(scaled)
    return LineCloudSample(
        cloud=PointCloud(points),
        true_direction=direction,
        spec=spec,
    )


__all__ = ["LineCloudSpec", "LineCloudSample", "standard_normals", "generate_line_cloud"]
