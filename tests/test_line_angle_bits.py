"""The classical lines, the comparison and every angle between flats, to the bit.

One sha256 digest covers every field that ``compare_ols_tls``, ``ols_line``,
``conjugate_line``, ``angle_between_lines_deg``, ``plane_angle`` and
``plane_slopes`` return on a fixed corpus: random 2-D clouds, some offset by
1e8; slopes whose square overflows; constant xs, constant ys and a cloud
with no covariance; the V4 planes; and unit normals with -0.0 components.
Floats are compared through ``float.hex``, so a change in the last bit of
any of them changes the digest. A restructuring of these computations must
keep it.

The fits go through numpy's BLAS (dot products, ``b.T @ b``), so the digest
holds for the numpy release it was recorded with, as do the golden digests
in ``bench/golden_sha256.json``.
"""

import dataclasses
import enum
import hashlib
import json

import numpy as np
import pytest

from orthoreg.economy import EconomyPlane, economy_indicators, plane_angle, plane_slopes, v4_dataset
from orthoreg.errors import OrthoregError
from orthoreg.fitting import FittedHyperplane, ResidualStats
from orthoreg.regression import (
    AffineLine2D,
    Orientation,
    angle_between_lines_deg,
    compare_ols_tls,
    conjugate_line,
    ols_line,
)

RECORDED_WITH_NUMPY = "2.4.6"

DIGEST = "65f26c6f30cbd715151228a1e7aeab8065fd241709f810a97f5fb7a3b8ae2b7f"

#: The slopes of ``test_regression.TestSteepLines``.
STEEP_SLOPES = (
    3.0, -1e100, 1.3407807929942596e154, 1.3407807929942597e154, -1e200,
    1.7976931348623157e308,
)


def encode(value):
    """A JSON-ready form of a result in which every float is exact."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [str(value.dtype), list(value.shape), [encode(v) for v in value.reshape(-1).tolist()]]
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return [[encode(k), encode(v)] for k, v in value.items()]
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [
            [f.name, encode(getattr(value, f.name))] for f in dataclasses.fields(value)
        ]
    raise TypeError(f"cannot encode {type(value).__name__}")


def outcome(function, *args):
    """The result of a call, or the class and message of the error it raised."""
    try:
        return encode(function(*args))
    except OrthoregError as exc:
        return ["raised", type(exc).__name__, str(exc)]


def clouds():
    rng = np.random.default_rng(2006)
    for _ in range(60):
        n = int(rng.integers(2, 30))
        x = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3) + rng.choice([0.0, 1e8, -1e8])
        y = rng.uniform(-3, 3) * x + rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        y += rng.choice([0.0, 1e8])
        yield x, y
        yield y, x
    yield np.array([1.0, 3.0, 4.0, 5.0, 7.0]), np.array([4.0, 2.0, 6.0, 8.0, 5.0])
    yield np.array([0.0, 1e-150, 2e-150]), np.array([0.0, 1e150, 3e150])
    yield np.array([1.0, 1.0, 1.0]), np.array([0.0, 1.0, 2.0])
    yield np.array([0.0, 1.0, 2.0]), np.array([5.0, 5.0, 5.0])
    yield np.array([1.5e308] * 3), np.array([0.0, 1.0, 2.5])
    yield np.array([1.0, -1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, -1.0])
    yield np.array([2.0, -2.0, 1.0, -1.0]), np.array([1.0, 1.0, -3.0, -3.0])
    yield np.array([0.0, 1.0]), np.array([0.0, 1.0])
    yield [1.0, 2.0], [3.0, 3.0]


def line_records():
    for x, y in clouds():
        report = compare_ols_tls(x, y)
        yield encode(report)
        classical = [line for line in (report.ols, report.conjugate) if line is not None]
        yield [encode(line.direction()) for line in classical]
        yield outcome(ols_line, x, y)
        yield outcome(conjugate_line, x, y)
        directions = [line.direction() for line in classical] + [report.tls.direction]
        yield [encode(angle_between_lines_deg(u, v)) for u in directions for v in directions]
    for slope in STEEP_SLOPES:
        directions = [AffineLine2D(slope, 0.0, o).direction() for o in Orientation]
        yield encode(directions)
        yield [encode(angle_between_lines_deg(u, v)) for u in directions for v in directions]
    vectors = [
        [1.0, 0.0], [0.0, 1.0], [-0.0, 1.0], [3.0, 4.0], [-4.0, 3.0], [1.0, 1.0],
        [1.0, 1.0000000000000002], [1e-100, 3e-100], [2.0, -1e150],
    ]
    yield [encode(angle_between_lines_deg(u, v)) for u in vectors for v in vectors]
    vectors = [[1.0, 2.0, 2.0], [-0.0, 0.6, -0.8], [2.0, -3.0, 6.0], [0.0, 0.0, -5.0]]
    yield [encode(angle_between_lines_deg(u, v)) for u in vectors for v in vectors]


def plane_records():
    indicators = economy_indicators(v4_dataset())
    yield encode(indicators.pairwise_angles_deg)
    yield encode(indicators.slopes)
    planes = list(indicators.planes)
    stats = ResidualStats([0.0, 0.0, 0.0])
    normals = [
        [-0.0, 0.6, -0.8], [0.0, -0.0, 1.0], [-1.0, 0.0, -0.0], [0.36, 0.48, 0.8],
        [0.0, 0.0, -1.0], [-0.6, -0.0, 0.8], [2.0 / 3.0, -2.0 / 3.0, 1.0 / 3.0],
    ]
    for normal in normals:
        plane = FittedHyperplane(np.array(normal), np.zeros(3), 0.0, stats)
        planes.append(EconomyPlane("XX", plane, {}, 0.0))
    for a in planes:
        yield encode(plane_slopes(a))
        yield [encode(plane_angle(a, b)) for b in planes]


def digest() -> str:
    records = [list(line_records()), list(plane_records())]
    text = json.dumps(records, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.skipif(
    np.__version__ != RECORDED_WITH_NUMPY,
    reason=f"digest recorded with numpy {RECORDED_WITH_NUMPY}",
)
def test_line_and_angle_bits():
    assert digest() == DIGEST
