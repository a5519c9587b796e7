import math
from decimal import Decimal

import numpy as np
import pytest

from orthoreg import (
    DegenerateGeometryError,
    EconomyPlane,
    FittedHyperplane,
    IndicatorSeries,
    InvalidInputError,
    ResidualStats,
    economy_indicators,
    economy_plane,
    plane_angle,
    plane_slopes,
    trajectory,
    v4_dataset,
)
from orthoreg.economy import COORDINATE_PLANES, V4_COUNTRIES, V4_REPORT_ORDER

from _helpers import angle_error_bound_deg, directions_at_angle, reference_angle_deg, same_up_to_sign

REFERENCE = {
    # country: (normal, centroid, err) from the published indicator table
    "SK": ((0.6704, 0.7195, -0.1811), (13.8714, 4.5571, 9.1429), 4.2633),
    "PL": ((-0.4083, -0.9059, 0.1123), (13.1143, 5.5571, 17.8143), 4.3106),
    "CZ": ((0.7632, 0.4525, 0.4612), (5.7714, 1.8429, 7.6143), 4.6111),
}


def series_by_code():
    return {s.country: s for s in v4_dataset()}


def plane_from_normal(normal, country="XX"):
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    model = FittedHyperplane(
        normal=n,
        centroid=np.zeros(3),
        offset=0.0,
        error=ResidualStats([0.0]),
    )
    return EconomyPlane(country=country, plane=model, yearly_distances={}, err_reported=0.0)


class TestDataset:
    def test_order_and_span(self):
        data = v4_dataset()
        assert tuple(s.country for s in data) == V4_COUNTRIES
        assert all(s.years == tuple(range(1994, 2001)) for s in data)

    def test_reference_cells(self):
        by = series_by_code()
        assert by["SK"].unemployment[by["SK"].years.index(2000)] == 18.5
        assert by["PL"].inflation[by["PL"].years.index(1994)] == 33.2
        assert by["CZ"].gdp_change[by["CZ"].years.index(1997)] == -0.1

    def test_series_validation(self):
        with pytest.raises(InvalidInputError):
            IndicatorSeries("XX", (1990, 1991), (1.0,), (1.0, 2.0), (1.0, 2.0))
        with pytest.raises(InvalidInputError):
            IndicatorSeries("XX", (1990, 1990), (1.0, 2.0), (1.0, 2.0), (1.0, 2.0))

    def test_series_sorts_by_year(self):
        shuffled = IndicatorSeries(
            "XX", (1992, 1990, 1991), (3.0, 1.0, 2.0), (30.0, 10.0, 20.0), (0.3, 0.1, 0.2)
        )
        assert shuffled.years == (1990, 1991, 1992)
        assert shuffled.unemployment == (1.0, 2.0, 3.0)
        assert shuffled.gdp_change == (10.0, 20.0, 30.0)
        assert shuffled.inflation == (0.1, 0.2, 0.3)


class TestTrajectory:
    def test_sk_1994_point(self):
        cloud = trajectory(series_by_code()["SK"])
        assert (cloud.points[0] == [13.7, 4.8, 13.4]).all()
        assert cloud.labels[0] == "1994"

    def test_cz_1998_point(self):
        cloud = trajectory(series_by_code()["CZ"])
        assert (cloud.points[4] == [7.5, -2.2, 10.7]).all()

    def test_empty_series(self):
        empty = IndicatorSeries("XX", (), (), (), ())
        with pytest.raises(InvalidInputError):
            trajectory(empty)


class TestEconomyPlane:
    @pytest.mark.parametrize("code", sorted(REFERENCE))
    def test_reference_rows(self, code):
        normal, center, err = REFERENCE[code]
        ep = economy_plane(series_by_code()[code])
        assert same_up_to_sign(ep.plane.normal, np.asarray(normal), 1e-3)
        assert np.abs(ep.plane.centroid - np.asarray(center)).max() < 1e-4
        assert abs(ep.err_reported - err) < 1e-3

    def test_hu_derived_centroid(self):
        ep = economy_plane(series_by_code()["HU"])
        assert np.abs(ep.plane.centroid - [8.3714, 3.6143, 17.5]).max() < 1e-4

    def test_centroid_is_column_means(self):
        for s in v4_dataset():
            ep = economy_plane(s)
            means = [np.mean(s.unemployment), np.mean(s.gdp_change), np.mean(s.inflation)]
            assert np.abs(ep.plane.centroid - means).max() < 1e-9

    def test_yearly_distances_labeled(self):
        ep = economy_plane(series_by_code()["SK"])
        assert tuple(ep.yearly_distances) == tuple(range(1994, 2001))
        assert abs(sum(ep.yearly_distances.values()) - ep.err_reported) < 1e-12

    def test_needs_three_years(self):
        short = IndicatorSeries("XX", (1990, 1991), (1.0, 2.0), (1.0, 2.0), (1.0, 2.0))
        with pytest.raises(InvalidInputError):
            economy_plane(short)

    def test_collinear_years_keep_the_flat(self):
        line = IndicatorSeries("XX", (1990, 1991, 1992), (1.0, 2.0, 3.0), (2.0, 4.0, 6.0),
                               (3.0, 6.0, 9.0))
        with pytest.raises(DegenerateGeometryError, match="^XX: points span only a 1-dim") as info:
            economy_plane(line)
        assert info.value.flat_dim == 1
        assert (info.value.flat_point == [2.0, 4.0, 6.0]).all()
        assert same_up_to_sign(info.value.flat_basis[0], np.array([1.0, 2.0, 3.0]) / math.sqrt(14),
                               1e-12)

    def test_spread_error_names_the_country(self):
        wide = IndicatorSeries("SK", (1, 2, 3, 4), (1e200, -1e200, 3.0, 1.0),
                               (1.0, 2.0, 4.0, 3.0), (2.0, 1.0, 5.0, 4.0))
        with pytest.raises(InvalidInputError, match=r"^SK: points spread 1e\+200 about"):
            economy_plane(wide)

    def test_year_order_independence_is_bitwise(self):
        s = series_by_code()["SK"]
        shuffled = IndicatorSeries(
            "SK",
            tuple(reversed(s.years)),
            tuple(reversed(s.unemployment)),
            tuple(reversed(s.gdp_change)),
            tuple(reversed(s.inflation)),
        )
        a = economy_plane(s)
        b = economy_plane(shuffled)
        assert (a.plane.normal == b.plane.normal).all()
        assert (a.plane.centroid == b.plane.centroid).all()
        assert a.plane.offset == b.plane.offset
        assert a.yearly_distances == b.yearly_distances

    def test_translation_moves_centroid_keeps_normal(self):
        s = series_by_code()["SK"]
        shift = (5.0, -3.0, 11.0)
        moved = IndicatorSeries(
            "SK",
            s.years,
            tuple(v + shift[0] for v in s.unemployment),
            tuple(v + shift[1] for v in s.gdp_change),
            tuple(v + shift[2] for v in s.inflation),
        )
        a, b = economy_plane(s), economy_plane(moved)
        assert np.abs(b.plane.centroid - (a.plane.centroid + shift)).max() < 1e-9
        assert same_up_to_sign(b.plane.normal, a.plane.normal, 1e-9)


class TestAngles:
    def test_same_plane_zero(self):
        p = plane_from_normal([0.0, 0.0, 1.0])
        assert plane_angle(p, p) == 0.0

    def test_orthogonal_planes(self):
        a = plane_from_normal([0.0, 0.0, 1.0])
        b = plane_from_normal([1.0, 0.0, 0.0])
        assert abs(plane_angle(a, b) - 90.0) < 1e-12

    def test_reference_normals_sk_hu(self):
        # evaluated once from the published normals (normalized): frozen value
        sk = plane_from_normal([0.6704, 0.7195, -0.1811])
        hu = plane_from_normal([0.7362, 0.6745, -0.0545])
        assert plane_angle(sk, hu) == pytest.approx(8.580230523065422, abs=1e-9)

    def test_small_angles_keep_their_relative_accuracy(self):
        """A normal tilted by t from the z-axis: the planes' dihedral angle
        and the slope against the unemployment-GDP plane are t."""
        z = plane_from_normal([0.0, 0.0, 1.0])
        for t in np.logspace(-16, 0, 321).tolist():
            tilted = plane_from_normal([math.sin(t), 0.0, math.cos(t)])
            expected = math.degrees(t)
            for got in (plane_angle(z, tilted), plane_angle(tilted, z), plane_slopes(tilted)[0]):
                assert abs(got - expected) <= 1e-9, t
                if expected < 1e-3:
                    assert abs(got - expected) <= 1e-14 * expected, t

    def test_angles_against_a_high_precision_reference(self):
        """From 1e-12 to 90 degrees, within ``angle_error_bound_deg`` of the
        60-digit angle between the lines the float normals span."""
        rng = np.random.default_rng(43)
        for theta in np.logspace(-12, math.log10(90.0), 600).tolist():
            a, b = (plane_from_normal(n) for n in directions_at_angle(rng, 3, theta))
            expected = reference_angle_deg(a.plane.normal, b.plane.normal)
            got = plane_angle(a, b)
            assert abs(Decimal(got) - expected) <= angle_error_bound_deg(float(expected), 3), theta

    def test_slopes_against_a_high_precision_reference(self):
        """A normal from 1e-12 to 90 degrees off each coordinate axis: the
        slope against that axis's plane is within ``angle_error_bound_deg``
        of the 60-digit angle between the lines they span."""
        rng = np.random.default_rng(44)
        for theta in np.logspace(-12, math.log10(90.0), 200).tolist():
            for k, (_, axis) in enumerate(COORDINATE_PLANES):
                tilted = plane_from_normal(directions_at_angle(rng, 3, theta, axis)[1])
                expected = reference_angle_deg(tilted.plane.normal, axis)
                got = plane_slopes(tilted)[k]
                assert abs(Decimal(got) - expected) <= angle_error_bound_deg(float(expected), 3), theta

    def test_slopes_axis_aligned(self):
        z0 = plane_from_normal([0.0, 0.0, 1.0])
        assert plane_slopes(z0) == pytest.approx((0.0, 90.0, 90.0), abs=1e-12)
        x0 = plane_from_normal([1.0, 0.0, 0.0])
        assert plane_slopes(x0) == pytest.approx((90.0, 90.0, 0.0), abs=1e-12)

    def test_sk_slopes_frozen(self):
        ep = economy_plane(series_by_code()["SK"])
        slopes = plane_slopes(ep)
        assert slopes == pytest.approx(
            (79.56797747973656, 43.98453243404345, 47.89869357124925), abs=1e-6
        )
        # the third slope comes from the normal's unemployment component
        assert abs(slopes[2] - math.degrees(math.acos(0.6704))) < 0.1


class TestIndicators:
    def test_full_set(self):
        by = series_by_code()
        ind = economy_indicators([by[c] for c in V4_REPORT_ORDER])
        assert ind.countries == V4_REPORT_ORDER
        m = ind.pairwise_angles_deg
        assert m.shape == (4, 4)
        assert (m == m.T).all()
        assert (np.diag(m) == 0.0).all()
        assert ((m >= 0.0) & (m <= 90.0)).all()
        # frozen fitted-plane angles (SK-PL and SK-CZ rows)
        assert m[0, 1] == pytest.approx(18.929365025688835, abs=1e-6)
        assert m[0, 2] == pytest.approx(41.083879469557914, abs=1e-6)
        assert set(ind.slopes) == set(V4_REPORT_ORDER)

    def test_single_country(self):
        ind = economy_indicators([series_by_code()["SK"]])
        assert ind.pairwise_angles_deg.shape == (1, 1)
        assert ind.pairwise_angles_deg[0, 0] == 0.0

    def test_a_repeated_country_code_is_invalid(self):
        """The slopes are keyed by country code, so a repeated code would
        give more planes than slopes."""
        v4 = v4_dataset()
        with pytest.raises(InvalidInputError, match=f"^{v4[0].country}: country code repeated$"):
            economy_indicators(v4 + v4[:1])
