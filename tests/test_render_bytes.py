"""Output bytes of every report format and plot, from hand-built objects.

``bench/golden_sha256.json`` pins the bytes of whole CLI runs, but not every
format of every report: it has no compare csv or text, no fit-line csv, no
fit-plane text and no fit or compare plot. These tests render literal
objects, not fits, so their bytes do not depend on the BLAS or on the numpy
version: every distance is a dyadic fraction, so its square and every sum
of them are exact. A change of format shows here as a changed digest.
"""

import hashlib

import numpy as np
import pytest

from orthoreg.cli import emit_plot_svg
from orthoreg.economy import EconomyIndicators, EconomyPlane
from orthoreg.fitting import FittedHyperplane, FittedLine, PointCloud, ResidualStats
from orthoreg.regression import AffineLine2D, ComparisonReport, Orientation
from orthoreg.report import build_fit_report, render_compare, render_economy, render_fit
from orthoreg.svg import polyline_chart

FORMATS = ("json", "csv", "text")


def line_report():
    cloud = PointCloud([[0.0, 0.5], [3.0, 4.0], [6.25, 8.0]], labels=("p", "q", "r"))
    model = FittedLine(
        np.array([3.0, 4.0]), np.array([0.6, 0.8]),
        ResidualStats([0.5, 0.0, 0.25]),
    )
    metadata = {"input": "points.csv", "columns": ["x", "y"], "geometry": "line"}
    return build_fit_report(cloud, model, "sum_abs", metadata)


def plane_report():
    cloud = PointCloud(
        [[1.0, 2.0, 0.5], [-1.0, 0.0, -0.25], [2.0, -3.0, 0.0], [0.0, 1.0, -0.25]],
        labels=("1994", 'say "a,b"', "1996", "1997"),
    )
    model = FittedHyperplane(
        np.array([0.0, 0.0, 1.0]), np.array([0.5, 0.0, 0.0]), -0.0,
        ResidualStats([0.5, 0.25, 0.0, 0.25]),
    )
    metadata = {"input": "builtin:v4", "country": "SK", "columns": ["u", "g", "i"],
                "geometry": "plane"}
    return build_fit_report(cloud, model, "rms", metadata)


def line3d_report():
    cloud = PointCloud([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [2.0, 1.0, 4.0]])
    model = FittedLine(
        np.array([1.0, 0.5, 2.0]), np.array([0.6, 0.0, 0.8]),
        ResidualStats([0.5, 1.0, 0.5]),
    )
    return build_fit_report(cloud, model, "sum_sq", {"columns": None, "geometry": "line"})


def comparison():
    cloud = PointCloud([[0.0, 0.0], [1.0, 1.0], [2.0, 1.0], [3.0, 2.0]])
    return ComparisonReport(
        centroid=np.array([1.5, 1.0]),
        ols=AffineLine2D(0.75, -0.125, Orientation.Y_ON_X),
        conjugate=None,
        tls=FittedLine(
            np.array([1.5, 1.0]), np.array([0.8, 0.6]),
            ResidualStats([0.25, 0.5, 0.125, 0.0]),
        ),
        angle_ols_conjugate_deg=None,
        angle_ols_tls_deg=0.5,
        angle_conjugate_tls_deg=None,
        tls_between_scissors=None,
        cloud=cloud,
    )


def economy():
    def plane(country, normal, centroid, distances, years):
        stats = ResidualStats(distances)
        return EconomyPlane(
            country=country,
            plane=FittedHyperplane(np.array(normal), np.array(centroid), 0.25, stats),
            yearly_distances=dict(zip(years, distances)),
            err_reported=stats.sum_abs,
        )

    planes = (
        plane("SK", [0.0, 0.6, 0.8], [12.5, 4.5, 10.25], [0.5, 0.25, 0.125], (1994, 1995, 1996)),
        plane("XX", [1.0, 0.0, 0.0], [3.0, -1.5, 2.0], [0.0, 0.75, 1.5], (1998, 1999, 2000)),
    )
    return EconomyIndicators(
        planes=planes,
        pairwise_angles_deg=np.array([[0.0, 90.0], [90.0, 0.0]]),
        slopes={"SK": (36.875, 90.0, 53.125), "XX": (90.0, 90.0, 0.0)},
    )


RENDERS = {
    **{f"fit-line-{f}": (lambda f=f: render_fit(line_report(), f)) for f in FORMATS},
    **{f"fit-plane-{f}": (lambda f=f: render_fit(plane_report(), f)) for f in FORMATS},
    **{f"compare-{f}": (lambda f=f: render_compare(comparison(), {"input": "c.csv"}, f))
       for f in FORMATS},
    **{f"economy-{f}": (lambda f=f: render_economy(economy(), {"input": "e.csv"}, f))
       for f in FORMATS},
    "plot-fit-2d": lambda: emit_plot_svg(line_report()),
    "plot-fit-3d-plane": lambda: emit_plot_svg(plane_report(), projection=(0, 2)),
    "plot-fit-3d-line": lambda: emit_plot_svg(line3d_report(), projection=(0, 2)),
    "plot-compare": lambda: emit_plot_svg(comparison()),
    "plot-polyline": lambda: polyline_chart(
        [("SK", (1994, 1995, 1996), (13.7, 13.1, 11.3)), ("XX", (1995, 1997), (-2.5, 4.0))],
        title="unemployment by year", x_label="year", y_label="unemployment (%)",
    ),
}

#: sha256 of each render's UTF-8 bytes.
DIGESTS = {
    "compare-csv": "ffb6892488600564c3be2f5ffba429126e02d37954bbd8cb4ec92040137d9385",
    "compare-json": "a21bb9a9334939698d14d4b7e6df1adbf18f62af5b2e3f38e23209fac910ca70",
    "compare-text": "343f9d1edfce8b5fc0588ed796d95f3c74b6adf98653cea8608de62561537fca",
    "economy-csv": "bdb1216ef9441c0a37a867ad543d88a02e656d603666f36d94ea9fea04478383",
    "economy-json": "00ac7d598164c9ef57b10eef0abdd265083f0ccdad130e3020f049692433f966",
    "economy-text": "e1288f7f4cdd5164fc3c4b86d740932b9d72a4f15f6dfe97280d335898f5a70e",
    "fit-line-csv": "08b4b51059abf208d342697a6e280c766a0b73ab127fa7d41dc8c31998eb2420",
    "fit-line-json": "e1fbecab8414709fd0deb5de850f6952999ff02d932a52d767780aa84e1eba12",
    "fit-line-text": "96b3bcabac396fac257305b76209111454f29b44cb369fbcfc788291d56c70c5",
    "fit-plane-csv": "06d50560e57bb88c92954867e806c2aacf052cd264d6491155e5894b01ce1751",
    "fit-plane-json": "a6de9148543984e93b41da2d78deed37a21a5ad07eb524abe5c620133ed98127",
    "fit-plane-text": "2b1ee18e5ce5f0846287070ea7afbca0d0e0a026b2bc3518349af9e221527910",
    "plot-compare": "e87beecdb7cdb1fa3b4821936f1df97c44121704e3bc74218aa302393bd41491",
    "plot-fit-2d": "2524f985305676b5893e2a5f1b7d3d66be50bab4f361b3cbf54587756f4684ab",
    "plot-fit-3d-line": "7c51b2350ee096abd09771631bfe6b12d4449c7238ec407255339b93dc4eeb30",
    "plot-fit-3d-plane": "ddb95b81f7e4028ffa916f182529bfad0edc0722c688e71756c9c42e9a01bcae",
    "plot-polyline": "ac5fa14689afd64b5e06230fad7c71c8a5321d45de114572e498f15778f330cc",
}


@pytest.mark.parametrize("name", sorted(RENDERS))
def test_render_bytes(name):
    text = RENDERS[name]()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[name]
