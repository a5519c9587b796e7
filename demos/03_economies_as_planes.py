"""National economies as planes in state space.

Take (unemployment, GDP change, inflation) as the coordinates of a state
space. A country's yearly values trace a phase trajectory there; for the
embedded V4 dataset (1994-2000) each trajectory stays close to a plane, so a
whole economy compresses into a unit normal, a centroid, and a misfit error.
Comparing economies then becomes geometry: angles between planes, slopes
against the coordinate planes.

Run:  python demos/03_economies_as_planes.py
Writes per-indicator charts and 3D scene files to demo_output/.
"""

import json
from pathlib import Path

from orthoreg import economy_indicators, trajectory, v4_dataset
from orthoreg.economy import STATE_VARIABLES, V4_REPORT_ORDER
from orthoreg.report import scene_dict
from orthoreg.svg import polyline_chart

by_code = {s.country: s for s in v4_dataset()}
series = [by_code[c] for c in V4_REPORT_ORDER]
indicators = economy_indicators(series)

print("economy planes (normal, centroid, error = sum of |distances|):")
for ep in indicators.planes:
    n, c = ep.plane.normal, ep.plane.centroid
    print(
        f"  {ep.country}:  n = ({n[0]:7.4f}, {n[1]:7.4f}, {n[2]:7.4f})   "
        f"c = ({c[0]:8.4f}, {c[1]:7.4f}, {c[2]:8.4f})   err = {ep.err_reported:.4f}"
    )

print("\nhow far the planes tilt from each other (degrees):")
codes = indicators.countries
for i, a in enumerate(codes):
    for j in range(i + 1, len(codes)):
        print(f"  {a} vs {codes[j]}: {indicators.pairwise_angles_deg[i, j]:6.2f}")

print("\nplane slopes against the coordinate planes (degrees):")
print("         unemployment-GDP   unemployment-inflation   GDP-inflation")
for code in codes:
    s = indicators.slopes[code]
    print(f"  {code}:  {s[0]:16.2f}   {s[1]:22.2f}   {s[2]:13.2f}")

print("\nper-year distance of each economy from its own plane:")
for ep in indicators.planes:
    worst_year = max(ep.yearly_distances, key=ep.yearly_distances.get)
    print(f"  {ep.country}: worst year {worst_year} "
          f"({ep.yearly_distances[worst_year]:.4f} away from the plane)")

out = Path("demo_output")
out.mkdir(exist_ok=True)
for variable in STATE_VARIABLES:
    chart = polyline_chart(
        [(s.country, s.years, getattr(s, variable)) for s in series],
        title=f"{variable} by year",
        x_label="year",
        y_label=f"{variable} (%)",
    )
    (out / f"{variable}.svg").write_text(chart, encoding="utf-8")
for s, ep in zip(series, indicators.planes):
    scene = scene_dict(ep, trajectory(s))
    (out / f"scene_{ep.country}.json").write_text(
        json.dumps(scene, indent=2) + "\n", encoding="utf-8"
    )
print(f"\ncharts and 3D scenes written to {out}/")
