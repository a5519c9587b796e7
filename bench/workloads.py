"""The four workloads: seeded inputs, the ops that run on them, their checks.

Inputs come from ``np.random.default_rng(seed)`` only, never from
``orthoreg.synthetic``, so a change to the program cannot change the data it
is measured on. The program receives only the generated files (CLI
workloads) or arrays (library workloads).

Every op has ``name``, ``points`` (input points it processes) and
``check(result)``, which raises ``verify.CheckFailed`` or returns the axis
digits it measured. CLI ops are argv lists run from the workload's work
directory with relative paths, so their output does not depend on where the
checkout lives; library ops call the program through module attributes, so a
tracer can wrap those bindings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import verify
from verify import require

WORKLOADS = ("cli-bulk", "cli-small", "lib-small", "lib-large")

BULK_ROWS = 100_000
LARGE_SHAPES = ((1_000_000, 3), (200_000, 5))
SMALL_POOL_PER_KIND = 20
SMALL_THIN_CLOUDS = 80
SMALL_ECONOMIES = 10
SMALL_KINDS = ("regular", "thin", "offset", "tied", "duplicated", "n_eq_d")

#: Thin clouds come from this fixed stream, not from the run's seed. The
#: scatter-matrix solver's error on them is heavy-tailed (one cloud in a few
#: hundred loses two more digits), so a minimum over a seeded sample would
#: swing by two digits between seeds; a fixed sample keeps axis_digits_min
#: comparable across seeds while still counting every thin cloud.
THIN_STREAM = 20060900

#: The builtin V4 data (1994-2000), copied here so the economy checks do not
#: trust the program for their reference input.
V4_YEARS = tuple(range(1994, 2001))
V4 = {
    "CZ": ((3.2, 2.9, 3.5, 5.2, 7.5, 9.4, 8.7), (2.2, 5.9, 4.8, -0.1, -2.2, -0.2, 2.5),
           (10.0, 9.1, 8.8, 8.5, 10.7, 2.1, 4.1)),
    "HU": ((11.2, 10.5, 9.2, 7.7, 7.0, 6.5, 6.5), (2.9, 1.5, 1.3, 4.4, 5.1, 4.5, 5.6),
           (18.8, 28.2, 23.6, 18.3, 14.3, 10.0, 9.3)),
    "PL": ((16.0, 14.9, 13.5, 10.5, 10.4, 13.0, 13.5), (5.2, 7.0, 6.0, 6.8, 4.8, 4.1, 5.0),
           (33.2, 28.0, 19.9, 14.8, 11.6, 7.3, 9.9)),
    "SK": ((13.7, 13.1, 11.3, 11.8, 12.5, 16.2, 18.5), (4.8, 6.7, 6.2, 6.2, 4.1, 1.9, 2.0),
           (13.4, 9.9, 5.8, 6.1, 6.7, 10.6, 11.5)),
}
V4_REPORT_ORDER = ("SK", "PL", "CZ", "HU")
STATE_VARIABLES = ("unemployment", "gdp_change", "inflation")


def v4_series(order=V4_REPORT_ORDER):
    return [(c, V4_YEARS, np.column_stack(V4[c]).astype(float)) for c in order]


# -- seeded geometry ---------------------------------------------------------


def rotation(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def exact_spectrum_cloud(rng, n: int, sigmas, shift) -> np.ndarray:
    """n points whose centred singular values are exactly ``sigmas`` (n > dim)."""
    dim = len(sigmas)
    m = rng.standard_normal((n, dim))
    m -= m.mean(axis=0)
    q, _ = np.linalg.qr(m)
    return (q * np.asarray(sigmas)) @ rotation(rng, dim).T + shift


def gaussian_cloud(rng, n: int, scales, shift) -> np.ndarray:
    dim = len(scales)
    return (rng.standard_normal((n, dim)) * scales) @ rotation(rng, dim).T + shift


def fill_gaussian_cloud(rng, out: np.ndarray, scales, chunk: int = 65_536) -> None:
    """Fill ``out`` in chunks, so generating never holds a second full-size array."""
    dim = out.shape[1]
    rot = rotation(rng, dim).T
    shift = rng.standard_normal(dim) * 10.0
    for start in range(0, out.shape[0], chunk):
        z = rng.standard_normal((min(chunk, out.shape[0] - start), dim))
        out[start : start + z.shape[0]] = (z * scales) @ rot + shift


def small_cloud(rng, kind: str, j: int) -> np.ndarray:
    """Cloud j of a kind: a fixed (n, dim) grid, n in 2..50 and dim in 2..5.

    Only the geometry comes from ``rng``, so every seed runs the same mix of
    sizes and op times do not depend on the seed.
    """
    dim = 2 + j % 4
    n = dim if kind == "n_eq_d" else (dim + 1, 10, 20, 35, 50)[j // 4 % 5]
    shift = rng.standard_normal(dim) * 3.0
    regular = np.geomspace(4.0, 0.5, dim) * rng.uniform(0.8, 1.2, dim)
    if kind == "regular":
        return gaussian_cloud(rng, n, regular, shift)
    if kind == "thin":
        # sigma_2, sigma_3 = 1e-6, 5e-7 against O(1) spread; the leading
        # scale 0.5 keeps every spread axis above the program's rank cut-off.
        head = [0.5, 0.4, 0.3][: max(dim - 2, 1)]
        tail = [1e-6, 5e-7][: dim - len(head)]
        return exact_spectrum_cloud(rng, n, head + tail, shift)
    if kind == "offset":
        offset = rng.choice([-1.0, 1.0], dim) * rng.uniform(0.5, 1.5, dim) * 1e8
        return gaussian_cloud(rng, n, regular, offset)
    if kind == "tied":
        sig = list(np.geomspace(1.0, 0.3, dim))
        gap = 1e-4 * rng.uniform(0.5, 2.0)
        if dim == 2 or rng.integers(2):
            sig[1] = sig[0] * (1.0 - gap)
        else:
            sig[-1] = sig[-2] * (1.0 - gap)
        return exact_spectrum_cloud(rng, n, sig, shift)
    if kind == "duplicated":
        unique = gaussian_cloud(rng, max(dim + 1, n // 3), regular, shift)
        index = np.concatenate([np.arange(len(unique)), rng.integers(0, len(unique), n - len(unique))])
        return unique[rng.permutation(index)]
    if kind == "n_eq_d":
        return gaussian_cloud(rng, n, regular, shift)
    raise ValueError(kind)


def indicator_series(rng, count: int, prefix: str):
    """Synthetic (country, years, points) near a plane; series i has 8 + i % 5 years."""
    out = []
    for i in range(count):
        years = tuple(range(2001, 2009 + i % 5))
        m = len(years)
        u = 5.0 + 3.0 * rng.standard_normal(m)
        g = 3.0 - 0.4 * u + 0.8 * rng.standard_normal(m)
        infl = 8.0 + 0.5 * u - 0.7 * g + 1.5 * rng.standard_normal(m)
        out.append((f"{prefix}{i + 1}", years, np.round(np.column_stack([u, g, infl]), 3)))
    return out


# -- CSV writing (repr floats round-trip exactly) -------------------------------


def cloud_csv(points, names) -> str:
    rows = [",".join(names)]
    rows += [",".join(map(repr, row)) for row in points.tolist()]
    return "\n".join(rows) + "\n"


def indicator_csv(series) -> str:
    rows = ["country,year,unemployment,gdp_change,inflation"]
    for country, years, points in series:
        for year, row in zip(years, points.tolist()):
            rows.append(f"{country},{year}," + ",".join(map(repr, row)))
    return "\n".join(rows) + "\n"


# -- CLI ops -------------------------------------------------------------------


@dataclass
class CliResult:
    exit_code: int
    stdout: bytes
    artifacts: dict  # relative path -> bytes

    def fingerprint(self) -> str:
        """SHA-256 of the exit code, stdout, then each artifact file in path order."""
        h = hashlib.sha256()
        h.update(self.exit_code.to_bytes(4, "little", signed=True))
        h.update(len(self.stdout).to_bytes(8, "little"))
        h.update(self.stdout)
        for path in sorted(self.artifacts):
            h.update(path.encode() + b"\0")
            h.update(len(self.artifacts[path]).to_bytes(8, "little"))
            h.update(self.artifacts[path])
        return h.hexdigest()


@dataclass
class CliOp:
    name: str
    argv: list
    points: int
    verify_output: object  # callable(text, artifacts) -> list of digits
    expected_exit: int = 0
    artifacts: tuple = ()

    def check(self, result: CliResult) -> list:
        require(
            result.exit_code == self.expected_exit,
            f"exit code {result.exit_code}, expected {self.expected_exit}",
        )
        if self.expected_exit != 0:
            require(result.stdout == b"", "stdout written on an error path")
            return []
        return self.verify_output(result.stdout.decode("utf-8"), result.artifacts)


@dataclass
class CliWorkload:
    name: str
    ops: list
    sizes: dict
    workdir: Path

    def prepare(self, op: CliOp) -> None:
        """Remove what ``op`` writes, so a stale file cannot pass its check."""
        for rel in op.artifacts:
            (self.workdir / rel).unlink(missing_ok=True)

    def collect(self, op: CliOp, exit_code: int, stdout: bytes) -> CliResult:
        artifacts = {}
        for rel in op.artifacts:
            path = self.workdir / rel
            if path.exists():
                artifacts[rel] = path.read_bytes()
        return CliResult(exit_code, stdout, artifacts)


def _fit_check(fmt, points, geometry, labels):
    fn = {"json": verify.check_fit_json, "csv": verify.check_fit_csv, "text": verify.check_fit_text}[fmt]
    return lambda text, _artifacts: fn(text, points, geometry, labels)


def _gen_check(path, start, end, n, sigma):
    def check(text, artifacts):
        require(text == "", "gen-bumblebee with --output wrote to stdout")
        require(path in artifacts, "gen-bumblebee wrote no file")
        body = artifacts[path].decode("utf-8")
        header, _, rest = body.partition("\n")
        require(header == "i,x,y,z", f"gen header {header!r}")
        table = np.array([row.split(",") for row in rest.splitlines()], dtype=float)
        require(table.shape == (n, 4), f"gen shape {table.shape}")
        require(np.array_equal(table[:, 0], np.arange(n)), "gen labels")
        t = np.arange(n, dtype=float) / (n - 1)
        noise = table[:, 1:] - (start + np.outer(t, end - start))
        limit = 6.0 * sigma / np.sqrt(n)
        require(np.all(np.abs(noise.mean(axis=0)) <= limit), "gen noise is not centred")
        require(np.all(np.abs(noise.std(axis=0) / sigma - 1.0) <= 0.03), "gen noise scale")
        return []

    return check


def _economy_check(fmt, series, plot_dir=None):
    def check(text, artifacts):
        out = verify.check_economy_output(text, fmt, series)
        if plot_dir is not None:
            for variable in STATE_VARIABLES:
                rel = f"{plot_dir}/economy_{variable}.svg"
                require(rel in artifacts, f"missing {rel}")
                verify.check_svg(artifacts[rel].decode("utf-8"), len(series), rel)
            for country, _, points in series:
                rel = f"{plot_dir}/scene_{country}.json"
                require(rel in artifacts, f"missing {rel}")
                out += verify.check_scene(artifacts[rel].decode("utf-8"), country, points)
        return out

    return check


def build_cli_bulk(seed: int, workdir: Path) -> CliWorkload:
    rng = np.random.default_rng(seed)
    n = BULK_ROWS
    cloud3 = gaussian_cloud(rng, n, np.array([30.0, 3.0, 0.3]) * rng.uniform(0.8, 1.2, 3),
                            rng.standard_normal(3) * 10.0)
    cloud2 = gaussian_cloud(rng, n, np.array([5.0, 1.0]) * rng.uniform(0.8, 1.2, 2),
                            rng.standard_normal(2) * 10.0)
    (workdir / "cloud3.csv").write_text(cloud_csv(cloud3, ("x", "y", "z")))
    (workdir / "cloud2.csv").write_text(cloud_csv(cloud2, ("x", "y")))
    start = rng.integers(-50, 50, 3).astype(float)
    end = start + rng.integers(20, 80, 3) * rng.choice([-1.0, 1.0], 3)
    sigma = float(np.round(rng.uniform(0.2, 1.0), 3))
    gen_seed = int(rng.integers(0, 2**32))
    labels = [str(i) for i in range(n)]
    fit = ["fit", "--input", "cloud3.csv", "--geometry"]
    ops = [
        CliOp("gen-bumblebee", [
            # "--opt=value": a leading minus would otherwise read as an option.
            "gen-bumblebee", "--start=" + ",".join(map(repr, start.tolist())),
            "--end=" + ",".join(map(repr, end.tolist())), "--n", str(n), "--sigma", repr(sigma),
            "--seed", str(gen_seed), "--output", "gen.csv"],
            n, _gen_check("gen.csv", start, end, n, sigma), artifacts=("gen.csv",)),
        CliOp("fit-line-json", fit + ["line"], n, _fit_check("json", cloud3, "line", labels)),
        CliOp("fit-plane-csv", fit + ["plane", "--format", "csv"], n,
              _fit_check("csv", cloud3, "plane", labels)),
        CliOp("fit-line-text", fit + ["line", "--format", "text"], n,
              _fit_check("text", cloud3, "line", labels)),
        CliOp("compare-json", ["compare", "--input", "cloud2.csv"], n,
              lambda text, _a: verify.check_compare_json(text, cloud2[:, 0], cloud2[:, 1])),
    ]
    sizes = {"cloud3.csv": [n, 3], "cloud2.csv": [n, 2], "gen-bumblebee": [n, 3]}
    return CliWorkload("cli-bulk", ops, sizes, workdir)


def build_cli_small(seed: int, workdir: Path) -> CliWorkload:
    rng = np.random.default_rng(seed)
    five = gaussian_cloud(rng, 5, np.array([3.0, 1.0]), rng.standard_normal(2) * 5.0)
    (workdir / "five.csv").write_text(cloud_csv(five, ("x", "y")))
    ind = indicator_series(rng, 3, "Z")
    (workdir / "indicators.csv").write_text(indicator_csv(ind))
    bad = np.round(rng.standard_normal((8, 3)), 6)
    bad_text = cloud_csv(bad, ("x", "y", "z")).splitlines()
    row, col = int(rng.integers(1, 9)), int(rng.integers(0, 3))
    cells = bad_text[row].split(",")
    cells[col] = "n/a"
    bad_text[row] = ",".join(cells)
    (workdir / "bad.csv").write_text("\n".join(bad_text) + "\n")
    same = np.repeat(np.round(rng.standard_normal((1, 3)), 6), 6, axis=0)
    (workdir / "same.csv").write_text(cloud_csv(same, ("x", "y", "z")))

    v4 = v4_series()
    plot_dir = "plots"
    plot_files = tuple(f"{plot_dir}/economy_{v}.svg" for v in STATE_VARIABLES) + tuple(
        f"{plot_dir}/scene_{c}.json" for c in V4_REPORT_ORDER
    )
    v4_points = sum(len(p) for _, _, p in v4)
    ops = [
        CliOp(f"economy-{fmt}", ["economy", "--format", fmt], v4_points, _economy_check(fmt, v4))
        for fmt in ("json", "csv", "text")
    ]
    ops.append(CliOp("economy-plot", ["economy", "--plot", "--output-dir", plot_dir], v4_points,
                     _economy_check("json", v4, plot_dir), artifacts=plot_files))
    for country, years, points in v4:
        ops.append(CliOp(
            f"fit-v4-{country}",
            ["fit", "--input", "builtin:v4", "--country", country, "--geometry", "plane"],
            len(points), _fit_check("json", points, "plane", [str(y) for y in years])))
    ops.append(CliOp("compare-five", ["compare", "--input", "five.csv"], 5,
                     lambda text, _a: verify.check_compare_json(text, five[:, 0], five[:, 1])))
    ops.append(CliOp("economy-data", ["economy", "--data", "indicators.csv"],
                     sum(len(p) for _, _, p in ind), _economy_check("json", ind)))
    ops.append(CliOp("error-non-numeric", ["fit", "--input", "bad.csv", "--geometry", "line"],
                     len(bad), None, expected_exit=3))
    ops.append(CliOp("error-identical", ["fit", "--input", "same.csv", "--geometry", "line"],
                     len(same), None, expected_exit=4))
    sizes = {"five.csv": [5, 2], "indicators.csv": [sum(len(p) for _, _, p in ind), 3],
             "bad.csv": [8, 3], "same.csv": [6, 3], "builtin:v4": [v4_points, 3]}
    return CliWorkload("cli-small", ops, sizes, workdir)


# -- library ops ---------------------------------------------------------------


@dataclass
class LibOp:
    name: str
    points: int
    call: object  # callable(orthoreg modules) -> result
    check: object  # callable(result) -> list of digits


@dataclass
class LibWorkload:
    name: str
    ops: list
    sizes: dict


def _fit_op(name, points, geometry):
    ref = {}

    def call(m):
        cloud = m.fitting.PointCloud(points)
        fn = m.fitting.fit_line if geometry == "line" else m.fitting.fit_hyperplane
        return fn(cloud)

    def check(model):
        if "r" not in ref:
            ref["r"] = verify.Reference(points)
        if geometry == "line":
            return verify.check_line_model(model, ref["r"])
        return verify.check_plane_model(model, ref["r"])

    return LibOp(name, len(points), call, check)


def build_lib_small(seed: int) -> LibWorkload:
    rng = np.random.default_rng(seed)
    thin_rng = np.random.default_rng(THIN_STREAM)
    ops = []
    counts = {kind: SMALL_THIN_CLOUDS if kind == "thin" else SMALL_POOL_PER_KIND for kind in SMALL_KINDS}
    for kind, count in counts.items():
        for j in range(count):
            points = small_cloud(thin_rng if kind == "thin" else rng, kind, j)
            tag = f"{kind}-{j}-{points.shape[0]}x{points.shape[1]}"
            ops.append(_fit_op(f"line-{tag}", points, "line"))
            ops.append(_fit_op(f"plane-{tag}", points, "plane"))
            if points.shape[1] == 2:
                x, y = points[:, 0].copy(), points[:, 1].copy()
                ops.append(LibOp(
                    f"compare-{tag}", len(x),
                    lambda m, x=x, y=y: m.regression.compare_ols_tls(x, y),
                    lambda report, x=x, y=y: verify.check_comparison_model(report, x, y)))
    for i in range(SMALL_ECONOMIES):
        ops.append(_economy_op(f"economy-{i}", indicator_series(rng, 4, f"E{i}-")))
    sizes = {"clouds": counts, "economies": SMALL_ECONOMIES, "n": [2, 50], "dim": [2, 5],
             "ops_per_pass": len(ops)}
    return LibWorkload("lib-small", ops, sizes)


def _economy_op(name, series):
    built = {}

    def call(m):
        if "s" not in built:
            built["s"] = [
                m.economy.IndicatorSeries(c, years, *points.T) for c, years, points in series
            ]
        return m.economy.economy_indicators(built["s"])

    return LibOp(name, sum(len(p) for _, _, p in series), call,
                 lambda result: verify.check_economy_model(result, series))


def build_lib_large(seed: int) -> LibWorkload:
    rng = np.random.default_rng(seed)
    ops = []
    sizes = {}
    for n, dim in LARGE_SHAPES:
        points = np.empty((n, dim))
        fill_gaussian_cloud(rng, points, np.geomspace(8.0, 1.0, dim) * rng.uniform(0.9, 1.1, dim))
        tag = f"{n}x{dim}"
        sizes[tag] = {"shape": [n, dim], "bytes": points.nbytes}
        line = _fit_op(f"line-{tag}", points, "line")
        ops += [line, _fit_op(f"plane-{tag}", points, "plane"), _error_op(f"error-{tag}", points, line)]
    return LibWorkload("lib-large", ops, sizes)


def _error_op(name, points, line_op):
    """total_orthogonal_error of the cloud against its line, fitted once."""
    model = {}

    def call(m):
        if "line" not in model:
            model["line"] = line_op.call(m)
        return m.fitting.total_orthogonal_error(m.fitting.PointCloud(points), model["line"])

    def check(stats):
        verify.check_error_against_model(stats, points, model["line"])
        return []

    return LibOp(name, len(points), call, check)


def fingerprint(value) -> str:
    """Digest of a library result: every array's bytes and every scalar's repr."""
    h = hashlib.blake2b(digest_size=16)

    def walk(v):
        if isinstance(v, np.ndarray):
            h.update(str(v.shape).encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif hasattr(v, "__dataclass_fields__"):
            for name in v.__dataclass_fields__:
                if name != "cloud":
                    walk(getattr(v, name))
        elif isinstance(v, dict):
            for k in v:
                walk(k)
                walk(v[k])
        elif isinstance(v, (list, tuple)):
            for item in v:
                walk(item)
        else:
            h.update(repr(v).encode() + b"\0")

    walk(value)
    return h.hexdigest()
