"""Span tracing from outside the program.

Each public function is wrapped at the name its caller looks up (a
``from .fitting import fit_line`` in ``cli`` is the binding ``cli.fit_line``,
separate from ``regression.fit_line``). ``PointCloud`` is a class used by
every layer, so its validation method is wrapped once on the class. A span
records name, start, end, parent span and op id; spans stay in memory and
are aggregated when the run ends. A layer's self time is the sum over its
spans of duration minus the durations of their child spans (calls are
nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import time

#: (module, attribute, span name, counter). The counter maps
#: (args, kwargs, result) to {metric: amount}.
def _rows(args, kwargs, result):
    if hasattr(result, "points"):
        return {"dataio.parse_rows": len(result), "dataio.bytes_in": len(args[0])}
    return {"dataio.parse_rows": sum(len(s) for s in result), "dataio.bytes_in": len(args[0])}


def _out(metric):
    return lambda args, kwargs, result: {metric: len(result)}


def _fit(args, kwargs, result):
    return {"fitting.fits": 1, "fitting.bytes_computed": args[0].points.nbytes}


def _error(args, kwargs, result):
    return {"fitting.bytes_computed": args[0].points.nbytes}


def _count(metric):
    return lambda args, kwargs, result: {metric: 1}


BINDINGS = (
    ("cli", "main", "cli", _count("cli.ops")),
    ("cli", "parse_cloud_csv", "dataio.parse", _rows),
    ("cli", "parse_indicator_csv", "dataio.parse", _rows),
    ("cli", "format_cloud_csv", "dataio.format", _out("dataio.bytes_out")),
    ("cli", "format_indicator_csv", "dataio.format", _out("dataio.bytes_out")),
    ("cli", "economy_indicators", "economy", lambda a, k, r: {"economy.planes": len(r.planes)}),
    ("cli", "trajectory", "economy", None),
    ("cli", "v4_dataset", "economy", None),
    ("cli", "fit_line", "fitting.fit", _fit),
    ("cli", "fit_hyperplane", "fitting.fit", _fit),
    ("cli", "compare_ols_tls", "regression", _count("regression.calls")),
    ("cli", "build_fit_report", "report.build", None),
    ("cli", "render_fit", "report.render", _out("report.bytes_out")),
    ("cli", "render_compare", "report.render", _out("report.bytes_out")),
    ("cli", "render_economy", "report.render", _out("report.bytes_out")),
    ("cli", "scene_dict", "report.scene", None),
    ("cli", "polyline_chart", "svg", _out("svg.bytes_out")),
    ("cli", "scatter_chart", "svg", _out("svg.bytes_out")),
    ("cli", "generate_line_cloud", "synthetic", lambda a, k, r: {"synthetic.points": len(r.cloud)}),
    ("fitting", "fit_line", "fitting.fit", _fit),
    ("fitting", "fit_hyperplane", "fitting.fit", _fit),
    ("fitting", "total_orthogonal_error", "fitting.fit", _error),
    ("fitting", "scatter_matrix", "fitting.scatter", None),
    ("fitting", "eigen_symmetric", "eigen", _count("eigen.calls")),
    ("report", "scatter_matrix", "fitting.scatter", None),
    ("report", "eigen_symmetric", "eigen", _count("eigen.calls")),
    ("regression", "fit_line", "fitting.fit", _fit),
    ("regression", "compare_ols_tls", "regression", _count("regression.calls")),
    ("economy", "fit_hyperplane", "fitting.fit", _fit),
    ("economy", "economy_indicators", "economy", lambda a, k, r: {"economy.planes": len(r.planes)}),
)

#: Self time of spans with this name goes to this per-layer metric.
SELF_METRIC = {
    "cli": "cli.self_ms",
    "dataio.parse": "dataio.parse_ms",
    "dataio.format": "dataio.format_ms",
    "fitting.cloud": "fitting.cloud_ms",
    "fitting.scatter": "fitting.scatter_ms",
    "fitting.fit": "fitting.fit_self_ms",
    "eigen": "eigen.solve_ms",
    "regression": "regression.compare_ms",
    "economy": "economy.indicators_ms",
    "report.build": "report.build_ms",
    "report.render": "report.render_ms",
    "report.scene": "report.scene_ms",
    "svg": "svg.chart_ms",
    "synthetic": "synthetic.generate_ms",
}

#: A raised exception in a span of this layer counts as that layer's failure.
FAILED_METRIC = {
    "dataio.parse": "dataio.failed",
    "dataio.format": "dataio.failed",
    "fitting.cloud": "fitting.failed",
    "fitting.scatter": "fitting.failed",
    "fitting.fit": "fitting.failed",
}

COUNT_METRICS = (
    "cli.ops", "cli.failed", "dataio.parse_rows", "dataio.bytes_in", "dataio.bytes_out",
    "dataio.failed", "fitting.fits", "fitting.bytes_computed", "fitting.failed", "eigen.calls",
    "regression.calls", "economy.planes", "report.bytes_out", "svg.bytes_out", "synthetic.points",
)


class Tracer:
    """Installs wrappers, records spans, and restores the original bindings."""

    def __init__(self, modules):
        self.modules = modules  # name -> imported orthoreg module
        self.spans = []  # [name, start, end, parent, op_id, counts, raised]
        self.stack = []
        self.op_id = 0
        self._saved = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None, False]
            spans.append(span)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = time.perf_counter()
                span[1] = start
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            if name == "cli" and result != 0:
                span[6] = True
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, name, counter in BINDINGS:
            mod = self.modules[module]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name, counter))
        cls = self.modules["fitting"].PointCloud
        original = cls.__post_init__
        self._saved.append((cls, "__post_init__", original))
        cls.__post_init__ = self._wrap(original, "fitting.cloud", None)

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def metrics(self) -> dict:
        """Per-layer self times (ms) and counts over every recorded span."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out = {metric: 0.0 for metric in SELF_METRIC.values()}
        out.update({metric: 0 for metric in COUNT_METRICS})
        for i, (name, start, end, _, _, counts, raised) in enumerate(self.spans):
            out[SELF_METRIC[name]] += (end - start - child[i]) * 1e3
            for key, amount in (counts or {}).items():
                out[key] += amount
            if raised:
                key = "cli.failed" if name == "cli" else FAILED_METRIC.get(name)
                if key is not None:
                    out[key] += 1
        return out
