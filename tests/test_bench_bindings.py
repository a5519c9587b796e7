"""The benchmark's traced runs wrap program functions by name
(``bench/spans.py``); a rename must fail here, in seconds, rather than only
in the benchmark's self-test."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import orthoreg.fitting
from orthoreg import PointCloud, fit_hyperplane, fit_line

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _bindings():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.BINDINGS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _bindings()])
def test_binding_resolves_to_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(f"orthoreg.{module}"), attr))


@pytest.mark.parametrize("fit, points", [
    (fit_line, [[0.0, 0.0], [1.0, 2.0], [2.0, 3.9]]),
    (fit_hyperplane, [[0.0, 0.0, 1.0], [1.0, 0.0, 2.0], [0.0, 1.0, 0.5], [1.0, 1.0, 1.4]]),
])
def test_one_eigensolve_per_fit(monkeypatch, fit, points):
    calls = []
    solve = orthoreg.fitting.eigen_symmetric

    def counted(m):
        calls.append(m)
        return solve(m)

    monkeypatch.setattr(orthoreg.fitting, "eigen_symmetric", counted)
    fit(PointCloud(np.array(points)))
    assert len(calls) == 1
