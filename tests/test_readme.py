"""The README's library quick start runs and its comments state its results."""

import re
from pathlib import Path

import numpy as np
import pytest

from orthoreg.report import render_fit

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    (block,) = [b for b in blocks if 'render_fit(fit, "text")' in b]
    return block


def test_quick_start_runs_and_matches_its_comments(capsys):
    block = quick_start()
    for comment in ("anchor (4, 5)", "# 11.0", "# 0.45   (classical y on x)",
                    "# 0.45   (classical x on y)", "# True",
                    "# (0.6704, 0.7195, -0.1811)", "# 4.2633"):
        assert comment in block
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)

    line = namespace["line"]
    assert line.anchor == pytest.approx([4.0, 5.0], abs=1e-12)
    assert line.error.sum_sq == pytest.approx(11.0, abs=1e-12)
    report = namespace["report"]
    assert report.ols.slope == pytest.approx(0.45, abs=1e-12)
    assert report.conjugate.slope == pytest.approx(0.45, abs=1e-12)
    assert report.tls_between_scissors is True
    plane = namespace["plane"]
    assert np.round(plane.plane.normal, 4).tolist() == [0.6704, 0.7195, -0.1811]
    assert round(plane.err_reported, 4) == 4.2633
    assert capsys.readouterr().out == render_fit(namespace["fit"], "text") + "\n"
