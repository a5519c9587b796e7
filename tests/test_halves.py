"""Large per-point tables are parsed and written in two processes, one half
each (``dataio._in_halves``): the same bits and bytes as one process, the
same errors, and no child process left behind.

``_SPLIT_ROWS`` is lowered so that small tables split; a host where the
split cannot run (one CPU, no ``os.fork``, Python 3.12 or later) skips the
tests that need it.
"""

import csv
import json
import math
import os
import pickle
import signal
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orthoreg import ResidualStats, dataio
from orthoreg.cli import main
from orthoreg.dataio import format_cloud_csv, parse_cloud_csv
from orthoreg.fitting import FittedLine, PointCloud
from orthoreg.report import FitReport, _flatten, build_fit_report, render_fit, report_to_dict

from _helpers import LABELS, parse_outcome, reference_csv

#: Labels that a strict UTF-8 round trip would lose or change (the child's
#: half crosses the pipe as a pickle, which must keep them), and the
#: characters a CSV cell or a %-format treats specially.
_ODD_LABELS = ["\ud800", "a\udfffb", "😀", "\r", 'c\r"d', "%", "%s%%", "", "é€😀"]


@pytest.fixture
def forks(monkeypatch):
    """Split every table of two rows or more; the list of forked child pids."""
    if not dataio._splits(dataio._SPLIT_ROWS):
        pytest.skip("tables are parsed and written in one process on this host")
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(dataio, "_SPLIT_ROWS", 2)
    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def _one_process(call, *args):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_SPLIT_ROWS", math.inf)
        return call(*args)


def _cloud_text(n, delimiter=",", labelled=False):
    rng = np.random.default_rng(n)
    cells = [
        repr(float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))),
        f" {rng.integers(-10**6, 10**6)} ",
        f"{rng.standard_normal():.17e}",
        "-0.0",
        "5e-324",
    ]
    rows = []
    for i in range(n):
        row = [cells[(i + k) % len(cells)] for k in range(3)]
        rows.append(delimiter.join(([f" p{i}é "] if labelled else []) + row))
    header = (["name"] if labelled else []) + ["x", "y", "z"]
    return delimiter.join(header) + "\n" + "\n".join(rows) + "\n"


class TestSameBitsAndBytes:
    @pytest.mark.parametrize("delimiter", [",", ";", "\t"])
    @pytest.mark.parametrize("labelled", [False, True])
    def test_parse(self, forks, delimiter, labelled):
        text = _cloud_text(41, delimiter, labelled)
        label_column = "name" if labelled else None
        split = parse_outcome(parse_cloud_csv, text, None, label_column, delimiter)
        assert forks
        assert split == _one_process(parse_outcome, parse_cloud_csv, text, None, label_column,
                                     delimiter)
        cloud = parse_cloud_csv(text, label_column=label_column, delimiter=delimiter)
        assert cloud.points.flags.writeable

    @pytest.mark.parametrize("row", [3, 38])  # first half, second half of 41 rows
    @pytest.mark.parametrize(
        "fault", ["1,n/a,3", "1,2", "1,2,nan", "1,2,1e999", "1,2,3,4,5", "   ", "", "1,2,3 ;"]
    )
    def test_a_fault_in_either_half(self, forks, row, fault):
        lines = _cloud_text(41).split("\n")
        lines[row] = fault
        text = "\n".join(lines)
        expected = _one_process(parse_outcome, parse_cloud_csv, text)
        assert parse_outcome(parse_cloud_csv, text) == expected
        assert forks

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(LABELS | st.sampled_from(_ODD_LABELS), min_size=2, max_size=9),
           st.none() | LABELS | st.sampled_from(_ODD_LABELS))
    def test_format_cloud_csv(self, forks, labels, label_name):
        rng = np.random.default_rng(len(labels))
        shape = len(labels), 2
        points = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        points[0, 0] = -0.0
        cloud = PointCloud(points, labels=labels)
        rows = [[repr(x), repr(y)] for x, y in points.tolist()]
        assert format_cloud_csv(cloud, ["x%", "y\r"]) == reference_csv([["x%", "y\r"], *rows])
        if label_name is not None:
            expected = reference_csv(
                [[label_name, "x%", "y\r"], *([label, *row] for label, row in zip(labels, rows))]
            )
            assert format_cloud_csv(cloud, ["x%", "y\r"], label_name) == expected
        assert forks

    def test_render_fit(self, forks):
        """json.dumps, one csv.writer row per key and one formatted text
        line per point."""
        distances = [math.inf, -0.0, 5e-324, 1e16, 1e-5, 2.5, math.inf, 0.1]
        labels = (_ODD_LABELS * 2)[: len(distances)]
        stats = ResidualStats(np.array(distances))
        model = FittedLine(np.array([1.0, 2.0]), np.array([0.6, 0.8]), stats)
        report = FitReport(model, labels)
        data = report_to_dict(report)
        assert render_fit(report, "json") == json.dumps(data, indent=2) + "\n"
        pairs = []
        _flatten("", data, pairs)
        assert render_fit(report, "csv") == reference_csv([("key", "value"), *pairs])
        _, _, lines = render_fit(report, "text").partition("per-point distances:\n")
        assert lines == "".join(f"  {label:>8}  {d:.4f}\n" for label, d in zip(labels, distances))
        assert len(forks) == 3

    @pytest.mark.parametrize("labels, distances", [
        pytest.param(["a", "b", "c", 'd"', "e\\", "fé"], [0.5] * 6,
                     id="only the second half's labels need escaping"),
        pytest.param(["a", "b", "c", "d", "e", "f"], [math.inf, 0.5, math.inf, 1.0, 2.0, 3.0],
                     id="only the first half holds a non-finite distance"),
        pytest.param(["a", "b", "c", "d", "e", "f"], [1.0, 2.0, 3.0, 0.25, math.inf, 0.5],
                     id="only the second half holds a non-finite distance"),
        pytest.param(["a", "b"], [1e308, 1e308], id="finite distances whose sum overflows"),
        pytest.param(['"', "\\", "\x1f", "\x7f", "é", "\ud800", "%", "%s"], [0.25] * 8,
                     id="labels json.dumps escapes, and %"),
    ])
    def test_render_fit_json(self, forks, labels, distances):
        """A label column is escaped, and the non-finite distances spelt,
        by one decision over the whole table, not per half."""
        stats = ResidualStats(np.array(distances))
        report = FitReport(FittedLine(np.array([1.0, 2.0]), np.array([0.6, 0.8]), stats), labels)
        assert render_fit(report, "json") == json.dumps(report_to_dict(report), indent=2) + "\n"
        assert len(forks) == 1

    @pytest.mark.parametrize("n", [2, 7])
    def test_format_cloud_csv_index_column(self, forks, n):
        """An unlabelled cloud's index column is written inside each half."""
        points = np.random.default_rng(n).standard_normal((n, 2))
        expected = reference_csv(
            [["i", "x", "y"], *([str(i), repr(x), repr(y)] for i, (x, y) in enumerate(points.tolist()))]
        )
        assert format_cloud_csv(PointCloud(points), ["x", "y"], "i") == expected
        assert len(forks) == 1
        assert _one_process(format_cloud_csv, PointCloud(points), ["x", "y"], "i") == expected


def _kv_csv(data):
    pairs = []
    _flatten("", data, pairs)
    return reference_csv([("key", "value"), *pairs])


def _line(distances):
    stats = ResidualStats(distances)
    return FittedLine(np.array([1.0, 2.0]), np.array([0.6, 0.8]), stats)


class TestEachHalfOwnsItsRows:
    """Each half splits its own lines and takes its own labels, converts its
    own floats, and escapes and formats its own labels."""

    @pytest.mark.parametrize("odd", _ODD_LABELS)
    @pytest.mark.parametrize("row", [1, 6])  # first half, second half of 8
    def test_a_label_to_escape_in_either_half(self, forks, odd, row):
        labels = [f"p{i}" for i in range(8)]
        labels[row] = odd
        points = np.random.default_rng(row).standard_normal((8, 2))
        report = FitReport(_line(np.abs(points[:, 0])), labels)
        cloud = PointCloud(points, labels=labels)
        expected = {
            "json": json.dumps(report_to_dict(report), indent=2) + "\n",
            "csv": _kv_csv(report_to_dict(report)),
            "cloud": reference_csv([["name", "x", "y"], *(
                [label, repr(x), repr(y)] for label, (x, y) in zip(labels, points.tolist()))]),
        }
        outputs = (render_fit(report, "json"), render_fit(report, "csv"),
                   format_cloud_csv(cloud, ["x", "y"], "name"))
        assert len(forks) == 3
        assert outputs == tuple(expected.values())
        assert _one_process(render_fit, report, "json") == expected["json"]
        assert _one_process(render_fit, report, "csv") == expected["csv"]
        assert _one_process(format_cloud_csv, cloud, ["x", "y"], "name") == expected["cloud"]

    @pytest.mark.parametrize("n", [1, 2, 7, 9, 11])  # about a _SPLIT_ROWS of 10
    @pytest.mark.parametrize("split", [True, False])
    def test_index_labels_render_as_explicit_labels(self, request, monkeypatch, n, split):
        forks = request.getfixturevalue("forks") if split else []
        monkeypatch.setattr(dataio, "_SPLIT_ROWS", 10 if split else math.inf)
        points = np.random.default_rng(n).standard_normal((n, 2))
        points[0, 0] = math.inf  # a distance that json spells Infinity
        model = _line(np.abs(points[:, 0]))
        names = tuple(str(i) for i in range(n))
        index = build_fit_report(PointCloud(points[:, 1:]), model, "sum_abs", {})
        named = build_fit_report(PointCloud(points[:, 1:], labels=names), model, "sum_abs", {})
        for output_format in ("json", "csv", "text"):
            assert render_fit(index, output_format) == render_fit(named, output_format)
        assert len(forks) == (6 if split and n >= 10 else 0)
        assert index.labels == names and hash(index.labels) == hash(names)
        assert tuple(index.labels) == names and index.labels[1:] == names[1:]
        assert index.labels[-1] == names[-1] and len(index.labels) == n
        assert {type(label) for label in index.labels} == {str}
        assert index.per_point == named.per_point
        assert {type(label) for label, _ in index.per_point} == {str}
        data = report_to_dict(index)
        assert data == report_to_dict(named)
        assert {type(point["label"]) for point in data["per_point"]} == {str}
        assert FitReport(model, range(n)).labels == names

    @staticmethod
    def _fault(row, fault):
        lines = _cloud_text(41).split("\n")
        lines[row] = fault
        return "\n".join(lines)

    @pytest.mark.parametrize("text, label_column, delimiter, splits, bulk", [
        pytest.param("x,y,z\n" + "1,2,3\n" * 5 + "\n" * 200 + "4,5,6\n" * 5, None, ",", True, True,
                     id="the cut inside a run of blank lines"),
        pytest.param("x,y,z\n1,2,3\n4,5,6\n0." + "0" * 300 + "7,8,9\n", None, ",", True, True,
                     id="the cut on the last line"),
        pytest.param("x,y,z\n1,2,3\n4,5,6\n0." + "0" * 300 + "7,8,9", None, ",", True, True,
                     id="the cut on the last line, with no newline after it"),
        pytest.param(_cloud_text(41).rstrip("\n"), None, ",", True, True, id="no trailing newline"),
        pytest.param("x,y,z\n1,2,3\n", None, ",", False, True, id="one data row"),
        pytest.param("x,y,z\n1,2,3", None, ",", False, True, id="one data row, no newline"),
        pytest.param("x,y,z\n1,2,3\n\n\n\n", None, ",", True, True, id="one data row, then blank lines"),
        pytest.param("\n\nx,y,z\n\n1,2,3\n4,5,6\n", None, ",", True, True, id="blank lines first"),
        pytest.param("x,y,z\n", None, ",", False, False, id="no data row"),
        pytest.param("x,y,z\n\n\n\n", None, ",", True, False, id="no data row, blank lines"),
        pytest.param(_fault(38, '"1",2,3'), None, ",", False, False, id="a quote in the second half"),
        pytest.param(_fault(38, "1,2,3" + ",0" * 250), None, ",", True, False,
                     id="an over-long line in the second half"),
        pytest.param(_fault(38, "1,2," + "3" * 500), None, ",", True, False,
                     id="an over-long cell in the second half"),
        pytest.param(_fault(38, "1,2,nan"), None, ",", True, False, id="nan in the second half"),
        pytest.param(_fault(38, "1,2"), None, ",", True, False, id="a short row in the second half"),
        pytest.param(("\ufeff" + _cloud_text(41).replace("\n", "\r\n")).encode(), None, ",", True, True,
                     id="CRLF and a byte-order mark"),
        pytest.param(_cloud_text(41, ";", True), "name", ";", True, True, id="labels, ;-delimited"),
        pytest.param("x,y,name\n1,2,a\n3,4,b\n" + "\n" * 40, "name", ",", True, True,
                     id="labels, then blank lines"),
        pytest.param("x,y,name\n" + "".join(f"{i},{i * i},p{i}\n" for i in range(9)) + "1,2\n",
                     "name", ",", True, False, id="a row without its label in the second half"),
    ])
    def test_where_the_parser_cuts_the_body(self, forks, text, label_column, delimiter, splits,
                                            bulk):
        """The bits of one process, and the row parser's bits or error; a
        cloud from the split ``np.loadtxt`` wherever ``bulk``."""
        previous = csv.field_size_limit(400)
        try:
            cloud = dataio._parse_cloud_bulk(dataio._source_text(text), None, label_column,
                                             delimiter)
            assert (cloud is not None) == bulk
            assert bool(forks) == splits
            split = parse_outcome(parse_cloud_csv, text, None, label_column, delimiter)
            assert split == _one_process(
                parse_outcome, parse_cloud_csv, text, None, label_column, delimiter)
            rows = parse_outcome(dataio._parse_cloud_rows, dataio._source_text(text), None,
                                 label_column, delimiter)
        finally:
            csv.field_size_limit(previous)
        assert split == rows


class TestProcessHygiene:
    @staticmethod
    def _bytes(lo, hi):
        return b"".join(b"%d," % i for i in range(lo, hi))

    def test_a_child_that_raises_leaves_the_half_to_the_parent(self, forks):
        parent = os.getpid()

        def work(lo, hi):
            if os.getpid() != parent:
                raise RuntimeError("only in the child")
            return self._bytes(lo, hi)

        assert b"".join(dataio._in_halves(work, 11)) == self._bytes(0, 11)
        assert forks
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_child_whose_pickle_breaks_part_way(self, forks):
        """The child pickles a first item far larger than a pipe holds into
        the pipe before it meets one that cannot be pickled."""
        parent = os.getpid()

        def work(lo, hi):
            if os.getpid() != parent:
                return [bytes(4 << 20), lambda: None]
            return self._bytes(lo, hi)

        assert b"".join(dataio._in_halves(work, 11)) == self._bytes(0, 11)
        assert forks
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_child_that_exits_0_with_a_cut_pickle(self, forks, monkeypatch):
        """Only a whole pickle is the child's half."""
        parent = os.getpid()

        def work(lo, hi):
            return self._bytes(lo, hi) if os.getpid() == parent else b"the child's"

        def cut_dump(obj, file, protocol):
            file.write(pickle.dumps(obj, protocol)[:-1])

        monkeypatch.setattr(pickle, "dump", cut_dump)
        assert b"".join(dataio._in_halves(work, 11)) == self._bytes(0, 11)
        assert forks
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_parent_that_raises_reaps_a_blocked_child(self, forks):
        """The child's half is far more than a pipe holds, so it blocks on
        the write until the parent closes the read end."""
        parent = os.getpid()

        def work(lo, hi):
            if os.getpid() == parent:
                raise ValueError("only in the parent")
            return bytes(16 << 20)

        def timeout(signum, frame):
            raise TimeoutError("the parent hung")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(30)
        try:
            with pytest.raises(ValueError, match="only in the parent"):
                dataio._in_halves(work, 4)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert forks
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_split_warns_of_nothing(self, forks):
        cloud = PointCloud(np.arange(40.0).reshape(20, 2), labels=_ODD_LABELS * 2 + ["a", "b"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = format_cloud_csv(cloud, ["x", "y"], "name")
            parse_cloud_csv(_cloud_text(20))
        assert text == _one_process(format_cloud_csv, cloud, ["x", "y"], "name")
        assert forks

    @pytest.mark.parametrize(
        "where",
        [
            pytest.param(lambda patch: patch.setattr(os, "sched_getaffinity", lambda pid: {0},
                                                     raising=False), id="one CPU"),
            pytest.param(lambda patch: patch.setattr(sys, "version_info", (3, 12, 0)),
                         id="Python 3.12"),
            pytest.param(lambda patch: patch.delattr(os, "fork", raising=False), id="no fork"),
            pytest.param(lambda patch: patch.setattr(dataio, "_SPLIT_ROWS", 12),
                         id="below _SPLIT_ROWS"),
        ],
    )
    def test_one_process(self, monkeypatch, where):
        monkeypatch.setattr(dataio, "_SPLIT_ROWS", 2)
        where(monkeypatch)
        if hasattr(os, "fork"):
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        calls = []

        def work(lo, hi):
            calls.append((lo, hi))
            return self._bytes(lo, hi)

        assert b"".join(dataio._in_halves(work, 11)) == self._bytes(0, 11)
        assert calls == [(0, 11)]

    @pytest.mark.parametrize(
        "row, code", [(3, 0), (30, 0), (3, 3), (30, 3)]
    )  # a fit, or a non-numeric cell in either half: exit 3
    def test_no_cli_run_leaves_a_child(self, forks, tmp_path, capsys, row, code):
        lines = ["x,y,z"] + [f"{i / 7!r},{i % 5},{i * i % 11}" for i in range(41)]
        if code:
            lines[row] = "1,2,n/a"
        path = tmp_path / "cloud.csv"
        path.write_text("\n".join(lines))
        for output_format in ("json", "csv", "text"):
            argv = ["fit", "--input", str(path), "--geometry", "plane", "--format", output_format]
            assert main(argv) == code
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        out, err = capsys.readouterr()
        assert bool(out) == (code == 0) and bool(err) == (code != 0)
        assert forks
