"""What ``orthoreg.cli.main`` does to its process: one ``gc.freeze()`` on the
first call, and nothing that a later call leaves behind."""

import argparse
import gc
import subprocess
import sys
import weakref
from pathlib import Path

import orthoreg
from orthoreg import cli

ECONOMY_JSON = ["economy", "--format", "json"]

CALLS = [
    ECONOMY_JSON,
    ["fit", "--input", "builtin:v4", "--country", "SK", "--geometry", "plane"],
    ["economy", "--format", "text"],
    ["fit", "--input", "missing.csv", "--geometry", "line"],  # exit 2
    ["fit", "--input", "builtin:v4", "--geometry", "line"],  # usage error, exit 2
]


def test_first_call_freezes_the_objects_alive(capsys):
    assert cli.main(ECONOMY_JSON) == 0
    assert gc.get_freeze_count() > 0


def test_later_calls_freeze_nothing(capsys):
    cli.main(ECONOMY_JSON)
    frozen = gc.get_freeze_count()
    for i in range(10):
        cli.main(CALLS[i % len(CALLS)])
    # A frozen object can still die by its reference count, never be added.
    assert 0 < gc.get_freeze_count() <= frozen


def test_later_calls_leave_no_parser_behind(capsys, monkeypatch):
    # A command's subparsers and parent parsers are garbage in cycles, which
    # a freeze on every call would keep for good.
    cli.main(ECONOMY_JSON)
    parsers = []
    init = argparse.ArgumentParser.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        parsers.append(weakref.ref(self))

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", tracked_init)
    for i in range(10):
        cli.main(CALLS[i % len(CALLS)])
    gc.collect()
    assert len(parsers) >= 10
    assert [ref for ref in parsers if ref() is not None] == []


def test_process_output_matches_in_process_output(capsys):
    assert cli.main(ECONOMY_JSON) == 0
    expected = capsys.readouterr().out
    code = "import sys; from orthoreg.cli import main; sys.exit(main())"
    env = {"PYTHONPATH": str(Path(orthoreg.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", code, *ECONOMY_JSON],
        capture_output=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.decode() == expected
