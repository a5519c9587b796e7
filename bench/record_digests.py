"""Record the SHA-256 digest of every CLI op's output at the default seed.

    python3 bench/record_digests.py

Writes ``golden_sha256.json`` next to this file. ``run.py`` then requires
byte-identical output (stdout, exit code and written files) at the default
seed. Run it only when a change to the output bytes is intended.
"""

from __future__ import annotations

import json
import shutil
import sys

import loop
import run


def main() -> int:
    env = loop.child_env()
    digests = {}
    for name in ("cli-bulk", "cli-small"):
        workdir = run.WORK / f"record-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            workload = run.build_cli(name, run.DEFAULT_SEED, workdir)
            tally = loop.Tally()
            digests[name] = {}
            for index, op in enumerate(workload.ops):
                _, result = loop.cli_subprocess(workload, op, env)
                tally.cli_result(index, op, result)
                digests[name][op.name] = result.fingerprint()
            if tally.failed:
                print("\n".join(tally.messages), file=sys.stderr)
                return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
