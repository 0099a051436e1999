"""Record the output digests that benchmark runs on the recorded seeds must match.

Run from the root of a checkout of the commit whose output is the reference::

    python3 perfbench/record.py

It rewrites ``perfbench/expected.json``.  Output bytes are part of the
program's contract, so a change that alters them is caught by every later
benchmark run; re-record only when the generators change.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]

import antinef.cli  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
from run import EXPECTED  # noqa: E402


def digest(workload: str, seed: int, work: str) -> str:
    text = gen.generate(workload, seed)
    scenario, output = os.path.join(work, "in.scn"), os.path.join(work, "out.csv")
    with open(scenario, "w", encoding="utf-8") as handle:
        handle.write(text)
    code = antinef.cli.main(["run", "--scenario", scenario, "--format", "csv", "--output", output])
    with open(output, "rb") as handle:
        data = handle.read()
    problems = checks.check(workload, text, data.decode())
    if code != 0 or problems:
        raise SystemExit(f"{workload} seed {seed}: exit {code}, {problems}")
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as work:
        table = {
            workload: {str(s): digest(workload, s, work) for s in (gen.DEFAULT_SEED, gen.HELD_OUT_SEED)}
            for workload in gen.GENERATORS
        }
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=2)
        handle.write("\n")
    print(json.dumps(table, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
