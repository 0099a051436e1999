"""Scale ladder of the ``example42`` CLI: how its time and memory grow with nmax.

Usage, from the root of a checkout::

    python3 benchmarks/scale.py --src ../parent/src --column parent --out BENCH.json
    python3 benchmarks/scale.py --src src --column change --out BENCH.json
    python3 benchmarks/scale.py --quick --out quick.json

Each repeat of a rung N runs ``antinef example42 --nmax N`` in a fresh
interpreter that imports the package from ``--src``.  The child times
``main`` (the import is not timed) and reports its own peak RSS from
``resource.getrusage(RUSAGE_SELF)``; this script hashes the child's stdout.
Seconds are scaled by the kernel of ``perfbench/reference.py``, timed in
this process (which never imports the package) just before each repeat:
scaled = wall * REFERENCE_SECONDS / kernel, the seconds on a machine as
fast as the reference one.

Per rung the column records the min and median scaled seconds over the
repeats, the highest peak RSS, and the sha256 of stdout, which must be the
same in every repeat.  Once a rung's median exceeds ``CAP_SECONDS`` scaled
seconds, the larger rungs are recorded as ``capped`` and not run.  Per
column it records the log-log slope between the two largest rungs run, the
checkout's ``git describe``, the Python version and the median kernel time.

``--out`` is merged: the named column is written, and the other columns
already in the file are kept, so parent and change come from two runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from reference import REFERENCE_SECONDS, seconds as kernel_seconds  # noqa: E402

RUNGS, REPEATS = (100, 200, 400, 800), 5
QUICK_RUNGS, QUICK_REPEATS = (100, 200), 3
CAP_SECONDS = 30.0  # scaled; a rung whose median exceeds it caps the larger rungs

CHILD = """\
import json, resource, sys, time
from antinef.cli import main
start = time.perf_counter()
code = main(["example42", "--nmax", sys.argv[1]])
sys.stdout.flush()
wall = time.perf_counter() - start
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"code": code, "wall_s": wall, "peak_rss_kb": rss_kb}), file=sys.stderr)
"""


def repeat(src: str, n: int, timeout: float) -> dict:
    """One fresh child at nmax ``n``: its wall seconds, peak RSS and stdout digest."""
    kernel = min(kernel_seconds() for _ in range(3))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(n)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        timeout=timeout,
        check=False,
    )
    report = {}
    if proc.returncode == 0:
        report = json.loads(proc.stderr.decode().strip().splitlines()[-1])
    if report.get("code") != 0:
        raise RuntimeError(f"nmax {n} failed:\n{proc.stderr.decode(errors='replace')}")
    return {
        "scaled_s": report["wall_s"] * REFERENCE_SECONDS / kernel,
        "kernel_s": kernel,
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
        "sha256": hashlib.sha256(proc.stdout).hexdigest(),
    }


def ladder(src: str, rungs, repeats: int, cap: float) -> dict:
    """The column for one checkout: every rung, its slope and provenance."""
    rows, kernels, capped = [], [], False
    for n in rungs:
        if capped:
            rows.append({"n": n, "status": "capped"})
            continue
        runs = [repeat(src, n, timeout=60 + 20 * cap) for _ in range(repeats)]
        digests = {r["sha256"] for r in runs}
        if len(digests) != 1:
            raise RuntimeError(f"nmax {n}: stdout differs between repeats")
        times = [r["scaled_s"] for r in runs]
        kernels += [r["kernel_s"] for r in runs]
        rows.append({
            "n": n,
            "status": "ok",
            "repeats": repeats,
            "min_s": round(min(times), 5),
            "median_s": round(statistics.median(times), 5),
            "peak_rss_mb": round(max(r["peak_rss_mb"] for r in runs), 1),
            "sha256": digests.pop(),
        })
        capped = statistics.median(times) > cap
        print(f"nmax {n}: median {rows[-1]['median_s']} scaled s, "
              f"{rows[-1]['peak_rss_mb']} MB", file=sys.stderr)
    ran = [row for row in rows if row["status"] == "ok"]
    slope = None
    if len(ran) >= 2:
        a, b = ran[-2], ran[-1]
        slope = round(math.log(b["median_s"] / a["median_s"]) / math.log(b["n"] / a["n"]), 3)
    return {
        "git": _describe(src),
        "python": platform.python_version(),
        "kernel_median_s": round(statistics.median(kernels), 5),
        "cap_s": cap,
        "slope": slope,
        "rungs": rows,
    }


def _describe(src: str) -> str:
    proc = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=7"],
        cwd=os.path.dirname(os.path.abspath(src)), capture_output=True, text=True, check=False,
    )
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the checkout's src/ directory to measure (default: this one)")
    parser.add_argument("--column", default="change", help="column name in --out")
    parser.add_argument("--out", required=True, help="JSON file to write or merge into")
    parser.add_argument("--quick", action="store_true",
                        help=f"only nmax {QUICK_RUNGS}, {QUICK_REPEATS} repeats: under 10 s")
    args = parser.parse_args(argv)
    rungs, repeats = (QUICK_RUNGS, QUICK_REPEATS) if args.quick else (RUNGS, REPEATS)

    data = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as handle:
            data = json.load(handle)
    data.update({
        "ladder": "antinef example42 --nmax N, one fresh interpreter per repeat",
        "unit": "scaled s = wall s * reference_s / kernel s; peak RSS in MB",
        "reference_s": REFERENCE_SECONDS,
    })
    data.setdefault("columns", {})[args.column] = ladder(args.src, rungs, repeats, CAP_SECONDS)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
