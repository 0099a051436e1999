"""Scale ladders: how the time and memory of a run grow with its size.

Usage, from the root of a checkout::

    python3 benchmarks/scale.py --src ../parent/src --column parent \
        --src src --column change --out BENCH.json
    python3 benchmarks/scale.py --ladder parse --ladder value_vector \
        --src ../parent/src --column parent --src src --column change --out BENCH.json
    python3 benchmarks/scale.py --ladder unload --repeats 11 --out BENCH.json
    python3 benchmarks/scale.py --quick --out quick.json

The ladders (``LADDERS``):

* ``example42`` - ``antinef example42 --nmax N`` through the CLI, N in 100,
  200, 400 and 800;
* ``unload`` and ``nef_envelope`` - one call on a seeded n-point cluster
  with satellites, n in 250, 500 and 1000, on an effective integer divisor
  with 20% of its coefficients in 1..10^6 and the rest 0;
* ``qdivisorial`` - ``multiplicity_sequence`` of a new ``QDivisorialSpec``
  to N, N in 100, 200 and 400, on a seeded 21-point cluster, with 40% of
  the generator's coefficients a/b, b in {2, 3, 5, 7, 11}, and the rest 0;
  the time includes the spec's nef envelope;
* ``value_vector`` - one ``value_vector`` call on the tree of the
  ``perfbench`` ``curves`` workload (seed 1) for a product of k seeded picks
  from its four branch equations, k in 6, 12 and 24; pick j adds j x^N to
  its equation, N beyond the order the tree resolves, so the k factors are
  distinct and the walks grow with k; the product is parsed before the
  timer starts, on a fresh cluster;
* ``parse`` - ``parse_scenario`` of the ``value_vector`` ladder's scenario
  for k in 4, 8, 16 and 24: the tree's point lines and the product of k
  picks; the child prints the tree's size and the product's order;
* ``scenario`` - ``parse_scenario`` of the ``unload`` ladder's seeded
  n-point cluster, written as point lines with a parameter on every free
  point, and two divisors on it: the ``unload`` ladder's integer divisor
  and one with 40% of its coefficients -a/b, n in 250, 500, 1000 and 2000
  (``MAX_POINTS``); the child prints the cluster's size, its satellite
  count and sums of the divisors' coefficients;
* ``definite`` - ``is_negative_definite`` of the intersection matrix of the
  ``unload`` ladder's seeded n-point cluster, n in 100, 200 and 400; the
  matrix is built before the timer starts; the child prints its size and
  the verdict.

Each repeat of a rung runs ``scale_child.py`` in a fresh interpreter that
imports the package from ``--src``.  Given two or more ``--src`` trees, one
run measures them all, one ``--column`` each: their repeats of a rung
alternate, the first tree first on even repeats and last on odd ones, as
``perfbench/compare.py`` alternates the sides of a pair, so that no column
is recorded after another.  The child times only the measured call
(not the import, nor building the seeded input) and reports its own peak
RSS (Linux ``VmHWM``, else ``ru_maxrss``); this script hashes the
child's stdout, which is the CLI's output or the printed result.  Seconds
are scaled by the kernel of ``perfbench/reference.py``, timed in this
process (which never imports the package) just before each repeat, the
min of three timings (with ``--quick``, one timing before each rung, which
scales all of its repeats):
scaled = wall * REFERENCE_SECONDS / kernel, the seconds on a machine as
fast as the reference one.

Per rung a column records the min scaled seconds over the repeats, their
quartiles ``q1_s``, ``median_s`` and ``q3_s`` (``statistics.quantiles``, as
``perfbench/compare.py`` reads a spread), the highest peak RSS, and the
sha256 of stdout, which must be the same in every repeat.  Once a rung's
median exceeds ``CAP_SECONDS`` scaled seconds, the larger rungs are
recorded as ``capped`` and not run, in that column.  Per
column it records the log-log slope between the two largest rungs run, the
checkout's ``git describe``, the Python version and the median kernel time.

``--out`` is merged: the named columns of each ladder run are written, and
everything else already in the file is kept.  ``--ladder`` runs only the
named ladders.  ``--repeats`` sets the repeats per rung (default 5, 3 with
``--quick``): a rung of a few milliseconds needs more than five to show a
10% change.
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
CHILD = os.path.join(HERE, "scale_child.py")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from reference import REFERENCE_SECONDS, seconds as kernel_seconds  # noqa: E402

#: name -> (what one repeat runs, rungs, quick rungs)
LADDERS = {
    "example42": (
        "antinef example42 --nmax N, one fresh interpreter per repeat",
        (100, 200, 400, 800),
        (100, 200),
    ),
    "unload": (
        "unload(D) on a seeded n-point cluster with satellites; D effective, "
        "20% of its coefficients in 1..10^6, the rest 0",
        (250, 500, 1000),
        (250, 500),
    ),
    "nef_envelope": (
        "nef_envelope(D) on the unload ladder's cluster and divisor",
        (250, 500, 1000),
        (250, 500),
    ),
    "qdivisorial": (
        "multiplicity_sequence of a new QDivisorialSpec to N on a seeded 21-point cluster; "
        "delta has 40% of its coefficients a/b, a in 1..10, b in {2, 3, 5, 7, 11}, the rest 0",
        (100, 200, 400),
        (100, 400),  # the ends of the ladder: 100 and 200 can read the same on a loaded machine
    ),
    "value_vector": (
        "value_vector on the perfbench curves tree (seed 1) of a product of k seeded picks "
        "from its four branch equations, pick j plus j*x^N beyond the tree's order, so k "
        "distinct factors; parsed outside the timed call",
        (6, 12, 24),
        (6, 12),
    ),
    "parse": (
        "parse_scenario of the value_vector ladder's scenario, the perfbench curves tree "
        "(seed 1) and a product of k seeded picks from its four branch equations",
        (4, 8, 16, 24),
        (4, 24),  # the quartiles of k = 4 and 16 overlap, so their slope can read 0 or less
    ),
    "scenario": (
        "parse_scenario of the unload ladder's seeded n-point cluster as point lines, "
        "a parameter on every free point, and two divisors on it: the unload ladder's "
        "and one with 40% of its coefficients -a/b, a in 1..10^6, b in 1..10^3, the rest 0",
        (250, 500, 1000, 2000),
        (250, 1000),
    ),
    "definite": (
        "is_negative_definite of the intersection matrix of the unload ladder's seeded "
        "n-point cluster; the matrix is built outside the timed call",
        (100, 200, 400),
        (100, 200),
    ),
}
REPEATS, QUICK_REPEATS = 5, 3
KERNELS, QUICK_KERNELS = 3, 0  # kernel timings per repeat (min); 0: one per rung
CAP_SECONDS = 30.0  # scaled; a rung whose median exceeds it caps the larger rungs


def repeat(src: str, name: str, n: int, timeout: float, kernel: float) -> dict:
    """One fresh child at size ``n``: its scaled seconds, peak RSS and stdout digest."""
    proc = subprocess.run(
        [sys.executable, CHILD, name, str(n)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        timeout=timeout,
        check=False,
    )
    report = {}
    if proc.returncode == 0:
        report = json.loads(proc.stderr.decode().strip().splitlines()[-1])
    if report.get("code") != 0:
        raise RuntimeError(f"{name} {n} failed:\n{proc.stderr.decode(errors='replace')}")
    return {
        "scaled_s": report["wall_s"] * REFERENCE_SECONDS / kernel,
        "kernel_s": kernel,
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
        "sha256": hashlib.sha256(proc.stdout).hexdigest(),
    }


def _row(name: str, n: int, runs: list[dict]) -> dict:
    """One rung of one column: its spread, peak RSS and the one stdout digest."""
    digests = {r["sha256"] for r in runs}
    if len(digests) != 1:
        raise RuntimeError(f"{name} {n}: stdout differs between repeats")
    times = [r["scaled_s"] for r in runs]
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {
        "n": n,
        "status": "ok",
        "repeats": len(runs),
        "min_s": round(min(times), 5),
        "q1_s": round(q1, 5),
        "median_s": round(median, 5),
        "q3_s": round(q3, 5),
        "peak_rss_mb": round(max(r["peak_rss_mb"] for r in runs), 1),
        "sha256": digests.pop(),
    }


def ladder(srcs, name, rungs, repeats: int, cap: float, timings: int = KERNELS) -> list[dict]:
    """The column of one ladder for each checkout in ``srcs``: every rung,
    its slope and provenance.

    The checkouts' repeats of a rung alternate, the first checkout first on
    even repeats and last on odd ones, each after its own kernel timing, so
    that no column is recorded after another.  A column whose rung median
    exceeds ``cap`` records its larger rungs as ``capped``.
    """
    rows, runs, capped = [[] for _ in srcs], [[] for _ in srcs], set()
    for n in rungs:
        live = [i for i in range(len(srcs)) if i not in capped]
        shared = None if timings else kernel_seconds()
        rung = {i: [] for i in live}
        for r in range(repeats):
            for i in live if r % 2 == 0 else live[::-1]:
                kernel = shared or min(kernel_seconds() for _ in range(timings))
                rung[i].append(repeat(srcs[i], name, n, 60 + 20 * cap, kernel))
        for i, col in enumerate(rows):
            if i in capped:
                col.append({"n": n, "status": "capped"})
                continue
            col.append(_row(name, n, rung[i]))
            runs[i] += rung[i]
            if col[-1]["median_s"] > cap:
                capped.add(i)
            print(f"{name} {n} ({srcs[i]}): median {col[-1]['median_s']} scaled s, "
                  f"{col[-1]['peak_rss_mb']} MB", file=sys.stderr)
    return [_column(src, col, done, cap) for src, col, done in zip(srcs, rows, runs)]


def _column(src: str, rows: list[dict], runs: list[dict], cap: float) -> dict:
    ran = [row for row in rows if row["status"] == "ok"]
    slope = None
    if len(ran) >= 2:
        a, b = ran[-2], ran[-1]
        slope = round(math.log(b["median_s"] / a["median_s"]) / math.log(b["n"] / a["n"]), 3)
    return {
        "git": _describe(src),
        "python": platform.python_version(),
        "kernel_median_s": round(statistics.median(r["kernel_s"] for r in runs), 5),
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
    parser.add_argument("--src", action="append",
                        help="a checkout's src/ directory to measure (default: this one); "
                             "repeat it, one --column each, to interleave checkouts")
    parser.add_argument("--column", action="append",
                        help="the column name in --out of each --src (default: change)")
    parser.add_argument("--ladder", action="append", choices=sorted(LADDERS),
                        help="a ladder to run; repeat it for more (default: all)")
    parser.add_argument("--out", required=True, help="JSON file to write or merge into")
    parser.add_argument("--repeats", type=int,
                        help=f"repeats per rung, at least 2 (default: {REPEATS}, "
                             f"{QUICK_REPEATS} with --quick)")
    parser.add_argument("--quick", action="store_true",
                        help=f"only the two quick rungs of each ladder, {QUICK_REPEATS} repeats, "
                             f"one kernel timing per rung: under 10 s for one column")
    args = parser.parse_args(argv)
    srcs = args.src or [os.path.join(ROOT, "src")]
    names = args.column or ["change"]
    if len(names) != len(srcs) or len(set(names)) != len(names):
        parser.error("give one distinct --column per --src")
    repeats = (QUICK_REPEATS if args.quick else REPEATS) if args.repeats is None else args.repeats
    if repeats < 2:
        parser.error("--repeats must be at least 2, for the quartiles")

    data = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as handle:
            data = json.load(handle)
    data.update({
        "unit": "scaled s = wall s * reference_s / kernel s; peak RSS in MB",
        "reference_s": REFERENCE_SECONDS,
    })
    for name in args.ladder or LADDERS:
        what, rungs, quick_rungs = LADDERS[name]
        columns = ladder(srcs, name, quick_rungs if args.quick else rungs,
                         repeats, CAP_SECONDS,
                         QUICK_KERNELS if args.quick else KERNELS)
        entry = data.setdefault("ladders", {}).setdefault(name, {})
        entry["what"] = what
        entry.setdefault("columns", {}).update(zip(names, columns))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
