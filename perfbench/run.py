"""antinef benchmark: seeded scenario files through the ``antinef run`` CLI path.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload growing --seed 1 --seconds 30 --trace 0

The load is a closed loop with one caller and no threads.  A run starts
several fresh interpreters one after another (``worker.py``); each imports
the package from ``./src``, runs the scenario once cold, then repeats it warm
until its share of ``--seconds`` is used.  A few extra interpreters only time
the import.  Every repeat is checked (exit code, exact laws, and for the
recorded seeds the output digest), outside the timed region.  Reported times
are wall times scaled by a reference kernel (``reference.py``) that a helper
process runs between the repeats, which cancels the machine's drifting speed.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` they are the
per-layer ones, from the same repeats with the tracer in ``spans.py``
switched on for every other warm repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from reference import REFERENCE_SECONDS  # noqa: E402

WORKERS = 12  # fresh interpreters per run, each gives one set-up and one cold sample
PROBES = 10  # extra interpreters that only time the import
TIME_LIMIT = 170.0  # seconds for a whole run; a worker still going then is killed
EXPECTED = os.path.join(HERE, "expected.json")
BENCHMARK = os.path.join(HERE, os.pardir, "BENCHMARK.json")


def load_spec() -> dict:
    with open(BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


def expected_digest(workload: str, seed: int) -> str:
    """Output sha256 recorded for the default and held-out seeds, else ''."""
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(str(seed), "")


def tail(samples: list[float]) -> tuple[int, float]:
    """The highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    best = (50, statistics.median(samples))
    ordered = sorted(samples)
    for p in (75, 90, 95, 99):
        beyond = len(ordered) - int(len(ordered) * p / 100)
        if beyond < 10:
            break
        best = (p, ordered[len(ordered) - beyond])
    return best


def _spawn(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Start one worker, wait for it, return (start time, its JSON report)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {argv} timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return start, json.loads(out.strip().splitlines()[-1])


def _scaled(seconds: float, ref: float) -> float:
    """Wall seconds on a machine where the reference kernel takes REFERENCE_SECONDS."""
    return seconds * REFERENCE_SECONDS / ref


def measure(workload: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    scenario = os.path.join(work, f"{workload}-{seed}.scn")
    with open(scenario, "w", encoding="utf-8") as handle:
        handle.write(gen.generate(workload, seed))
    expect = expected_digest(workload, seed)
    deadline = time.monotonic() + TIME_LIMIT
    setups, reports = [], []
    for _ in range(PROBES):
        start, report = _spawn(["--probe"], deadline)
        setups.append(_scaled(report["ready"] - start, statistics.median(report["refs"])))
    for _ in range(WORKERS):
        start, report = _spawn(
            [
                "--workload", workload,
                "--scenario", scenario,
                "--output", os.path.join(work, "out.csv"),
                "--seconds", str(seconds / WORKERS),
                "--trace", str(int(trace)),
                "--expect", expect,
            ],
            deadline,
        )
        setups.append(_scaled(report["ready"] - start, statistics.median(report["refs"][:3])))
        # Speed drifts measurably within a run, so each sample is scaled by
        # the kernel timings closest to it: the 3 after the import for
        # set-up, those and the one after the cold run for the cold run, all
        # of them for warm repeats.
        cold_run, *rest = report["runs"]
        cold_run["scaled"] = _scaled(cold_run["s"], statistics.median(report["refs"][:4]))
        for run in rest:
            run["scaled"] = _scaled(run["s"], statistics.median(report["refs"]))
        reports.append(report)

    runs = [run for report in reports for run in report["runs"]]
    failures = [msg for report in reports for msg in report["failures"]]
    failed = sum(not run["ok"] for run in runs)
    if len({run["digest"] for run in runs}) != 1:
        failures.append("output bytes differ between processes or with tracing")
        failed = max(failed, 1)
    cold = [report["runs"][0]["scaled"] for report in reports]
    warm_runs = [run for report in reports for run in report["runs"][1:]]
    warm = [run["scaled"] for run in warm_runs if not run["traced"]]
    wall = [run["s"] for run in warm_runs if not run["traced"]]
    p, p_value = tail(warm)
    print(
        f"{workload} seed={seed}: run_s median {statistics.median(warm):.4f} s, "
        f"p{p} {p_value:.4f} s over {len(warm)} warm repeats "
        f"(unscaled wall median {statistics.median(wall):.4f} s); "
        f"{len(reports)} processes, {len(setups)} set-up samples"
    )
    for msg in failures[:10]:
        print(f"FAIL: {msg}")

    spec = load_spec()
    if not trace:
        values = {
            "setup_s": statistics.median(setups),
            "cold_s": statistics.median(cold),
            "run_s": statistics.median(warm),
            "peak_rss_mb": statistics.median([r["rss_kb"] / 1024 for r in reports]),
        }
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    else:
        traced_runs = [run for run in warm_runs if run["traced"]]

        def layer(run: dict, name: str) -> float:
            value = run["layers"].get(name, 0)
            return value * run["scaled"] / run["s"] if name.endswith("_s") else value

        # Most layer metrics are medians over the traced warm repeats of one
        # tracer summary entry; these few are derived.  curves.squarefree_s
        # comes from the traced cold runs, because its first call pays the
        # lazy sympy import.
        first = traced_runs[0]["layers"]
        realize_calls = first.get("filtration.realize_calls", 0)
        derived = {
            "filtration.realize_useful_frac": (
                first["filtration.realize_distinct"] / realize_calls if realize_calls else 1.0
            ),
            "curves.squarefree_s": statistics.median(
                [layer(r["runs"][0], "curves.squarefree_s") for r in reports]
            ),
            "cli.output_bytes": runs[0]["bytes"],
            "trace.overhead_frac": (
                statistics.median([run["scaled"] for run in traced_runs]) / statistics.median(warm) - 1.0
            ),
        }
        metrics = {
            m["name"]: (
                derived[m["name"]] if m["name"] in derived
                else statistics.median([layer(run, m["name"]) for run in traced_runs]),
                m["unit"],
            )
            for m in spec["per_layer"]
        }
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "antinef", "__init__.py")):
        print("error: run from the root of an antinef checkout (no src/antinef)", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
