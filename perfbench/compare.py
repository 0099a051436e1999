"""Compare two commits with the benchmark: paired runs, then a verdict per row.

Collect pairs, each pair running both checkouts on one seed (seeds 1, 2,
...), alternating which side runs first, on every workload of
``BENCHMARK.json`` for its ``run_seconds``; the benchmark code is this
directory's for both::

    python3 perfbench/compare.py collect --base ../parent --change . \\
        --pairs 10 --out pairs.jsonl

Report one row per workload and metric::

    python3 perfbench/compare.py report pairs.jsonl

Rules (end-to-end metrics, with the bounds of ``BENCHMARK.json``):

* gain - the change wins at least 9 of 10 pairs (ties count for neither)
  and the medians differ by more than the parent's interquartile spread;
* regression - the change's median is worse than the parent's by more
  than the metric's bound, as a share of the parent's median;
* unresolved - either side's interquartile spread exceeds the bound, unless
  every change run reads better than every parent run;
* same - none of the above;
* failed - the change fails more repeats on the workload than the parent;
  this overrides the others on every row of that workload.

Per-layer metrics (``--trace 1``) have no bound: their rows report medians
and pair wins only.  Counts repeat exactly, so for them a difference is a
count, not a speed-up.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, os.pardir, "BENCHMARK.json")


def _load_spec() -> dict:
    with open(BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


def collect(args) -> int:
    spec = _load_spec()
    seconds = str(spec["run_seconds"])
    with open(args.out, "a", encoding="utf-8") as out:
        for workload in [w["name"] for w in spec["workloads"]]:
            for pair in range(args.pairs):
                seed = 1 + pair
                sides = [("base", args.base), ("change", args.change)]
                if pair % 2:
                    sides.reverse()
                for side, root in sides:
                    proc = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                         "--seed", str(seed), "--seconds", seconds, "--trace", str(args.trace)],
                        cwd=root, capture_output=True, text=True, check=False,
                    )
                    if proc.returncode != 0:
                        print(proc.stderr, file=sys.stderr)
                        return proc.returncode
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    row = {"side": side, "workload": workload, "pair": pair, "seed": seed,
                           "trace": args.trace, "result": result}
                    out.write(json.dumps(row) + "\n")
                    out.flush()
                    print(f"{workload} pair {pair} {side}: correct={result['correct']}", file=sys.stderr)
    return 0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


def verdict(
    base: list[float], change: list[float], better: str, bound, more_failures: bool = False
) -> tuple[str, str]:
    """(verdict, pair wins) for paired samples; pairs share an index."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    pairs = min(len(base), len(change))
    b1, b_med, b3 = _quartiles(base)
    c1, c_med, c3 = _quartiles(change)
    gap = sign * (b_med - c_med)  # positive when the change is better
    tally = f"{wins}/{pairs}"
    if more_failures:
        return "failed", tally
    if bound is None:
        return "-", tally
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    if b_med and not all_better and max(b3 - b1, c3 - c1) / abs(b_med) > bound:
        return "unresolved", tally
    if wins >= 0.9 * pairs and gap > b3 - b1:
        return "gain", tally
    if b_med and -gap / abs(b_med) > bound:
        return "regression", tally
    return "same", tally


def report(args) -> int:
    spec = _load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    data: dict = defaultdict(lambda: defaultdict(dict))  # (workload, metric) -> side -> pair -> value
    failed: dict = defaultdict(int)
    with open(args.results, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            failed[row["workload"], row["side"]] += row["result"]["failed"]
            for name, metric in row["result"]["metrics"].items():
                data[row["workload"], name][row["side"]][row["pair"]] = metric["value"]
    print(f"{'workload':10} {'metric':30} {'base median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'diff':>8} {'wins':>6}  verdict")
    bad = False
    for (workload, name), sides in sorted(data.items()):
        pairs = sorted(set(sides.get("base", {})) & set(sides.get("change", {})))
        if not pairs:
            continue
        base = [sides["base"][p] for p in pairs]
        change = [sides["change"][p] for p in pairs]
        better = metrics.get(name, {}).get("better", "lower")
        more_failures = failed[workload, "change"] > failed[workload, "base"]
        result, tally = verdict(base, change, better, bounds.get(name), more_failures)
        bad = bad or result in ("regression", "failed")
        cells = []
        for values in (base, change):
            q1, med, q3 = _quartiles(values)
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
        b_med = _quartiles(base)[1]
        diff = f"{(_quartiles(change)[1] - b_med) / b_med:+.1%}" if b_med else "n/a"
        print(f"{workload:10} {name:30} {cells[0]:34} {cells[1]:34} {diff:>8} {tally:>6}  {result}")
    for (workload, side), count in sorted(failed.items()):
        if count:
            print(f"{workload}: {count} failed repeats on the {side} side")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_collect = sub.add_parser("collect", help="run paired benchmark runs")
    p_collect.add_argument("--base", required=True, help="root of the parent checkout")
    p_collect.add_argument("--change", required=True, help="root of the changed checkout")
    p_collect.add_argument("--pairs", type=int, default=10)
    p_collect.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_collect.add_argument("--out", required=True, help="JSON-lines file to append to")
    p_report = sub.add_parser("report", help="verdict per workload and metric")
    p_report.add_argument("results")
    args = parser.parse_args(argv)
    return collect(args) if args.command == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
