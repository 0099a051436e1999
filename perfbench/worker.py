"""One fresh interpreter of a benchmark run: import, one cold run, warm repeats.

Started by ``run.py`` from the root of a checkout.  It imports ``antinef``
from ``./src`` before anything else, so the time from process start to the
end of that import is what a command-line user pays.  Every repeat calls
``antinef.cli.main(["run", ...])`` on the generated scenario file and is then
checked outside the timed region.  The last stdout line is a JSON report.

A program fault (an exception, an early exit, no output file) fails that
repeat and the process goes on, so the run still reports it.

The report also carries ``refs``, wall times of the reference kernel
(``reference.py``) that a helper process takes at start and after every
repeat, from which ``run.py`` scales this process's timings.

``--probe`` stops after the import and the kernel timings.  ``--trace 1``
traces the cold run and alternates untraced and traced warm repeats, so the
same process measures the tracer's overhead and checks that tracing leaves
the output bytes alone.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import antinef.cli  # noqa: E402  (timed: this import is the set-up cost)

READY = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import reference  # noqa: E402
from spans import Tracer  # noqa: E402


def _run(args: list[str]) -> tuple[float, int, str]:
    """Time one CLI call; a fault is returned as exit code 1 and a message."""
    start = time.perf_counter()
    try:
        code, fault = antinef.cli.main(args), ""
    except SystemExit as exc:
        code, fault = exc.code if isinstance(exc.code, int) else 1, ""
    except Exception as exc:
        code, fault = 1, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, fault


def _laws(workload: str, scenario: str, data: bytes) -> list[str]:
    if not data:
        return ["no output"]
    try:
        return checks.check(workload, scenario, data.decode())
    except Exception as exc:
        return [f"output could not be checked: {type(exc).__name__}: {exc}"]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--scenario")
    parser.add_argument("--output")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--expect", default="", help="sha256 the output must have")
    args = parser.parse_args()
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(antinef.cli.__file__).startswith(src + os.sep):
        print(f"antinef was imported from outside {src}", file=sys.stderr)
        return 2
    helper = reference.Helper()
    try:
        return _measure(args, helper)
    finally:
        helper.close()


def _measure(args, helper: reference.Helper) -> int:
    report = {"ready": READY, "refs": [helper.seconds() for _ in range(3)]}
    if args.probe:
        print(json.dumps(report))
        return 0

    deadline = READY + args.seconds
    with open(args.scenario, encoding="utf-8") as handle:
        scenario = handle.read()
    cli_args = ["run", "--scenario", args.scenario, "--format", "csv", "--output", args.output]
    tracer = Tracer() if args.trace else None
    verdicts: dict[str, list[str]] = {}  # output digest -> violated laws
    failures: list[str] = []
    runs: list[dict] = []

    def repeat(traced: bool):
        if os.path.exists(args.output):
            os.remove(args.output)
        if traced:
            tracer.reset()
            tracer.install()
        try:
            seconds, code, fault = _run(cli_args)
        finally:
            if traced:
                tracer.uninstall()
        report["refs"].append(helper.seconds())
        data = b""
        if os.path.exists(args.output):
            with open(args.output, "rb") as handle:
                data = handle.read()
        digest = hashlib.sha256(data).hexdigest()
        if digest not in verdicts:
            verdicts[digest] = _laws(args.workload, scenario, data)
        problems = list(verdicts[digest])
        if code != 0:
            problems.append(f"exit code {code} {fault}".rstrip())
        if args.expect and digest != args.expect:
            problems.append(f"output digest {digest[:12]} != recorded {args.expect[:12]}")
        if runs and digest != runs[0]["digest"]:
            problems.append("output differs from the first run of this process")
        failures.extend(problems)
        run = {"s": seconds, "traced": traced, "digest": digest, "ok": not problems, "bytes": len(data)}
        if traced:
            run["layers"] = tracer.summary()
        runs.append(run)

    repeat(traced=bool(args.trace))  # cold: first call in this interpreter
    # At least one warm repeat, and one of each kind when tracing; after that,
    # start another only if one more as long as the last ends in time.
    last = 0.0
    while len(runs) < 2 + args.trace or time.monotonic() + last < deadline:
        start = time.monotonic()
        repeat(traced=bool(args.trace) and len(runs) % 2 == 0)
        last = time.monotonic() - start
    report.update(
        runs=runs,
        failures=failures[:20],
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
