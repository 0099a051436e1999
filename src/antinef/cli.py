"""Command line front end.

Subcommands:

* ``run`` - execute a scenario file, emitting deterministic tables or CSV.
* ``example42`` - the built-in growing-family demonstration, no file needed.
* ``selftest`` - seeded randomized closure-law checks.

Exit codes: 0 success, 1 task failure, 2 parse or configuration error.
All exact values are serialized ``a/b``; floating diagnostics carry ``~``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from contextlib import nullcontext

from . import filtration as flt
from .curves import value_vector
from .divisor import intersect, nef_envelope, unload
from .errors import ScenarioError
from .rationals import format_float, format_rational, parse_integer
from .scenario import MAX_NMAX, Scenario, Task, parse_scenario

__all__ = ["main", "run_scenario"]


class _Table:
    def __init__(self, header, rows):
        self.header = list(header)
        self.rows = [[str(c) if isinstance(c, (str, int)) else format_rational(c) for c in row]
                     for row in rows]

    def render(self, fmt: str) -> list[str]:
        if fmt == "csv":
            return [",".join(self.header)] + [",".join(r) for r in self.rows]
        widths = [len(h) for h in self.header]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        def pad(cells):
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
        return [pad(self.header)] + [pad(r) for r in self.rows]


def _label(i: int) -> str:
    return f"v{i}"


def _labels(sets, top: int) -> list[str]:
    """Each set of curve indices, none above ``top``, as its labels in order,
    joined by blanks; the label of a curve is built once, however many sets
    hold it."""
    names = [_label(i) for i in range(top + 1)]
    return [" ".join([names[i] for i in sorted(s)]) for s in sets]


def _indexed(*columns):
    """Rows ``(i, c_0[i], c_1[i], ...)`` of equally long columns."""
    return ((i, *cells) for i, cells in enumerate(zip(*columns)))


def _ratio(a: int, d: int) -> str:
    """``str(Fraction(a, d))`` for d > 0, without building the Fraction."""
    g = math.gcd(a, d)
    return str(a // g) if g == d else f"{a // g}/{d // g}"


def _limit_summary(report: flt.LimitReport) -> str:
    parts = []
    if report.closed_form is not None:
        parts.append(f"closed_form={format_rational(report.closed_form)}")
    else:
        parts.append("estimate")
    parts.append(f"last={format_rational(report.last)}")
    if report.richardson is not None:
        parts.append(f"richardson={format_rational(report.richardson)}")
    if report.rate_exponent is not None:
        parts.append(f"rate={format_float(report.rate_exponent)}")
    if report.envelope_constant is not None:
        parts.append(f"envelope_C={format_rational(report.envelope_constant)}")
    if report.monotone_from is not None:
        parts.append(f"monotone_from={report.monotone_from}")
    return "# limit " + " ".join(parts)


# Each runner takes a task and its resolved nmax (None unless the task takes
# a filtration) and returns its table, or None, and its summary lines.  The
# runners look the layer functions up in this module's globals at call time,
# so code that patches ``antinef.cli.unload`` and the like sees every call.


def _intersection_matrix(task: Task, nmax):
    mat = task.cluster.intersection_matrix()
    header = ["i"] + [f"E{j}" for j in range(mat.n)]
    return _Table(header, ((i, *mat.row(i)) for i in range(mat.n))), []


def _value_vector(task: Task, nmax):
    vv = value_vector(task.cluster, task.element)
    return _Table(["i", "m_i", "v_i"], _indexed(vv.multiplicities, vv.values)), []


def _degree_function(task: Task, nmax):
    model = unload(task.divisor)
    vv = value_vector(task.divisor.cluster, task.element)
    products = [v * d for v, d in zip(vv.values, model.degree_coeffs)]
    rows = _indexed(vv.values, model.degree_coeffs, products)
    return _Table(["i", "v_i", "d_i", "v_i*d_i"], rows), [f"degree={sum(products)}"]


def _closure(*columns):
    """Runner of a closure task: a table of the named columns, if any, then e and rees."""

    def run(task: Task, nmax):
        model = unload(task.divisor)
        before, after = task.divisor.as_integers(), model.divisor.as_integers()
        cells = {
            "D_i": before,
            "Dbar_i": after,
            "fixed_i": [b - a for a, b in zip(before, after)],
            "d_i": model.degree_coeffs,
        }
        table = None
        if columns:
            table = _Table(["i", *columns], _indexed(*(cells[c] for c in columns)))
        valuations = model.rees_valuations
        [rees] = _labels([valuations], max(valuations, default=-1))
        return table, [f"e={model.multiplicity}", f"rees={rees}"]

    return run


def _nef_envelope(task: Task, nmax):
    env = nef_envelope(task.divisor)
    rows = _indexed(task.divisor.coeffs, env.coeffs)
    volume = format_rational(-intersect(env, env))
    return _Table(["i", "delta_i", "envelope_i"], rows), [f"neg_self_intersection={volume}"]


def _multiplicity_limit(task: Task, nmax):
    report = flt.multiplicity_sequence(task.filtration, nmax)
    closed = [] if report.closed_form is None else [format_rational(report.closed_form)]
    header = ["n", "e_In", "e_In_over_n2"] + ["closed_form"] * len(closed)
    nums = enumerate(report.numerators, start=1)
    rows = ([n, e, _ratio(e, n * n), *closed] for n, e in nums)
    return _Table(header, rows), [_limit_summary(report)]


def _degree_limits(task: Task, nmax):
    labels = task.labels
    if labels is None:
        labels = tuple(range(nmax + 1))
    reports = [flt.degree_limit(task.filtration, v, nmax) for v in labels]
    header = ["n"]
    for v in labels:
        header += [f"d_{_label(v)}", f"d_{_label(v)}_over_n"]
    rows = []
    for n in range(1, nmax + 1):
        row = [n]
        for report in reports:
            d = report.numerators[n - 1]
            row += [d, _ratio(d, n)]
        rows.append(row)
    summary = [f"# {_label(v)} " + _limit_summary(r)[2:] for v, r in zip(labels, reports)]
    return _Table(header, rows), summary


def _commutation(task: Task, nmax):
    rep = flt.commutation_report(task.filtration, task.element, nmax)
    sums = enumerate(rep.lim_of_sums.numerators, start=1)
    rows = ((n, s, _ratio(s, n)) for n, s in sums)
    if rep.lim_of_sums.closed_form is not None:
        lim_part = format_rational(rep.lim_of_sums.closed_form)
    else:
        lim_part = format_float(float(rep.lim_of_sums.limit_estimate())) + "(estimate)"
    sum_part = format_rational(rep.sum_of_lims)
    if rep.sum_is_estimate:
        sum_part += "(estimate)"
    return _Table(["n", "sum_v_d", "lim_of_sums_n"], rows), [
        _limit_summary(rep.lim_of_sums),
        f"commute={'true' if rep.commute else 'false'} "
        f"lim_of_sums->{lim_part} sum_of_lims={sum_part}",
    ]


def _rees_union(task: Task, nmax):
    rep = flt.rees_union(task.filtration, nmax)
    *texts, union = _labels([*rep.per_n, rep.union], max(rep.union, default=-1))
    rows = ((n, len(s), text) for n, (s, text) in enumerate(zip(rep.per_n, texts), start=1))
    return _Table(["n", "rees_count", "rees_labels"], rows), [
        f"union={union} stabilized={'true' if rep.stabilized else 'false'}"
    ]


_RUNNERS = {
    "intersection_matrix": _intersection_matrix,
    "value_vector": _value_vector,
    "degree_function": _degree_function,
    "unload": _closure("D_i", "Dbar_i", "fixed_i", "d_i"),
    "nef_envelope": _nef_envelope,
    "multiplicity": _closure(),
    "degree_coefficients": _closure("d_i"),
    "rees_valuations": _closure(),
    "multiplicity_limit": _multiplicity_limit,
    "degree_limits": _degree_limits,
    "commutation": _commutation,
    "rees_union": _rees_union,
}


def _task_title(index: int, task: Task, nmax) -> str:
    bits = [f"# task {index} {task.kind}"]
    for target in ("cluster", "divisor", "element", "filtration"):
        name = getattr(task, f"{target}_name")
        if name:
            bits.append(f"{target}={name}")
    if nmax is not None:
        bits.append(f"nmax={nmax}")
    return " ".join(bits)


def run_scenario(scenario: Scenario, out, fmt: str = "table", nmax_override=None) -> int:
    """Execute all tasks in order; returns the process exit status."""
    lines: list[str] = []
    failures = 0
    for index, task in enumerate(scenario.tasks, start=1):
        nmax = task.nmax if task.nmax is None or nmax_override is None else nmax_override
        lines.append(_task_title(index, task, nmax))
        try:
            table, summary = _RUNNERS[task.kind](task, nmax)
            lines += (table.render(fmt) if table else []) + summary
        except ValueError as exc:
            failures += 1
            lines.append(f"# task {index} ERROR: {exc}")
        lines.append("")
    if not scenario.tasks:
        print("warning: scenario defines no tasks", file=sys.stderr)
    out.write("\n".join(lines) + ("\n" if lines else ""))
    return 1 if failures else 0


_EXAMPLE42_SCENARIO = """\
[filtration EX42]
kind = example42

[element LINE]
poly = y - 2*x

[task]
kind = multiplicity_limit
filtration = EX42
nmax = {nmax}

[task]
kind = degree_limits
filtration = EX42
nmax = {nmax}
labels = v0 v1

[task]
kind = rees_union
filtration = EX42
nmax = {nmax}

[task]
kind = commutation
filtration = EX42
element = LINE
nmax = {nmax}
"""


def _integer(text: str) -> int:
    """An integer option, read as strictly as the scenario grammar reads one."""
    try:
        return parse_integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call and kept for the process:
    parsing leaves no state in it, and building it costs ten times a parse."""
    parser = argparse.ArgumentParser(
        prog="antinef",
        description=(
            "Exact intersection products, antinef closures, multiplicities, and "
            "degree-function limits on cluster resolutions"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("--scenario", required=True, help="scenario file path")
    p_run.add_argument("--format", choices=["table", "csv"], default="table")
    p_run.add_argument("--output", default=None, help="output path (default stdout)")
    p_run.add_argument(
        "--nmax", type=_integer, default=None, help=f"override task n ranges (1..{MAX_NMAX})"
    )

    p_ex = sub.add_parser("example42", help="run the built-in growing family")
    p_ex.add_argument("--nmax", type=_integer, default=10)
    p_ex.add_argument("--format", choices=["table", "csv"], default="csv")
    p_ex.add_argument("--output", default=None)

    p_self = sub.add_parser("selftest", help="seeded randomized closure-law checks")
    p_self.add_argument("--seed", type=_integer, default=0)
    p_self.add_argument("--trials", type=_integer, default=200)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    for option in ("nmax", "trials"):
        if getattr(args, option, None) is not None and getattr(args, option) < 1:
            print(f"error: --{option} must be positive", file=sys.stderr)
            return 2
    if getattr(args, "nmax", None) is not None and args.nmax > MAX_NMAX:
        print(f"error: --nmax must be at most {MAX_NMAX}", file=sys.stderr)
        return 2

    if args.command == "selftest":
        from .selfcheck import run_selftest

        results = run_selftest(args.seed, args.trials)
        ok = True
        for name, passed, detail in results:
            print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
            ok = ok and passed
        return 0 if ok else 1

    if args.command == "example42":
        text = _EXAMPLE42_SCENARIO.format(nmax=args.nmax)
    else:
        try:
            with open(args.scenario, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read scenario: {exc}", file=sys.stderr)
            return 2
    try:
        scenario = parse_scenario(text)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = nullcontext(sys.stdout)
    if args.output is not None:
        try:
            out = open(args.output, "w", encoding="utf-8", newline="\n")
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
    with out as handle:
        return run_scenario(scenario, handle, args.format, args.nmax)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
