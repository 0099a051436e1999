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
import sys
from fractions import Fraction

from . import filtration as flt
from .curves import value_vector
from .divisor import intersect, nef_envelope, unload
from .errors import CoordinateError, ScenarioError
from .rationals import format_float, format_rational
from .scenario import Scenario, Task, parse_scenario

__all__ = ["main", "run_scenario"]


class _Table:
    def __init__(self, header):
        self.header = list(header)
        self.rows: list[list[str]] = []

    def add(self, *cells):
        self.rows.append([_cell(c) for c in cells])

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


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    return str(value)


def _label(i: int) -> str:
    return f"v{i}"


def _labels(indices) -> str:
    return " ".join(_label(i) for i in sorted(indices))


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


def _task_nmax(task: Task, override) -> int:
    return override if override is not None else task.nmax


def _run_task(task: Task, fmt: str, nmax_override) -> list[str]:
    kind = task.kind
    lines: list[str] = []
    if kind == "intersection_matrix":
        mat = task.cluster.intersection_matrix()
        table = _Table(["i"] + [f"E{j}" for j in range(mat.n)])
        for i in range(mat.n):
            table.add(i, *mat.row(i))
        lines += table.render(fmt)
    elif kind == "value_vector":
        vv = value_vector(task.cluster, task.element)
        table = _Table(["i", "m_i", "v_i"])
        for i, (m, v) in enumerate(zip(vv.multiplicities, vv.values)):
            table.add(i, m, v)
        lines += table.render(fmt)
    elif kind == "degree_function":
        model = unload(task.divisor)
        vv = value_vector(task.divisor.cluster, task.element)
        table = _Table(["i", "v_i", "d_i", "v_i*d_i"])
        total = 0
        for i, (v, d) in enumerate(zip(vv.values, model.degree_coeffs)):
            table.add(i, v, d, v * d)
            total += v * d
        lines += table.render(fmt)
        lines.append(f"degree={total}")
    elif kind in {"unload", "multiplicity", "degree_coefficients", "rees_valuations"}:
        model = unload(task.divisor)
        if kind == "unload":
            table = _Table(["i", "D_i", "Dbar_i", "fixed_i", "d_i"])
            for i in range(task.divisor.cluster.n_curves):
                d0 = task.divisor.coeffs[i]
                d1 = model.divisor.coeffs[i]
                table.add(i, d0, d1, d1 - d0, model.degree_coeffs[i])
            lines += table.render(fmt)
        elif kind == "degree_coefficients":
            table = _Table(["i", "d_i"])
            for i, d in enumerate(model.degree_coeffs):
                table.add(i, d)
            lines += table.render(fmt)
        lines.append(f"e={model.multiplicity}")
        lines.append(f"rees={_labels(model.rees_valuations)}")
    elif kind == "nef_envelope":
        env = nef_envelope(task.divisor)
        table = _Table(["i", "delta_i", "envelope_i"])
        for i in range(task.divisor.cluster.n_curves):
            table.add(i, task.divisor.coeffs[i], env.coeffs[i])
        lines += table.render(fmt)
        lines.append(f"neg_self_intersection={format_rational(-intersect(env, env))}")
    elif kind == "multiplicity_limit":
        nmax = _task_nmax(task, nmax_override)
        report = flt.multiplicity_sequence(task.filtration, nmax)
        header = ["n", "e_In", "e_In_over_n2"]
        if report.closed_form is not None:
            header.append("closed_form")
        table = _Table(header)
        for n, value in enumerate(report.values, start=1):
            row = [n, value * n * n, value]
            if report.closed_form is not None:
                row.append(report.closed_form)
            table.add(*row)
        lines += table.render(fmt)
        lines.append(_limit_summary(report))
    elif kind == "degree_limits":
        nmax = _task_nmax(task, nmax_override)
        labels = task.labels
        if labels is None:
            labels = tuple(range(nmax + 1))
        reports = {v: flt.degree_limit(task.filtration, v, nmax) for v in labels}
        header = ["n"]
        for v in labels:
            header += [f"d_{_label(v)}", f"d_{_label(v)}_over_n"]
        table = _Table(header)
        for n in range(1, nmax + 1):
            row = [n]
            for v in labels:
                value = reports[v].values[n - 1]
                row += [value * n, value]
            table.add(*row)
        lines += table.render(fmt)
        for v in labels:
            lines.append(f"# {_label(v)} " + _limit_summary(reports[v])[2:])
    elif kind == "commutation":
        nmax = _task_nmax(task, nmax_override)
        rep = flt.commutation_report(task.filtration, task.element, nmax)
        table = _Table(["n", "sum_v_d", "lim_of_sums_n"])
        for n, value in enumerate(rep.lim_of_sums.values, start=1):
            table.add(n, value * n, value)
        lines += table.render(fmt)
        lines.append(_limit_summary(rep.lim_of_sums))
        if rep.lim_of_sums.closed_form is not None:
            lim_part = format_rational(rep.lim_of_sums.closed_form)
        else:
            lim_part = format_float(float(rep.lim_of_sums.limit_estimate())) + "(estimate)"
        sum_part = format_rational(rep.sum_of_lims)
        if rep.sum_is_estimate:
            sum_part += "(estimate)"
        lines.append(
            f"commute={'true' if rep.commute else 'false'} "
            f"lim_of_sums->{lim_part} sum_of_lims={sum_part}"
        )
    elif kind == "rees_union":
        nmax = _task_nmax(task, nmax_override)
        rep = flt.rees_union(task.filtration, nmax)
        table = _Table(["n", "rees_count", "rees_labels"])
        for n, s in enumerate(rep.per_n, start=1):
            table.add(n, len(s), _labels(s))
        lines += table.render(fmt)
        lines.append(
            f"union={_labels(rep.union)} "
            f"stabilized={'true' if rep.stabilized else 'false'}"
        )
    else:  # pragma: no cover - parser rejects unknown kinds
        raise ValueError(f"unknown task kind {kind!r}")
    return lines


def _task_title(index: int, task: Task, nmax_override) -> str:
    bits = [f"# task {index} {task.kind}"]
    for attr in ("cluster_name", "divisor_name", "element_name", "filtration_name"):
        name = getattr(task, attr)
        if name:
            bits.append(f"{attr.removesuffix('_name')}={name}")
    if task.nmax is not None:
        bits.append(f"nmax={_task_nmax(task, nmax_override)}")
    return " ".join(bits)


def run_scenario(scenario: Scenario, out, fmt: str = "table", nmax_override=None) -> int:
    """Execute all tasks in order; returns the process exit status."""
    lines: list[str] = []
    failures = 0
    for index, task in enumerate(scenario.tasks, start=1):
        lines.append(_task_title(index, task, nmax_override))
        try:
            lines += _run_task(task, fmt, nmax_override)
        except (ValueError, CoordinateError) as exc:
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


def _open_output(path):
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline="\n"), True


_PARALLEL_HELP = "accepted for compatibility; no effect (each family is swept once)"


def main(argv=None) -> int:
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
    p_run.add_argument("--nmax", type=int, default=None, help="override task n ranges")
    p_run.add_argument("--parallel", action="store_true", help=_PARALLEL_HELP)

    p_ex = sub.add_parser("example42", help="run the built-in growing family")
    p_ex.add_argument("--nmax", type=int, default=10)
    p_ex.add_argument("--format", choices=["table", "csv"], default="csv")
    p_ex.add_argument("--output", default=None)
    p_ex.add_argument("--parallel", action="store_true", help=_PARALLEL_HELP)

    p_self = sub.add_parser("selftest", help="seeded randomized closure-law checks")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--trials", type=int, default=200)

    args = parser.parse_args(argv)

    if args.command == "selftest":
        from .selfcheck import run_selftest

        results = run_selftest(args.seed, args.trials)
        ok = True
        for name, passed, detail in results:
            print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
            ok = ok and passed
        return 0 if ok else 1

    if args.command == "example42":
        if args.nmax < 1:
            print("error: --nmax must be positive", file=sys.stderr)
            return 2
        text = _EXAMPLE42_SCENARIO.format(nmax=args.nmax)
        scenario = parse_scenario(text)
        out, close = _open_output(args.output)
        try:
            return run_scenario(scenario, out, args.format)
        finally:
            if close:
                out.close()

    # run
    try:
        with open(args.scenario, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    try:
        scenario = parse_scenario(text)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.nmax is not None and args.nmax < 1:
        print("error: --nmax must be positive", file=sys.stderr)
        return 2
    out, close = _open_output(args.output)
    try:
        return run_scenario(scenario, out, args.format, args.nmax)
    finally:
        if close:
            out.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
