"""Exact laws that every workload's CSV output must satisfy, for any seed.

Each check re-reads the emitted numbers and tests them through the public
API of ``antinef`` against facts that do not depend on how the program
computed them.  A check returns an empty list when the output is right and
one message per violated law otherwise.
"""

from __future__ import annotations

from fractions import Fraction

import antinef
from antinef import divisor, intersect, is_antinef


def split_tasks(text: str) -> list[dict]:
    """CSV output -> one dict per task: title, header, rows, summary lines."""
    tasks: list[dict] = []
    for line in text.splitlines():
        if line.startswith("# task ") and " ERROR: " not in line:
            tasks.append({"title": line, "header": None, "rows": [], "notes": []})
        elif not line:
            continue
        elif line.startswith("#") or "=" in line:
            tasks[-1]["notes"].append(line)
        elif tasks[-1]["header"] is None:
            tasks[-1]["header"] = line.split(",")
        else:
            tasks[-1]["rows"].append(dict(zip(tasks[-1]["header"], line.split(","))))
    return tasks


def _column(task: dict, name: str) -> list[Fraction]:
    return [Fraction(row[name]) for row in task["rows"]]


def _note(task: dict, key: str) -> str:
    for line in task["notes"]:
        if line.startswith(key + "="):
            return line
    raise ValueError(f"{task['title']}: no {key}= line")


def _check_growing(scenario: antinef.Scenario, tasks: list[dict]) -> list[str]:
    bad = []
    (nmax,) = {task.nmax for task in scenario.tasks}
    mult = tasks[0]
    e = _column(mult, "e_In")
    if e != [(n + 1) * (4 * n + 1) for n in range(1, nmax + 1)]:
        bad.append("e(I_n) != (n+1)(4n+1)")
    order = scenario.elements["LINE"].order()
    want = f"commute=false lim_of_sums->{2 * order} sum_of_lims={order}"
    if _note(tasks[3], "commute") != want:
        bad.append(f"commutation verdict is not {want!r}")
    return bad


def _check_chain(scenario: antinef.Scenario, tasks: list[dict]) -> list[str]:
    bad = []
    cluster = scenario.clusters["CHAIN"]
    env_task, unload_task = tasks[0], tasks[1]
    delta = divisor(cluster, _column(env_task, "delta_i"))
    env = divisor(cluster, _column(env_task, "envelope_i"))
    if delta != scenario.divisors["ELAST"]:
        bad.append("nef_envelope echoes the wrong input")
    if not (env.dominates(delta) and is_antinef(env)):
        bad.append("envelope is not an antinef divisor dominating its input")
    start = divisor(cluster, _column(unload_task, "D_i"))
    closure = divisor(cluster, _column(unload_task, "Dbar_i"))
    if start != scenario.divisors["BIG"]:
        bad.append("unload echoes the wrong input")
    if not (closure.dominates(start) and is_antinef(closure)):
        bad.append("unload result is not an antinef divisor dominating its input")
    if _note(unload_task, "e") != f"e={-intersect(closure, closure)}":
        bad.append("unload multiplicity != -(D.D)")
    env_square = _note(env_task, "neg_self_intersection").partition("=")[2]
    if {row["closed_form"] for row in tasks[2]["rows"]} != {env_square}:
        bad.append("multiplicity limit != -(envelope.envelope)")
    return bad


def _check_curves(scenario: antinef.Scenario, tasks: list[dict]) -> list[str]:
    bad = []
    cluster = scenario.clusters["TREE"]
    for task in tasks[:3]:
        m = tuple(int(x) for x in _column(task, "m_i"))
        v = tuple(int(x) for x in _column(task, "v_i"))
        if len(v) != cluster.n_curves or cluster.multiplicities_from_values(v) != m:
            bad.append(f"{task['title']}: multiplicities_from_values(v) != m")
    degree = tasks[3]
    v, d = _column(degree, "v_i"), _column(degree, "d_i")
    total = sum(a * b for a, b in zip(v, d))
    if _note(degree, "degree") != f"degree={total}" or len(v) != cluster.n_curves:
        bad.append("degree != sum of v_i * d_i")
    return bad


LAWS = {"growing": _check_growing, "chain": _check_chain, "curves": _check_curves}


def check(workload: str, scenario_text: str, output: str) -> list[str]:
    """Violated laws of one run's output; empty when every law holds."""
    scenario = antinef.parse_scenario(scenario_text)
    tasks = split_tasks(output)
    errors = [n for t in tasks for n in t["notes"] if " ERROR: " in n]
    if errors or len(tasks) != len(scenario.tasks):
        return [f"task failed or missing: {errors}"]
    try:
        return LAWS[workload](scenario, tasks)
    except (KeyError, IndexError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]
