"""The public contract and the one table of task kinds.

``antinef.__all__`` and the CLI's options are part of the contract next to
stdout and the exit codes, so they are pinned here.  The task kinds are
listed once in ``scenario.TASK_KINDS``; the CLI's runner table and the
grammar document must name exactly the same kinds, each with the same
targets.
"""

import ast
import glob
import os
import re

import pytest

import antinef
from antinef import cli
from antinef.scenario import MAX_NMAX, MAX_POINTS, TASK_KINDS

TESTS = os.path.dirname(os.path.abspath(__file__))
GRAMMAR = os.path.join(os.path.dirname(TESTS), "docs", "scenario-grammar.md")


def test_public_names_pinned():
    assert sorted(antinef.__all__) == [
        "Cluster",
        "ClusterStructureError",
        "CommutationReport",
        "CompleteIdealModel",
        "CoordinateError",
        "Example42Spec",
        "ExcDivisor",
        "ExplicitSpec",
        "FiltrationSpec",
        "INFINITY",
        "IntersectionForm",
        "LimitReport",
        "PlaneElement",
        "PointRecord",
        "PolynomialSyntaxError",
        "QDivisorialSpec",
        "ReesUnionReport",
        "Scenario",
        "ScenarioError",
        "Task",
        "ValuationVector",
        "commutation_report",
        "degree_function",
        "degree_limit",
        "divisor",
        "intersect",
        "is_antinef",
        "is_negative_definite",
        "multiplicity_sequence",
        "multiplicity_vector",
        "nef_envelope",
        "new_cluster",
        "parse_poly",
        "parse_scenario",
        "realize",
        "rees_union",
        "spot_check_graded_law",
        "unload",
        "value_vector",
    ]
    for name in antinef.__all__:
        assert hasattr(antinef, name), name


@pytest.mark.parametrize(
    "command, options",
    [
        ("run", {"--scenario", "--format", "--output", "--nmax"}),
        ("example42", {"--nmax", "--format", "--output"}),
        ("selftest", {"--seed", "--trials"}),
    ],
)
def test_cli_options_pinned(command, options, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out)) - {"--help"} == options


def test_every_task_kind_has_one_runner():
    assert set(cli._RUNNERS) == set(TASK_KINDS)


def _grammar_text():
    with open(GRAMMAR, encoding="utf-8") as handle:
        return handle.read()


def test_grammar_task_kinds_match_the_table():
    rule = re.search(r"^task-kind\s*=(.*?);", _grammar_text(), re.M | re.S).group(1)
    kinds = re.findall(r'"(\w+)"', rule)
    assert len(kinds) == len(set(kinds))
    assert set(kinds) == set(TASK_KINDS)


def test_grammar_argument_table_matches_the_table():
    text = _grammar_text()
    table = text[text.index("Task argument requirements:"):]
    rows = [line for line in table.splitlines() if line.startswith("|")][2:]
    assert rows
    documented = {}
    for row in rows:
        kinds, needs = (cell.strip() for cell in row.strip("|").split("|"))
        needs = [need.strip() for need in needs.split(",")]
        for kind in kinds.split(","):
            assert kind.strip() not in documented, kind
            documented[kind.strip()] = needs
    assert set(documented) == set(TASK_KINDS)
    for kind, needs in documented.items():
        targets = tuple(n for n in needs if n not in ("nmax", "optional labels"))
        assert targets == TASK_KINDS[kind], kind
        # nmax exactly for the kinds that take a filtration
        assert ("nmax" in needs) == ("filtration" in targets), kind
        assert ("optional labels" in needs) == (kind == "degree_limits"), kind


def test_grammar_states_the_nmax_limit():
    assert f"must lie in\n1..{MAX_NMAX} (`scenario.MAX_NMAX`)" in _grammar_text()


def test_grammar_states_the_point_cap():
    assert f"at most {MAX_POINTS} `point`\nlines (`scenario.MAX_POINTS`)" in _grammar_text()


def test_no_test_module_imports_another():
    """Shared test code lives in ``helpers.py`` and ``oracles.py``: a test
    module that imported another would stop being collected with it."""
    found = []
    for path in sorted(glob.glob(os.path.join(TESTS, "test_*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if any(part.startswith("test_") for part in name.split(".")):
                    found.append((os.path.basename(path), name))
    assert found == []
