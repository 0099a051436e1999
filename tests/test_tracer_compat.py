"""The benchmark tracer patches package names from outside; keep them there.

``perfbench/spans.py`` replaces module attributes such as
``antinef.filtration:realize`` with timing wrappers.  A refactor that drops
or renames one of them, or that stops looking one up through its module
globals, leaves ``--trace 1`` silently counting nothing, so this suite loads
the tracer read-only and checks both.
"""

import importlib.util
import io
import os

import pytest

from antinef import Example42Spec, QDivisorialSpec, divisor, spot_check_graded_law
from antinef import filtration
from antinef.cli import run_scenario
from antinef.scenario import parse_scenario
from helpers import cusp_cluster

SPANS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py"
)


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("antinef_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_path_resolves(spans):
    assert spans.PATCHES
    for path, _name in spans.PATCHES:
        owner, attr = spans._resolve(path)
        assert callable(getattr(owner, attr, None)), path


def test_family_functions_reach_realize_and_unload_through_globals(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        scenario = parse_scenario(
            "[filtration EX42]\nkind = example42\n\n"
            "[task]\nkind = multiplicity_limit\nfiltration = EX42\nnmax = 4\n"
        )
        assert run_scenario(scenario, io.StringIO(), "csv") == 0
        spec = QDivisorialSpec(delta=divisor(cusp_cluster(), [0, 0, 1]))
        filtration.degree_limit(spec, 2, 3)
        assert spot_check_graded_law(Example42Spec(), 1, 2)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["filtration.realize_calls"] == 4 + 3 + 1
    assert summary["filtration.realize_distinct"] == 4 + 3 + 1
    assert summary["filtration.family_calls"] == 2
    # one per realized member, plus the two embedded members of the spot check
    assert summary["divisor.unload_calls"] == 4 + 3 + 1 + 2
    assert summary["divisor.envelope_calls"] == 1


def test_scenario_elements_reach_parse_poly_through_globals(spans):
    # the scenario's memo of parenthesized groups rides on parse_poly
    # itself, so the tracer's ``curves.parse`` still times every line
    tracer = spans.Tracer()
    tracer.install()
    try:
        scenario = parse_scenario(
            "[element F]\npoly = (y^2 - x^3)*(y - x)\n\n[element G]\npoly = (y^2 - x^3)^2\n"
        )
    finally:
        tracer.uninstall()
    assert set(scenario.elements) == {"F", "G"}
    assert tracer.summary()["curves.parse_calls"] == 2
