"""Noether's formula against an intersection number that needs no chart.

Noether's formula gives i_O(f, g) = sum_p m_p(f) m_p(g) over any cluster that
holds every point f and g share (Casas-Alvero, *Singularities of Plane
Curves*, 2000).  The left side is ord_x Res_y(f, g), computed by
``oracles.intersection_multiplicity`` with no blowup; the right side reads
the multiplicities off ``multiplicity_vector``'s charts.  The inputs are the
four branch equations of the benchmark's ``curves`` tree, read through
``perfbench/gen.py`` by path, unedited: smooth branches and cusps, two
pairs sharing a prefix of free points.
"""

import importlib.util
import itertools
import os

import pytest

from antinef import multiplicity_vector, parse_poly, parse_scenario
from oracles import intersection_multiplicity

GEN = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "gen.py"
)


@pytest.fixture(scope="module")
def gen():
    spec = importlib.util.spec_from_file_location("antinef_bench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_noether_formula_on_the_curves_tree(gen, seed):
    pytest.importorskip("sympy")
    cluster = parse_scenario(gen.curves(seed)).clusters["TREE"]
    branches = [parse_poly(gen._branch_poly(*b)) for b in gen.curves_branches(seed)]
    mults = [multiplicity_vector(cluster, f) for f in branches]
    deeper = 0
    for i, j in itertools.combinations(range(len(branches)), 2):
        noether = sum(a * b for a, b in zip(mults[i], mults[j]))
        assert noether == intersection_multiplicity(
            branches[i].to_dict(), branches[j].to_dict()
        ), (seed, i, j)
        deeper += noether > mults[i][0] * mults[j][0]
    assert deeper  # some pair shares points past the origin


@pytest.mark.parametrize(
    "f, refusal",
    [
        ("x*y^2 + y - x", "not monic in y"),
        ("y^2 - y - x", "meets x = 0 away from the origin"),
        ("(y - x)*(y - x^2)", "share a component"),
    ],
)
def test_the_resultant_is_used_only_where_it_is_the_intersection_number(f, refusal):
    pytest.importorskip("sympy")
    with pytest.raises(ValueError, match=refusal):
        intersection_multiplicity(parse_poly(f).to_dict(), parse_poly("y - x").to_dict())
