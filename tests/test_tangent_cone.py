"""The value walk charts only the children on the strict transform's tangent cone.

At a point of order m the walk reads the degree-m initial form once and
charts a child only where that form vanishes: sum_b c_b p^b q^(m-b) = 0 at
t = p/q, or c_m = 0 at ``inf``.  These tests hold the walk equal to
``oracles.expanded_multiplicity_vector``, which charts every child, and
count the charts it runs.
"""

import random
from fractions import Fraction

import pytest

from antinef import PlaneElement, multiplicity_vector, new_cluster, parse_poly
from antinef import curves
from antinef.errors import CoordinateError
from antinef.rationals import INFINITY
from helpers import random_branch, random_coordinatized_cluster, star_cluster
from oracles import expanded_multiplicity_vector


def _star(rng, points, with_infinity):
    """A star of ``points`` free points at distinct random parameters."""
    params = set()
    while len(params) < points - (1 if with_infinity else 0):
        params.add(Fraction(rng.randint(-40, 40), rng.randint(1, 6)))
    params = sorted(params)
    if with_infinity:
        params.insert(rng.randrange(len(params) + 1), INFINITY)
    c = new_cluster()
    for p in params:
        c.add_free_point(0, p)
    return c


def _elements(rng, cluster):
    """Branches through random points, and a product of two of them."""
    one = PlaneElement.from_terms(random_branch(rng, cluster))
    two = PlaneElement.from_terms(random_branch(rng, cluster))
    return one, two, one * two


@pytest.fixture
def chart_calls(monkeypatch):
    calls = {"finite": 0, "infinity": 0}
    for name, key in (("_blow_finite", "finite"), ("_blow_infinity", "infinity")):
        original = getattr(curves, name)

        def counting(*args, original=original, key=key):
            calls[key] += 1
            return original(*args)

        monkeypatch.setattr(curves, name, counting)
    return calls


def test_walk_matches_the_oracle_on_random_clusters():
    """Trees with ``inf`` children and satellites."""
    rng = random.Random(2903)
    infinite = satellites = 0
    for _ in range(150):
        cluster = random_coordinatized_cluster(rng, max_points=14)
        infinite += any(cluster.point(j).param == INFINITY for j in range(1, len(cluster)))
        satellites += any(len(cluster.point(j).prox) == 2 for j in range(1, len(cluster)))
        for f in _elements(rng, cluster):
            assert multiplicity_vector(cluster, f) == expanded_multiplicity_vector(cluster, f), str(f)
    assert infinite >= 50 and satellites >= 50


def test_walk_matches_the_oracle_on_stars():
    """Stars of 20-60 points, half of them with a point at ``inf``."""
    rng = random.Random(4129)
    reached = 0
    for points in range(20, 61, 4):
        for with_infinity in (False, True):
            cluster = _star(rng, points, with_infinity)
            for f in _elements(rng, cluster):
                got = multiplicity_vector(cluster, f)
                assert got == expanded_multiplicity_vector(cluster, f), str(f)
                reached += any(got[1:])
    assert reached >= 40


@pytest.mark.parametrize("s", ["1/2", "-5", "100", "7/3"])
def test_a_line_off_every_point_of_a_star_charts_nothing(chart_calls, s):
    cluster = star_cluster(48)  # parameters 0..47
    assert multiplicity_vector(cluster, parse_poly(f"y - ({s})*x")) == (1,) + (0,) * 48
    assert chart_calls == {"finite": 0, "infinity": 0}


@pytest.mark.parametrize("s", [0, 5, 47])
def test_a_line_through_one_point_of_a_star_charts_it_alone(chart_calls, s):
    cluster = star_cluster(48)
    got = multiplicity_vector(cluster, parse_poly(f"y - {s}*x"))
    assert got == tuple(1 if i in (0, s + 1) else 0 for i in range(49))
    assert chart_calls == {"finite": 1, "infinity": 0}


def test_the_chart_at_infinity_runs_only_on_its_cone(chart_calls):
    cluster = star_cluster(5, params=[0, 1, INFINITY, 2, 3])
    assert multiplicity_vector(cluster, parse_poly("x + y^2")) == (1, 0, 0, 1, 0, 0)
    assert chart_calls == {"finite": 0, "infinity": 1}
    assert multiplicity_vector(cluster, parse_poly("y + x^2")) == (1, 1, 0, 0, 0, 0)
    assert chart_calls == {"finite": 1, "infinity": 1}


def test_a_singular_point_charts_each_line_of_its_cone(chart_calls):
    """y^2 - x^2 has order 2 with cone y = x and y = -x."""
    cluster = star_cluster(5, params=[-1, 0, 1, 2, INFINITY])
    assert multiplicity_vector(cluster, parse_poly("y^2 - x^2")) == (2, 1, 0, 1, 0, 0)
    assert chart_calls == {"finite": 2, "infinity": 0}


def test_an_unrecorded_child_is_named_before_the_cone_test():
    """A point with no parameter is refused even where the cone misses it."""
    cluster = new_cluster()
    cluster.add_free_point(0, 1)
    cluster.add_free_point(0)
    with pytest.raises(CoordinateError, match="^point 2 has no recorded parameter"):
        multiplicity_vector(cluster, parse_poly("y - 3*x"))
