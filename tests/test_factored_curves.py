"""Valuing a product factor by factor, and the caps on expanding one.

``multiplicity_vector`` walks the strict transform of each factor an
element was built from, and adds exponent times order at every point.  It
is checked against ``oracles.expanded_multiplicity_vector``, the walk of
the fully expanded polynomial, on random coordinatized clusters and random
products: repeated factors, unit and constant factors, a/b coefficients,
and sums of products, which are one factor.  The degree and bit caps
refuse a product or power before anything is expanded, in the parser and
in the library alike; the work cap is one budget per expansion, and
refuses a summand, or the first read of ``terms``, whose multiplications
take too many coefficient products in all.  On the same random products,
the library's ``+`` and ``-`` are checked against the parser's, and
``degree_function`` against Rees's additivity over products and powers.
"""

import operator
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antinef import (
    CoordinateError,
    PlaneElement,
    PolynomialSyntaxError,
    degree_function,
    multiplicity_vector,
    new_cluster,
    parse_poly,
    value_vector,
)
from antinef import curves
from antinef.cli import main
from antinef.curves import MAX_WORK
from antinef.selfcheck import random_integer_divisor
from helpers import random_branch, random_coordinatized_cluster
from oracles import expanded_multiplicity_vector

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNITS = ("(1 + x)", "(2 - y + x*y)", "(3/2 + x^2)", "(1 - 2/3*y)")
CONSTANTS = ("3/7", "5", "2/9")


def _random_product(rng, cluster) -> tuple[int, list[tuple[str, int]]]:
    """A sign and (factor, exponent) pairs: branches through the cluster,
    units and constants, a factor often repeated."""
    branches = [
        PlaneElement.from_terms(random_branch(rng, cluster)) for _ in range(rng.randint(2, 4))
    ]
    branches = [f"({f})" for f in branches if max(a + b for (a, b), _ in f.terms) <= 12]
    factors = []
    for _ in range(rng.randint(1, 5)):
        pool = rng.choices((branches or UNITS, UNITS, CONSTANTS), (6, 2, 1))[0]
        factors.append((rng.choice(pool), rng.choice((1, 1, 2))))
    return rng.choice((1, 1, -1)), factors


def _as_text(sign, factors) -> str:
    return ("-" if sign < 0 else "") + "*".join(f"{p}^{e}" if e > 1 else p for p, e in factors)


def _as_product(sign, factors) -> PlaneElement:
    out = parse_poly(str(sign))
    for p, e in factors:
        out = out * parse_poly(p) ** e
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_factor_walk_matches_the_expanded_walk(seed):
    rng = random.Random(seed)
    cluster = random_coordinatized_cluster(rng, max_points=10)
    product = _random_product(rng, cluster)
    f = parse_poly(_as_text(*product))
    expected = expanded_multiplicity_vector(cluster, f)
    assert multiplicity_vector(cluster, f) == expected, str(f)
    # the same product built by the library's * and **, and its expansion
    # as one factor, are valued the same
    assert multiplicity_vector(cluster, _as_product(*product)) == expected
    assert multiplicity_vector(cluster, PlaneElement.from_terms(f.to_dict())) == expected
    # a sum of two products is one factor
    text = f"{_as_text(*product)} + {_as_text(*_random_product(rng, cluster))}"
    try:
        g = parse_poly(text)
    except ValueError:
        return  # the sum cancelled to zero
    assert len(g._factors) <= 1
    assert multiplicity_vector(cluster, g) == expanded_multiplicity_vector(cluster, g), text


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sum_and_difference_are_the_parsed_sum_and_difference(seed):
    rng = random.Random(seed)
    cluster = random_coordinatized_cluster(rng, max_points=10)
    f, g = (parse_poly(_as_text(*_random_product(rng, cluster))) for _ in range(2))
    for op, sign in ((operator.add, "+"), (operator.sub, "-")):
        text = f"({f}) {sign} ({g})"
        try:
            expected = parse_poly(text)
        except ValueError:  # the sum cancelled to zero
            with pytest.raises(ValueError, match="^zero is not a plane element"):
                op(f, g)
            continue
        got = op(f, g)
        assert got == expected and str(got) == str(expected), text
        # the parser's sum rule: the same constant, factors and degree
        assert got._constant == expected._constant and got._factors == expected._factors
        assert got._degree == expected._degree, text
        assert multiplicity_vector(cluster, got) == expanded_multiplicity_vector(cluster, got), text
    with pytest.raises(ValueError, match="^zero is not a plane element"):
        f - f


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_degree_function_adds_over_products_and_powers(seed):
    # Rees: d(f g) = d(f) + d(g) for all nonzero f and g, reduced or not
    rng = random.Random(seed)
    cluster = random_coordinatized_cluster(rng, max_points=10)
    d = random_integer_divisor(rng, cluster, 0, 6)
    # * and ** expand nothing, so every draw has a degree to check
    f, g = (_as_product(*_random_product(rng, cluster)) for _ in range(2))
    e = rng.randint(2, 3)
    assert degree_function(d, f * g) == degree_function(d, f) + degree_function(d, g)
    assert degree_function(d, f**e) == e * degree_function(d, f)


def test_the_work_cap_refuses_a_drawn_cube():
    # this seed drew an f of 838 terms: its cube is accepted and valued
    # factor by factor, and only reading the cube's terms passes the cap
    rng = random.Random(52117823)
    cluster = random_coordinatized_cluster(rng, max_points=10)
    d = random_integer_divisor(rng, cluster, 0, 6)
    f, g = (_as_product(*_random_product(rng, cluster)) for _ in range(2))
    assert len(f.terms) == 838
    cube = f**3
    assert degree_function(d, cube) == 3 * degree_function(d, f)
    with pytest.raises(ValueError, match=f"^expansion work 1477859 exceeds the work cap {MAX_WORK}$"):
        cube.terms


def test_random_products_reach_deep_points_through_several_factors():
    # the differential test is only as good as its inputs: most products
    # reach points past the origin, and many with two or more factors there
    rng = random.Random(18)
    deep = several = 0
    for _ in range(200):
        cluster = random_coordinatized_cluster(rng, max_points=10)
        f = parse_poly(_as_text(*_random_product(rng, cluster)))
        got = multiplicity_vector(cluster, f)
        assert got == expanded_multiplicity_vector(cluster, f)
        through = [key for key in f._factors if min(a + b for (a, b), _ in key) > 0]
        deep += any(got[1:])
        several += len(through) >= 2 and any(got[1:])
    assert deep >= 100 and several >= 50, (deep, several)


def test_product_and_expansion_are_one_element():
    product, expanded = parse_poly("(y-x)*(y+x)"), parse_poly("y^2 - x^2")
    assert product == expanded
    assert hash(product) == hash(expanded)
    assert repr(product) == repr(expanded)
    assert str(product) == str(expanded)
    assert product * product == expanded**2


def test_equal_factors_merge_and_constants_drop():
    f = parse_poly("3*(y - x)*(x - y)^2*2/5*(y^2 - x^3)")
    assert sorted(f._factors.values()) == [1, 3]
    assert parse_poly("7")._factors == {} and parse_poly("(x - 2)^0")._factors == {}
    assert len((parse_poly("y - x") * parse_poly("x - y"))._factors) == 1


def test_an_element_is_not_built_without_its_factors():
    with pytest.raises(TypeError, match="_factors"):
        PlaneElement(1)
    assert PlaneElement.from_terms({(1, 0): 1})._factors == parse_poly("x")._factors


def test_a_negative_power_is_refused():
    f = parse_poly("y - x")
    with pytest.raises(ValueError, match="^negative powers are not plane elements$"):
        f ** -1
    assert f**0 == parse_poly("1")


def test_an_element_equals_no_other_type():
    f = parse_poly("3")
    assert f != 3 and f != "3" and f != {(0, 0): 3}
    assert (f == 3) is False and f.__eq__(3) is NotImplemented


def test_coordinate_error_names_the_point_the_expanded_walk_names():
    # two uncoordinatized points, each reached by a different factor
    c = new_cluster()
    p1 = c.add_free_point(0, 0)  # the direction y = 0
    p2 = c.add_free_point(0, 1)  # the direction y = x
    c.add_free_point(p1)
    c.add_free_point(p2)
    for text in ("(y - x^2)*(y - x)", "(y - x)*(y - x^2)", "y - x^2", "(y - x)^3"):
        f = parse_poly(text)
        with pytest.raises(CoordinateError) as fast:
            multiplicity_vector(c, f)
        with pytest.raises(CoordinateError) as slow:
            expanded_multiplicity_vector(c, f)
        assert str(fast.value) == str(slow.value)
    with pytest.raises(CoordinateError, match="point 4 "):
        multiplicity_vector(c, parse_poly("(y - x^2)*(y - x)"))


@pytest.mark.parametrize("k", [0, 1, 2, 5, 20])
def test_library_power_scales_the_multiplicities(k):
    c = new_cluster()
    p = c.add_free_point(0, 0)
    q = c.add_satellite_point(p, 0)
    c.add_free_point(q, Fraction(-1, 2))
    f = parse_poly("y^2 - x^3") * parse_poly("y - 2*x")
    assert value_vector(c, f**k).multiplicities == tuple(
        k * m for m in value_vector(c, f).multiplicities
    )


# -- caps -----------------------------------------------------------------------


def test_caps_admit_their_own_values():
    # 10 * 1000 bits, the bit cap itself
    assert parse_poly("(2^999)^10").to_dict() == {(0, 0): 2**9990}
    # 20,000 terms, built with 20,000 coefficient products and the powers' few
    assert len(parse_poly("(1+x)^199*(1+y)^99").terms) == 20_000
    assert len(parse_poly("(x+y)^600").terms) == 601


@pytest.mark.parametrize(
    "text, message",
    [
        ("(2^999)^11", "power coefficient bits 11000 exceeds the bit cap 10000 (at position 10)"),
        (
            "(3/1024*x)^910",
            "power coefficient bits 10010 exceeds the bit cap 10000 (at position 14)",
        ),
        # the degree cap is checked first
        ("(1+x+y)^1001", "exponent 1001 exceeds the degree cap 1000 (at position 12)"),
    ],
)
def test_caps_refuse_before_expanding(text, message):
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_poly(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "left, right, message",
    [
        ("y - x", 1001, "exponent 1001 exceeds the degree cap 1000"),
        ("x^600", "y^401", "product degree 1001 exceeds the degree cap 1000"),
        ("2^999", 11, "power coefficient bits 11000 exceeds the bit cap 10000"),
    ],
)
def test_library_caps_raise_value_error_before_expanding(left, right, message, monkeypatch):
    f = parse_poly(left)
    g = parse_poly(right) if isinstance(right, str) else None

    def expand(*args):
        raise AssertionError("expanded before the cap was checked")

    monkeypatch.setattr(curves, "_mul_terms", expand)
    monkeypatch.setattr(curves, "_pow_terms", expand)
    with pytest.raises(ValueError) as info:
        f * g if g is not None else f**right
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize(
    "text", ["(1+x+y)^1000", "(1+x)^199*(1+y)^100", "x*(1+x+y)^140", "((1+x)^70*(1+y)^70)^2"]
)
def test_an_element_whose_expansion_is_large_is_valued_factor_by_factor(text, monkeypatch):
    def expand(*args):
        raise AssertionError("a product or power was expanded")

    monkeypatch.setattr(curves, "_mul_terms", expand)
    monkeypatch.setattr(curves, "_pow_terms", expand)
    c = new_cluster()
    c.add_free_point(c.add_free_point(0, -1), -1)  # two points on y = -x, off every factor's cone
    f = parse_poly(text)
    assert "terms" not in f.__dict__
    assert multiplicity_vector(c, f) == (f.order(), 0, 0)


def test_reading_the_terms_of_a_large_element_names_the_cap():
    f = parse_poly("(1+x+y)^1000")
    for read in (lambda: f.terms, lambda: f == f, lambda: hash(f), lambda: str(f), f.to_dict):
        with pytest.raises(ValueError) as info:
            read()
        assert type(info.value) is ValueError
        assert str(info.value) == f"expansion work 2212515 exceeds the work cap {MAX_WORK}"
    # a factor's coefficients are raised to a power only where it is expanded
    g = parse_poly("(2^999 + x)^11")
    with pytest.raises(ValueError, match="^power coefficient bits 11000 exceeds the bit cap 10000$"):
        g.terms
    # a summand's expansion is refused at the token after it
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_poly("(2^999 + x)^11 + 1")
    assert str(info.value).endswith("(at position 15)")


# -- the work budget ------------------------------------------------------------

DENSE = "(1+x)^70*(1+y)^70 + x"  # one factor of 71^2 = 5,041 terms
DENSE_SQUARE = f"y - ({DENSE})^2"  # its square takes 5,041^2 coefficient products
DENSE_SQUARE_REFUSAL = "expansion work 25411681 exceeds the work cap 1000000"


def test_work_cap_refuses_the_dense_square_from_the_parser():
    start = time.perf_counter()
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_poly(DENSE_SQUARE)
    assert time.perf_counter() - start < 1
    assert str(info.value) == f"{DENSE_SQUARE_REFUSAL} (at position 29)"
    # a power whose squarings add up past the cap: (1+x+y)^64 has 2,145 terms
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_poly("(1+x+y)^140 + 1")
    assert str(info.value) == (
        "expansion work 4942125 exceeds the work cap 1000000 (at position 12)"
    )
    # the product of the two powers, 19,881 terms, is built factor by factor
    start = time.perf_counter()
    assert len(parse_poly("y - ((1+x)^70*(1+y)^70)^2").terms) == 19_881
    assert time.perf_counter() - start < 1


def test_work_cap_refuses_the_dense_square_from_the_library():
    f = parse_poly(DENSE)
    for square in (lambda: f**2, lambda: f * f):
        start = time.perf_counter()
        g = square()  # kept factored
        for read in (lambda: g.terms, lambda: g + f, lambda: f - g):
            with pytest.raises(ValueError) as info:
                read()
            assert type(info.value) is ValueError and str(info.value) == DENSE_SQUARE_REFUSAL
        assert time.perf_counter() - start < 1


def test_work_cap_refuses_the_dense_square_from_a_scenario(tmp_path, capsys):
    scn = tmp_path / "s.scn"
    scn.write_text(f"[element F]\npoly = {DENSE_SQUARE}\n")
    start = time.perf_counter()
    assert main(["run", "--scenario", str(scn)]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and f"line 2: bad polynomial: {DENSE_SQUARE_REFUSAL} (at position 29)" in err


def _pairs(n: int) -> str:
    """(1+1*x)*(1+1*y)*...*(1+n*x)*(1+n*y): 2n distinct factors of degree 1."""
    return "*".join(f"(1+{i}*x)*(1+{i}*y)" for i in range(1, n + 1))


@pytest.mark.parametrize("n", [140, 250, 500])
def test_work_cap_is_one_budget_for_all_of_an_expansion(n):
    # no one multiplication passes the cap, (n + 1)^2 terms times 2 at most,
    # but all of them together do; the budget ends each in well under 1 s,
    # where multiplying out 250 pairs would take about 15 s
    text = f"{_pairs(n)} + 1"
    start = time.perf_counter()
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_poly(text)
    assert time.perf_counter() - start < 1
    # refused at the "+" after the product
    at = len(_pairs(n)) + 1
    assert str(info.value) == f"expansion work 1013010 exceeds the work cap 1000000 (at position {at})"


def test_work_cap_refuses_a_large_power_in_a_sum_at_once():
    start = time.perf_counter()
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_poly("(1+x+y)^1000 + 1")
    assert time.perf_counter() - start < 1
    assert str(info.value) == "expansion work 2212515 exceeds the work cap 1000000 (at position 13)"
    # a later summand too is refused at the token after it, past any blanks
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_poly("1 + (1+x+y)^1000  - x")
    assert str(info.value).endswith("(at position 18)")


def test_work_cap_admits_the_benchmark_ladder_element():
    # the value_vector ladder's largest rung multiplies 209,591 coefficient pairs
    child = os.path.join(ROOT, "benchmarks", "scale_child.py")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, child, "value_vector", "24"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


# -- the cluster's memo of factor walks ---------------------------------------------


def _replay(cluster, rec):
    """Insert a point as ``rec`` records it, into a cluster holding its predecessors."""
    if rec.kind == "satellite":
        cluster.add_satellite_point(rec.parent, rec.prox[0])
    else:
        cluster.add_free_point(rec.parent, rec.param)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_memo_keeps_up_with_inserts(seed):
    # products sharing factors, valued on a cluster as it grows towards the
    # points the factors pass through, before and after each insert
    rng = random.Random(seed)
    full = random_coordinatized_cluster(rng, max_points=9)
    pool = [PlaneElement.from_terms(random_branch(rng, full)) for _ in range(3)]
    pool = [f"({f})" for f in pool if max(a + b for (a, b), _ in f.terms) <= 12]
    pool += list(UNITS[:2])

    def check(cluster):
        factors = [(rng.choice(pool), rng.choice((1, 1, 2))) for _ in range(rng.randint(1, 3))]
        f = parse_poly(_as_text(rng.choice((1, -1)), factors))
        assert multiplicity_vector(cluster, f) == expanded_multiplicity_vector(cluster, f), str(f)

    cluster = new_cluster()
    for rec in full.points[1:]:
        for _ in range(2):  # walked, then read from the memo
            check(cluster)
        _replay(cluster, rec)
        check(cluster)
    for _ in range(3):
        check(cluster)


def _count_walks(monkeypatch) -> list:
    walked = []
    walk = curves._walk

    def counted(cluster, terms):
        walked.append(tuple(sorted(terms.items())))
        return walk(cluster, terms)

    monkeypatch.setattr(curves, "_walk", counted)
    return walked


def test_curves_scenario_walks_each_distinct_factor_once(tmp_path, capsys, monkeypatch):
    # the perfbench ``curves`` scenario (seed 1) values a*c, b^2*d, a*c*d and
    # b*c twice on one cluster: 11 factor walks without the memo, 4 with it
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    scn = tmp_path / "curves.scn"
    scn.write_text(gen.generate("curves", gen.DEFAULT_SEED))
    walked = _count_walks(monkeypatch)
    assert main(["run", "--scenario", str(scn)]) == 0
    capsys.readouterr()
    assert len(walked) == len(set(walked)) == 4


def test_coordinate_error_from_a_factor_memoized_by_another_element(monkeypatch):
    # the factor y - x fails at point 4, y - x^2 at point 3; the walk of the
    # product meets point 4 first, whichever factor was walked before
    def cluster():
        c = new_cluster()
        p1 = c.add_free_point(0, 0)
        p2 = c.add_free_point(0, 1)
        c.add_free_point(p1)
        c.add_free_point(p2)
        return c

    product = parse_poly("(y - x^2)*(y - x)")
    for first in ("(y - x)^3", "y - x^2", "(y - x)*(1 + x)"):
        c = cluster()
        with pytest.raises(CoordinateError) as earlier:
            multiplicity_vector(c, parse_poly(first))
        assert str(earlier.value) == str(_oracle_error(c, parse_poly(first)))
        walked = _count_walks(monkeypatch)
        with pytest.raises(CoordinateError) as info:
            multiplicity_vector(c, product)
        monkeypatch.undo()
        assert len(walked) == 1  # the other factor came from the memo
        assert str(info.value) == str(_oracle_error(c, product))
        assert "point 4 " in str(info.value)


def _oracle_error(cluster, f) -> CoordinateError:
    with pytest.raises(CoordinateError) as info:
        expanded_multiplicity_vector(cluster, f)
    return info.value
