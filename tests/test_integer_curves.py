"""The curves layer on integers, checked against exact-rational and sympy oracles.

``multiplicity_vector`` runs its blowup charts on primitive integer
polynomials (a finite chart substitutes term by term, each power of p + q v
expanded by the binomial theorem) and ``_is_squarefree`` decides
squarefreeness by a content gcd plus specializations of the discriminant.
Both are compared with independent slower paths on random input: the
``Fraction`` charts in ``oracles.py``, chart by chart on dense terms of high
y-degree as well as along whole walks, and sympy's gcd with both partial
derivatives.  Binary powering and the satellite-pair scan of the
random cluster generator are checked against the plain loops they replace.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antinef import multiplicity_vector, new_cluster, parse_poly
from antinef.curves import PlaneElement, _blow_finite, _is_squarefree, _prs_gcd
from antinef.rationals import INFINITY
from antinef import selfcheck
from antinef.selfcheck import random_cluster, valid_satellite_pairs
from helpers import random_branch, random_coordinatized_cluster, random_terms
from oracles import fraction_blow_finite, fraction_multiplicity_vector, scan_satellite_pairs

CASES = 300
MAX_DEGREE = 24


def _random_element(rng, cluster):
    factors = []
    for _ in range(rng.randint(1, 3)):
        if len(cluster) > 1 and rng.random() < 0.7:
            factors.append(random_branch(rng, cluster))
        else:
            factors.append(random_terms(rng, 0, 4, rng.randint(1, 5)))
    f = PlaneElement.from_terms({(0, 0): Fraction(1)})
    for terms in factors:
        if terms and max(a + b for a, b in terms) <= MAX_DEGREE:
            f = f * PlaneElement.from_terms(terms)
    return f


def _chart_kind(rec):
    if rec.kind == "satellite":
        return f"satellite-{rec.crossing_axis}"
    if rec.param == INFINITY:
        return "inf"
    if rec.param == 0:
        return "zero"
    return "integer" if rec.param.denominator == 1 else "rational"


def test_multiplicity_vector_matches_fraction_charts():
    rng = random.Random(20261018)
    reached = Counter()
    for _ in range(CASES):
        cluster = random_coordinatized_cluster(rng)
        f = _random_element(rng, cluster)
        got = multiplicity_vector(cluster, f)
        assert got == fraction_multiplicity_vector(cluster, f), str(f)
        for i in range(1, len(cluster)):
            if got[i]:
                reached[_chart_kind(cluster.point(i))] += 1
    # every chart kind was entered by a nonzero strict transform many times
    kinds = ("inf", "zero", "integer", "rational", "satellite-u", "satellite-v")
    assert all(reached[k] >= 20 for k in kinds), reached


def test_scaled_charts_keep_the_support():
    # a rational parameter, non-integer coefficients and a high y-degree
    c = new_cluster()
    p = c.add_free_point(0, Fraction(-2, 3))
    q = c.add_free_point(p, Fraction(7, 5))
    c.add_satellite_point(q, p)
    f = parse_poly("(3*y + 2*x - 7/5*x^2)^3 * (1/2*y^2 - x^5) + x^9")
    assert multiplicity_vector(c, f) == fraction_multiplicity_vector(c, f)


def _primitive_signed(terms) -> dict:
    """``terms`` as coprime integers, the least monomial's coefficient positive."""
    den = lcm(*(Fraction(c).denominator for c in terms.values()))
    ints = {k: int(c * den) for k, c in terms.items()}
    g = gcd(*ints.values()) * (1 if ints[min(ints)] > 0 else -1)
    return {k: c // g for k, c in ints.items()}


@st.composite
def _chart_inputs(draw):
    """Integer terms of y-degree 0 to 20 (a single term, sparse terms, or
    dense rows: every y-exponent of each total degree in a band), a parameter
    0, 1, -1 or p/q with q <= 7, and a multiplicity up to the order."""
    coeff = st.integers(-50, 50).filter(bool)
    top = draw(st.integers(0, 20))
    shape = draw(st.sampled_from(("single", "sparse", "dense")))
    if shape == "single":
        terms = {(draw(st.integers(0, 6)), top): draw(coeff)}
    elif shape == "sparse":
        keys = st.tuples(st.integers(0, 8), st.integers(0, top))
        terms = draw(st.dictionaries(keys, coeff, min_size=1, max_size=12))
        terms[(draw(st.integers(0, 8)), top)] = draw(coeff)
    else:
        low = draw(st.integers(top, top + 4))
        totals = range(low, low + draw(st.integers(1, 3)))
        terms = {(d - b, b): draw(coeff) for d in totals for b in range(top + 1)}
    p = draw(st.integers(-12, 12))
    q = draw(st.integers(1, 7))
    t = draw(st.sampled_from((Fraction(0), Fraction(1), Fraction(-1), Fraction(p, q))))
    order = min(a + b for a, b in terms)
    return terms, t, draw(st.integers(0, order))


@settings(max_examples=300, deadline=None)
@given(_chart_inputs())
def test_finite_chart_matches_the_fraction_chart(case):
    terms, t, m = case
    expected = fraction_blow_finite({k: Fraction(c) for k, c in terms.items()}, t, m)
    assert _primitive_signed(_blow_finite(terms, t, m)) == _primitive_signed(expected)


# -- squarefree ----------------------------------------------------------------


def _sympy_verdict(sympy, f):
    x, y = sympy.symbols("x y")
    poly = sympy.Poly(
        sympy.Add(*[sympy.Rational(c) * x**a * y**b for (a, b), c in f.terms]), x, y
    )
    if poly.total_degree() == 0:
        return True
    g = sympy.gcd(sympy.gcd(poly, poly.diff(x)), poly.diff(y))
    return sympy.Poly(g, x, y).total_degree() == 0


def _small(rng):
    terms = random_terms(rng, 0, 3, rng.randint(1, 4))
    return PlaneElement.from_terms(terms or {(0, 0): Fraction(rng.randint(1, 9))})


SQUARES = ("x", "x - 1", "2*x + 3", "y", "y - 1", "x + y", "x*y - 1", "y - x^2")


def _random_squarefree_case(rng):
    f = _small(rng)
    shape = rng.random()
    if shape < 0.3:
        f = f * _small(rng) ** 2  # f g^2
    elif shape < 0.45:
        f = f * parse_poly(rng.choice(SQUARES)) ** 2  # often a content square
    elif shape < 0.6:
        f = f * _small(rng)
    elif shape < 0.7:
        # not monic in y: the leading y-coefficient vanishes at some x0
        f = f * parse_poly(f"({rng.randint(1, 4)}*x - {rng.randint(1, 4)})*y^2 + x")
    return f


def test_squarefree_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    verdicts = Counter()
    for _ in range(CASES):
        f = _random_squarefree_case(rng)
        got = _is_squarefree(f)
        assert got == _sympy_verdict(sympy, f), str(f)
        verdicts[got] += 1
    assert verdicts[True] >= 50 and verdicts[False] >= 50, verdicts


@pytest.mark.parametrize(
    "text, expected",
    [
        ("x^2*(y - 1)", False),  # square in the content only
        ("(x - 1)^2*y", False),
        ("(x - 1)*(x - 2)*y", True),
        ("x^2 - 2", True),  # d = 0
        ("(x^2 - 2)^2", False),
        ("7", True),
        ("3/4", True),
        ("(y - x)^2", False),
        ("y^2 - x^3", True),
        ("x*y^2 - 1", True),  # lc_y vanishes at x = 0
        ("(x*y - 1)^2", False),
        ("x*(y^2 - x^3)^2", False),
        ("(y^2 - x^3)*(y^2 + x^3)", True),
        # squarefree, but f(x0, y) has a double root at x0 = 1, 2 (and 3)
        ("y^2 - (x - 1)^2*(x - 2)^2", True),
        ("y^2 - x*(x - 1)^2*(x - 2)^2*(x - 3)^2", True),
    ],
)
def test_squarefree_hand_cases(text, expected):
    assert _is_squarefree(parse_poly(text)) is expected


def test_squarefree_decides_a_repeated_factor_with_many_specializations():
    # deg_y 4, deg_x 50: up to (2*4 - 1)*50 + 1 = 351 failing points
    f = parse_poly("(y - x - 2*x^7 + x^13)^2 * ((y - 3*x^5)^2 - x^21)")
    assert _is_squarefree(f) is False


def test_prs_gcd_at_high_degree():
    # gcd((x - 1)^20 (x + 2)^15, derivative) has degree 33 = 19 + 14
    a = parse_poly("(x - 1)^20 * (x + 2)^15").to_dict()
    poly = [int(a.get((k, 0), 0)) for k in range(36)]
    deriv = [k * c for k, c in enumerate(poly)][1:]
    assert len(_prs_gcd(poly, deriv)) - 1 == 33


# -- binary powering -----------------------------------------------------------------


def _repeated(f, k):
    out = PlaneElement.from_terms({(0, 0): Fraction(1)})
    for _ in range(k):
        out = out * f
    return out


@pytest.mark.parametrize("k", range(10))
def test_power_equals_repeated_products(k):
    rng = random.Random(k)
    for text in ("x + y", "1/2*x - 3*y^2 + 1", "y^2 - x^3"):
        f = parse_poly(text)
        assert f**k == _repeated(f, k)
        assert parse_poly(f"({text})^{k}") == _repeated(f, k)
    g = _small(rng)
    text = " + ".join(f"({c})*x^{a}*y^{b}" for (a, b), c in g.terms)
    assert g**k == _repeated(g, k)
    assert parse_poly(f"({text})^{k}") == _repeated(g, k)


def test_zero_power_is_one():
    one = {(0, 0): Fraction(1)}
    assert (parse_poly("x - 2*y") ** 0).to_dict() == one
    assert parse_poly("(x - 2*y)^0").to_dict() == one
    assert parse_poly("0^0").to_dict() == one


# -- random clusters -------------------------------------------------------------------


def test_satellite_pairs_match_the_full_scan():
    rng = random.Random(3)
    for _ in range(CASES):
        cluster = random_cluster(rng, max_points=25)
        assert valid_satellite_pairs(cluster) == scan_satellite_pairs(cluster)


def test_random_clusters_unchanged_by_the_children_scan(monkeypatch):
    def build(seed):
        rng = random.Random(seed)
        return [random_cluster(rng, max_points=20).points for _ in range(20)]

    fast = [build(seed) for seed in range(10)]
    monkeypatch.setattr(selfcheck, "valid_satellite_pairs", scan_satellite_pairs)
    assert [build(seed) for seed in range(10)] == fast
