"""Polynomial parsing, blowup valuations, degree functions, oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antinef import (
    INFINITY,
    CoordinateError,
    PlaneElement,
    PolynomialSyntaxError,
    degree_function,
    divisor,
    multiplicity_vector,
    new_cluster,
    parse_poly,
    unload,
    value_vector,
)
from antinef.curves import MAX_DEGREE
from helpers import (
    cusp_cluster,
    random_coordinatized_cluster,
    random_poly,
    star_cluster,
    star_family_divisor,
)
from oracles import monomial_valuation_volume_oracle, newton_multiplicity_oracle


class TestParser:
    def test_cusp_polynomial(self):
        f = parse_poly("y^2 - x^3")
        assert f.to_dict() == {(0, 2): Fraction(1), (3, 0): Fraction(-1)}

    def test_expansion(self):
        f = parse_poly("x*(x+y)")
        assert f.to_dict() == {(2, 0): Fraction(1), (1, 1): Fraction(1)}

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            parse_poly("0")
        with pytest.raises(ValueError, match="zero"):
            parse_poly("x - x")

    def test_rational_literal(self):
        f = parse_poly("3/2*x + 1/3")
        assert f.to_dict() == {(1, 0): Fraction(3, 2), (0, 0): Fraction(1, 3)}

    def test_unary_minus_binds_after_power(self):
        f = parse_poly("-x^2 + y")
        assert f.to_dict() == {(2, 0): Fraction(-1), (0, 1): Fraction(1)}

    def test_syntax_error_carries_position(self):
        with pytest.raises(PolynomialSyntaxError) as info:
            parse_poly("x + * y")
        assert info.value.position == 4

    def test_no_division_operator(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_poly("x/2")

    @pytest.mark.parametrize("text", ["x + \u0661", "x^\u0662", "x^\u00b2", "x + 1_0", "1e3*x"])
    def test_only_ascii_digits(self, text):
        # nat = digit { digit } with digit 0-9: no other script's digits, no
        # superscripts, separators or exponents
        with pytest.raises(PolynomialSyntaxError):
            parse_poly(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2/", "expected a denominator (at position 2)"),
            ("1/ + x", "expected a denominator (at position 3)"),
            ("x^", "expected an exponent (at position 2)"),
            ("x^y", "expected an exponent (at position 2)"),
        ],
    )
    def test_missing_number_is_named(self, text, message):
        with pytest.raises(PolynomialSyntaxError) as info:
            parse_poly(text)
        assert str(info.value) == message

    def test_unbalanced_parenthesis(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_poly("(x + y")

    def test_whitespace_insensitive(self):
        assert parse_poly(" y ^ 2-x^3 ").to_dict() == parse_poly("y^2 - x^3").to_dict()

    def test_power_expansion(self):
        f = parse_poly("(x + y)^2")
        assert f.to_dict() == {
            (2, 0): Fraction(1),
            (1, 1): Fraction(2),
            (0, 2): Fraction(1),
        }

    def test_degree_cap_admits_its_own_value(self):
        assert parse_poly(f"y^{MAX_DEGREE}").to_dict() == {(0, MAX_DEGREE): 1}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("y^1001", "exponent 1001 exceeds the degree cap 1000 (at position 6)"),
            ("2^1001", "exponent 1001 exceeds the degree cap 1000 (at position 6)"),
            ("(x^2+y)^501", "power degree 1002 exceeds the degree cap 1000 (at position 11)"),
            (
                "(x+y)^600*(x+y)^600",
                "product degree 1200 exceeds the degree cap 1000 (at position 19)",
            ),
            ("y^100000000", "exponent 100000000 exceeds the degree cap 1000 (at position 11)"),
        ],
    )
    def test_degree_cap_refuses_before_expanding(self, text, message):
        with pytest.raises(PolynomialSyntaxError) as info:
            parse_poly(text)
        assert str(info.value) == message

    def test_str_of_mixed_monomial_parses(self):
        f = parse_poly("3/2*x^2*y + y^3")
        assert str(f) == "y^3 + 3/2*x^2*y"
        assert parse_poly(str(f)) == f


def _random_poly_tokens(rng, depth=3):
    """Tokens of random polynomial text; ``int`` tokens are integer literals.

    The text mixes integer literals, a/b literals (some with denominator 1 or
    not in lowest terms), unary signs, products, powers and parentheses.
    """
    if depth == 0 or rng.random() < 0.3:
        pick = rng.random()
        if pick < 0.4:
            return [rng.choice("xy")]
        if pick < 0.8:
            return [rng.randint(0, 12)]
        return [f"{rng.randint(0, 12)}/{rng.randint(1, 6)}"]
    pick = rng.random()
    left = _random_poly_tokens(rng, depth - 1)
    if pick < 0.2:
        return ["(", *left, ")", f"^{rng.randint(0, 4)}"]
    if pick < 0.3:
        return [rng.choice("+-"), *left]
    op = rng.choice("+-*")
    return ["(", *left, op, *_random_poly_tokens(rng, depth - 1), ")"]


def _render(tokens, as_fraction):
    return " ".join(
        (f"{t}/1" if as_fraction else str(t)) if isinstance(t, int) else t for t in tokens
    )


def test_integer_literals_agree_with_fraction_literals():
    """Integer literals (int arithmetic) against the same text with k/1 (Fraction)."""
    rng = random.Random(9)
    parsed = zero = 0
    for _ in range(400):
        tokens = _random_poly_tokens(rng)
        outcomes = []
        for as_fraction in (False, True):
            try:
                outcomes.append(parse_poly(_render(tokens, as_fraction)))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], _render(tokens, False)
        if isinstance(outcomes[0], str):
            assert "zero" in outcomes[0]
            zero += 1
            continue
        parsed += 1
        for f in outcomes:
            assert all(type(c) is Fraction for _, c in f.terms)
    assert parsed >= 300 and zero >= 5


_exponent = st.integers(min_value=0, max_value=4)
_coeff = st.fractions(max_denominator=12).filter(lambda c: c != 0)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(_exponent, _exponent), _coeff, min_size=1, max_size=6))
def test_str_round_trips_through_parse_poly(terms):
    f = PlaneElement.from_terms(terms)
    assert parse_poly(str(f)) == f


class TestMultiplicityVector:
    def test_cusp_curve(self):
        c = cusp_cluster()
        assert multiplicity_vector(c, parse_poly("y^2 - x^3")) == (2, 1, 1)

    def test_generic_line_misses_free_points(self):
        c = star_cluster(4)  # parameters 0, 1, 2, 3
        f = parse_poly("y - 5*x")
        assert multiplicity_vector(c, f) == (1, 0, 0, 0, 0)

    def test_line_through_a_marked_point(self):
        c = star_cluster(4)
        f = parse_poly("y - 2*x")  # direction parameter 2 is point 3
        assert multiplicity_vector(c, f) == (1, 0, 0, 1, 0)

    def test_unit_has_zero_vector(self):
        c = cusp_cluster()
        assert multiplicity_vector(c, parse_poly("7")) == (0, 0, 0)

    def test_missing_parameter_fails_loudly(self):
        c = new_cluster()
        c.add_free_point(0)  # no parameter recorded
        with pytest.raises(CoordinateError, match="no recorded parameter"):
            multiplicity_vector(c, parse_poly("x + y"))

    def test_missing_parameter_off_path_is_fine(self):
        c = new_cluster()
        p1 = c.add_free_point(0, 0)
        c.add_free_point(p1)  # never reached by x: strict transform misses p1
        assert multiplicity_vector(c, parse_poly("x")) == (1, 0, 0)

    def test_deep_satellite_chart(self):
        # after three blowups the cusp curve is resolved: it crosses the
        # last curve transversally away from both crossings
        c = cusp_cluster()
        c.add_satellite_point(2, 1)
        f = parse_poly("y^2 - x^3")
        assert multiplicity_vector(c, f) == (2, 1, 1, 0)
        assert value_vector(c, f).values == (2, 3, 6, 9)

    def test_vertical_direction(self):
        c = new_cluster()
        c.add_free_point(0, "inf")  # the x = 0 direction
        assert multiplicity_vector(c, parse_poly("x")) == (1, 1)
        assert multiplicity_vector(c, parse_poly("y")) == (1, 0)


class TestValueVector:
    def test_cusp_values(self):
        c = cusp_cluster()
        assert value_vector(c, parse_poly("y^2 - x^3")).values == (2, 3, 6)

    def test_coordinate_values(self):
        c = cusp_cluster()
        assert value_vector(c, parse_poly("x")).values == (1, 1, 2)
        assert value_vector(c, parse_poly("y")).values == (1, 2, 3)

    def test_generic_line_on_star(self):
        c = star_cluster(5)
        assert value_vector(c, parse_poly("y - 7*x")).values == (1,) * 6

    def test_order_is_first_value(self):
        c = cusp_cluster()
        rng = random.Random(4)
        for _ in range(25):
            f = random_poly(rng)
            assert value_vector(c, f).values[0] == f.order()

    def test_additive_on_products(self):
        c = cusp_cluster()
        rng = random.Random(42)
        for _ in range(100):
            f, g = random_poly(rng), random_poly(rng)
            vf = value_vector(c, f).values
            vg = value_vector(c, g).values
            vfg = value_vector(c, f * g).values
            assert vfg == tuple(a + b for a, b in zip(vf, vg))

    def test_round_trip_with_proximity(self):
        c = cusp_cluster()
        rng = random.Random(43)
        for _ in range(40):
            vv = value_vector(c, random_poly(rng))
            assert c.multiplicities_from_values(vv.values) == vv.multiplicities
            assert c.values_from_multiplicities(vv.multiplicities) == vv.values

    def test_proximity_inequality(self):
        # the multiplicity at a point bounds the sum over points proximate to it
        c = cusp_cluster()
        rng = random.Random(44)
        for _ in range(60):
            m = value_vector(c, random_poly(rng)).multiplicities
            for rec in c.points:
                incoming = sum(m[q.index] for q in c.points if rec.index in q.prox)
                assert m[rec.index] >= incoming


class TestDegreeFunction:
    def test_star_family_line(self):
        c = star_cluster(1, params=[Fraction(0)])
        d = star_family_divisor(c, 1)
        assert degree_function(d, parse_poly("y - 2*x")) == 3

    def test_point_divisor_gives_order(self):
        c = cusp_cluster()
        d = divisor(c, [1, 1, 2])
        for text in ("y^2 - x^3", "x", "y", "x*y + y^2"):
            f = parse_poly(text)
            assert degree_function(d, f) == f.order()

    def test_unit_gives_zero(self):
        c = cusp_cluster()
        assert degree_function(divisor(c, [1, 1, 2]), parse_poly("5")) == 0

    def test_non_squarefree_element(self):
        # Rees: d(x^2) = 2 d(x), reduced or not
        c = cusp_cluster()
        d = divisor(c, [1, 1, 2])
        assert degree_function(d, parse_poly("x^2")) == 2


class TestNewtonOracle:
    def test_two_constraints(self):
        assert newton_multiplicity_oracle([(1, 1, 3), (1, 2, 4)]) == 10

    def test_point_ideal(self):
        assert newton_multiplicity_oracle([(1, 1, 1)]) == 1

    def test_closure_of_coordinate_powers(self):
        # integral closure of (x^a, y^b) has Newton region b*al + a*be >= a*b
        for a, b in [(2, 3), (1, 1), (4, 5)]:
            assert newton_multiplicity_oracle([(b, a, a * b)]) == a * b

    def test_unbounded_strip_rejected(self):
        with pytest.raises(ValueError, match="co-finite"):
            newton_multiplicity_oracle([(1, 0, 2), (0, 1, 3)])

    def test_trivial_constraints_ignored(self):
        assert newton_multiplicity_oracle([(1, 1, 0), (1, 1, -2)]) == 0

    def test_opens_away_rejected(self):
        with pytest.raises(ValueError, match="away"):
            newton_multiplicity_oracle([(-1, 1, 1)])

    def test_redundant_constraint_is_harmless(self):
        assert newton_multiplicity_oracle([(1, 1, 3), (1, 2, 4), (1, 1, 2)]) == 10

    def test_matches_lattice_count(self):
        # complement area doubled == ideal colength counted two ways for
        # a region with lattice vertices
        region = [(1, 1, 4), (2, 1, 6)]
        twice_area = newton_multiplicity_oracle(region)

        def inside(al, be):
            return al + be >= 4 and 2 * al + be >= 6

        # Pick's theorem cross-check via direct summation of column heights
        total = Fraction(0)
        for al in range(0, 7):
            # height of failure region above integer abscissa al
            hts = [max(Fraction(0), Fraction(c - a * al, b)) for a, b, c in region]
            total += max(hts)
        # trapezoid sum equals the shoelace area for piecewise-linear convex
        # boundaries sampled at every breakpoint; here breakpoints are integers
        area = sum(
            (hl + hr) / 2
            for hl, hr in zip(
                [max(Fraction(4 - al), Fraction(6 - 2 * al), Fraction(0)) for al in range(0, 7)],
                [max(Fraction(4 - al), Fraction(6 - 2 * al), Fraction(0)) for al in range(1, 8)],
            )
        )
        assert twice_area == 2 * area


def test_newton_oracle_matches_unloading_on_monomial_clusters():
    """On a monomial cluster the complete ideal of D is monomial: its
    multiplicity is the doubled co-area of the Newton region cut out by
    v_i(x) a + v_i(y) b >= Dbar_i, with Dbar the antinef closure of D."""
    rng = random.Random(5)
    checked = satellites = 0
    for _ in range(150):
        c = random_coordinatized_cluster(rng, 14, params=(0, INFINITY))
        satellites += sum(rec.kind == "satellite" for rec in c.points)
        vx = value_vector(c, parse_poly("x")).values
        vy = value_vector(c, parse_poly("y")).values
        for _ in range(3):
            model = unload(divisor(c, [rng.randint(0, 6) for _ in range(len(c))]))
            region = list(zip(vx, vy, model.divisor.coeffs))
            assert model.multiplicity == newton_multiplicity_oracle(region)
            checked += model.multiplicity > 0
    assert checked >= 300 and satellites >= 150


class TestVolumeOracle:
    def test_weights_one(self):
        seq = monomial_valuation_volume_oracle(1, 1, 6)
        assert seq == [Fraction(2 * n * (n + 1) // 2, n * n) for n in range(1, 7)]

    def test_limit_two_three(self):
        seq = monomial_valuation_volume_oracle(2, 3, 240)
        limit = Fraction(1, 6)
        assert abs(seq[-1] - limit) <= Fraction(3, 240)
        for n, value in enumerate(seq, start=1):
            assert abs(value - limit) <= Fraction(3, n)

    def test_matches_brute_count(self):
        for p, q in [(2, 3), (3, 4), (1, 5)]:
            seq = monomial_valuation_volume_oracle(p, q, 12)
            for n in range(1, 13):
                count = sum(
                    1
                    for al in range(n + 1)
                    for be in range(n + 1)
                    if p * al + q * be < n
                )
                assert seq[n - 1] == Fraction(2 * count, n * n)

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            monomial_valuation_volume_oracle(0, 3, 5)
