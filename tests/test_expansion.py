"""Expanding polynomial text: sums, powers, products and their coefficients.

The parser accumulates a sum in place, so its time is linear in the number
of summands; it raises a one-term base to a power at once; ``_mul_terms``
multiplies ``Fraction`` coefficients as integers over one common
denominator, checked against the plain ``Fraction`` product on random
input, and charges its coefficient products to the expansion's work.  An element whose coefficient ``str`` could not write (more than
``MAX_DIGITS`` digits) is refused wherever it is built.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antinef import PlaneElement, parse_poly, value_vector
from antinef import curves
from antinef.cli import main
from antinef.rationals import MAX_DIGITS
from helpers import cusp_cluster


def test_a_long_sum_parses_in_linear_time():
    # 10,000 summands: about 0.4 s accumulated in place, about 7.5 s when
    # each summand copied the running sum
    text = " + ".join(f"{i}*x^{i % 97}*y^{i // 97}" for i in range(1, 10_001))
    start = time.perf_counter()
    f = parse_poly(text)
    assert time.perf_counter() - start < 4
    assert len(f.terms) == 10_000 and f.to_dict()[(3, 1)] == 100


def test_a_large_element_reads_back_from_its_text():
    # 4,519 terms, 323,279 characters: about 0.35 s to read back, about 3.6 s
    # when each summand copied the running sum
    f = parse_poly("(1/2 + x - 3*y)^60 * (2 - x*y^2 + 5/7*x^3)^12")
    assert len(f.terms) == 4519
    start = time.perf_counter()
    assert parse_poly(str(f)) == f
    assert time.perf_counter() - start < 2


def test_sum_cancels_and_stays_one_factor():
    f = parse_poly("x*y + (y - x)^2 - y^2 - x^2 + 3*x*y")
    assert f == parse_poly("2*x*y") and len(f._factors) == 1
    with pytest.raises(ValueError, match="zero is not a plane element"):
        parse_poly("x - y + y - x")


def test_a_one_term_power_multiplies_nothing(monkeypatch):
    def fail(*args):
        raise AssertionError("a one-term power went through _mul_terms")

    text = "(-2/3*x^2*y)^5"
    base = parse_poly("-2/3*x^2*y").to_dict()
    monkeypatch.setattr(curves, "_mul_terms", fail)
    assert curves._pow_terms(base, 5, [0]) == {(10, 5): Fraction(-32, 243)}
    assert curves._pow_terms({(1, 0): 1}, 14, [0]) == {(14, 0): 1}
    assert curves._pow_terms({(0, 1): 7}, 0, [0]) == {(0, 0): 1}
    monkeypatch.undo()
    assert parse_poly(text).to_dict() == {(10, 5): Fraction(-32, 243)}
    assert parse_poly("0^0 + x") == parse_poly("1 + x")


def _terms(max_terms):
    coefficient = st.one_of(
        st.integers(-50, 50),
        st.builds(Fraction, st.integers(-50, 50), st.integers(1, 40)),
    )
    monomial = st.tuples(st.integers(0, 6), st.integers(0, 6))
    return st.dictionaries(monomial, coefficient, min_size=1, max_size=max_terms).map(
        lambda terms: {k: c for k, c in terms.items() if c != 0}
    )


def _fraction_product(f, g):
    out = {}
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {k: c for k, c in out.items() if c != 0}


@settings(max_examples=300, deadline=None)
@given(_terms(12), _terms(12))
def test_integer_product_equals_the_fraction_product(f, g):
    spent = [0]
    assert curves._mul_terms(f, g, spent) == _fraction_product(f, g)
    assert spent == [len(f) * len(g)]


def test_rational_product_costs_about_the_integer_one():
    # 980,100 coefficient products on a/b coefficients: about 0.6 s over
    # integers, about 6 s as Fractions
    f, g = parse_poly("(1/2+x+y)^43").to_dict(), parse_poly("(1+x+y)^43").to_dict()
    start = time.perf_counter()
    product = curves._mul_terms(f, g, [0])
    assert time.perf_counter() - start < 3
    assert len(product) == 3828 and product[(0, 0)] == Fraction(1, 2**43)
    # as one expansion, with the 69,930 coefficient products of each power
    with pytest.raises(ValueError, match="^expansion work 1119960 exceeds the work cap 1000000$"):
        parse_poly("(1/2+x+y)^43*(1+x+y)^43").terms


# -- the digit cap on computed coefficients ----------------------------------------

TOO_LONG = "(2^999)^10*(2^999)^10*x"  # the coefficient 2^19980 has 6,015 digits
TOO_LONG_REFUSAL = f"coefficient of 6015 digits exceeds the digit cap {MAX_DIGITS}"


def test_parser_refuses_a_coefficient_str_could_not_write():
    with pytest.raises(ValueError) as info:
        parse_poly(TOO_LONG)
    assert str(info.value) == TOO_LONG_REFUSAL
    # a denominator too: 2^18000 has 5,419 digits
    with pytest.raises(ValueError, match="^coefficient of 5419 digits exceeds"):
        parse_poly("(1/1024)^900*(1/1024)^900*y")
    # 2^13986 has 4,211 digits, under the cap: written, and read back
    f = parse_poly("(2^999)^10*(2^999)^4*x")
    assert parse_poly(str(f)) == f


def test_library_product_refuses_a_coefficient_str_could_not_write():
    f, g = parse_poly("(2^999)^10"), parse_poly("(2^999)^10*x")
    with pytest.raises(ValueError) as info:
        f * g
    assert type(info.value) is ValueError and str(info.value) == TOO_LONG_REFUSAL
    with pytest.raises(ValueError, match="^coefficient of 6015 digits exceeds"):
        PlaneElement.from_terms({(1, 0): 2**19980})


def test_a_sum_is_checked_as_the_product_of_its_constant_and_factor():
    # A*A*x + A*B*y is A*B times the one factor 10^2000*x + y: accepted as
    # the product is, and its 5,001-digit term refused where terms are read
    a, b = "1" + "0" * 2500, "1" + "0" * 500
    cluster = cusp_cluster()
    sum_, product = parse_poly(f"{a}*{a}*x + {a}*{b}*y"), parse_poly(f"{a}*({a}*x + {b}*y)")
    assert value_vector(cluster, sum_) == value_vector(cluster, product)
    refusal = f"^coefficient of 5001 digits exceeds the digit cap {MAX_DIGITS}$"
    for f in (sum_, product):
        with pytest.raises(ValueError, match=refusal):
            f.terms


def test_scenario_with_a_coefficient_str_could_not_write_exits_2(tmp_path, capsys):
    scn = tmp_path / "s.scn"
    scn.write_text(f"[element F]\npoly = {TOO_LONG}\n")
    assert main(["run", "--scenario", str(scn)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"line 2: bad polynomial: {TOO_LONG_REFUSAL}" in err
