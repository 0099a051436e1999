"""One reader for exact numbers: ``rationals.exact`` behind every entry point.

Every library function that takes a number reads it through ``exact``: an
``int`` or ``Fraction`` as it is, a ``str`` under the scenario grammar
(``a``, ``-a`` or ``a/b`` in ASCII digits), and anything else, a float
above all, refused with ``InexactNumberError``, which is both a
``TypeError`` and a ``ValueError``.
"""

import random
import re
from fractions import Fraction

import pytest

import antinef
from antinef import (
    ExcDivisor,
    Example42Spec,
    INFINITY,
    divisor,
    is_negative_definite,
    multiplicity_sequence,
    nef_envelope,
    new_cluster,
    parse_poly,
    realize,
    rees_union,
    unload,
)
from antinef.cli import main
from antinef.curves import PlaneElement
from antinef.errors import InexactNumberError, PolynomialSyntaxError
from antinef.filtration import parse_label
from antinef.rationals import exact, parse_param
from antinef.selfcheck import random_cluster, random_effective_divisor, random_integer_divisor
from helpers import cusp_cluster
from oracles import monomial_valuation_volume_oracle, newton_multiplicity_oracle


def _cusp_divisor():
    return divisor(cusp_cluster(), [1, 1, 2])


#: Each library entry point that takes a number, fed ``x`` in one place.
ENTRY_POINTS = {
    "ExcDivisor": lambda x: ExcDivisor(cusp_cluster(), (x, 1, 1)),
    "divisor": lambda x: divisor(cusp_cluster(), [1, x, 1]),
    "scalar multiple": lambda x: _cusp_divisor() * x,
    "from_terms": lambda x: PlaneElement.from_terms({(1, 0): 1, (0, 1): x}),
    "add_free_point": lambda x: new_cluster().add_free_point(0, x),
    "Example42Spec": lambda x: Example42Spec(params=(0, x)),
    "is_negative_definite": lambda x: is_negative_definite([[-2, 1], [1, x]]),
    "newton_multiplicity_oracle": lambda x: newton_multiplicity_oracle([(x, x, x)]),
}


class TestEntryPoints:
    @pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
    @pytest.mark.parametrize("value", [0.5, 2.0, 0.0, -1e-3])
    def test_float_refused(self, call, value):
        with pytest.raises(InexactNumberError, match="not exact") as info:
            call(value)
        assert isinstance(info.value, TypeError) and isinstance(info.value, ValueError)
        assert repr(value) in str(info.value)

    @pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
    @pytest.mark.parametrize("text", ["1e3", "0.5", "1_0", "+2", "1/0"])
    def test_text_outside_the_grammar_refused(self, call, text):
        with pytest.raises(ValueError):
            call(text)

    @pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
    def test_exact_values_accepted(self, call):
        for value in (3, Fraction(7, 2), "5/2"):
            call(value)

    def test_text_reads_as_its_fraction(self):
        d = divisor(cusp_cluster(), ["-3/4", "2", "0"])
        assert d.coeffs == (Fraction(-3, 4), 2, 0)
        assert (d * "2/3").coeffs == (Fraction(-1, 2), Fraction(4, 3), 0)
        assert new_cluster().add_free_point(0, "-1/3") == 1
        assert Example42Spec(params=("1/2", 3)).params == (Fraction(1, 2), 3)
        assert is_negative_definite([["-2", "1/2"], ["1/2", "-1"]])

    def test_float_zero_is_refused_not_dropped(self):
        with pytest.raises(InexactNumberError):
            PlaneElement.from_terms({(1, 0): 1, (0, 1): 0.0})

    def test_float_parameter_names_what_it_is(self):
        with pytest.raises(TypeError, match=r"^unsupported parameter 0\.5: not exact; "):
            new_cluster().add_free_point(0, 0.5)

    def test_only_the_infinity_marker_passes_as_a_float(self):
        for value in (INFINITY, "inf"):
            c = new_cluster()
            assert c.point(c.add_free_point(0, value)).param == INFINITY
        with pytest.raises(InexactNumberError):
            new_cluster().add_free_point(0, float("-inf"))

    def test_wrong_count_has_one_message(self):
        message = "coefficients but the cluster has 3 exceptional curves"
        with pytest.raises(ValueError, match="divisor has 2 " + message):
            ExcDivisor(cusp_cluster(), (1, 2))
        with pytest.raises(ValueError, match="divisor has 1 " + message):
            divisor(cusp_cluster(), ["1"])


#: Each library entry point that takes a count or an index, fed ``x`` there,
#: with the name its error gives the argument.
INTEGER_ARGUMENTS = {
    "multiplicity_sequence": (lambda x: multiplicity_sequence(Example42Spec(), x), "nmax"),
    "rees_union": (lambda x: rees_union(Example42Spec(), x), "nmax"),
    "realize": (lambda x: realize(Example42Spec(), x), "family index n"),
    "oracle p": (lambda x: monomial_valuation_volume_oracle(x, 2, 3), "weight p"),
    "oracle q": (lambda x: monomial_valuation_volume_oracle(2, x, 3), "weight q"),
    "oracle nmax": (lambda x: monomial_valuation_volume_oracle(2, 3, x), "nmax"),
    "power": (lambda x: parse_poly("x+y") ** x, "exponent k"),
    "basis": (lambda x: ExcDivisor.basis(cusp_cluster(), x), "curve index i"),
}


@pytest.mark.parametrize("call, name", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
@pytest.mark.parametrize("value", [2.5, 2.0, Fraction(3), "3"], ids=repr)
def test_counts_and_indices_must_be_integers(call, name, value):
    message = f"unsupported {name} {re.escape(repr(value))}: not an integer"
    with pytest.raises(InexactNumberError, match=message) as info:
        call(value)
    assert isinstance(info.value, TypeError) and isinstance(info.value, ValueError)


class TestReader:
    def test_exact_values_come_back_unchanged(self):
        q = Fraction(5, 3)
        assert exact(q, "x") is q
        assert exact(7, "x") == 7 and type(exact(7, "x")) is int
        assert exact("-7/21", "x") == Fraction(-1, 3)

    @pytest.mark.parametrize("value", [0.25, 1j, None, [1], b"1"])
    def test_other_values_raise_one_error(self, value):
        with pytest.raises(InexactNumberError) as info:
            exact(value, "weight")
        assert str(info.value) == (
            f"unsupported weight {value!r}: not exact; write an int, a Fraction or an a/b rational"
        )

    def test_error_class_stays_out_of_the_public_names(self):
        assert "InexactNumberError" not in antinef.__all__

    def test_oo_is_not_a_parameter(self):
        assert parse_param("inf") == INFINITY
        with pytest.raises(ValueError, match="malformed rational 'oo'"):
            parse_param("oo")


def test_text_coefficients_agree_with_fractions():
    rng = random.Random(5)
    for _ in range(300):
        c = random_cluster(rng, max_points=8)
        qs = [
            Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            for _ in range(c.n_curves)
        ]
        assert divisor(c, [str(q) for q in qs]) == divisor(c, qs)


def test_closures_have_fraction_coefficients():
    rng = random.Random(8)
    for _ in range(200):
        c = random_cluster(rng, max_points=10)
        d = random_integer_divisor(rng, c)
        delta = random_effective_divisor(rng, c)
        results = [
            unload(d).divisor,
            nef_envelope(delta),
            nef_envelope(delta).ceil(),
            delta.floor(),
            ExcDivisor.zero(c),
            ExcDivisor.basis(c, c.n_curves - 1),
            2 * delta,
        ]
        for result in results:
            assert all(type(x) is Fraction for x in result.coeffs), result


def test_oo_param_in_a_scenario_exits_2(tmp_path, capsys):
    scn = tmp_path / "oo.scn"
    scn.write_text("[cluster C]\npoint = free parent=0 param=oo\n")
    assert main(["run", "--scenario", str(scn)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 2: malformed rational 'oo'" in captured.err


def test_oversized_literals_name_what_they_are():
    # 5,000 digits is past the interpreter's own limit on reading an int
    big = "7" * 5000
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_poly(f"x + {big}")
    assert str(info.value) == "a numerator of 5000 digits exceeds the digit cap 4300 (at position 4)"
    with pytest.raises(ValueError, match=r"^coefficient of 5000 digits exceeds the digit cap 4300$"):
        PlaneElement.from_terms({(0, 1): big})
    with pytest.raises(ValueError, match=r"^param of 5000 digits exceeds the digit cap 4300$"):
        parse_param(f"1/{big}")
    with pytest.raises(ValueError, match=r"^label of 5000 digits exceeds the digit cap 4300$"):
        parse_label(f"v{big}")
    # the cap itself is read
    assert exact("7" * 4300, "coefficient") == int("7" * 4300)
