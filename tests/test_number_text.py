"""Number text read in one pass, against the reading through ``Fraction(text)``.

``parse_rational`` builds its value from the numerator and denominator it
matched; the oracles hand the whole literal to ``Fraction``, which parses it
again.  Each reader must return an equal value of the same type, or raise
``ValueError`` with the same message.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antinef.rationals import MAX_DIGITS, parse_integer, parse_param, parse_rational
from oracles import fraction_text_param, fraction_text_rational, text_integer

READERS = (
    (parse_rational, fraction_text_rational),
    (parse_param, fraction_text_param),
    (parse_integer, text_integer),
)


def _outcome(read, text):
    try:
        value = read(text)
    except ValueError as exc:
        return ("raises", type(exc), str(exc))
    return ("returns", type(value), value)


def _assert_agree(text):
    for read, oracle in READERS:
        got, expected = _outcome(read, text), _outcome(oracle, text)
        assert got == expected, (read.__name__, text)
        if got[0] == "returns" and got[1] is float:
            assert got[2] is expected[2]  # inf is the one INFINITY object


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="-+/._0123456789 \t", max_size=12))
def test_drawn_text_reads_as_through_fraction(text):
    _assert_agree(text)


@settings(max_examples=100, deadline=None)
@given(st.integers(-10**30, 10**30), st.integers(0, 10**30), st.sampled_from(["", " ", "\t"]))
def test_drawn_rationals_read_as_through_fraction(num, den, blank):
    _assert_agree(f"{blank}{num}/{den}{blank}")
    _assert_agree(f"{blank}{num}{blank}")


CAP, PAST = "7" * MAX_DIGITS, "7" * (MAX_DIGITS + 1)


@pytest.mark.parametrize("text", [
    CAP, f"-{CAP}", PAST, f"-{PAST}",
    f"{CAP}/3", f"{PAST}/3", f"3/{CAP}", f"3/{PAST}", f"{PAST}/{PAST}", f"-{CAP}/{CAP}",
    "1/0", "-1/0", "-0/0", "0/0", "007/010", "-007/010", "-0", "+1", "1_000", "1.5",
    "1/2/3", "--1", "/2", "2/", "inf", " inf ", "-inf", "", " ",
], ids=lambda text: text if len(text) < 20 else f"{len(text)} chars")
def test_fixed_text_reads_as_through_fraction(text):
    _assert_agree(text)


def test_values_have_the_oracle_type():
    assert type(parse_rational("007/010")) is Fraction and parse_rational("007/010") == Fraction(7, 10)
    assert type(parse_rational("12")) is Fraction and type(parse_integer("12")) is int
    with pytest.raises(ValueError, match=r"^malformed rational '-0/0': Fraction\(0, 0\)$"):
        parse_rational("-0/0")
