"""A family's limit report on integer numerators, checked against the ``Fraction`` path.

``LimitReport`` carries s(n) = a_n / n^k as the integers a_n and the power
k; its summary fields are compared with ``oracles.fraction_make_report``,
which takes the same sequence as ``Fraction`` values, and the CLI's ratio
cells with ``str(Fraction(a, d))``.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from antinef import Example42Spec, commutation_report, degree_limit, multiplicity_sequence
from antinef import parse_poly
from antinef.cli import _ratio
from antinef.filtration import _make_report
from oracles import fraction_make_report

BIG = 10**6
ENTRY = st.one_of(st.just(0), st.sampled_from((-BIG, BIG)), st.integers(-BIG, BIG))


@st.composite
def sequences(draw):
    """``(numerators, power, closed_form)``: random, constant, zero or convergent."""
    power = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(("random", "constant", "zeros", "convergent")))
    limit = Fraction(0)
    if kind == "random":
        nums = draw(st.lists(ENTRY, min_size=n, max_size=n))
    elif kind == "constant":
        nums = [draw(ENTRY)] * n
    elif kind == "zeros":
        nums = [0] * n
    else:
        # a_n = floor(p n^k / q) + e_n with |e_n| bounded: s(n) tends to p/q
        limit = draw(st.fractions(-BIG, BIG, max_denominator=BIG))
        p, q = limit.numerator, limit.denominator
        nums = [p * k**power // q + draw(st.integers(-20, 20)) for k in range(1, n + 1)]
    closed = draw(st.one_of(st.none(), st.just(limit),
                            st.fractions(-BIG, BIG, max_denominator=BIG)))
    return nums, power, closed


@settings(max_examples=400, deadline=None)
@given(case=sequences())
def test_integer_report_matches_the_fraction_report(case):
    nums, power, closed = case
    report = _make_report(nums, power, closed)
    values = [Fraction(a, k**power) for k, a in enumerate(nums, start=1)]
    expected = fraction_make_report(values, closed)
    assert report.numerators == tuple(nums) and report.power == power
    # every field equal, rate_exponent to the last bit
    assert {name: getattr(report, name) for name in expected} == expected
    assert all(type(v) is Fraction for v in report.values)


def test_the_growing_family_report_matches_the_fraction_report():
    spec = Example42Spec()
    f = parse_poly("y - 2*x")
    for report in (multiplicity_sequence(spec, 30), degree_limit(spec, 0, 30),
                   degree_limit(spec, 1, 30), commutation_report(spec, f, 30).lim_of_sums):
        expected = fraction_make_report(report.values, report.closed_form)
        assert {name: getattr(report, name) for name in expected} == expected
    assert multiplicity_sequence(spec, 30).numerators == tuple(
        (n + 1) * (4 * n + 1) for n in range(1, 31))


def test_ratio_cells_read_as_fractions():
    big = [(-(10**30) - 7, 6 * 10**29), (10**40, 3**60), (-(2**90), 2**60 * 3)]
    pairs = [(a, d) for d in range(1, 40) for a in range(-60, 61)] + big
    for a, d in pairs:
        assert _ratio(a, d) == str(Fraction(a, d)), (a, d)
