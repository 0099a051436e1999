"""Products kept factored: an element is a constant times its factors.

A product or power merges or scales its operands' factors and builds no
terms; a sum expands its summands, and ``terms`` is built when first read.
Checked here:

* a factored element and its expansion are one element: ``==``, ``hash``,
  ``repr``, ``str``, ``order`` and ``multiplicity_vector`` agree, and its
  text reads back;
* ``_is_squarefree``, which reads the factors, against
  ``oracles.expanded_is_squarefree``, which reads the expanded rows, and
  its work cap on a product with a repeated factor;
* under lowered work and bit caps, the parser refuses exactly what an
  oracle of the rule refuses, with the same message and position: ``*``
  and ``^`` refused by the degree cap and the bit cap on the constant, a
  summand by the bit cap on a factor's power and one work budget for its
  expansion.  What it admits has the oracle's constant and factors, and
  its terms are the plain expansion, or refused by the same cap;
* under the same lowered caps, ``*`` and ``**`` on parsed elements give what
  the parser gives for the product or power of their texts: the same
  constant, factors and terms, or the same refusal;
* a ``run`` of the perfbench ``curves`` scenario, and the ``value_vector``
  ladder's largest element, multiply out only the squares inside the cusp
  equations.
"""

import importlib.util
import os
import random
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antinef import PlaneElement, PolynomialSyntaxError, multiplicity_vector, parse_poly
from antinef import curves
from antinef.cli import main
from antinef.curves import _is_squarefree
from helpers import random_branch, random_coordinatized_cluster
from oracles import expanded_is_squarefree, expanded_multiplicity_vector

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNITS = ("(1 + x)", "(2 - y + x*y)", "(3/2 + x^2)", "(1 - 2/3*y)")
CONSTANTS = ("(3/7)", "(5)", "(2/9)", "(-4)")
MONOMIALS = ("(x)", "(y)", "(x*y^2)", "(3*x^2)")


def _random_text(rng, cluster) -> str:
    """A signed product of branches through the cluster, units, constants and
    monomials, each to an exponent 0 to 3; branches often repeat."""
    branches = [PlaneElement.from_terms(random_branch(rng, cluster)) for _ in range(3)]
    pool = [f"({f})" for f in branches if max(a + b for (a, b), _ in f.terms) <= 10]
    parts = []
    for _ in range(rng.randint(1, 5)):
        group = rng.choices((pool or UNITS, UNITS, CONSTANTS, MONOMIALS), (6, 2, 1, 1))[0]
        part, e = rng.choice(group), rng.choice((0, 1, 1, 1, 2, 3))
        parts.append(f"{part}^{e}" if e != 1 else part)
    return rng.choice(("", "-")) + "*".join(parts)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_factored_element_is_its_expansion(seed):
    rng = random.Random(seed)
    cluster = random_coordinatized_cluster(rng, max_points=8)
    text = _random_text(rng, cluster)
    f = parse_poly(text)
    order, mults = f.order(), multiplicity_vector(cluster, f)  # read from the factors
    expanded = PlaneElement.from_terms(f.to_dict())
    assert len(expanded._factors) <= 1
    # each check on a fresh parse, whose terms are built by that check
    assert parse_poly(text) == expanded, text
    assert hash(parse_poly(text)) == hash(expanded)
    assert repr(parse_poly(text)) == repr(expanded)
    assert str(parse_poly(text)) == str(expanded)
    assert order == expanded.order() == min(a + b for (a, b), _ in expanded.terms)
    assert mults == multiplicity_vector(cluster, expanded)
    assert mults == expanded_multiplicity_vector(cluster, f)
    assert parse_poly(str(f)) == f


def test_a_product_is_not_expanded_until_its_terms_are_read():
    f = parse_poly("(y - x^2 + 3*x^3)*(y^2 - x^3)^2*(1 + x)")
    assert "terms" not in f.__dict__
    assert f.order() == 5 and "terms" not in f.__dict__
    assert f == parse_poly(str(f)) and "terms" in f.__dict__


def test_a_product_with_zero_is_refused():
    for text in ("0*(x+y)*(x-y)", "(x+y)*(x-y)*0", "(x - x)*(x+y)^2", "(0*(x+y))^3*(y - 1)"):
        with pytest.raises(ValueError, match=r"^zero is not a plane element \(its values"):
            parse_poly(text)


def test_the_sign_of_a_negated_product():
    f = parse_poly("-(x+y)*(x-y)")
    assert f.to_dict() == {(0, 2): 1, (2, 0): -1}
    assert f == parse_poly("y^2 - x^2") and str(f) == str(parse_poly("y^2 - x^2"))
    g = parse_poly("(x+y)*(x-y)")
    assert g.to_dict() == {(0, 2): -1, (2, 0): 1} and g != f
    assert parse_poly("-1") * g == f and parse_poly("(-(x+y))*(-(x-y))") == g


def test_a_zeroth_power_leaves_the_other_factors():
    f = parse_poly("x^0*(x+y)")
    assert f == parse_poly("x + y") and len(f._factors) == 1 and f.order() == 1
    assert parse_poly("(x+y)^0*x") == parse_poly("x") and parse_poly("(x+y)^0").order() == 0


def test_a_one_term_power_is_built_at_once(monkeypatch):
    # the power of each one-term factor is taken at once, and the only
    # multiplication shifts one term by another
    f = parse_poly("(-2/3*x^2*y)^5")
    assert "terms" not in f.__dict__
    multiply = curves._mul_terms

    def shift(g, h, spent):
        assert len(g) == len(h) == 1, "a one-term power went through square-and-multiply"
        return multiply(g, h, spent)

    monkeypatch.setattr(curves, "_mul_terms", shift)
    assert f.to_dict() == {(10, 5): Fraction(-32, 243)}
    assert str(f) == "-32/243*x^10*y^5" and f.order() == 15


# -- squarefree ---------------------------------------------------------------------

#: Factors that share factors and contents with one another: y^2 - x^2 is
#: (y - x)(y + x), x*y + y - x - 1 is (x + 1)(y - 1), x*y^2 - x is
#: x(y - 1)(y + 1), x^2 - 1 is (x - 1)(x + 1).
POOL = (
    "y - x", "y + x", "y^2 - x^2", "y^2 - x^3", "x - 1", "x", "x + 1", "x^2 - 1", "y",
    "y - 1", "y + 1", "x*y - 1", "y - x^2", "x*y + y - x - 1", "x*y^2 - x", "2*y - 3*x + 1",
)


def _squarefree_case(picks, constant) -> str:
    return f"{constant}*" + "*".join(f"({POOL[i]})^{e}" for i, e in picks)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, len(POOL) - 1), st.sampled_from((1, 1, 1, 2))),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from((1, -1, 3, Fraction(2, 5))),
)
def test_squarefree_from_the_factors_matches_the_expansion(picks, constant):
    text = _squarefree_case(picks, constant)
    f = parse_poly(text)
    verdict = _is_squarefree(f)
    assert verdict is expanded_is_squarefree(f), text
    assert _is_squarefree(PlaneElement.from_terms(f.to_dict())) is verdict, text


def test_squarefree_cases_reach_both_verdicts_through_shared_factors():
    rng = random.Random(23)
    verdicts = Counter()
    for _ in range(300):
        picks = [(rng.randrange(len(POOL)), 1) for _ in range(rng.randint(2, 4))]
        f = parse_poly(_squarefree_case(picks, 1))
        verdict = _is_squarefree(f)
        assert verdict is expanded_is_squarefree(f)
        verdicts[verdict] += 1
    # with every exponent 1, a False verdict comes from a shared factor or content
    assert verdicts[True] >= 50 and verdicts[False] >= 50, verdicts


@pytest.mark.parametrize(
    "k, outcome",
    [
        (20, False),  # decided within the cap: 1,036 specializations of d^2 = 529
        (30, "squarefree work 1000791 exceeds the work cap 1000000"),
        (100, "squarefree work 1007855 exceeds the work cap 1000000"),
        (300, "squarefree work 1009899 exceeds the work cap 1000000"),
        (495, "squarefree work 1240020 exceeds the work cap 1000000"),
    ],
)
def test_squarefree_work_cap_ends_a_repeated_factor_check(k, outcome):
    # the repeated factor y - x needs (2d - 1) e + 1 specializations to
    # prove, d = e = k + 3; each is charged d^2, and the cap ends the check
    # where it would take seconds to minutes
    f = parse_poly(f"(y-x)*(y^2-x^2)*(1+x^{k}*y^{k})")
    start = time.perf_counter()
    try:
        got = _is_squarefree(f)
    except ValueError as exc:
        got = str(exc)
    assert time.perf_counter() - start < 1
    assert got == outcome


def test_squarefree_work_cap_leaves_a_first_squarefree_specialization():
    f = parse_poly("(y-x)*(y^2-2*x^3)*(1+x^495*y^495)")
    start = time.perf_counter()
    assert _is_squarefree(f) is True
    assert time.perf_counter() - start < 1


# -- refusals under lowered caps --------------------------------------------------------

LEAVES = (
    "1 + x", "x - y", "2*x + 3*y + 1", "x^2 - 3*y", "1 + x + y + x*y", "y^3 - x^2 + 2",
    "5/3 + x", "x", "y", "7", "1/2", "x*y - 4/9", "1 + x + x^2 + x^3 + x^4 + x^5",
    "2 + x + x^2 + x^3 + x^4 + x^5", "y^3 - y + 1",
)


def _tree(rng, depth):
    """A random expression: a leaf, or a product, sum or power of smaller ones."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(LEAVES)
    kind = rng.choice("**^+")
    if kind == "^":
        return kind, _tree(rng, depth - 1), rng.randint(0, 5)
    return kind, _tree(rng, depth - 1), _tree(rng, depth - 1)


def _text(node) -> str:
    if isinstance(node, str):
        return f"({node})"
    kind, left, right = node
    right = str(right) if kind == "^" else _text(right)
    return f"({_text(left)}{kind}{right})"


class _Refused(Exception):
    pass


#: An oracle's value: the constant, the factors with their exponents, the
#: total degree, and the expanded terms of a sum or a number (else None).
_ZERO = (Fraction(0), {}, 0, {})


def _summed(terms) -> tuple:
    """The value of a sum: one factor, or a constant, its terms built; the
    factor is normalized by the library's sum rule, which the sum tests check."""
    terms = {k: c for k, c in terms.items() if c}
    if not terms:
        return _ZERO
    f = PlaneElement.from_terms(terms)
    return Fraction(f._constant), f._factors, max(a + b for a, b in terms), terms


def _plain_product(f, g):
    out = {}
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + Fraction(c1) * c2
    return {k: c for k, c in out.items() if c}


def _expanded(value, at):
    """The terms of a value, refused at position ``at``: as built, else each
    factor's power by square-and-multiply, refused above the bit cap for an
    exponent of 2 or more, multiplied in turn under one work budget, the
    coefficient products len(f) * len(g) of every multiplication."""
    constant, factors, _, built = value
    if built is not None:
        return built
    spent = 0

    def multiply(f, g):
        nonlocal spent
        spent += len(f) * len(g)
        if spent > curves.MAX_WORK:
            raise _Refused(f"expansion work {spent} exceeds the work cap {curves.MAX_WORK}", at)
        return _plain_product(f, g)

    terms = {(0, 0): Fraction(1)}
    for i, (key, e) in enumerate(factors.items()):
        base, power = dict(key), None
        bits = e * max(map(abs, base.values())).bit_length()
        if e >= 2 and bits > curves.MAX_POWER_BITS:  # a factor's coefficients are integers
            raise _Refused(
                f"power coefficient bits {bits} exceeds the bit cap {curves.MAX_POWER_BITS}", at
            )
        if len(base) == 1:
            [((a, b), c)] = base.items()
            power, e = {(e * a, e * b): c**e}, 0
        while e:  # square-and-multiply, as the library takes a power
            if e & 1:
                power = base if power is None else multiply(power, base)
            e >>= 1
            if e:
                base = multiply(base, base)
        terms = power if i == 0 else multiply(terms, power)
    return {k: constant * c for k, c in terms.items()}


def _ruled(node, at) -> tuple:
    """The value of the node whose text starts at position ``at``, by the
    rule: ``*`` and ``^`` merge and scale factors, refused above the degree
    cap, then ``^`` above the bit cap on the constant, at the end of the
    operand; a sum expands each summand at the token after it."""
    if isinstance(node, str):
        return _summed(parse_poly(node).to_dict())
    kind, left, right = node
    constant, factors, degree, built = _ruled(left, at + 1)
    end = at + 1 + len(_text(left))
    if kind == "^":
        end += 1 + len(str(right))
        if right > curves.MAX_DEGREE:
            raise _Refused(f"exponent {right} exceeds the degree cap {curves.MAX_DEGREE}", end)
        if right * degree > curves.MAX_DEGREE:
            raise _Refused(
                f"power degree {right * degree} exceeds the degree cap {curves.MAX_DEGREE}", end
            )
        bits = right * max(abs(constant.numerator), constant.denominator).bit_length()
        if bits > curves.MAX_POWER_BITS:
            raise _Refused(
                f"power coefficient bits {bits} exceeds the bit cap {curves.MAX_POWER_BITS}", end
            )
        if not constant**right:
            return _ZERO
        scaled = {k: right * e for k, e in factors.items()} if right else {}
        return constant**right, scaled, right * degree, None
    if kind == "+":
        # the parser expands the left summand at the "+", before it reads the right one
        total = dict(_expanded((constant, factors, degree, built), end))
        other = _ruled(right, end + 1)
        end += 1 + len(_text(right))
        for k, c in _expanded(other, end).items():
            total[k] = total.get(k, 0) + c
        return _summed(total)
    other = _ruled(right, end + 1)
    end += 1 + len(_text(right))
    if degree + other[2] > curves.MAX_DEGREE:
        raise _Refused(
            f"product degree {degree + other[2]} exceeds the degree cap {curves.MAX_DEGREE}", end
        )
    if not constant * other[0]:
        return _ZERO
    merged = dict(factors)
    for k, e in other[1].items():
        merged[k] = merged.get(k, 0) + e
    return constant * other[0], merged, degree + other[2], None


def _lowered_caps(rng, monkeypatch):
    monkeypatch.setattr(curves, "MAX_WORK", rng.choice((1, 4, 12, 40, 150, 600, 3000)))
    monkeypatch.setattr(curves, "MAX_POWER_BITS", rng.choice((5, 8, 20, 60, 10_000)))


def test_lowered_caps_refuse_what_expanding_as_read_refuses(monkeypatch):
    # expanding as read: each summand as its sum reads it, and the terms of
    # what is admitted as they are first read
    rng = random.Random(2023)
    seen = Counter()
    for _ in range(600):
        _lowered_caps(rng, monkeypatch)
        cluster = random_coordinatized_cluster(rng, max_points=6)
        node = _tree(rng, 4)
        text = _text(node)
        try:
            value = _ruled(node, 0)
            expected = "zero is not a plane element (its values are infinite)" if not value[0] else None
        except _Refused as refused:
            expected = str(PolynomialSyntaxError(*refused.args))
        try:
            f = parse_poly(text)
        except ValueError as exc:
            assert str(exc) == expected, text
            seen["work" if "work" in str(exc) else "bits" if "bits" in str(exc) else "other"] += 1
            continue
        assert expected is None, text
        assert (f._constant, f._factors, f._degree) == value[:3], text
        try:
            terms = _expanded(value, None)
        except _Refused as refused:
            with pytest.raises(ValueError) as info:
                f.to_dict()
            assert str(info.value) == refused.args[0], text
            seen["terms refused"] += 1
            continue
        assert f.to_dict() == terms, text
        assert multiplicity_vector(cluster, f) == expanded_multiplicity_vector(cluster, f), text
        seen["expanded"] += 1
    assert min(seen["work"], seen["bits"], seen["terms refused"]) >= 30, seen
    assert seen["expanded"] >= 100, seen


def _outcome(build):
    """The constant and factors of what ``build`` returns, with its terms or
    their refusal; or its own refusal, without the parser's position."""
    try:
        f = build()
    except ValueError as exc:
        return str(exc).split(" (at position ")[0]
    try:
        terms = f.to_dict()
    except ValueError as exc:
        terms = str(exc)
    return f._constant, f._factors, terms


def test_operators_run_the_parsers_rule(monkeypatch):
    rng = random.Random(24)
    seen = Counter()
    for _ in range(500):
        _lowered_caps(rng, monkeypatch)
        t1, t2, k = _text(_tree(rng, 3)), _text(_tree(rng, 3)), rng.randint(0, 5)
        try:
            f, g = parse_poly(t1), parse_poly(t2)
        except ValueError:
            continue
        for text, operate in ((f"{t1}*{t2}", lambda: f * g), (f"{t1}^{k}", lambda: f**k)):
            expected = _outcome(lambda: parse_poly(text))
            assert _outcome(operate) == expected, text
            if isinstance(expected, str):
                seen["refused"] += 1
            else:
                seen["expanded" if isinstance(expected[2], dict) else "terms refused"] += 1
    # only the degree cap and the bits of the constant refuse * and **
    assert seen["refused"] >= 20 and min(seen["expanded"], seen["terms refused"]) >= 100, seen


def test_a_product_is_kept_factored_and_expanded_under_one_budget(monkeypatch):
    # nothing is multiplied out at the parse, under any cap; the first read
    # of the terms multiplies the four factors in turn, 529 coefficient
    # products in all, and is refused under any cap below that
    c = "+".join(f"x^{i}" for i in range(10))
    text = f"((1+y+x*y)*(1+y^2+x))*(({c})*(1+{c}))"
    monkeypatch.setattr(curves, "MAX_WORK", 528)
    f = parse_poly(text)
    assert "terms" not in f.__dict__ and len(f._factors) == 4
    with pytest.raises(ValueError, match="^expansion work 529 exceeds the work cap 528$"):
        f.terms
    monkeypatch.setattr(curves, "MAX_WORK", 529)
    g = parse_poly(text)
    expected = {(0, 0): 1}
    for part in ("1+y+x*y", "1+y^2+x", c, f"1+{c}"):
        expected = _plain_product(expected, parse_poly(part).to_dict())
    assert g._factors == f._factors and g.to_dict() == expected and len(expected) == 80


# -- what a curves run multiplies out -------------------------------------------------


@pytest.fixture(scope="module")
def gen():
    spec = importlib.util.spec_from_file_location(
        "antinef_bench_gen", os.path.join(ROOT, "perfbench", "gen.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _multiplications(monkeypatch) -> list:
    calls = []
    multiply = curves._mul_terms

    def counted(f, g, spent):
        calls.append((f, g))
        return multiply(f, g, spent)

    monkeypatch.setattr(curves, "_mul_terms", counted)
    return calls


def _cusp_squares(gen, calls) -> bool:
    """Whether every multiplication but of two terms squares y + g of one
    of the cusp branches, and some does."""
    bases = [
        parse_poly(gen._branch_poly("smooth", g)).to_dict()
        for kind, g in gen.curves_branches(gen.DEFAULT_SEED)
        if kind == "cusp"
    ]
    larger = [(f, g) for f, g in calls if len(f) * len(g) > 1]
    return bool(larger) and all(f is g and f in bases for f, g in larger)


def test_a_curves_run_multiplies_out_only_the_cusp_squares(gen, tmp_path, capsys, monkeypatch):
    scn = tmp_path / "curves.scn"
    scn.write_text(gen.curves(gen.DEFAULT_SEED))
    calls = _multiplications(monkeypatch)
    assert main(["run", "--scenario", str(scn)]) == 0
    capsys.readouterr()
    assert _cusp_squares(gen, calls), [(len(f), len(g)) for f, g in calls if len(f) > 1]
    largest_g = max(len(g) for _, g in gen.curves_branches(gen.DEFAULT_SEED))
    assert max(max(len(f), len(g)) for f, g in calls) <= largest_g


def test_the_ladder_product_is_parsed_without_multiplying_it_out(gen, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # scale_child adds perfbench/
    spec = importlib.util.spec_from_file_location(
        "antinef_scale_child", os.path.join(ROOT, "benchmarks", "scale_child.py")
    )
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    calls = _multiplications(monkeypatch)
    _cluster, f = child.curves_product(24)
    assert _cusp_squares(gen, calls)
    assert len(f._factors) == 24 and "terms" not in f.__dict__
