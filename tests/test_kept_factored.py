"""Products kept factored: an element is a constant times its factors.

A product or power merges or scales its operands' factors, and builds its
expanded terms only where a sum needs them, where a cap cannot be read from
bounds on the factors, or when ``terms`` is first read.  Checked here:

* a factored element and its expansion are one element: ``==``, ``hash``,
  ``repr``, ``str``, ``order`` and ``multiplicity_vector`` agree, and its
  text reads back;
* ``_is_squarefree``, which reads the factors, against
  ``oracles.expanded_is_squarefree``, which reads the expanded rows;
* under lowered work and bit caps, the parser refuses exactly what
  multiplying out every product and power as it is read refuses, with the
  same message and position, and reading the terms of what it admits never
  raises;
* under the same lowered caps, ``*`` and ``**`` on parsed elements give what
  the parser gives for the product or power of their texts: the same terms,
  built or left unexpanded alike, or the same refusal;
* a ``run`` of the perfbench ``curves`` scenario, and the ``value_vector``
  ladder's largest element, multiply out only the squares inside the cusp
  equations.
"""

import importlib.util
import os
import random
import sys
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
    f = parse_poly("(-2/3*x^2*y)^5")
    assert "terms" in f.__dict__

    def fail(*args):
        raise AssertionError("a one-term power went through _mul_terms")

    monkeypatch.setattr(curves, "_mul_terms", fail)
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


def _degree(f):
    return max((a + b for a, b in f), default=0)


def _widths(f):
    if not f:
        return 0, 0, 0
    xs, ys, ts = zip(*((a, b, a + b) for a, b in f))
    return max(xs) - min(xs), max(ys) - min(ys), max(ts) - min(ts)


def _box(widths):
    a, b, _ = sorted(widths)
    return (a + 1) * (b + 1)


def _multiplied(what, degree, widths, bits, multiply, at):
    """The caps in their order, read from the expanded operands, then the
    multiplication itself, whose work cap is checked as it runs."""
    if degree > curves.MAX_DEGREE:
        raise _Refused(f"{what} degree {degree} exceeds the degree cap {curves.MAX_DEGREE}", at)
    if bits > curves.MAX_POWER_BITS:
        raise _Refused(
            f"power coefficient bits {bits} exceeds the bit cap {curves.MAX_POWER_BITS}", at
        )
    if (degree + 1) ** 2 > curves.MAX_BOX and (box := _box(widths)) > curves.MAX_BOX:
        raise _Refused(f"{what} box {box} exceeds the box cap {curves.MAX_BOX}", at)
    try:
        return multiply()
    except ValueError as exc:
        raise _Refused(str(exc), at) from None


def _eager(node, at):
    """The expanded terms of the node whose text starts at position ``at``,
    every product and power multiplied out as it is read (left to right), as
    the parser did before it kept products factored."""
    if isinstance(node, str):
        return parse_poly(node).to_dict()
    kind, left, right = node
    f = _eager(left, at + 1)
    end = at + 1 + len(_text(left)) + 1
    if kind == "^":
        if right > curves.MAX_DEGREE:
            raise _Refused(f"exponent {right} exceeds the degree cap {curves.MAX_DEGREE}", end)
        height = max((max(abs(c.numerator), c.denominator) for c in f.values()), default=0)
        return _multiplied(
            "power", right * _degree(f), [right * w for w in _widths(f)],
            right * height.bit_length(), lambda: curves._pow_terms(f, right),
            end + len(str(right)),
        )
    g = _eager(right, end)
    end += len(_text(right))
    if kind == "+":
        total = dict(f)
        for k, c in g.items():
            total[k] = total.get(k, 0) + c
        return {k: c for k, c in total.items() if c}
    widths = [a + b for a, b in zip(_widths(f), _widths(g))]
    return _multiplied(
        "product", _degree(f) + _degree(g), widths, 0, lambda: curves._mul_terms(f, g), end
    )


def test_lowered_caps_refuse_what_expanding_as_read_refuses(monkeypatch):
    rng = random.Random(2023)
    seen = Counter()
    for _ in range(600):
        monkeypatch.setattr(curves, "MAX_WORK", rng.choice((1, 4, 12, 40, 150, 600)))
        monkeypatch.setattr(curves, "MAX_POWER_BITS", rng.choice((5, 8, 20, 60, 10_000)))
        node = _tree(rng, 4)
        text = _text(node)
        try:
            expected = _eager(node, 0)
        except _Refused as refused:
            expected = str(PolynomialSyntaxError(*refused.args))
        if expected == {}:
            expected = "zero is not a plane element (its values are infinite)"
        try:
            f = parse_poly(text)
        except ValueError as exc:
            assert str(exc) == expected, text
            seen["work" if "work" in str(exc) else "bits" if "bits" in str(exc) else "other"] += 1
            continue
        deferred = "terms" not in f.__dict__
        assert f.to_dict() == expected, text  # reading the terms raises no cap
        seen["deferred" if deferred else "built"] += 1
    assert min(seen["work"], seen["bits"], seen["deferred"], seen["built"]) >= 30, seen


def _outcome(build):
    """The terms of what ``build`` returns and whether they were built with
    it, or its refusal's message without the parser's position."""
    try:
        f = build()
    except ValueError as exc:
        return str(exc).split(" (at position ")[0]
    return "terms" in f.__dict__, f.to_dict()


def test_operators_run_the_parsers_rule(monkeypatch):
    rng = random.Random(24)
    seen = Counter()
    for _ in range(500):
        monkeypatch.setattr(curves, "MAX_WORK", rng.choice((1, 4, 12, 40, 150, 600)))
        monkeypatch.setattr(curves, "MAX_POWER_BITS", rng.choice((5, 8, 20, 60, 10_000)))
        t1, t2, k = _text(_tree(rng, 3)), _text(_tree(rng, 3)), rng.randint(0, 5)
        try:
            f, g = parse_poly(t1), parse_poly(t2)
        except ValueError:
            continue
        for text, operate in ((f"{t1}*{t2}", lambda: f * g), (f"{t1}^{k}", lambda: f**k)):
            expected = _outcome(lambda: parse_poly(text))
            assert _outcome(operate) == expected, text
            if isinstance(expected, tuple):
                seen["built" if expected[0] else "deferred"] += 1
            else:
                seen["work" if "work" in expected else "bits" if "bits" in expected else "?"] += 1
    assert min(seen["work"], seen["bits"], seen["built"], seen["deferred"]) >= 30, seen


def test_a_product_is_built_where_its_own_expansion_would_pass_the_work_cap(monkeypatch):
    # the bounds read at most 9*19 = 171 products for multiplying out
    # (A*B)*(C*D) as it is read, but 48*10 = 480 for the last step of the
    # factored expansion ((A*B)*C)*D (in fact 44*10): under a cap of 200 the
    # product is built at once, under 480 it is kept factored
    c = "+".join(f"x^{i}" for i in range(10))
    text = f"((1+y+x*y)*(1+y^2+x))*(({c})*(1+{c}))"
    monkeypatch.setattr(curves, "MAX_WORK", 200)
    f = parse_poly(text)
    assert "terms" in f.__dict__ and len(f._factors) == 4
    monkeypatch.setattr(curves, "MAX_WORK", 480)
    g = parse_poly(text)
    assert "terms" not in g.__dict__ and g == f


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

    def counted(f, g):
        calls.append((f, g))
        return multiply(f, g)

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
