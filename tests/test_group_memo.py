"""A scenario parses each distinct parenthesized group once.

``parse_scenario`` keeps one memo for the file: the element of each
parenthesized group, by the exact text between its parentheses, whitespace
included.  A later copy of that text, on any ``poly =`` line, is not parsed
again.  ``parse_poly`` keeps a memo for its one call.  Checked here:

* every element of a scenario built from shared groups equals
  ``parse_poly`` of its own line, with the same factors, constant, built
  terms and degree, and the scenario refuses the first line that
  ``parse_poly`` refuses, with the same message;
* a refused power or product of a repeated group gives the same message,
  line and position as without the earlier copy;
* unbalanced parentheses keep their messages and positions;
* the same group written with other whitespace is parsed again, to an
  equal element;
* nothing carries over between two parses of one text;
* each distinct group text is parsed once.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antinef import PlaneElement, ScenarioError, parse_poly, parse_scenario
from antinef import curves
from helpers import random_branch, random_coordinatized_cluster


def _scenario(*polys: str) -> str:
    return "\n".join(f"[element E{i}]\npoly = {p}" for i, p in enumerate(polys))


def _state(f: PlaneElement):
    """Everything an element carries into a later product, power or sum."""
    return f._constant, f._factors, f._degree, "terms" in f.__dict__


def _expression(rng, pool, depth) -> str:
    """A random sum, product or power of groups drawn from ``pool``; a
    parenthesized part is added to the pool, so later parts repeat it."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(pool)
    kind = rng.choice(("+", "-", "*", "^", "()"))
    left = _expression(rng, pool, depth - 1)
    if kind == "^":
        return f"{left}^{rng.randint(0, 3)}"
    if kind == "()":
        pool.append(f"({left})")
        return pool[-1]
    return f"{left} {kind} {_expression(rng, pool, depth - 1)}"


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_each_element_is_the_parse_of_its_own_line(seed):
    rng = random.Random(seed)
    cluster = random_coordinatized_cluster(rng, max_points=8)
    branches = [PlaneElement.from_terms(random_branch(rng, cluster)) for _ in range(3)]
    pool = [f"({f})" for f in branches if max(a + b for (a, b), _ in f.terms) <= 6]
    pool += ["((y - x)^2 - x^3)", "(1 + x)", "(2/3)", "(x*y)"]
    polys = [_expression(rng, pool, 3) for _ in range(rng.randint(2, 6))]
    expected = []
    for lineno, text in enumerate(polys, start=1):
        try:
            expected.append(parse_poly(text))
        except ValueError as exc:  # a sum that cancels, say
            with pytest.raises(ScenarioError) as refused:
                parse_scenario(_scenario(*polys))
            assert refused.value.line == 2 * lineno
            assert str(refused.value) == f"line {2 * lineno}: bad polynomial: {exc}"
            return
    elements = parse_scenario(_scenario(*polys)).elements
    for i, (text, f) in enumerate(zip(polys, expected)):
        got = elements[f"E{i}"]
        assert got == f and str(got) == str(f), text
        assert _state(got) == _state(f), text


def _refusal(text: str) -> tuple[int, str]:
    with pytest.raises(ScenarioError) as refused:
        parse_scenario(text)
    return refused.value.line, str(refused.value)


@pytest.mark.parametrize(
    "group, refused",
    [
        ("(1 + x + y)", "x*(1 + x + y)^140 + 1"),
        pytest.param(
            "((1 + x)^70*(1 + y)^70 + x)", "y - ((1 + x)^70*(1 + y)^70 + x)^2", id="dense-square"
        ),
        ("((1 + x)^70)", "((1 + x)^70)^3*((1 + x)^70)^20"),
    ],
)
def test_a_refusal_around_a_repeated_group_is_unchanged(group, refused):
    line, message = _refusal(_scenario(group, refused))
    assert (line, message) == _refusal(_scenario("x + y", refused))
    assert line == 4 and "exceeds the" in message and "(at position " in message
    # the repeat within one line, against a copy of the same length that misses
    twin = group.replace("1 + x", "x + 1")
    within = f"{group}*{refused}"
    assert _refusal(_scenario(within)) == _refusal(_scenario(f"{twin}*{refused}"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("((x)", "expected ')' (at position 4)"),
        ("(x))", "unexpected character ')' (at position 3)"),
        ("(x", "expected ')' (at position 2)"),
        ("x)", "unexpected character ')' (at position 1)"),
        (")(x)", "unexpected character ')' (at position 0)"),
        ("()", "unexpected character ')' (at position 1)"),
        ("((x+y)*(x+y)", "expected ')' (at position 12)"),
        ("(x+y)*(x+y))", "unexpected character ')' (at position 11)"),
        ("(x+y)*((x+y)", "expected ')' (at position 12)"),
        ("(x+y)(x+y)", "unexpected character '(' (at position 5)"),
        ("((1+x+y))^2)", "unexpected character ')' (at position 11)"),
    ],
)
def test_unbalanced_parentheses_keep_their_messages(text, message):
    with pytest.raises(ValueError) as exc:
        parse_poly(text)
    assert str(exc.value) == message
    # and after a scenario line that parsed every group they contain
    line, got = _refusal(_scenario("(x) + (x+y) + ((x+y)) + y", text))
    assert (line, got) == (4, f"line 4: bad polynomial: {message}")


def test_other_whitespace_is_another_group_of_an_equal_element():
    texts = ("(y^2 - x^3)", "(y^2-x^3)", "( y^2 -  x^3 )", "(y^2 - x^3)")
    elements = parse_scenario(_scenario(*texts)).elements
    a, b, c, d = (elements[f"E{i}"] for i in range(4))
    assert a == b == c and a._factors == b._factors == c._factors
    assert a is not b and a is not c and b is not c  # the key is the exact text
    assert a is d  # the same text: parsed once


def test_two_parses_of_one_text_share_no_element():
    text = _scenario("(y^2 - x^3)", "(y - x^2)*(y^2 - x^3)", "((y - x^2)^2 - x^5)", "(y^2 - x^3)")
    first, second = parse_scenario(text).elements, parse_scenario(text).elements
    assert first == second
    assert not {id(f) for f in first.values()} & {id(f) for f in second.values()}
    f, g = parse_poly("(x + y)"), parse_poly("(x + y)")
    assert f == g and f is not g


def test_each_distinct_group_text_is_parsed_once(monkeypatch):
    calls = []
    expr = curves._Parser.expr

    def counted(parser):
        calls.append(parser.pos)
        return expr(parser)

    monkeypatch.setattr(curves._Parser, "expr", counted)
    polys = ["((y - x)^2 - x^3)*(y - x)", "((y - x)^2 - x^3)^2 + x^9", "(y - x)*(y-x)", "x*y"]
    parse_scenario(_scenario(*polys))
    # one per line, and one per distinct group text: "(y - x)^2 - x^3",
    # "y - x" and "y-x"
    assert len(calls) == len(polys) + 3
