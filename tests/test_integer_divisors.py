"""The divisor layer on integer numerators, checked against the ``Fraction`` path.

An ``ExcDivisor`` stores its coefficients as integer numerators over one
positive common denominator, the lcm of their reduced denominators, and
builds the ``Fraction`` view ``coeffs`` on its first read.  Its arithmetic is
compared with the ``Fraction`` arithmetic of ``oracles.py`` on seeded random
clusters with satellites and signed rational coefficients, its closures with
the dense oracles.  A counter on ``Fraction.__new__`` checks that the
integral paths build no ``Fraction`` at all.
"""

import contextlib
import copy
import io
import math
import os
import pickle
import random
import sys
from fractions import Fraction

import pytest

from antinef import (
    ExcDivisor,
    Example42Spec,
    degree_limit,
    divisor,
    intersect,
    is_antinef,
    multiplicity_sequence,
    nef_envelope,
    unload,
)
from antinef import filtration, parse_scenario
from antinef.cli import run_scenario
from antinef.errors import InexactNumberError
from antinef.rationals import format_rational
from antinef.selfcheck import random_cluster, random_integer_divisor
from helpers import cusp_cluster, star_cluster
from oracles import (
    cold_unload,
    dense_envelope,
    fraction_add,
    fraction_ceil,
    fraction_coeffs,
    fraction_dominates,
    fraction_floor,
    fraction_intersect,
    fraction_pairings,
    fraction_scale,
    fraction_sub,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASES = 200
DENOMINATORS = (1, 2, 7, 11, 13, 143)


def _random_values(rng, cluster, effective=False):
    """Rational coefficients over ``DENOMINATORS``, some integral, some zero."""
    low = 0 if effective else -40
    return [
        Fraction(rng.randint(low, 40), rng.choice(DENOMINATORS)) for _ in range(cluster.n_curves)
    ]


def _as_text(rng, values):
    """Each value as ``a/b`` text, mostly not in lowest terms (``"2/4"``)."""
    texts = []
    for v in values:
        k = rng.choice((1, 2, 3, 6))
        texts.append(f"{v.numerator * k}/{v.denominator * k}")
    return texts


def _assert_is(d, expected):
    """``d`` has the coefficients ``expected``, in canonical form."""
    expected = fraction_coeffs(expected)
    assert d.coeffs == expected
    assert all(type(x) is Fraction for x in d.coeffs)
    assert d._den == math.lcm(*(x.denominator for x in expected))
    assert d._nums == tuple(x.numerator * (d._den // x.denominator) for x in expected)
    again = divisor(d.cluster, expected)
    assert d == again and hash(d) == hash(again)


class TestRepresentation:
    def test_text_not_in_lowest_terms_is_canonical(self):
        c = cusp_cluster()
        half = divisor(c, ["2/4", "-6/4", "0"])
        assert half == divisor(c, [Fraction(1, 2), Fraction(-3, 2), 0])
        assert hash(half) == hash(divisor(c, [Fraction(1, 2), "-3/2", 0]))
        assert (half._nums, half._den) == ((1, -3, 0), 2)
        whole = divisor(c, ["4/2", "-6/3", 5])
        assert (whole._nums, whole._den) == ((2, -2, 5), 1) and whole.is_integral()
        assert whole.coeffs == (2, -2, 5)

    def test_random_coefficients(self):
        rng = random.Random(131)
        for _ in range(CASES):
            c = random_cluster(rng, max_points=10)
            values = _random_values(rng, c)
            d = divisor(c, _as_text(rng, values))
            _assert_is(d, values)
            assert d.is_integral() == all(v.denominator == 1 for v in values)
            assert d.is_effective() == all(v >= 0 for v in values)
            assert d.is_zero() == all(v == 0 for v in values)
            if d.is_integral():
                assert d.as_integers() == tuple(int(v) for v in values)
            else:
                with pytest.raises(ValueError, match="non-integer"):
                    d.as_integers()

    def test_coeffs_view_is_built_once(self):
        d = divisor(cusp_cluster(), [1, "1/2", 3])
        assert d.coeffs is d.coeffs

    def test_immutable_and_repr(self):
        d = divisor(cusp_cluster(), ["-3/6", 2, 0])
        for name in ("coeffs", "cluster", "_nums", "_den"):
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(d, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            del d.cluster
        assert repr(d) == "ExcDivisor(-1/2, 2, 0)"

    def test_copies_and_pickles(self):
        d = divisor(cusp_cluster(), ["-3/6", 2, 0])
        for again in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert again.coeffs == d.coeffs and (again._nums, again._den) == ((-1, 4, 0), 2)
        assert copy.copy(d) == d

    def test_equality_needs_the_same_cluster(self):
        a, b = cusp_cluster(), cusp_cluster()
        assert divisor(a, [1, 2, 3]) != divisor(b, [1, 2, 3])
        assert divisor(a, [1, 2, 3]) != (1, 2, 3)


class TestArithmeticAgainstFractions:
    def test_random_clusters(self):
        rng = random.Random(137)
        for _ in range(CASES):
            c = random_cluster(rng, max_points=10)
            a, b = _random_values(rng, c), _random_values(rng, c)
            d1, d2 = divisor(c, _as_text(rng, a)), divisor(c, b)
            scalar = Fraction(rng.randint(-12, 12), rng.choice(DENOMINATORS))
            _assert_is(d1 + d2, fraction_add(a, b))
            _assert_is(d1 - d2, fraction_sub(a, b))
            _assert_is(d1 - d1, [0] * c.n_curves)
            _assert_is(-d1, fraction_scale(-1, a))
            _assert_is(scalar * d1, fraction_scale(scalar, a))
            _assert_is(d1 * str(scalar), fraction_scale(scalar, a))
            _assert_is(d1.ceil(), fraction_ceil(a))
            _assert_is(d1.floor(), fraction_floor(a))
            assert intersect(d1, d2) == fraction_intersect(c, a, b)
            assert intersect(d1, d1) == fraction_intersect(c, a, a)
            pair = fraction_pairings(c, a)
            assert [intersect(d1, ExcDivisor.basis(c, i)) for i in range(c.n_curves)] == pair
            assert is_antinef(d1) == all(s <= 0 for s in pair)
            for x, y in ((d1, d2), (d2, d1), (d1.ceil(), d1), (d1, d1.floor()), (d1, d1.ceil())):
                assert x.dominates(y) == fraction_dominates(x.coeffs, y.coeffs)

    def test_antinef_inputs(self):
        rng = random.Random(139)
        for _ in range(CASES):
            c = random_cluster(rng, max_points=10)
            env = nef_envelope(divisor(c, _random_values(rng, c, effective=True)))
            assert is_antinef(env)
            assert all(s <= 0 for s in fraction_pairings(c, env.coeffs))


class TestClosuresAgainstOracles:
    def test_unload_and_model(self):
        rng = random.Random(149)
        for _ in range(CASES):
            c = random_cluster(rng, max_points=10)
            d = random_integer_divisor(rng, c)
            model = unload(d)
            coeffs, degrees = cold_unload(c, d.as_integers())
            _assert_is(model.divisor, coeffs)
            assert model.degree_coeffs == degrees
            assert model.multiplicity == -fraction_intersect(c, coeffs, coeffs)
            assert unload(model.divisor) == model

    def test_nef_envelope_and_rounded_members(self):
        rng = random.Random(151)
        for _ in range(CASES):
            c = random_cluster(rng, max_points=8)
            values = _random_values(rng, c, effective=True)
            delta = divisor(c, _as_text(rng, values))
            env = nef_envelope(delta)
            _assert_is(env, dense_envelope(c, values))
            n = rng.randint(1, 30)
            member = unload((n * delta).ceil())
            coeffs, _ = cold_unload(c, [int(x) for x in fraction_ceil(fraction_scale(n, values))])
            _assert_is(member.divisor, coeffs)


class TestSelectHook:
    """A pick outside the violated set raised nothing, so ``unload`` never ended."""

    @pytest.mark.parametrize("pick", [2, 3, -1, 99])
    def test_bad_pick_raises_at_once(self, pick):
        c = cusp_cluster()
        d = divisor(c, [0, 0, 1])  # violated: the neighbours of curve 2 only
        calls = []

        def select(violated):
            calls.append(list(violated))
            return pick

        with pytest.raises(ValueError, match=f"select picked {pick}, which is not a violated"):
            unload(d, select=select)
        assert len(calls) == 1 and pick not in calls[0]

    def test_bad_pick_after_good_ones_raises(self):
        c = star_cluster(3)
        d = divisor(c, [1, 0, 0, 5])
        steps = []

        def select(violated):
            steps.append(violated)
            return violated[0] if len(steps) < 3 else c.n_curves

        with pytest.raises(ValueError, match=f"select picked {c.n_curves},"):
            unload(d, select=select)
        assert len(steps) == 3

    def test_good_picks_still_close(self):
        rng = random.Random(157)
        for _ in range(50):
            c = random_cluster(rng, max_points=10)
            d = random_integer_divisor(rng, c)
            assert unload(d, select=lambda violated: violated[-1]) == unload(d)


class TestNonDivisorOperands:
    @pytest.mark.parametrize("other", [1, None, Fraction(1, 2), (1, 1, 2)])
    def test_arithmetic_raises_type_error(self, other):
        d = divisor(cusp_cluster(), [1, 1, 2])
        for op in (lambda: d + other, lambda: d - other, lambda: other + d, lambda: other - d):
            with pytest.raises(TypeError):
                op()

    def test_different_clusters_keep_their_value_error(self):
        d1, d2 = divisor(cusp_cluster(), [1, 1, 2]), divisor(cusp_cluster(), [1, 1, 2])
        for op in (lambda: d1 + d2, lambda: d1 - d2):
            with pytest.raises(ValueError, match="different clusters"):
                op()


@contextlib.contextmanager
def fractions_made():
    """Every ``Fraction`` constructed inside the block, in order."""
    saved = vars(Fraction)["__new__"]
    made = []

    def counting(cls, *args, **kwargs):
        out = saved.__func__(cls, *args, **kwargs)
        made.append(out)
        return out

    Fraction.__new__ = staticmethod(counting)
    try:
        yield made
    finally:
        Fraction.__new__ = saved


class TestNoFractionOnIntegralPaths:
    def test_counter_sees_fractions(self):
        with fractions_made() as made:
            Fraction(1, 2) + 1
        assert made == [Fraction(1, 2), Fraction(3, 2)]

    def test_unload_and_model(self):
        rng = random.Random(163)
        checked = 0
        while checked < CASES:
            c = random_cluster(rng, max_points=10)
            d = random_integer_divisor(rng, c)
            steps = []
            unload(d, select=lambda violated: steps.append(1) or violated[0])
            if len(steps) >= 16 * c.n_curves:
                continue  # past the raise budget the warm start solves in Fractions
            checked += 1
            with fractions_made() as made:
                model = unload(divisor(c, d.as_integers()))
                again = unload(model.divisor)
            assert made == []
            with fractions_made() as made:
                coeffs = again.divisor.coeffs
            assert len(made) == c.n_curves and all(type(x) is Fraction for x in coeffs)

    def test_rounded_members_of_a_rational_divisor(self):
        rng = random.Random(167)
        for _ in range(CASES):
            c = random_cluster(rng, max_points=10)
            delta = divisor(c, _random_values(rng, c, effective=True))
            with fractions_made() as made:
                rounded = (7 * delta).ceil()
            assert made == [] and rounded.is_integral()

    def test_example42_sweep(self, monkeypatch):
        """The sweep hands the report the integers e(I_n) = (n+1)(4n+1) over n^2.

        The cluster stores each free point's parameter as a ``Fraction``; the
        report's own arithmetic is left out by capturing its input.  The
        closed form is one ``Fraction`` made at import, not per call.
        """
        nmax = 40
        reports = []
        monkeypatch.setattr(filtration, "_make_report", lambda *args: reports.append(args))
        spec = Example42Spec()
        with fractions_made() as made:
            multiplicity_sequence(spec, nmax)
        (nums, power, closed), = reports
        assert made == [Fraction(i) for i in range(nmax)]
        assert closed == 4 and closed is spec.closed_multiplicity()
        assert power == 2 and all(type(e) is int for e in nums)
        assert nums == [(n + 1) * (4 * n + 1) for n in range(1, nmax + 1)]
        model = spec.member(nmax)
        assert all(type(x) is Fraction for x in model.divisor.coeffs)

    def test_family_reports_make_no_fraction_per_member(self):
        """On an already swept spec a report's Fractions do not grow with nmax."""
        spec = Example42Spec()
        multiplicity_sequence(spec, 48)
        counts = []
        for nmax in (12, 48):
            with fractions_made() as made:
                multiplicity_sequence(spec, nmax)
                degree_limit(spec, 0, nmax)
                degree_limit(spec, "v1", nmax)
            counts.append(len(made))
        assert counts[0] == counts[1]

    def test_family_tables_make_no_fraction_per_member(self):
        """A run of the ``growing`` benchmark scenario (seed 1), its spec swept
        first: every task's Fractions, rows included, do not grow with nmax."""
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
        try:
            import gen
        finally:
            sys.path.pop(0)
        scenario = parse_scenario(gen.generate("growing", gen.DEFAULT_SEED))
        run_scenario(scenario, io.StringIO(), "csv")
        counts = []
        for nmax in (12, gen.GROWING_NMAX):
            with fractions_made() as made:
                assert run_scenario(scenario, io.StringIO(), "csv", nmax) == 0
            counts.append(len(made))
        assert counts[0] == counts[1]

    def test_rendering_an_unload_task(self):
        """The table cells and summary of an integral closure are rendered from ints."""
        scenario = parse_scenario(
            "[cluster C]\npoint = free parent=0 param=0\npoint = satellite parent=1 other=0\n"
            "[divisor D on C]\ncoeffs = 0 0 1\n[task]\nkind = unload\ndivisor = D\n"
        )
        out = io.StringIO()
        with fractions_made() as made:
            assert run_scenario(scenario, out) == 0
        assert made == []
        assert "2  1    2       1        0\ne=1\n" in out.getvalue()


def test_format_rational_refuses_a_float():
    assert [format_rational(v) for v in (3, Fraction(-7, 2), "6/4")] == ["3", "-7/2", "3/2"]
    with pytest.raises(InexactNumberError, match="value 0.5"):
        format_rational(0.5)
