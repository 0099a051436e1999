"""Divisor arithmetic: products, closures, envelopes, invariants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antinef import (
    CompleteIdealModel,
    ExcDivisor,
    divisor,
    intersect,
    is_antinef,
    nef_envelope,
    unload,
)
from antinef.selfcheck import (
    assert_envelope_laws,
    assert_unloading_laws,
    random_cluster,
    random_effective_divisor,
    random_integer_divisor,
)
from helpers import cusp_cluster, star_cluster, star_family_divisor


class TestIntersect:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_star_family_pairings(self, n):
        c = star_cluster(n)
        d = star_family_divisor(c, n)
        assert intersect(-1 * d, ExcDivisor.basis(c, 0)) == n + 1
        for i in range(1, n + 1):
            assert intersect(-1 * d, ExcDivisor.basis(c, i)) == 1

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_star_family_self_intersection(self, n):
        c = star_cluster(n)
        d = star_family_divisor(c, n)
        assert intersect(d, d) == -(n + 1) * (4 * n + 1)

    def test_zero_divisor(self):
        c = cusp_cluster()
        d = divisor(c, [2, 3, 6])
        assert intersect(d, ExcDivisor.zero(c)) == 0

    def test_symmetry_and_bilinearity(self):
        rng = random.Random(11)
        for _ in range(30):
            c = random_cluster(rng, max_points=8)
            d1 = random_integer_divisor(rng, c)
            d2 = random_integer_divisor(rng, c)
            d3 = random_integer_divisor(rng, c)
            assert intersect(d1, d2) == intersect(d2, d1)
            assert intersect(d1 + d3, d2) == intersect(d1, d2) + intersect(d3, d2)

    def test_cluster_mismatch(self):
        c1, c2 = cusp_cluster(), cusp_cluster()
        with pytest.raises(ValueError, match="different clusters"):
            intersect(divisor(c1, [1, 1, 1]), divisor(c2, [1, 1, 1]))

    def test_coefficient_count_mismatch(self):
        with pytest.raises(ValueError, match="coefficients"):
            divisor(cusp_cluster(), [1, 2])

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError, match="not exact"):
            divisor(cusp_cluster(), [0.5, 1, 1])


class TestCeilFloor:
    def test_componentwise(self):
        c = star_cluster(1)
        d = divisor(c, [Fraction(3, 2), 2])
        assert d.ceil().coeffs == (2, 2)
        assert d.floor().coeffs == (1, 2)

    def test_integer_fixpoint(self):
        c = cusp_cluster()
        d = divisor(c, [1, 1, 2])
        assert d.ceil().coeffs == d.coeffs
        assert d.floor().coeffs == d.coeffs

    def test_scaled_basis(self):
        c = cusp_cluster()
        d = 5 * divisor(c, [0, 0, Fraction(1, 2)])
        assert d.ceil().coeffs == (0, 0, 3)


class TestAntinef:
    def test_star_family_is_antinef(self):
        for n in (1, 4, 7):
            c = star_cluster(n)
            assert is_antinef(star_family_divisor(c, n))

    def test_basis_curve_not_antinef(self):
        c = cusp_cluster()
        assert not is_antinef(ExcDivisor.basis(c, 2))

    def test_zero_is_antinef(self):
        assert is_antinef(ExcDivisor.zero(cusp_cluster()))


class TestUnload:
    def test_cusp_point_ideal(self):
        c = cusp_cluster()
        model = unload(divisor(c, [0, 0, 1]))
        assert model.divisor.coeffs == (1, 1, 2)
        assert model.degree_coeffs == (1, 0, 0)

    def test_antinef_fixpoint(self):
        c = star_cluster(4)
        d = star_family_divisor(c, 4)
        assert unload(d).divisor.coeffs == d.coeffs

    def test_non_effective_inputs(self):
        c = cusp_cluster()
        assert unload(divisor(c, [-3, -1, 0])).divisor.is_zero()
        assert unload(divisor(c, [-2, 0, 1])).divisor.coeffs == (1, 1, 2)

    def test_non_integer_rejected(self):
        c = cusp_cluster()
        with pytest.raises(ValueError, match="non-integer"):
            unload(divisor(c, [0, 0, Fraction(1, 2)]))

    def test_closure_laws_random(self):
        rng = random.Random(2024)
        for _ in range(300):
            c = random_cluster(rng, max_points=10)
            assert_unloading_laws(rng, c, random_integer_divisor(rng, c))

    def test_full_support_when_nonzero(self):
        rng = random.Random(3)
        for _ in range(100):
            c = random_cluster(rng, max_points=9)
            bar = unload(random_integer_divisor(rng, c, lo=0, hi=6)).divisor
            assert bar.is_zero() or all(x > 0 for x in bar.coeffs)


@pytest.mark.parametrize("i", [-1, 3, 10])
def test_basis_refuses_an_index_with_no_curve(i):
    with pytest.raises(ValueError, match=f"^no exceptional curve with index {i}$"):
        ExcDivisor.basis(cusp_cluster(), i)


class TestCompleteIdealModel:
    @pytest.mark.parametrize(
        "coeffs, degree_coeffs, multiplicity, message",
        [
            ([1, 1, 2], (1, -1, 0), 1, "divisor is not antinef"),
            ([1, 0, 2], (1, 0, 0), 1, "nonzero antinef divisor must have full positive support"),
            ([1, 1, 2], (1, 0, 0), 0, "nonzero antinef divisor must have positive self-pairing"),
            ([0, 0, 0], (0, 0, 0), 3, "zero divisor must have zero multiplicity"),
        ],
    )
    def test_invariants_refuse_a_model_built_with_bad_fields(
        self, coeffs, degree_coeffs, multiplicity, message
    ):
        d = divisor(cusp_cluster(), coeffs)
        with pytest.raises(ValueError, match=f"^{message}$"):
            CompleteIdealModel(divisor=d, degree_coeffs=degree_coeffs, multiplicity=multiplicity)

    def test_closure_is_its_own_model(self):
        c = cusp_cluster()
        bar = unload(divisor(c, [0, 0, 1])).divisor
        model = unload(bar)
        assert model.divisor == bar
        assert model.multiplicity == 1
        assert model.degree_coeffs == (1, 0, 0)


class TestNefEnvelope:
    def test_cusp_half_point(self):
        c = cusp_cluster()
        env = nef_envelope(divisor(c, [0, 0, Fraction(1, 2)]))
        assert env.coeffs == (Fraction(1, 6), Fraction(1, 4), Fraction(1, 2))

    def test_antinef_fixpoint(self):
        c = cusp_cluster()
        d = divisor(c, [1, 1, 2])
        assert nef_envelope(d).coeffs == d.coeffs

    def test_negative_input_rejected(self):
        c = cusp_cluster()
        with pytest.raises(ValueError, match="effective"):
            nef_envelope(divisor(c, [0, -1, 1]))

    def test_laws_random(self):
        rng = random.Random(77)
        for _ in range(200):
            c = random_cluster(rng, max_points=8)
            assert_envelope_laws(rng, c, random_effective_divisor(rng, c))

    def test_envelope_minimality_certificate(self):
        # at a common multiple q of every coefficient denominator,
        # q * envelope must be exactly the least integer antinef divisor
        # above ceil(q * delta); any non-minimal envelope breaks equality
        rng = random.Random(31)
        for _ in range(40):
            c = random_cluster(rng, max_points=6)
            delta = random_effective_divisor(rng, c, denominators=(1, 2, 3, 4))
            env = nef_envelope(delta)
            q = 1
            for x in list(delta.coeffs) + list(env.coeffs):
                q = q * x.denominator // __import__("math").gcd(q, x.denominator)
            scaled = unload((q * delta).ceil()).divisor
            assert scaled.coeffs == tuple(q * x for x in env.coeffs)

    def test_envelope_is_scaled_unloading_limit(self):
        # at a multiple of every denominator the two closures agree exactly
        c = cusp_cluster()
        delta = divisor(c, [0, 0, Fraction(1, 2)])
        env = nef_envelope(delta)
        n = 60
        scaled = unload((n * delta).ceil()).divisor
        assert scaled.coeffs == tuple(n * x for x in env.coeffs)


class TestInvariants:
    def test_star_multiplicity_and_newton_oracle(self):
        from oracles import newton_multiplicity_oracle

        c = star_cluster(1, params=[Fraction(0)])
        d = star_family_divisor(c, 1)
        assert unload(d).multiplicity == 10
        # independent count: sections are spanned by monomials with
        # ord >= 3 and weighted order x + 2y >= 4 when the point sits at
        # the y = 0 direction
        assert newton_multiplicity_oracle([(1, 1, 3), (1, 2, 4)]) == 10

    def test_regular_point_multiplicity(self):
        c = cusp_cluster()
        assert unload(divisor(c, [1, 1, 2])).multiplicity == 1

    def test_zero_multiplicity(self):
        c = cusp_cluster()
        assert unload(ExcDivisor.zero(c)).multiplicity == 0

    def test_scaling_law_on_antinef(self):
        rng = random.Random(8)
        for _ in range(50):
            c = random_cluster(rng, max_points=8)
            bar = unload(random_integer_divisor(rng, c, lo=0, hi=8)).divisor
            k = rng.randint(1, 5)
            scaled = k * bar
            assert unload(scaled).divisor.coeffs == scaled.coeffs
            assert unload(scaled).multiplicity == k * k * unload(bar).multiplicity

    def test_positive_multiplicity_for_nonzero(self):
        rng = random.Random(9)
        for _ in range(80):
            c = random_cluster(rng, max_points=9)
            d = random_integer_divisor(rng, c, lo=0, hi=10)
            model = unload(d)
            assert (model.multiplicity > 0) == (not model.divisor.is_zero())

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_star_degree_coefficients(self, n):
        c = star_cluster(n)
        model = unload(star_family_divisor(c, n))
        assert model.degree_coeffs == tuple([n + 1] + [1] * n)
        assert model.rees_valuations == frozenset(range(n + 1))

    def test_cusp_point_rees(self):
        c = cusp_cluster()
        assert unload(divisor(c, [1, 1, 2])).rees_valuations == frozenset({0})
        assert unload(ExcDivisor.zero(c)).rees_valuations == frozenset()

    def test_degree_support_matches_rees(self):
        rng = random.Random(10)
        for _ in range(60):
            c = random_cluster(rng, max_points=9)
            d = random_integer_divisor(rng, c)
            model = unload(d)
            coeffs = model.degree_coeffs
            assert all(x >= 0 for x in coeffs)
            assert model.rees_valuations == frozenset(
                i for i, x in enumerate(coeffs) if x > 0
            )

    def test_fixed_part(self):
        c = cusp_cluster()
        d = divisor(c, [0, 0, 1])
        assert (unload(d).divisor - d).coeffs == (1, 1, 1)
        d = divisor(c, [1, 1, 2])
        assert (unload(d).divisor - d).is_zero()

    def test_fixed_part_nonnegative(self):
        rng = random.Random(12)
        for _ in range(60):
            c = random_cluster(rng, max_points=9)
            d = random_integer_divisor(rng, c, lo=0, hi=10)
            assert (unload(d).divisor - d).is_effective()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_envelope_complementarity_hypothesis(seed):
    rng = random.Random(seed)
    c = random_cluster(rng, max_points=7)
    assert_envelope_laws(rng, c, random_effective_divisor(rng, c))
