"""Graded families: realizations, limits, commutation, Rees unions."""

from fractions import Fraction

import pytest

from antinef import (
    Example42Spec,
    ExplicitSpec,
    QDivisorialSpec,
    commutation_report,
    degree_limit,
    divisor,
    intersect,
    multiplicity_sequence,
    nef_envelope,
    parse_poly,
    realize,
    rees_union,
    spot_check_graded_law,
    unload,
)
from helpers import cusp_cluster
from oracles import monomial_valuation_volume_oracle


def cusp_point_spec():
    c = cusp_cluster()
    return QDivisorialSpec(delta=divisor(c, [0, 0, 1]))


class TestRealize:
    def test_growing_family_first_member(self):
        model = realize(Example42Spec(), 1)
        assert model.divisor.coeffs == (3, 4)
        assert model.multiplicity == 10
        assert model.degree_coeffs == (2, 1)

    def test_growing_family_divisor_is_antinef(self):
        for n in (2, 5, 9):
            model = realize(Example42Spec(), n)
            assert model.divisor.coeffs == tuple([2 * n + 1] + [2 * n + 2] * n)

    def test_qdivisorial_member(self):
        model = realize(cusp_point_spec(), 6)
        assert model.divisor.coeffs == (2, 3, 6)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            realize(Example42Spec(), 0)

    def test_non_spec_rejected(self):
        with pytest.raises(TypeError, match="^not a filtration spec: 'example42'$"):
            realize("example42", 1)

    def test_empty_sweep_rejected(self):
        for sweep in (multiplicity_sequence, lambda spec, n: degree_limit(spec, 0, n)):
            with pytest.raises(ValueError, match="^nmax must be >= 1$"):
                sweep(cusp_point_spec(), 0)

    def test_finite_params_cap(self):
        spec = Example42Spec(params=(Fraction(1), Fraction(2)))
        realize(spec, 2)
        with pytest.raises(ValueError, match="exceeds"):
            realize(spec, 3)

    def test_duplicate_params_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Example42Spec(params=(Fraction(1), Fraction(1)))

    def test_non_effective_delta_rejected(self):
        c = cusp_cluster()
        with pytest.raises(ValueError, match="effective"):
            QDivisorialSpec(delta=divisor(c, [0, 0, -1]))

    def test_explicit_table(self):
        c = cusp_cluster()
        spec = ExplicitSpec(table={n: divisor(c, [n, n, 2 * n]) for n in (1, 2, 3)})
        model = realize(spec, 2)
        assert model.divisor.coeffs == (2, 2, 4)
        with pytest.raises(ValueError, match="missing"):
            realize(spec, 4)

    def test_spot_check_needs_common_cluster(self):
        c1, c2 = cusp_cluster(), cusp_cluster()
        spec = ExplicitSpec(
            table={1: divisor(c1, [1, 1, 2]), 2: divisor(c2, [2, 2, 4]), 3: divisor(c1, [3, 3, 6])}
        )
        with pytest.raises(ValueError, match="common cluster"):
            spot_check_graded_law(spec, 1, 2)

    @pytest.mark.parametrize("spec", [Example42Spec, cusp_point_spec])
    @pytest.mark.parametrize("n, m", [(0, 2), (-1, 3), (2.5, 1)])
    def test_spot_check_needs_indices_from_one(self, spec, n, m):
        with pytest.raises(ValueError, match="family index|not an integer"):
            spot_check_graded_law(spec(), n, m)

    def test_empty_explicit_table_rejected(self):
        with pytest.raises(ValueError, match="^explicit filtration needs at least one entry$"):
            ExplicitSpec(table={})

    def test_explicit_entry_that_is_not_a_divisor_rejected(self):
        c = cusp_cluster()
        old_style = (c, divisor(c, [1, 1, 2]))
        with pytest.raises(ValueError, match="^explicit table entry 2: expected an ExcDivisor, got tuple$"):
            ExplicitSpec(table={1: divisor(c, [1, 1, 2]), 2: old_style})

    def test_explicit_entry_with_non_integer_coefficients_rejected(self):
        c = cusp_cluster()
        with pytest.raises(ValueError, match="^explicit table entry 3: divisor has non-integer"):
            ExplicitSpec(table={1: divisor(c, [1, 1, 2]), 3: divisor(c, [1, "1/2", 2])})

    def test_graded_law_spot_checks(self):
        for n, m in [(1, 1), (2, 3), (4, 5)]:
            assert spot_check_graded_law(Example42Spec(), n, m)
            assert spot_check_graded_law(cusp_point_spec(), n, m)


class TestMultiplicitySequence:
    def test_growing_family_closed_form(self):
        rep = multiplicity_sequence(Example42Spec(), 12)
        assert rep.closed_form == 4
        for n, value in enumerate(rep.values, start=1):
            assert value == Fraction((n + 1) * (4 * n + 1), n * n)

    def test_cusp_point_limit(self):
        rep = multiplicity_sequence(cusp_point_spec(), 36)
        assert rep.closed_form == Fraction(1, 6)
        assert rep.values[35] == Fraction(1, 6)  # exact at multiples of 6

    def test_volume_oracle_cross_check(self):
        rep = multiplicity_sequence(cusp_point_spec(), 60)
        oracle = monomial_valuation_volume_oracle(2, 3, 60)
        for n in range(1, 61):
            assert abs(oracle[n - 1] - rep.closed_form) <= Fraction(3, n)

    def test_limit_estimate_is_the_closed_form_when_known(self):
        rep = multiplicity_sequence(cusp_point_spec(), 5)
        assert rep.richardson is not None and rep.richardson != rep.closed_form
        assert rep.limit_estimate() == rep.closed_form == Fraction(1, 6)

    def test_limit_estimate_of_one_member_is_its_value(self):
        spec = ExplicitSpec(table={1: divisor(cusp_cluster(), [1, 1, 2])})
        rep = multiplicity_sequence(spec, 1)
        assert rep.closed_form is None and rep.richardson is None
        assert rep.limit_estimate() == rep.last == rep.values[0] == 1

    def test_zero_family(self):
        c = cusp_cluster()
        rep = multiplicity_sequence(QDivisorialSpec(delta=divisor(c, [0, 0, 0])), 8)
        assert rep.closed_form == 0
        assert all(v == 0 for v in rep.values)

    def test_envelope_bound_certificate(self):
        rep = multiplicity_sequence(cusp_point_spec(), 48)
        assert rep.envelope_constant is not None
        limit = rep.closed_form
        for n, value in enumerate(rep.values, start=1):
            assert abs(value - limit) <= rep.envelope_constant / n
        n0 = rep.monotone_from
        devs = [abs(v - limit) for v in rep.values]
        for k in range(n0 - 1, len(devs) - 1):
            assert devs[k + 1] <= devs[k]


class TestDegreeLimit:
    def test_growing_family_first_curve(self):
        rep = degree_limit(Example42Spec(), "v0", 10)
        assert rep.closed_form == 1
        assert rep.values == tuple(Fraction(n + 1, n) for n in range(1, 11))

    def test_growing_family_later_curves(self):
        rep = degree_limit(Example42Spec(), 3, 10)
        assert rep.closed_form == 0
        # curve 3 appears at index 3; absent members contribute 0
        assert rep.values[:2] == (Fraction(0), Fraction(0))
        assert rep.values[2:] == tuple(Fraction(1, n) for n in range(3, 11))

    def test_absent_curve_identically_zero(self):
        rep = degree_limit(Example42Spec(), "v15", 10)
        assert all(v == 0 for v in rep.values)
        assert rep.closed_form == 0

    def test_cusp_closed_forms(self):
        spec = cusp_point_spec()
        env = nef_envelope(spec.delta)
        assert [degree_limit(spec, i, 6).closed_form for i in range(3)] == [
            0,
            0,
            Fraction(1, 6),
        ]
        assert -intersect(env, env) == Fraction(1, 6)

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown valuation label"):
            degree_limit(cusp_point_spec(), "v7", 5)
        with pytest.raises(ValueError, match="unknown valuation label"):
            degree_limit(Example42Spec(), "w1", 5)


class TestCommutation:
    def test_growing_family_generic_line(self):
        rep = commutation_report(Example42Spec(), parse_poly("y + x"), 10)
        assert rep.lim_of_sums.values == tuple(
            Fraction(2 * n + 1, n) for n in range(1, 11)
        )
        assert rep.lim_of_sums.closed_form == 2
        assert rep.sum_of_lims == 1
        assert not rep.commute

    def test_growing_family_line_through_marked_point(self):
        # the limit ignores finitely many meetings
        rep = commutation_report(Example42Spec(), parse_poly("y - 2*x"), 10)
        assert rep.lim_of_sums.closed_form == 2
        assert rep.sum_of_lims == 1
        assert not rep.commute
        assert rep.lim_of_sums.values[4] == Fraction(2 * 5 + 2, 5)

    def test_growing_family_higher_order_element(self):
        # order-2 element: limit of sums doubles the order, sum of limits keeps it
        rep = commutation_report(Example42Spec(), parse_poly("y^2 - x^3"), 20)
        assert rep.lim_of_sums.closed_form == 4
        assert rep.sum_of_lims == 2
        assert not rep.commute
        # the tangent direction y = 0 is the first marked point, so
        # lim_of_sums(n) = (2(n+1) + 3 + 2(n-1))/n = (4n+3)/n from n = 1 on
        assert rep.lim_of_sums.values == tuple(
            Fraction(4 * n + 3, n) for n in range(1, 21)
        )

    def test_float_params_rejected(self):
        with pytest.raises(ValueError, match="rational"):
            Example42Spec(params=(0.5, 1.5))

    def test_cusp_coordinate_element(self):
        rep = commutation_report(cusp_point_spec(), parse_poly("x"), 12)
        assert rep.lim_of_sums.closed_form == Fraction(1, 3)
        assert rep.sum_of_lims == Fraction(1, 3)
        assert rep.commute

    def test_cusp_univariate_oracle(self):
        # modulo x the family becomes powers in one variable of weight 3:
        # the n-th colength is ceil(n/3), so the scaled sequence is
        # ceil(n/3)/n with limit 1/3
        rep = commutation_report(cusp_point_spec(), parse_poly("x"), 30)
        for n in (3, 6, 12, 30):
            assert rep.lim_of_sums.values[n - 1] == Fraction(-(-n // 3), n)

    def test_zero_family_commutes(self):
        c = cusp_cluster()
        spec = QDivisorialSpec(delta=divisor(c, [0, 0, 0]))
        rep = commutation_report(spec, parse_poly("x"), 6)
        assert rep.lim_of_sums.closed_form == 0
        assert rep.sum_of_lims == 0
        assert rep.commute

    def test_squarefree_guard(self):
        with pytest.raises(ValueError, match="squarefree"):
            commutation_report(Example42Spec(), parse_poly("x^2"), 4)


class TestReesUnion:
    def test_growing_family_grows_forever(self):
        rep = rees_union(Example42Spec(), 10)
        assert rep.union == frozenset(range(11))
        assert rep.per_n[0] == frozenset({0, 1})
        assert not rep.stabilized

    def test_cusp_point_stabilizes(self):
        rep = rees_union(cusp_point_spec(), 60)
        assert rep.union <= frozenset({0, 1, 2})
        assert rep.stabilized

    def test_antinef_integer_generator_constant_union(self):
        c = cusp_cluster()
        delta = unload(divisor(c, [0, 0, 1])).divisor  # (1, 1, 2), antinef
        spec = QDivisorialSpec(delta=delta)
        rep = rees_union(spec, 12)
        expected = unload(delta).rees_valuations
        assert all(s == expected for s in rep.per_n)
        assert rep.union == expected
        assert rep.stabilized


class TestExplicitSpotCheck:
    def test_law_holds_for_scaled_table(self):
        c = cusp_cluster()
        base = unload(divisor(c, [0, 0, 1])).divisor
        spec = ExplicitSpec(table={n: n * base for n in range(1, 7)})
        assert spot_check_graded_law(spec, 2, 3)

    def test_law_violation_reported_not_raised(self):
        c = cusp_cluster()
        base = unload(divisor(c, [0, 0, 1])).divisor
        table = {n: n * base for n in (1, 2)}
        table[3] = 5 * base  # too big: I_1 I_2 cannot sit inside it
        spec = ExplicitSpec(table=table)
        assert spot_check_graded_law(spec, 1, 1)
        assert not spot_check_graded_law(spec, 1, 2)


class TestConcurrentUse:
    def test_shared_cluster_concurrent_reads(self):
        from concurrent.futures import ThreadPoolExecutor

        c = cusp_cluster()
        d = divisor(c, [0, 0, 7])

        def work(_):
            model = unload(d)
            env = nef_envelope(divisor(c, [0, 0, Fraction(1, 2)]))
            return (
                c.intersection_matrix().entries,
                model.divisor.coeffs,
                env.coeffs,
            )

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(32)))
        assert len(set(results)) == 1


class TestSubadditivity:
    def test_fixed_cluster_family_law(self):
        spec = cusp_point_spec()
        models = {n: realize(spec, n).divisor for n in range(1, 13)}
        for n in range(1, 7):
            for m in range(1, 7):
                assert (models[n] + models[m]).dominates(models[n + m])

    def test_scaled_member_envelope_distance(self):
        # ||D_n/n - envelope|| <= C/n with C measured over a full period
        spec = cusp_point_spec()
        env = nef_envelope(spec.delta)
        devs = []
        for n in range(1, 61):
            d = realize(spec, n).divisor
            devs.append(
                max(abs(Fraction(c, n) - e) for c, e in zip(d.as_integers(), env.coeffs))
            )
        c_const = max(n * dev for n, dev in enumerate(devs, start=1))
        for n, dev in enumerate(devs, start=1):
            assert dev <= c_const / n
