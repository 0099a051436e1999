"""A family sweep's per-member and per-curve loops, run as builtin passes.

The model's guards and Rees set, the commutation sums and the sum of the
limits over one common denominator are held equal to the loops they
replace: ``oracles.fraction_commutation`` adds each limit as a
``Fraction``.  A ``QDivisorialSpec`` member starts from its predecessor
when the memo holds it; it is held equal to the closure of the rounded
multiple, and its raise steps are counted against the start from the
rounded envelope alone.
"""

import random
from fractions import Fraction

import pytest

from antinef import (
    CompleteIdealModel,
    Example42Spec,
    ExplicitSpec,
    PlaneElement,
    QDivisorialSpec,
    commutation_report,
    divisor,
    multiplicity_sequence,
    parse_poly,
    unload,
)
from antinef import filtration
from antinef.curves import _is_squarefree
from antinef.selfcheck import random_cluster, random_integer_divisor
from helpers import cusp_cluster, random_branch, random_coordinatized_cluster
from oracles import fraction_commutation


def _assert_matches_oracle(spec, f, nmax):
    report = commutation_report(spec, f, nmax)
    expected = fraction_commutation(spec, f, nmax)
    assert report.sum_of_lims == expected["sum_of_lims"]
    assert report.commute == expected["commute"]
    assert report.sum_is_estimate == expected["sum_is_estimate"]
    return report


def _squarefree_branch(rng, cluster):
    while True:
        f = PlaneElement.from_terms(random_branch(rng, cluster))
        if _is_squarefree(f):
            return f


def test_example42_sum_of_limits_matches_the_oracle():
    for text in ("y - 3*x", "y^2 - x^3", "x + y", "(y - x)*(y + x^2)"):
        for nmax in (1, 4, 12):
            report = _assert_matches_oracle(Example42Spec(), parse_poly(text), nmax)
            assert not report.sum_is_estimate


@pytest.mark.parametrize("den", [7, 11, 13])
def test_qdivisorial_sum_of_limits_matches_the_oracle(den):
    rng = random.Random(den)
    dens = set()
    for _ in range(12):
        cluster = random_coordinatized_cluster(rng, max_points=10)
        coeffs = [Fraction(rng.randint(1, 3 * den), den) if rng.random() < 0.5 else 0
                  for _ in range(cluster.n_curves)]
        coeffs[-1] = coeffs[-1] or Fraction(1, den)
        spec = QDivisorialSpec(delta=divisor(cluster, coeffs))
        report = _assert_matches_oracle(spec, _squarefree_branch(rng, cluster), 6)
        assert not report.sum_is_estimate
        dens.add(report.sum_of_lims.denominator)
    assert any(d % den == 0 for d in dens), dens


def test_explicit_sum_of_limits_matches_the_oracle_in_the_estimate_regime():
    rng = random.Random(1917)
    estimates = 0
    for _ in range(12):
        cluster = random_coordinatized_cluster(rng, max_points=8)
        slope = [rng.randint(1, 4) for _ in range(cluster.n_curves)]
        wobble = [[rng.randint(0, 3) for _ in slope] for _ in range(10)]
        table = {n: divisor(cluster, [n * a + w for a, w in zip(slope, wobble[n - 1])])
                 for n in range(1, 11)}
        report = _assert_matches_oracle(ExplicitSpec(table), _squarefree_branch(rng, cluster), 10)
        estimates += report.sum_is_estimate
    assert estimates == 12


def test_rees_valuations_are_the_positive_degree_coefficients():
    rng = random.Random(5851)
    for _ in range(200):
        cluster = random_cluster(rng, max_points=30)
        model = unload(random_integer_divisor(rng, cluster))
        expected = frozenset(i for i, d in enumerate(model.degree_coeffs) if d > 0)
        assert model.rees_valuations == expected
    assert unload(divisor(cusp_cluster(), [0, 0, 0])).rees_valuations == frozenset()


@pytest.mark.parametrize("coeffs", [[1, -1, 2], [-1, -1, -2], [2, 0, -3]])
def test_a_nonzero_divisor_with_a_negative_coefficient_is_refused(coeffs):
    d = divisor(cusp_cluster(), coeffs)
    with pytest.raises(ValueError, match="^nonzero antinef divisor must have full positive support$"):
        CompleteIdealModel(divisor=d, degree_coeffs=(1, 0, 0), multiplicity=1)


def test_example42_commutation_after_a_long_sweep():
    """The report at nmax 10 after a sweep to 400 is a new spec's, field by field."""
    f = parse_poly("y - 3*x")
    spec = Example42Spec()
    multiplicity_sequence(spec, 400)
    assert len(spec.member(10).divisor.cluster) == 401
    report = commutation_report(spec, f, 10)
    fresh = commutation_report(Example42Spec(), f, 10)
    for name in ("sum_of_lims", "commute", "sum_is_estimate"):
        assert getattr(report, name) == getattr(fresh, name), name
    for name in report.lim_of_sums._fields:
        assert getattr(report.lim_of_sums, name) == getattr(fresh.lim_of_sums, name), name
    assert report.sum_of_lims == 1 and report.lim_of_sums.closed_form == 2


def _delta(rng, cluster):
    coeffs = [Fraction(rng.randint(1, 10), rng.choice((2, 3, 5, 7, 11, 13)))
              if rng.random() < 0.4 else 0 for _ in range(cluster.n_curves)]
    coeffs[-1] = coeffs[-1] or Fraction(1, 11)
    return divisor(cluster, coeffs)


def _raise_steps(unload, d):
    steps = []
    unload(d, lambda violated: steps.append(violated[0]) or violated[0])
    return len(steps)


def test_qdivisorial_members_start_from_their_predecessor(monkeypatch):
    """Members 1..3k equal closure(ceil(n delta)), k the envelope's denominator,
    and take no more raise steps than an unload from ceil(n env) or from
    ceil(n delta)."""
    steps = []
    original = filtration.unload

    def counting(d, select=None):
        return original(d, lambda violated: steps.append(violated[0]) or violated[0])

    monkeypatch.setattr(filtration, "unload", counting)
    rng = random.Random(29)
    specs = fewer = 0
    for _ in range(60):
        cluster = random_cluster(rng, max_points=rng.choice((8, 20)))
        spec = QDivisorialSpec(delta=_delta(rng, cluster))
        env = spec.envelope
        if env._den > 200:
            continue
        specs += 1
        for n in range(1, 3 * env._den + 1):
            steps.clear()
            member = spec.member(n)
            assert member == original((n * spec.delta).ceil()), n
            from_env, from_delta = (_raise_steps(original, (n * d).ceil()) for d in (env, spec.delta))
            assert len(steps) <= min(from_env, from_delta), n
            fewer += len(steps) < from_env
    assert specs >= 40 and fewer >= 200


def test_qdivisorial_cold_member_starts_from_the_rounded_envelope(monkeypatch):
    """With member n - 1 not in the memo the start is ceil(n env); with it,
    the componentwise max of the two."""
    starts = []
    original = filtration.unload
    monkeypatch.setattr(filtration, "unload", lambda d, select=None: starts.append(d) or original(d))
    rng = random.Random(3)
    raised = 0
    for _ in range(20):
        spec = QDivisorialSpec(delta=_delta(rng, random_cluster(rng, max_points=12)))
        starts.clear()
        spec.member(5)
        spec.member(7)
        assert starts == [(5 * spec.envelope).ceil(), (7 * spec.envelope).ceil()]
        for n in (6, *range(8, 31)):
            spec.member(n)
            rounded = (n * spec.envelope).ceil()
            assert starts[-1] == divisor(spec.cluster, [
                max(a, b) for a, b in zip(rounded.coeffs, spec.member(n - 1).divisor.coeffs)
            ])
            raised += starts[-1] != rounded
    assert raised >= 10
