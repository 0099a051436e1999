"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 3's limit-proximity clause is asserted at its stated
tolerance of 5/n even though the exact deviation of the sequence is
(5n+1)/n^2 = 5/n + 1/n^2, so that single assertion fails by 1/n^2 on
every index; the closed form and the oracle confirmation in the same
criterion hold exactly.
"""

import random
import time
from fractions import Fraction

from antinef import (
    Example42Spec,
    ExcDivisor,
    QDivisorialSpec,
    commutation_report,
    degree_limit,
    divisor,
    intersect,
    is_antinef,
    is_negative_definite,
    multiplicity_sequence,
    nef_envelope,
    new_cluster,
    parse_poly,
    unload,
    value_vector,
)
from antinef.cli import main
from oracles import monomial_valuation_volume_oracle, newton_multiplicity_oracle
from antinef.selfcheck import (
    assert_envelope_laws,
    assert_unloading_laws,
    random_cluster,
    random_integer_divisor,
)
from helpers import cusp_cluster, random_poly, star_cluster, star_family_divisor


def report(num, ok, detail=""):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_growing_family_intersection_matrices():
    t0 = time.perf_counter()
    for n in range(1, 51):
        c = star_cluster(n)
        m = c.intersection_matrix()
        assert m.n == n + 1
        assert m[0, 0] == -(n + 1)
        for i in range(1, n + 1):
            assert m[i, i] == -1
            assert m[0, i] == 1 and m[i, 0] == 1
            for j in range(i + 1, n + 1):
                assert m[i, j] == 0 and m[j, i] == 0
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 5, f"n=1..50 exact, {elapsed:.2f}s < 5s")


def test_criterion_02_growing_family_degree_data():
    t0 = time.perf_counter()
    for n in range(1, 51):
        c = star_cluster(n)
        d = star_family_divisor(c, n)
        assert is_antinef(d)
        model = unload(d)
        assert model.divisor.coeffs == d.coeffs
        assert model.degree_coeffs == tuple([n + 1] + [1] * n)
        assert model.rees_valuations == frozenset(range(n + 1))
    elapsed = time.perf_counter() - t0
    report(2, elapsed < 5, f"n=1..50 degree data exact, {elapsed:.2f}s < 5s")


def test_criterion_03_growing_family_multiplicities():
    closed_ok = True
    for n in range(1, 51):
        c = star_cluster(n)
        e = unload(star_family_divisor(c, n)).multiplicity
        closed_ok = closed_ok and e == (n + 1) * (4 * n + 1)
    oracle_ok = newton_multiplicity_oracle([(1, 1, 3), (1, 2, 4)]) == 10
    proximity_ok = True
    first_violation = None
    for n in range(10, 51):
        dev = abs(Fraction((n + 1) * (4 * n + 1), n * n) - 4)
        if dev > Fraction(5, n):
            proximity_ok = False
            if first_violation is None:
                first_violation = (n, dev - Fraction(5, n))
    ok = closed_ok and oracle_ok and proximity_ok
    detail = f"closed form {'ok' if closed_ok else 'BAD'}, oracle e(I_1)=10 {'ok' if oracle_ok else 'BAD'}"
    if not proximity_ok:
        n, excess = first_violation
        detail += (
            f"; |e(I_n)/n^2 - 4| = (5n+1)/n^2 exceeds 5/n by {excess} at n={n} "
            f"(and by 1/n^2 at every n)"
        )
    report(3, ok, detail)


def test_criterion_04_non_commutation_closed_forms():
    spec = Example42Spec()
    line = parse_poly("y + x")  # misses every built-in point parameter
    rep = commutation_report(spec, line, 50)
    sequence_ok = rep.lim_of_sums.values == tuple(
        Fraction(2 * n + 1, n) for n in range(1, 51)
    )
    forms_ok = (
        rep.lim_of_sums.closed_form == 2
        and rep.sum_of_lims == 1
        and not rep.commute
    )
    report(
        4,
        sequence_ok and forms_ok,
        "lim_of_sums(n)=(2n+1)/n -> 2, sum_of_lims=1, commute=false (exact)",
    )


def test_criterion_05_qdivisorial_limit_theorem():
    t0 = time.perf_counter()
    c = cusp_cluster()
    spec = QDivisorialSpec(delta=divisor(c, [0, 0, 1]))
    env = nef_envelope(spec.delta)
    closed = [-intersect(env, ExcDivisor.basis(c, i)) for i in range(3)]
    assert closed == [0, 0, Fraction(1, 6)]
    nmax = 600
    reports = [degree_limit(spec, v, nmax) for v in range(3)]
    for v in range(3):
        assert reports[v].closed_form == closed[v]
        for n, value in enumerate(reports[v].values, start=1):
            assert abs(value - closed[v]) <= Fraction(2, n)
    mrep = multiplicity_sequence(spec, nmax)
    assert mrep.closed_form == Fraction(1, 6)
    assert -intersect(env, env) == Fraction(1, 6)
    oracle = monomial_valuation_volume_oracle(2, 3, nmax)
    for n, value in enumerate(oracle, start=1):
        assert abs(value - Fraction(1, 6)) <= Fraction(3, n)
    elapsed = time.perf_counter() - t0
    report(
        5,
        elapsed < 30,
        f"degree limits (0, 0, 1/6) within 2/n for n<=600, e limit 1/6 "
        f"cross-checked within 3/n, {elapsed:.2f}s < 30s",
    )


def test_criterion_06_unloading_closure_laws():
    t0 = time.perf_counter()
    rng = random.Random(20240)
    trials = 10_000
    for _ in range(trials):
        c = random_cluster(rng, max_points=12)
        d = random_integer_divisor(rng, c, lo=-5, hi=20)
        assert_unloading_laws(rng, c, d)
    elapsed = time.perf_counter() - t0
    report(
        6,
        elapsed < 60,
        f"{trials} random clusters: idempotent, extensive, monotone, "
        f"order-independent, full support; {elapsed:.1f}s < 60s",
    )


def _envelope_test_family():
    """Lattices whose principal minors all divide 60.

    With divisor denominators restricted to divisors of 15, every envelope
    coefficient then has denominator dividing 900 = 2^2 3^2 5^2, so
    ceil-scaled unloading deviations at n and n + 900 are comparable and
    the measured 1/n envelope constant at n = 100 provably dominates the
    one at n = 1000.  Unrestricted lattices break this: envelope
    denominators with primes outside {2, 3, 5} (e.g. 7 on a 7-point chain)
    put 100 and 1000 in different residue classes with incomparable
    deviations.
    """
    family = [cusp_cluster()]
    for k in (2, 3, 4, 5):
        c = new_cluster()
        parent = 0
        for _ in range(k - 1):
            parent = c.add_free_point(parent)
        family.append(c)
    for n in (2, 3, 4, 5):
        family.append(star_cluster(n))
    return family


def test_criterion_07_nef_envelope_laws_and_scaling():
    t0 = time.perf_counter()
    rng = random.Random(77001)
    family = _envelope_test_family()
    trials = 1000
    for _ in range(trials):
        c = rng.choice(family)
        coeffs = [
            Fraction(rng.randint(0, 5), rng.choice((1, 3, 5, 15)))
            for _ in range(c.n_curves)
        ]
        delta = divisor(c, coeffs)
        assert_envelope_laws(rng, c, delta)
        env = nef_envelope(delta)

        def deviation(n):
            d = unload((n * delta).ceil()).divisor
            return max(
                abs(Fraction(x, n) - e)
                for x, e in zip(d.as_integers(), env.coeffs)
            )

        c_measured = 100 * deviation(100)
        assert deviation(100) <= c_measured / 100
        assert deviation(1000) <= c_measured / 1000
    elapsed = time.perf_counter() - t0
    report(
        7,
        elapsed < 60,
        f"{trials} random effective divisors: complementarity, domination, "
        f"antinef, homogeneity, C(100) envelope holds at n=1000; "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_08_valuation_engine():
    t0 = time.perf_counter()
    c = cusp_cluster()
    assert value_vector(c, parse_poly("y^2 - x^3")).values == (2, 3, 6)
    rng = random.Random(808)
    for _ in range(100):
        f, g = random_poly(rng), random_poly(rng)
        vf, vg = value_vector(c, f), value_vector(c, g)
        vfg = value_vector(c, f * g)
        assert vfg.values == tuple(a + b for a, b in zip(vf.values, vg.values))
        for vv in (vf, vg, vfg):
            assert c.multiplicities_from_values(vv.values) == vv.multiplicities
    elapsed = time.perf_counter() - t0
    report(
        8,
        elapsed < 10,
        f"cusp values (2,3,6); additive on 100 products; exact round-trips; "
        f"{elapsed:.2f}s < 10s",
    )


def test_criterion_09_negative_definiteness():
    assert is_negative_definite([[-1, 1], [1, -2]])
    assert not is_negative_definite([[-1, 1], [1, -1]])
    rng = random.Random(909)
    for _ in range(500):
        c = random_cluster(rng, max_points=12)
        assert is_negative_definite(c.intersection_matrix())
    for n in range(1, 51):
        assert is_negative_definite(star_cluster(n).intersection_matrix())
    report(9, True, "definiteness certificates exact on 550 generated forms")


def test_criterion_10_cli_determinism(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code = main(["example42", "--nmax", "10", "--format", "csv", "--output", str(p)])
        assert code == 0
    blobs = [p.read_bytes() for p in paths]
    identical = blobs[0] == blobs[1]
    text = blobs[0].decode()
    has_e1 = "\n1,10,10,4\n" in text
    has_summary = "commute=false" in text
    report(
        10,
        identical and has_e1 and has_summary,
        "byte-identical CSV with e_I1=10 and commute=false",
    )
