"""One sweep per family: shared members, call counts, O(1) cluster insertion.

The family functions read members through the spec's memo; these tests hold
every shared member equal to an independent build, pin how often
``realize``, ``nef_envelope`` and ``add_free_point`` run, and check that the
constant-time insertion bookkeeping in ``Cluster`` still rejects what the
old sibling scan rejected.  The independent build is a fresh ``realize`` for
the kinds on fixed clusters.  The members of one example42 sweep share one
star, so there the test builds each member's own star of n points itself
and compares what is intrinsic to the ideal: e, the degree coefficients and
the Rees set.
"""

import importlib
import io
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import antinef
from antinef import (
    Cluster,
    Example42Spec,
    ExplicitSpec,
    QDivisorialSpec,
    commutation_report,
    degree_limit,
    divisor,
    multiplicity_sequence,
    new_cluster,
    parse_poly,
    realize,
    rees_union,
    spot_check_graded_law,
    unload,
)
from antinef import filtration
from antinef.cli import _EXAMPLE42_SCENARIO, run_scenario
from antinef.errors import ClusterStructureError
from antinef.rationals import INFINITY
from antinef.scenario import parse_scenario
from antinef.selfcheck import random_cluster, random_effective_divisor
from helpers import chain_cluster, cusp_cluster

# the package's ``divisor`` function shadows the submodule's attribute name
divisor_module = importlib.import_module("antinef.divisor")

NMAX = 16


def assert_shared_members_match_fresh(spec, nmax=NMAX):
    """Sweep through the family functions, then compare every member with a
    fresh ``realize``."""
    mult = multiplicity_sequence(spec, nmax)
    deg0 = degree_limit(spec, 0, nmax)
    rees = rees_union(spec, nmax)
    for n in range(1, nmax + 1):
        shared, fresh = spec.member(n), realize(spec, n)
        shared_cluster, fresh_cluster = shared.divisor.cluster, fresh.divisor.cluster
        assert shared_cluster.tree_form() == fresh_cluster.tree_form()
        assert shared_cluster.points == fresh_cluster.points  # parent, prox and param
        assert [shared_cluster.children(i) for i in range(len(shared_cluster))] == [
            fresh_cluster.children(i) for i in range(len(fresh_cluster))
        ]
        assert shared.divisor.coeffs == fresh.divisor.coeffs
        assert shared.degree_coeffs == fresh.degree_coeffs
        assert shared.multiplicity == fresh.multiplicity
        assert shared.rees_valuations == fresh.rees_valuations
        assert mult.values[n - 1] == Fraction(fresh.multiplicity, n * n)
        assert deg0.values[n - 1] == Fraction(fresh.degree_coeffs[0], n)
        assert rees.per_n[n - 1] == fresh.rees_valuations


def test_qdivisorial_members_match_fresh_realize():
    rng = random.Random(4)
    for _ in range(50):
        cluster = random_cluster(rng, max_points=10)
        delta = random_effective_divisor(rng, cluster)
        if all(c == 0 for c in delta.coeffs):
            delta = divisor(cluster, [0] * (cluster.n_curves - 1) + [Fraction(1, 3)])
        assert_shared_members_match_fresh(QDivisorialSpec(delta=delta))


def star_member(params, n):
    """Member n of example42 built without the spec: a new star, one insert
    per point, and the closure of (2n+1, 2n+2, ..., 2n+2) on it."""
    cluster = new_cluster()
    for param in params[:n]:
        cluster.add_free_point(0, param)
    return unload(divisor(cluster, [2 * n + 1] + [2 * n + 2] * n))


def assert_members_match_own_stars(spec, params, nmax=NMAX):
    """Sweep to ``nmax`` through the family functions, then compare each
    member n with ``star_member(params, n)``, built on its own star of n
    points: the same e and Rees set, the same degree coefficients with the
    fresh ones zero-padded, and on the shared star the pull-back of the
    fresh divisor, 2n+1 on every further point."""
    mult = multiplicity_sequence(spec, nmax)
    deg0 = degree_limit(spec, 0, nmax)
    rees = rees_union(spec, nmax)
    for n in range(1, nmax + 1):
        shared, fresh = spec.member(n), star_member(params, n)
        extra = shared.divisor.cluster.n_curves - fresh.divisor.cluster.n_curves
        assert extra >= 0
        assert shared.divisor.coeffs == fresh.divisor.coeffs + (2 * n + 1,) * extra
        assert shared.degree_coeffs == fresh.degree_coeffs + (0,) * extra
        assert shared.multiplicity == fresh.multiplicity
        assert shared.rees_valuations == fresh.rees_valuations
        assert mult.values[n - 1] == Fraction(fresh.multiplicity, n * n)
        assert deg0.values[n - 1] == Fraction(fresh.degree_coeffs[0], n)
        assert rees.per_n[n - 1] == fresh.rees_valuations


def random_params(rng, count=NMAX):
    params = set()
    while len(params) < count:
        params.add(Fraction(rng.randint(-40, 40), rng.choice([1, 2, 7, 11, 13, 49, 143])))
    params = sorted(params)
    rng.shuffle(params)
    return params


def test_example42_members_match_fresh_realize():
    """The members of one sweep share one star, and each is its own fresh
    star's member there."""
    rng = random.Random(7)
    for spec, params in [(Example42Spec(), [Fraction(i) for i in range(NMAX)])] + [
        (Example42Spec(params=tuple(params)), params)
        for params in (random_params(rng) for _ in range(5))
    ]:
        assert_members_match_own_stars(spec, params)
        [star] = {spec.member(n).divisor.cluster for n in range(1, NMAX + 1)}
        assert star.points == star_member(params, NMAX).divisor.cluster.points
        # a realize on a new spec lands on a star of its own, with the same member
        cold = realize(Example42Spec(params=tuple(params)), NMAX)
        warm = spec.member(NMAX)
        assert cold.divisor.cluster is not star
        assert cold.divisor.cluster.points == star.points
        assert cold.divisor.coeffs == warm.divisor.coeffs


def test_example42_sweeps_at_5_then_40_on_one_spec(free_point_calls):
    """A longer second sweep builds a new star for its new members; the
    members of the first stay on the first star, and both sweeps read what
    a new spec reads."""
    params = random_params(random.Random(42), 40)
    spec = Example42Spec(params=tuple(params))
    multiplicity_sequence(spec, 5)
    assert len(free_point_calls) == 5
    degree_limit(spec, 1, 40)
    assert len(free_point_calls) == 5 + 40
    small, big = spec.member(1).divisor.cluster, spec.member(40).divisor.cluster
    assert (len(small), len(big)) == (6, 41)
    assert all(spec.member(n).divisor.cluster is small for n in range(1, 6))
    assert all(spec.member(n).divisor.cluster is big for n in range(6, 41))
    # a shorter sweep reuses the star it finds
    free_point_calls.clear()
    rees_union(spec, 17)
    assert free_point_calls == []
    assert_members_match_own_stars(spec, params, 40)
    fresh = Example42Spec(params=tuple(params))
    for nmax in (5, 40, 17):
        assert multiplicity_sequence(spec, nmax) == multiplicity_sequence(fresh, nmax)
        assert rees_union(spec, nmax) == rees_union(fresh, nmax)
        for v in (0, 1, 5, 6, 40):
            assert degree_limit(spec, v, nmax) == degree_limit(fresh, v, nmax)


def test_example42_commutation_after_a_smaller_sweep():
    """``commutation`` reads its valuations on the cluster of its last
    member, here a star built for a longer or a shorter sweep; the report
    is the one a new spec gives."""
    f = parse_poly("y - 3*x")
    for first, nmax in ((5, 12), (40, 10), (12, 12)):
        spec = Example42Spec()
        multiplicity_sequence(spec, first)
        report = commutation_report(spec, f, nmax)
        assert len(spec.member(nmax).divisor.cluster) == max(first, nmax) + 1
        assert report == commutation_report(Example42Spec(), f, nmax)
        assert report.lim_of_sums.closed_form == 2 and report.sum_of_lims == 1
        assert not report.commute


def test_example42_spot_check_on_a_shared_star(free_point_calls):
    """After a sweep, the graded-law check embeds both members on the
    sweep's star and inserts no point."""
    spec = Example42Spec()
    multiplicity_sequence(spec, 30)
    star = spec.member(1).divisor.cluster
    for n, m in [(1, 1), (1, 2), (2, 3), (5, 7), (10, 3), (15, 15), (1, 29)]:
        assert spot_check_graded_law(spec, n, m)
        total = spec.embed(n, star).divisor + spec.embed(m, star).divisor
        assert spec.member(n + m).divisor.cluster is star
        assert total.dominates(spec.member(n + m).divisor)
    assert len(free_point_calls) == 30


def _counting_unload(monkeypatch):
    """Route the module's ``unload`` through a select that counts raise steps."""
    steps = []
    original = filtration.unload

    def counting(d, select=None):
        return original(d, lambda violated: steps.append(violated[0]) or violated[0])

    monkeypatch.setattr(filtration, "unload", counting)
    return steps


def test_example42_embedding_is_the_closure_of_the_padded_divisor(monkeypatch):
    """On stars of 1..60 points with random distinct parameters, member k's
    pull-back is antinef (no raise step) and equals the closure of its
    divisor zero-padded to the star, for every k < len(star)."""
    rng = random.Random(2027)
    steps = _counting_unload(monkeypatch)
    for points in range(1, 61):
        params = random_params(rng, points - 1)
        spec = Example42Spec(params=tuple(params))
        star = new_cluster()
        for p in params:
            star.add_free_point(0, p)
        for k in range(points):
            steps.clear()
            model = spec.embed(k, star)
            assert steps == []
            padded = [2 * k + 1] + [2 * k + 2] * k + [0] * (points - 1 - k)
            assert model == filtration.unload(divisor(star, padded))
            # the count sees the raising that the padded divisor needs
            assert len(steps) >= points - 1 - k


def test_example42_embed_names_the_index_and_the_cluster():
    spec = Example42Spec()
    small = spec.member(3).divisor.cluster
    assert len(small) == 4
    with pytest.raises(ValueError, match=r"^example42 member 5 needs a star of at least 6 "
                       r"points, origin included; the cluster has 4$"):
        spec.embed(5, small)
    with pytest.raises(ValueError, match="example42 member 4 .* the cluster has 4$"):
        spec.embed(4, small)
    assert spec.embed(3, small) == spec.member(3)
    chain = chain_cluster(4)
    with pytest.raises(ValueError, match="example42 member 2 needs a star, but not every"):
        spec.embed(2, chain)


def test_explicit_members_match_fresh_realize():
    cusp, chain = cusp_cluster(), chain_cluster(4)
    table = {}
    for n in range(1, NMAX + 1):
        cluster = cusp if n % 3 else chain
        coeffs = [(n * (i + 2)) % 5 - 1 for i in range(cluster.n_curves)]
        table[n] = divisor(cluster, coeffs)
    assert_shared_members_match_fresh(ExplicitSpec(table=table))


def test_memo_belongs_to_the_spec_object():
    first, second = Example42Spec(), Example42Spec()
    multiplicity_sequence(first, 3)
    assert first == second
    assert sorted(first._members) == [1, 2, 3]
    assert second._members == {}


@pytest.fixture
def free_point_calls(monkeypatch):
    calls = []
    original = Cluster.add_free_point

    def counting(self, parent, param=None):
        calls.append(parent)
        return original(self, parent, param)

    monkeypatch.setattr(Cluster, "add_free_point", counting)
    return calls


def test_example42_sweep_inserts_each_point_once(free_point_calls):
    spec = Example42Spec()
    multiplicity_sequence(spec, 40)
    for v in (0, 1, 40):
        degree_limit(spec, v, 40)
    rees_union(spec, 40)
    commutation_report(spec, parse_poly("y - 3*x"), 40)
    assert len(free_point_calls) == 40


def test_example42_realize_on_a_new_spec_inserts_n_points(free_point_calls):
    for n in (1, 2, 17, 40):
        free_point_calls.clear()
        cluster = realize(Example42Spec(), n).divisor.cluster
        assert len(free_point_calls) == n == len(cluster) - 1


def test_example42_cold_member_builds_no_earlier_member(free_point_calls):
    spec = Example42Spec()
    spec.member(30)
    assert sorted(spec._members) == [30] and len(free_point_calls) == 30


def test_example42_spot_check_on_a_new_spec(free_point_calls):
    for n, m in [(1, 1), (1, 2), (2, 3), (5, 7), (10, 3)]:
        free_point_calls.clear()
        assert spot_check_graded_law(Example42Spec(), n, m)
        assert len(free_point_calls) == n + m


@pytest.fixture
def realize_calls(monkeypatch):
    calls = []
    original = filtration.realize

    def counting(spec, n):
        calls.append(n)
        return original(spec, n)

    monkeypatch.setattr(filtration, "realize", counting)
    return calls


def test_example42_scenario_realizes_each_member_once(realize_calls):
    scenario = parse_scenario(_EXAMPLE42_SCENARIO.format(nmax=20))
    assert run_scenario(scenario, io.StringIO(), "csv") == 0
    assert sorted(realize_calls) == list(range(1, 21))


def test_default_degree_labels_share_one_sweep(realize_calls):
    scenario = parse_scenario(
        "[filtration EX42]\nkind = example42\n\n"
        "[task]\nkind = degree_limits\nfiltration = EX42\nnmax = 10\n"
    )
    out = io.StringIO()
    assert run_scenario(scenario, out, "csv") == 0
    assert "d_v10_over_n" in out.getvalue()
    assert sorted(realize_calls) == list(range(1, 11))


def test_explicit_commutation_realizes_each_member_once(realize_calls):
    cusp = cusp_cluster()
    table = {n: divisor(cusp, [n, n, 2 * n]) for n in range(1, 7)}
    commutation_report(ExplicitSpec(table=table), parse_poly("y^2 - x^3"), 6)
    assert sorted(realize_calls) == list(range(1, 7))


def test_swept_members_live_on_the_clusters_the_sweep_built(monkeypatch):
    """A member's cluster is ``member(n).divisor.cluster``, by identity: the
    spec's for qdivisorial, the one star the sweep built for example42, and
    the entry's for an explicit table."""
    qspec = QDivisorialSpec(delta=divisor(cusp_cluster(), [0, 0, 1]))
    multiplicity_sequence(qspec, 8)
    assert all(qspec.member(n).divisor.cluster is qspec.cluster for n in range(1, 9))

    grown = []  # the cluster that received each inserted point, in order
    original = Cluster.add_free_point

    def recording(self, parent, param=None):
        grown.append(self)
        return original(self, parent, param)

    monkeypatch.setattr(Cluster, "add_free_point", recording)
    espec = Example42Spec()
    multiplicity_sequence(espec, 8)
    assert len(grown) == 8
    [star] = set(grown)
    assert len(star) == 9
    assert all(espec.member(n).divisor.cluster is star for n in range(1, 9))

    cusp, chain = cusp_cluster(), chain_cluster(4)
    clusters = {n: cusp if n % 2 else chain for n in range(1, 7)}
    table = {n: divisor(c, [n] * c.n_curves) for n, c in clusters.items()}
    xspec = ExplicitSpec(table=table)
    multiplicity_sequence(xspec, 6)
    assert all(xspec.member(n).divisor.cluster is c for n, c in clusters.items())
    with pytest.raises(ValueError, match="commutation needs a fixed cluster"):
        commutation_report(xspec, parse_poly("y^2 - x^3"), 6)


def test_qdivisorial_envelope_computed_once(monkeypatch):
    calls = []
    original = filtration.nef_envelope

    def counting(d):
        calls.append(d)
        return original(d)

    monkeypatch.setattr(filtration, "nef_envelope", counting)
    spec = QDivisorialSpec(delta=divisor(cusp_cluster(), [0, 0, Fraction(1, 2)]))
    multiplicity_sequence(spec, 4)
    for v in range(3):
        degree_limit(spec, v, 4)
    commutation_report(spec, parse_poly("y - x"), 4)
    assert len(calls) == 1


def _delta_with_denominators(rng, cluster):
    coeffs = [
        Fraction(rng.randint(0, 5), rng.choice((1, 7, 11, 13))) if rng.random() < 0.6 else 0
        for _ in range(cluster.n_curves)
    ]
    if not any(coeffs):
        coeffs[-1] = Fraction(1, 11)
    return divisor(cluster, coeffs)


def test_qdivisorial_members_equal_the_closure_of_the_rounded_multiple():
    """Members unload from ceil(n env), and equal closure(ceil(n delta)) for n <= 3k."""
    rng = random.Random(71113)
    periods = []
    for _ in range(40):
        cluster = random_cluster(rng, max_points=8)
        delta = _delta_with_denominators(rng, cluster)
        spec = QDivisorialSpec(delta=delta)
        k = spec.envelope._den
        if k > 400:
            continue
        periods.append(k)
        for n in range(1, 3 * k + 1):
            member, fresh = spec.member(n), unload((n * delta).ceil())
            assert member.divisor == fresh.divisor, (k, n)
            assert member.degree_coeffs == fresh.degree_coeffs
            assert member.multiplicity == fresh.multiplicity
    assert len(periods) >= 30
    for p in (7, 11, 13):
        assert sum(k % p == 0 for k in periods) >= 2, (p, periods)


def test_qdivisorial_members_compute_no_envelope_in_unload(monkeypatch):
    """``spec.envelope`` is the one envelope of a sweep; ``unload`` needs none."""
    in_unload, in_spec = [], []
    for module, calls in ((divisor_module, in_unload), (filtration, in_spec)):
        original = module.nef_envelope
        monkeypatch.setattr(
            module, "nef_envelope", lambda d, calls=calls, original=original: calls.append(d) or original(d)
        )
    rng = random.Random(7)
    cluster = random_cluster(rng, max_points=40)  # 21 points
    delta = divisor(cluster, [
        Fraction(rng.randint(1, 10), rng.choice((2, 3, 5, 7, 11))) if rng.random() < 0.4 else 0
        for _ in range(cluster.n_curves)
    ])
    multiplicity_sequence(QDivisorialSpec(delta=delta), 100)
    assert len(in_spec) == 1
    assert in_unload == []
    # the count is live: a start from ceil(n delta) overruns unload's raise budget
    unload((100 * delta).ceil())
    assert in_unload


class TestInsertionBookkeeping:
    def test_coincident_parameter_names_the_point_holding_it(self):
        c = new_cluster()
        for k in range(30):
            c.add_free_point(0, Fraction(k, 7))
        c.add_free_point(5, 3)
        with pytest.raises(
            ClusterStructureError,
            match="parameter 17/7 on curve 0 is already taken by point 18",
        ):
            c.add_free_point(0, Fraction(17, 7))
        with pytest.raises(ClusterStructureError, match="on curve 5 is already taken by point 31"):
            c.add_free_point(5, 3)
        assert c.children(0) == tuple(range(1, 31))
        assert c.children(5) == (31,)

    def test_crossing_positions_rejected(self):
        c = new_cluster()
        p1 = c.add_free_point(0, 0)
        with pytest.raises(
            ClusterStructureError, match="parameter inf on curve 1 is the crossing with curve 0"
        ):
            c.add_free_point(p1, INFINITY)
        p2 = c.add_free_point(p1, 5)
        sat = c.add_satellite_point(p2, p1)
        with pytest.raises(
            ClusterStructureError, match="parameter 0 on curve 3 is the crossing with curve 2"
        ):
            c.add_free_point(sat, 0)
        with pytest.raises(
            ClusterStructureError, match="curves 2 and 1 were separated by blowing up point 3"
        ):
            c.add_satellite_point(p2, p1)
        assert c.children(p2) == (sat,)


def _run_isolated(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(antinef.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_linear_element_skips_sympy():
    out = _run_isolated(
        "import sys\n"
        "from antinef import Example42Spec, commutation_report, parse_poly\n"
        "rep = commutation_report(Example42Spec(), parse_poly('y - 3*x'), 4)\n"
        "print(rep.commute, 'sympy' in sys.modules)\n"
    )
    assert out == ["False", "False"]


def test_higher_degree_squarefree_check_skips_sympy():
    out = _run_isolated(
        "import sys\n"
        "from antinef import parse_poly\n"
        "from antinef.curves import _is_squarefree\n"
        "print(_is_squarefree(parse_poly('(y - x)^2')),"
        " _is_squarefree(parse_poly('y^2 - x^3')), 'sympy' in sys.modules)\n"
    )
    assert out == ["False", "True", "False"]


def test_demo_scenario_never_imports_sympy(tmp_path):
    demo = os.path.join(os.path.dirname(os.path.dirname(__file__)), "docs", "demo.scn")
    out = _run_isolated(
        "import sys\n"
        "from antinef.cli import main\n"
        f"code = main(['run', '--scenario', {demo!r}, '--output', {str(tmp_path / 'out')!r}])\n"
        "print(code, 'sympy' in sys.modules)\n"
    )
    assert out == ["0", "False"]
    assert "commutation" in (tmp_path / "out").read_text()
