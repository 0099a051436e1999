"""The divisor layer on the tree form, checked against dense oracles.

The fast paths (O(n) tree form, leaf-elimination envelope, warm-started
unloading) are compared with the dense algorithms in ``oracles.py`` on
random clusters, and the tree shape they rely on is checked directly.
"""

import heapq
import importlib
import random
from fractions import Fraction

import pytest

from antinef import ExcDivisor, divisor, intersect, is_antinef, nef_envelope, unload
from antinef.cluster import TreeForm
from antinef.errors import ClusterStructureError
from antinef.selfcheck import random_cluster, random_effective_divisor, random_integer_divisor
from helpers import chain_cluster, star_cluster
from oracles import cold_unload, dense_envelope, dense_form, fraction_pairings

# the package's ``divisor`` function shadows the submodule's attribute name
divisor_module = importlib.import_module("antinef.divisor")

CLUSTERS = 300
BUDGETS = [0, 1, divisor_module._WARM_START_STEPS]


def _random_select(rng):
    return lambda violated: rng.choice(violated)


def cusp_family_cluster(k):
    """The cluster of y^2 = x^(2k+1): k free points in a chain, then a satellite."""
    c = chain_cluster(k + 1)
    c.add_satellite_point(k, k - 1)
    return c


def test_form_and_envelope_match_oracles():
    rng = random.Random(2506)
    for _ in range(CLUSTERS):
        c = random_cluster(rng, max_points=25)
        m = dense_form(c)
        assert c.intersection_matrix().entries == m
        delta = random_effective_divisor(rng, c)
        assert nef_envelope(delta).coeffs == dense_envelope(c, delta.coeffs)
        d1, d2 = random_integer_divisor(rng, c), delta
        expected = sum(
            a * m[i][j] * b
            for i, a in enumerate(d1.coeffs)
            for j, b in enumerate(d2.coeffs)
        )
        assert intersect(d1, d2) == expected


def _assert_unload_matches(monkeypatch, rng, d):
    """Every warm-start budget and raise order gives the cold-start closure."""
    coeffs, degrees = cold_unload(d.cluster, d.as_integers())
    for budget in BUDGETS:
        monkeypatch.setattr(divisor_module, "_WARM_START_STEPS", budget)
        for select in (None, _random_select(rng)):
            model = unload(d, select)
            assert model.divisor.as_integers() == coeffs
            assert model.degree_coeffs == degrees


def test_unload_matches_cold_start(monkeypatch):
    rng = random.Random(5248)
    for _ in range(CLUSTERS):
        c = random_cluster(rng, max_points=25)
        d = random_integer_divisor(rng, c, lo=-5, hi=20)
        _assert_unload_matches(monkeypatch, rng, d)
        assert cold_unload(c, d.as_integers(), _random_select(rng))[0] == (
            unload(d).divisor.as_integers()
        )


def test_unload_of_scaled_last_curve_on_chains(monkeypatch):
    rng = random.Random(105)
    for length in range(2, 13):
        c = chain_cluster(length)
        for k in (1, 7, 10**3, 10**5):
            _assert_unload_matches(monkeypatch, rng, k * ExcDivisor.basis(c, length - 1))


def _tree_families():
    rng = random.Random(1970)
    for _ in range(100):
        yield random_cluster(rng, max_points=25)
        yield random_cluster(rng, max_points=25, satellite_rate=0.8)
    for n in range(1, 31):
        yield star_cluster(n)
        yield chain_cluster(n)
        yield cusp_family_cluster(n)


def test_form_is_a_tree_with_unit_edges():
    for c in _tree_families():
        m = dense_form(c)
        n = len(m)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if m[i][j]]
        assert all(m[i][j] == 1 for i, j in edges)
        assert len(edges) == n - 1
        reached = {0}
        frontier = [0]
        for u in frontier:
            for v in range(n):
                if m[u][v] and v != u and v not in reached:
                    reached.add(v)
                    frontier.append(v)
        assert len(reached) == n
        form = c.tree_form()
        assert sorted(tuple(sorted(e)) for e in edges) == sorted(
            (i, j) for i, nbrs in enumerate(form.nbrs) for j in nbrs if i < j
        )


def _neighbour_pairs(form):
    return {(min(i, j), max(i, j)) for i, nbrs in enumerate(form.nbrs) for j in nbrs}


def test_edges_list_each_neighbour_pair_once():
    for c in _tree_families():
        form = c.tree_form()
        assert all(i < j for i, j in form.edges)
        assert len(form.edges) == len(set(form.edges)) == len(_neighbour_pairs(form))
        assert set(form.edges) == _neighbour_pairs(form)
    triangle = TreeForm(diag=(-3, -3, -3), nbrs=((1, 2), (0, 2), (0, 1)))
    assert triangle.edges == ((0, 1), (0, 2), (1, 2))


def test_pairings_from_edges_match_the_dense_form():
    """``_pairings`` adds along the edge list; the oracle multiplies by the
    dense -(P^T P), on clusters with satellites and on integer and rational
    coefficients."""
    rng = random.Random(2710)
    for _ in range(CLUSTERS):
        c = random_cluster(rng, max_points=rng.choice((5, 25, 60)), satellite_rate=0.5)
        form = c.tree_form()
        ints = [rng.randint(-10**6, 10**6) for _ in range(c.n_curves)]
        rationals = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(c.n_curves)]
        for coeffs in (ints, tuple(ints), rationals):
            assert divisor_module._pairings(form, coeffs) == fraction_pairings(c, coeffs)
    # a hand-built form with a cycle, which no cluster has: each of its
    # three edges still adds once in each direction
    triangle = TreeForm(diag=(-3, -3, -3), nbrs=((1, 2), (0, 2), (0, 1)))
    dense = [[-3, 1, 1], [1, -3, 1], [1, 1, -3]]
    for coeffs in ([1, 1, 1], [2, -5, 7], [0, 0, 4]):
        expected = [sum(m * c for m, c in zip(row, coeffs)) for row in dense]
        assert divisor_module._pairings(triangle, coeffs) == expected


def test_leaf_elimination_refuses_a_cycle():
    triangle = TreeForm(diag=(-3, -3, -3), nbrs=((1, 2), (0, 2), (0, 1)))
    delta = [Fraction(1)] * 3
    with pytest.raises(ClusterStructureError, match="cycle"):
        divisor_module._solve_active(triangle, delta, {0, 1, 2})


def test_envelope_domination_is_checked_without_assert(monkeypatch):
    def below(form, delta, active):
        return ([c - 1 for c in delta], 1)

    monkeypatch.setattr(divisor_module, "_solve_active", below)
    c = chain_cluster(4)
    with pytest.raises(RuntimeError, match="dipped below"):
        nef_envelope(ExcDivisor.basis(c, 3))


@pytest.mark.parametrize("k", [10**3, 10**5])
def test_raise_steps_do_not_grow_with_coefficients(k):
    """Cold unloading of 10^5 E_last on a 51-point chain takes ~1.8M steps."""
    n = 51
    c = chain_cluster(n)
    steps = 0

    def counting(violated):
        nonlocal steps
        steps += 1
        return violated[0]

    d = divisor(c, [0] * (n - 1) + [k])
    model = unload(d, counting)
    assert steps <= 32 * n
    assert is_antinef(model.divisor) and model.divisor.dominates(d)
    assert model.divisor.coeffs == unload(d).divisor.coeffs


def test_heap_raises_in_smallest_index_order(monkeypatch):
    """The default path's heap pops are the picks of ``select=lambda v: v[0]``."""
    rng = random.Random(1409)
    heappop = heapq.heappop
    pops = []

    def recording(heap):
        pops.append(heappop(heap))
        return pops[-1]

    monkeypatch.setattr(divisor_module.heapq, "heappop", recording)
    warm_started = 0
    for _ in range(200):
        c = random_cluster(rng, max_points=25)
        d = random_integer_divisor(rng, c, lo=-5, hi=rng.choice((20, 200)))
        for budget in BUDGETS:
            monkeypatch.setattr(divisor_module, "_WARM_START_STEPS", budget)
            pops.clear()
            picks = []
            model = unload(d)
            assert model == unload(d, lambda v: picks.append(v[0]) or v[0])
            assert pops == picks
            warm_started += budget == 1 and len(picks) > c.n_curves
    assert warm_started > 0
