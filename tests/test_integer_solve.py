"""The envelope's integer active-set solve, checked against the ``Fraction`` one.

``_solve_active`` carries each pivot of the leaf elimination as a ratio of
integer subtree determinants and returns numerators over one denominator.
These tests compare it with ``oracles.fraction_solve_active``, the
``Fraction`` elimination it replaced, on random clusters and random active
sets, and check that the denominator is the lcm of the determinants of the
active components, computed independently from their blocks.
"""

import importlib
import math
import random
from fractions import Fraction

import pytest

from antinef import ExcDivisor, nef_envelope
from antinef.cluster import TreeForm
from antinef.errors import ClusterStructureError
from antinef.selfcheck import random_cluster, random_effective_divisor
from oracles import dense_envelope, fraction_leading_minors, fraction_solve_active

# the package's ``divisor`` function shadows the submodule's attribute name
divisor_module = importlib.import_module("antinef.divisor")


def components(form, active):
    """The vertex sets of the forest that ``active`` induces on the tree form."""
    seen, parts = set(), []
    for root in sorted(active):
        if root in seen:
            continue
        seen.add(root)
        part = [root]
        for u in part:
            for v in form.nbrs[u]:
                if v in active and v not in seen:
                    seen.add(v)
                    part.append(v)
        parts.append(part)
    return parts


def block_determinant(form, part):
    """det of the form's block on ``part``, by Gaussian elimination on Fractions."""
    rows = [[form.diag[i] if i == j else int(j in form.nbrs[i]) for j in part] for i in part]
    *_, det = fraction_leading_minors(rows)
    assert det.denominator == 1
    return det.numerator


def test_integer_solve_matches_fraction_solve():
    rng = random.Random(1968)
    several = 0
    for _ in range(400):
        form = random_cluster(rng, max_points=25).tree_form()
        n = len(form.diag)
        top = rng.choice((20, 10**6))
        delta = [rng.randint(-5, top) for _ in range(n)]
        share = rng.choice((0.3, 0.6, 0.9, 1.0))
        active = {i for i in range(n) if rng.random() < share}
        nums, den = divisor_module._solve_active(form, delta, active)
        assert all(type(a) is int for a in nums) and type(den) is int and den > 0
        assert [Fraction(a, den) for a in nums] == fraction_solve_active(form, delta, active)
        dets = {abs(block_determinant(form, part)) for part in components(form, active)}
        assert den == math.lcm(*dets)
        several += len(dets) >= 2
    assert several >= 50, "too few active forests whose components differ in determinant"


def test_both_solves_refuse_a_cycle():
    triangle = TreeForm(diag=(-3, -3, -3), nbrs=((1, 2), (0, 2), (0, 1)))
    for solve in (divisor_module._solve_active, fraction_solve_active):
        with pytest.raises(ClusterStructureError, match="cycle"):
            solve(triangle, [1, 1, 1], {0, 1, 2})


def test_nef_envelope_constructs_no_fraction(monkeypatch):
    rng = random.Random(16)
    cases = []
    for _ in range(100):
        cluster = random_cluster(rng, max_points=25)
        cases.append(random_effective_divisor(rng, cluster, denominators=(1, 7, 11, 13)))
    cases.append(ExcDivisor.basis(cluster, cluster.n_curves - 1))

    def refuse(*args):
        raise AssertionError("nef_envelope built a Fraction")

    monkeypatch.setattr(divisor_module, "Fraction", refuse)
    envelopes = [nef_envelope(delta) for delta in cases]
    monkeypatch.undo()
    for delta, env in zip(cases, envelopes):
        assert env.coeffs == dense_envelope(delta.cluster, delta.coeffs)
