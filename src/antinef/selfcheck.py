"""Randomized generators and closure-law checks.

Shared by the test suite and the CLI ``selftest`` subcommand.  Everything
is driven by a caller-supplied ``random.Random`` so runs are reproducible
from a seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cluster import Cluster, is_negative_definite, new_cluster
from .divisor import ExcDivisor, divisor, intersect, is_antinef, nef_envelope, unload

__all__ = [
    "random_cluster",
    "valid_satellite_pairs",
    "random_integer_divisor",
    "random_effective_divisor",
    "assert_unloading_laws",
    "assert_envelope_laws",
]


def valid_satellite_pairs(cluster: Cluster) -> list[tuple[int, int]]:
    """All (parent, other) pairs whose exceptional curves still meet.

    Only a child of ``parent`` can be proximate to both curves, so only the
    children are scanned for the satellite that separated them.
    """
    pairs = []
    for rec in cluster.points:
        kids = [cluster.point(j).prox for j in cluster.children(rec.index)]
        for other in rec.prox:
            if not any(other in prox for prox in kids):
                pairs.append((rec.index, other))
    return pairs


def random_cluster(
    rng: random.Random,
    max_points: int = 12,
    satellite_rate: float = 0.35,
) -> Cluster:
    """A proximity-valid cluster with between 1 and ``max_points`` points."""
    cluster = new_cluster()
    target = rng.randint(1, max_points)
    while len(cluster) < target:
        pairs = valid_satellite_pairs(cluster)
        if pairs and rng.random() < satellite_rate:
            parent, other = rng.choice(pairs)
            cluster.add_satellite_point(parent, other)
        else:
            parent = rng.randrange(len(cluster))
            cluster.add_free_point(parent)
    return cluster


def random_integer_divisor(
    rng: random.Random, cluster: Cluster, lo: int = -5, hi: int = 20
) -> ExcDivisor:
    return divisor(cluster, [rng.randint(lo, hi) for _ in range(cluster.n_curves)])


def random_effective_divisor(
    rng: random.Random,
    cluster: Cluster,
    denominators: tuple[int, ...] = (1, 2, 3, 4, 5, 6),
    max_numerator: int = 5,
) -> ExcDivisor:
    coeffs = [
        Fraction(rng.randint(0, max_numerator), rng.choice(denominators))
        for _ in range(cluster.n_curves)
    ]
    return divisor(cluster, coeffs)


def _random_select(rng: random.Random):
    return lambda violated: rng.choice(violated)


def assert_unloading_laws(rng: random.Random, cluster: Cluster, d: ExcDivisor):
    """Closure laws of unloading on one instance; raises AssertionError."""
    bar = unload(d).divisor
    assert bar.dominates(d), "closure is not extensive"
    assert is_antinef(bar), "closure is not antinef"
    again = unload(bar).divisor
    assert again.coeffs == bar.coeffs, "closure is not idempotent"
    alt = unload(d, select=_random_select(rng)).divisor
    alt2 = unload(d, select=_random_select(rng)).divisor
    assert alt.coeffs == bar.coeffs == alt2.coeffs, "closure depends on processing order"
    bump = divisor(
        cluster, [c + rng.randint(0, 3) for c in d.as_integers()]
    )
    assert unload(bump).divisor.dominates(bar), "closure is not monotone"
    if not bar.is_zero():
        assert all(c > 0 for c in bar.coeffs), "nonzero closure lost full support"
    assert is_negative_definite(cluster.intersection_matrix()), "form not negative definite"


def assert_envelope_laws(rng: random.Random, cluster: Cluster, delta: ExcDivisor):
    """Complementarity, domination, antinefness, homogeneity on one instance."""
    env = nef_envelope(delta)
    assert env.dominates(delta), "envelope does not dominate its input"
    assert is_antinef(env), "envelope is not antinef"
    for i in range(cluster.n_curves):
        pairing = intersect(env, ExcDivisor.basis(cluster, i))
        assert env.coeffs[i] == delta.coeffs[i] or pairing == 0, (
            f"complementarity fails at curve {i}"
        )
    scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    scaled = nef_envelope(scale * delta)
    assert scaled.coeffs == tuple(scale * c for c in env.coeffs), (
        "envelope is not homogeneous"
    )


#: The law suites: name, seed offset, largest cluster, divisor generator, law.
_SUITES = (
    ("unloading_closure_laws", 0, 10, random_integer_divisor, assert_unloading_laws),
    ("nef_envelope_laws", 1, 8, random_effective_divisor, assert_envelope_laws),
)


def run_selftest(seed: int, trials: int) -> list[tuple[str, bool, str]]:
    """Run the randomized law suites; returns (name, passed, detail) rows."""
    results = []
    for name, offset, max_points, generate, law in _SUITES:
        rng = random.Random(seed + offset)
        try:
            for _ in range(trials):
                cluster = random_cluster(rng, max_points=max_points)
                law(rng, cluster, generate(rng, cluster))
            results.append((name, True, f"{trials} instances"))
        except AssertionError as exc:
            results.append((name, False, str(exc)))
    return results
