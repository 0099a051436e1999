"""Cluster and element builders shared across test modules."""

from fractions import Fraction
from math import comb

from antinef import PlaneElement, new_cluster
from antinef.errors import ClusterStructureError
from antinef.rationals import INFINITY
from antinef.selfcheck import valid_satellite_pairs


def cusp_cluster():
    """Origin, one free point at the tangent direction y = 0, one satellite."""
    c = new_cluster()
    p1 = c.add_free_point(0, 0)
    c.add_satellite_point(p1, 0)
    return c


def chain_cluster(length):
    """A chain of free points, each on the previous exceptional curve."""
    c = new_cluster()
    parent = 0
    for _ in range(length - 1):
        parent = c.add_free_point(parent)
    return c


def star_cluster(n, params=None):
    """Origin plus n free points on the first exceptional curve."""
    c = new_cluster()
    for i in range(n):
        c.add_free_point(0, params[i] if params else Fraction(i))
    return c


def star_family_divisor(cluster, n):
    """The antinef member (2n+1, 2n+2, ..., 2n+2) of the growing family."""
    from antinef import divisor

    return divisor(cluster, [2 * n + 1] + [2 * n + 2] * n)


PARAMS = (
    0, INFINITY, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4),
)


def random_coordinatized_cluster(rng, max_points=12, params=PARAMS):
    """Free points at ``params`` (0, ``inf`` and rationals), plus satellites."""
    c = new_cluster()
    target = rng.randint(2, max_points)
    while len(c) < target:
        pairs = valid_satellite_pairs(c)
        if pairs and rng.random() < 0.3:
            c.add_satellite_point(*rng.choice(pairs))
            continue
        # lean towards the newest point, so paths get deep
        parent = len(c) - 1 if rng.random() < 0.5 else rng.randrange(len(c))
        try:
            c.add_free_point(parent, rng.choice(params))
        except ClusterStructureError:
            pass  # position taken, or a crossing
    return c


def random_terms(rng, low, high, count):
    terms = {}
    for _ in range(count):
        deg = rng.randint(low, high)
        a = rng.randint(0, deg)
        terms[(a, deg - a)] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return {k: c for k, c in terms.items() if c}


def _push(terms, rec):
    """An equation in the chart at ``rec`` rewritten in its parent's chart.

    The inverse of the blowup substitution, times the least power of the
    exceptional coordinate that makes it a polynomial, so the strict
    transform of the result at ``rec`` is ``terms`` again.
    """
    out = {}
    if rec.kind == "free":
        infinite, t = rec.param == INFINITY, rec.param
    else:
        infinite, t = rec.crossing_axis == "u", Fraction(0)
    if infinite:
        # u = x / y, v = y
        top = max(a for a, _ in terms)
        for (a, b), c in terms.items():
            key = (a, b - a + top)
            out[key] = out.get(key, 0) + c
    else:
        # u = x, v = y / x - t, so v^b = (y - t x)^b / x^b
        top = max(b for _, b in terms)
        for (a, b), c in terms.items():
            for k in range(b + 1):
                # (y - t x)^b = sum binom(b, k) y^k (-t x)^(b - k)
                coef = c * comb(b, k) * (-t) ** (b - k)
                key = (a + top - k, k)
                out[key] = out.get(key, 0) + coef
    return {k: c for k, c in out.items() if c}


def random_branch(rng, cluster):
    """An element whose strict transform reaches a random cluster point."""
    point = rng.randrange(1, len(cluster))
    path = []
    while point:
        path.append(cluster.point(point))
        point = cluster.point(point).parent
    # a random curve through the last point's chart origin
    terms = random_terms(rng, 1, 2, rng.randint(1, 3)) or {(0, 1): Fraction(1)}
    for rec in path:
        terms = _push(terms, rec)
    return terms


def random_poly(rng):
    """Random small nonzero polynomial over Q."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, 5)):
            key = (rng.randint(0, 3), rng.randint(0, 3))
            coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            terms[key] = terms.get(key, Fraction(0)) + coeff
        terms = {k: c for k, c in terms.items() if c != 0}
        if terms:
            return PlaneElement.from_terms(terms)
