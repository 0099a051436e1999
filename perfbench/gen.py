"""Seeded scenario generators, one per workload.

Each generator returns scenario text for ``antinef run``.  The problem size
of a workload is fixed; the seed only moves positions and parameters, so
two seeds cost about the same.  Generation uses only the standard library:
it shares no code with the program it feeds.
"""

from __future__ import annotations

import random
from fractions import Fraction

#: The seed whose output digests are recorded, and one kept out of tuning.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

# -- growing ------------------------------------------------------------------

GROWING_NMAX = 48


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _distinct_rationals(rng: random.Random, count: int) -> list[Fraction]:
    out: list[Fraction] = []
    seen: set[Fraction] = set()
    while len(out) < count:
        value = Fraction(rng.randint(-99, 99), rng.randint(1, 9))
        if value not in seen:
            seen.add(value)
            out.append(value)
    return out


def _nonzero_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 99), rng.randint(1, 9)) * rng.choice((-1, 1))


def _signed_term(coeff: Fraction, monomial: str) -> str:
    """`` + c*mon`` or `` - c*mon`` with a nonnegative literal, as the grammar wants."""
    sign = "-" if coeff < 0 else "+"
    return f" {sign} {abs(coeff)}*{monomial}"


def growing(seed: int) -> str:
    """The example42 growing family, seeded point parameters and test line."""
    rng = _rng("growing", seed)
    params = _distinct_rationals(rng, GROWING_NMAX)
    slope = _nonzero_rational(rng)
    lines = [
        "[filtration EX42]",
        "kind = example42",
        "params = " + " ".join(str(p) for p in params),
        "",
        "[element LINE]",
        "poly = y" + _signed_term(-slope, "x"),
        "",
    ]
    for kind, extra in (
        ("multiplicity_limit", []),
        ("degree_limits", ["labels = v0 v1"]),
        ("rees_union", []),
        ("commutation", ["element = LINE"]),
    ):
        lines += ["[task]", f"kind = {kind}", "filtration = EX42"]
        lines += extra + [f"nmax = {GROWING_NMAX}", ""]
    return "\n".join(lines)


# -- chain --------------------------------------------------------------------

CHAIN_POINTS = 25  # point lines; with the origin the cluster has 26 curves
# Satellite positions are fixed: moving them changes the envelope's active-set
# rounds and the unload raise steps by up to a factor of 3, so a seeded choice
# would make two seeds cost different amounts.
CHAIN_SATELLITES = (7, 13, 20)
CHAIN_UNLOAD_SCALE = 10**4
CHAIN_NMAX = 16


def chain(seed: int) -> str:
    """A chain of free points with three satellites; E_last drives every task.

    The seed places the free points on their exceptional lines and picks the
    three valuations of the degree_limits task; neither changes the cost.
    """
    rng = _rng("chain", seed)
    lines = ["[cluster CHAIN]"]
    for i in range(1, CHAIN_POINTS + 1):
        if i in CHAIN_SATELLITES:
            # i - 1 is free on i - 2, so the two curves still cross
            lines.append(f"point = satellite parent={i - 1} other={i - 2}")
        else:
            # a nonzero finite parameter is never a crossing
            lines.append(f"point = free parent={i - 1} param={_nonzero_rational(rng)}")
    curves = CHAIN_POINTS + 1
    last = [0] * CHAIN_POINTS + [1]
    scaled = [0] * CHAIN_POINTS + [CHAIN_UNLOAD_SCALE]
    labels = sorted(rng.sample(range(curves), 3))
    lines += [
        "",
        "[divisor ELAST on CHAIN]",
        "coeffs = " + " ".join(map(str, last)),
        "",
        "[divisor BIG on CHAIN]",
        "coeffs = " + " ".join(map(str, scaled)),
        "",
        "[filtration FAM]",
        "kind = qdivisorial",
        "divisor = ELAST",
        "",
        "[task]",
        "kind = nef_envelope",
        "divisor = ELAST",
        "",
        "[task]",
        "kind = unload",
        "divisor = BIG",
        "",
    ]
    for kind, extra in (
        ("multiplicity_limit", []),
        ("degree_limits", ["labels = " + " ".join(f"v{v}" for v in labels)]),
        ("rees_union", []),
    ):
        lines += ["[task]", f"kind = {kind}", "filtration = FAM"]
        lines += extra + [f"nmax = {CHAIN_NMAX}", ""]
    return "\n".join(lines)


# -- curves -------------------------------------------------------------------

# Branch shapes: (kind, depth, shares_prefix_with, shared_length).  A smooth
# branch y = g(x) with deg g = depth passes through `depth` free points whose
# parameters are the coefficients of g.  A cusp (y - g(x))^2 = x^(2k+1) with
# deg g = k = depth passes through the same k free points and then through
# the satellite where the last two exceptional curves cross.
CURVES_BRANCHES = (
    ("smooth", 14, None, 0),
    ("smooth", 14, 0, 4),
    ("cusp", 10, None, 0),
    ("cusp", 11, 2, 3),
)
CURVES_NMAX = 12
CURVES_PARAMS = (-3, -2, -1, 1, 2, 3)


def curves_branches(seed: int) -> list[tuple[str, list[int]]]:
    """Seeded (kind, coefficients of g) per branch; first coefficients differ
    between branches that share no prefix, so the tree shape is fixed."""
    rng = _rng("curves", seed)
    firsts = rng.sample(CURVES_PARAMS, 2)
    out: list[tuple[str, list[int]]] = []
    lead = 0
    for kind, depth, share, shared in CURVES_BRANCHES:
        if share is None:
            coeffs = [firsts[lead]]
            lead += 1
        else:
            base = out[share][1]
            coeffs = base[:shared]
            # the next coefficient differs from the shared branch's one
            coeffs.append(rng.choice([c for c in CURVES_PARAMS if c != base[shared]]))
        while len(coeffs) < depth:
            coeffs.append(rng.choice(CURVES_PARAMS))
        out.append((kind, coeffs))
    return out


def _branch_poly(kind: str, coeffs: list[int]) -> str:
    g = "".join(_signed_term(Fraction(-c), f"x^{j}") for j, c in enumerate(coeffs, 1))
    if kind == "smooth":
        return f"(y{g})"
    return f"((y{g})^2 - x^{2 * len(coeffs) + 1})"


def curves_tree(seed: int):
    """The tree's point lines, proximities, and each branch's multiplicities.

    Returns ``(points, prox, mults)``: scenario point definitions in creation
    order (point i is ``points[i - 1]``), the points each point is proximate
    to (``prox[0]`` is the origin's), and per branch a map from point index
    to the branch's multiplicity there.
    """
    points: list[str] = []
    prox: list[tuple[int, ...]] = [()]
    node: dict[tuple, int] = {(): 0}
    mults: list[dict[int, int]] = []
    for kind, coeffs in curves_branches(seed):
        # A cusp is double at the origin and at its first k - 1 free points;
        # its strict transform is smooth from the k-th free point on.
        double = 2 if kind == "cusp" else 1
        m = {0: double}
        path = ()
        for c in coeffs:
            parent = node[path]
            path = path + (c,)
            if path not in node:
                points.append(f"free parent={parent} param={c}")
                prox.append((parent,))
                node[path] = len(points)
            m[node[path]] = double if len(path) < len(coeffs) else 1
        if kind == "cusp":
            last, before = node[path], node[path[:-1]]
            points.append(f"satellite parent={last} other={before}")
            prox.append((last, before))
            m[len(points)] = 1
        mults.append(m)
    return points, prox, mults


def _values(prox: list[tuple[int, ...]], mult: dict[int, int]) -> list[int]:
    """v_i = m_i + sum of v_j over the points i is proximate to."""
    v: list[int] = []
    for i, near in enumerate(prox):
        v.append(mult.get(i, 0) + sum(v[j] for j in near))
    return v


def curves(seed: int) -> str:
    """A coordinatized tree following four branches; valuation tasks on it."""
    branches = curves_branches(seed)
    polys = [_branch_poly(kind, coeffs) for kind, coeffs in branches]
    points, prox, mults = curves_tree(seed)
    a, b, c, d = polys
    # delta = the values of branch 1 (a smooth branch): the divisor of a
    # curve's total transform is antinef, so its envelope is itself.
    delta = _values(prox, mults[0])
    lines = ["[cluster TREE]"] + [f"point = {p}" for p in points]
    lines += [
        "",
        "[divisor DELTA on TREE]",
        "coeffs = " + " ".join(map(str, delta)),
        "",
        f"[element PROD]\npoly = {a}*{c}",
        "",
        f"[element POW]\npoly = {b}^2*{d}",
        "",
        f"[element TRIPLE]\npoly = {a}*{c}*{d}",
        "",
        f"[element PAIR]\npoly = {b}*{c}",
        "",
        "[filtration FAM]",
        "kind = qdivisorial",
        "divisor = DELTA",
        "",
    ]
    for element in ("PROD", "POW", "TRIPLE"):
        lines += ["[task]", "kind = value_vector", "cluster = TREE", f"element = {element}", ""]
    lines += ["[task]", "kind = degree_function", "divisor = DELTA", "element = PAIR", ""]
    lines += [
        "[task]",
        "kind = commutation",
        "filtration = FAM",
        "element = PAIR",
        f"nmax = {CURVES_NMAX}",
        "",
    ]
    return "\n".join(lines)


GENERATORS = {"growing": growing, "chain": chain, "curves": curves}


def generate(workload: str, seed: int) -> str:
    return GENERATORS[workload](seed)
