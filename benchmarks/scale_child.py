"""One repeat of one rung of ``scale.py``, in a fresh interpreter.

Usage: ``PYTHONPATH=<src> python3 benchmarks/scale_child.py LADDER N``.

Only the measured call is timed, not the import or the seeded input.  The
result goes to stdout, for ``scale.py`` to hash; the wall seconds and the
peak RSS go to stderr as one JSON line.  The peak RSS is Linux's ``VmHWM``
where there is one: ``ru_maxrss`` also counts the process that started
this one as it was just before ``exec``, so it never reads below the size
of ``scale.py`` itself.  Only the public API is used, so
any checkout of the package can be measured; the ``value_vector`` ladder's
tree and branch equations come from ``perfbench/gen.py``, which imports no
part of the package.
"""

import json
import os
import random
import resource
import sys
import time
from fractions import Fraction

from antinef import (
    ClusterStructureError,
    QDivisorialSpec,
    divisor,
    is_negative_definite,
    multiplicity_sequence,
    nef_envelope,
    new_cluster,
    parse_scenario,
    unload,
    value_vector,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402

#: Share of the divisor ladders' coefficients that are nonzero, and their bound.
SHARE, TOP = 0.2, 10**6
#: The ``qdivisorial`` ladder's cluster size, share of rational coefficients
#: a/b, bound on a, and choices of b.
Q_POINTS, Q_SHARE, Q_TOP, Q_DENOMINATORS = 21, 0.4, 10, (2, 3, 5, 7, 11)


def seeded_cluster(n: int):
    """n points: free points leaning towards the newest one, and satellites."""
    rng = random.Random(n)
    cluster = new_cluster()
    while len(cluster) < n:
        parent = len(cluster) - 1 if rng.random() < 0.5 else rng.randrange(len(cluster))
        prox = cluster.point(parent).prox
        if prox and rng.random() < 0.3:
            try:
                cluster.add_satellite_point(parent, prox[-1])
                continue
            except ClusterStructureError:
                pass  # that crossing is already blown up
        cluster.add_free_point(parent)
    return cluster


def seeded_divisor(n: int):
    """An effective integer divisor: 20% of its coefficients in 1..10^6, the rest 0."""
    cluster = seeded_cluster(n)
    rng = random.Random(-n)
    return divisor(cluster, [rng.randint(1, TOP) if rng.random() < SHARE else 0 for _ in range(n)])


def seeded_delta():
    """The ``qdivisorial`` generator: 40% of its coefficients a/b, the rest 0."""
    cluster = seeded_cluster(Q_POINTS)
    rng = random.Random(-Q_POINTS)
    return divisor(cluster, [
        Fraction(rng.randint(1, Q_TOP), rng.choice(Q_DENOMINATORS)) if rng.random() < Q_SHARE else 0
        for _ in range(Q_POINTS)
    ])


def curves_product_text(k: int) -> str:
    """The ``curves`` workload's tree (seed 1), and a product of k seeded picks
    from its four branch equations, as one scenario.

    Pick j (1..k) is its branch equation plus j x^N, N one above the
    equation's x-degree: a distinct factor with the branch's multiplicities
    on the tree, which resolves the branch to below that order.  So the
    product has k distinct factors, and its valuation walks each of them.
    """
    points, _prox, _mults = gen.curves_tree(gen.DEFAULT_SEED)
    branches = gen.curves_branches(gen.DEFAULT_SEED)
    polys = [gen._branch_poly(kind, g) for kind, g in branches]
    tails = [len(g) + 1 if kind == "smooth" else 2 * len(g) + 2 for kind, g in branches]
    rng = random.Random(k)
    picks = [polys.index(rng.choice(polys)) for _ in range(k)]
    product = "*".join(f"({polys[b]} + {j}*x^{tails[b]})" for j, b in enumerate(picks, 1))
    lines = ["[cluster TREE]", *(f"point = {p}" for p in points)]
    lines += ["[element F]", f"poly = {product}"]
    return "\n".join(lines)


def curves_product(k: int):
    """The tree and the product of :func:`curves_product_text`, parsed."""
    scenario = parse_scenario(curves_product_text(k))
    return scenario.clusters["TREE"], scenario.elements["F"]


def prepare(ladder: str, n: int):
    """The call to time, and the function that prints its result."""
    if ladder == "example42":
        from antinef.cli import main

        return lambda: main(["example42", "--nmax", str(n)]), lambda code: code
    if ladder == "qdivisorial":
        delta = seeded_delta()

        def show(report):
            print(report.closed_form)
            print(*report.values)
            return 0

        return lambda: multiplicity_sequence(QDivisorialSpec(delta=delta), n), show
    if ladder == "parse":
        text = curves_product_text(n)

        def show(scenario):
            print(len(scenario.clusters["TREE"]), scenario.elements["F"].order())
            return 0

        return lambda: parse_scenario(text), show
    if ladder == "value_vector":
        cluster, f = curves_product(n)

        def show(vv):
            print(*vv.multiplicities)
            print(*vv.values)
            return 0

        return lambda: value_vector(cluster, f), show
    if ladder == "definite":
        form = seeded_cluster(n).intersection_matrix()
        return lambda: is_negative_definite(form), lambda verdict: print(form.n, verdict) or 0
    d = seeded_divisor(n)
    if ladder == "unload":
        def show(model):
            print(*model.divisor.as_integers())
            print(*model.degree_coeffs)
            print(model.multiplicity)
            return 0

        return lambda: unload(d), show
    if ladder == "nef_envelope":
        return lambda: nef_envelope(d), lambda env: print(*env.coeffs) or 0
    raise SystemExit(f"unknown ladder {ladder!r}")


def peak_rss_kb() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(ladder: str, n: int) -> None:
    call, show = prepare(ladder, n)
    start = time.perf_counter()
    result = call()
    sys.stdout.flush()
    wall = time.perf_counter() - start
    code = show(result)
    sys.stdout.flush()
    print(json.dumps({"code": code, "wall_s": wall, "peak_rss_kb": peak_rss_kb()}), file=sys.stderr)


if __name__ == "__main__":
    run(sys.argv[1], int(sys.argv[2]))
