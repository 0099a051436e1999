"""Slow reference implementations, for differential tests.

The divisor layer: the dense-matrix algorithms the package used before the
form was stored as a tree: the O(n^3) product -(P^T P), a pivoting Gaussian
elimination for the envelope's active-set solves, and unloading from the
input divisor with no warm start.  They share no code with the fast paths;
the proximity matrix P they start from is built here from the point records.

The curves layer: blowup charts on exact ``Fraction`` coefficients, with the
binomial expansion done term by term, as the package did before it moved
to primitive integer charts; and the walk of the fully expanded polynomial
through those ``Fraction`` charts, as the package walked it before it
valued a product factor by factor.  None of it imports the package's own
charts.

The divisor coefficients: every coefficient a ``Fraction``, as the package
stored them before it moved to integer numerators over one denominator;
pairings by the dense form, ceilings by ``math.ceil``.

The random-cluster generator: the satellite-pair scan over every point.

The point records: each point's kind, chart axes and crossing axis, replayed
with the rules the inserts applied when the record stored them.

The definiteness test: Gaussian elimination on ``Fraction`` entries, as the
package ran it on rational matrices before it scaled them to integers.

The envelope's active-set solve: leaf elimination on the tree form with
``Fraction`` pivots, as the package ran it before it carried each pivot as
a ratio of integer subtree determinants.

Two independent lattice-counting oracles, which cross-check multiplicity
computations that go through the intersection form: the doubled area of a
Newton region's complement, and the scaled colengths of a monomial
valuation's ideals.

Squarefreeness of the expanded element: its content in y and its
specializations f(x0, y), on ``Fraction`` rows with Euclid's gcd, as the
package decided it before it read the factors.

The intersection number of two plane curves at the origin, as the order in
x of their resultant in y, through sympy: it needs no blowup chart, so it
checks the charts' multiplicities by Noether's formula.

A family's limit report on ``Fraction`` values: every s(n) a ``Fraction``,
the deviations from the closed form and the envelope taken in ``Fraction``
arithmetic, as the package reported a sequence before it carried the
integer numerators a_n of s(n) = a_n / n^k.

A commutation report's sum of limits, one ``Fraction`` addition per curve,
as the package summed it before it took the limits over one common
denominator; its sums and its verdict on ``Fraction`` values.
"""

import math
from fractions import Fraction
from typing import Iterable, Optional

from antinef.errors import ClusterStructureError, CoordinateError
from antinef.rationals import INFINITY, exact, integer


def proximity_matrix(cluster) -> tuple[tuple[int, ...], ...]:
    """The unitriangular P as row tuples: P[i][j] = -1 when point i is proximate to j."""
    n = len(cluster)
    rows = []
    for rec in cluster.points:
        row = [0] * n
        row[rec.index] = 1
        for j in rec.prox:
            row[j] = -1
        rows.append(tuple(row))
    return tuple(rows)


def dense_form(cluster) -> tuple[tuple[int, ...], ...]:
    """-(P^T P) from the proximity matrix, one column dot product per entry."""
    p = proximity_matrix(cluster)
    n = len(p)
    return tuple(
        tuple(-sum(p[k][i] * p[k][j] for k in range(max(i, j), n)) for j in range(n))
        for i in range(n)
    )


def _dense_pairings(m, coeffs) -> list:
    n = len(m)
    return [sum(m[i][j] * coeffs[j] for j in range(n) if m[i][j] and coeffs[j]) for i in range(n)]


def _gauss_solve_active(m, delta, active: list[int]) -> list[Fraction]:
    """Solve (D . E_i) = 0 for i in ``active`` with D = delta off the set."""
    k = len(active)
    inactive = [j for j in range(len(delta)) if j not in set(active)]
    a = [[Fraction(m[i][j]) for j in active] for i in active]
    b = [
        -sum(Fraction(m[i][j]) * delta[j] for j in inactive if delta[j] != 0)
        for i in active
    ]
    for col in range(k):
        piv = next(r for r in range(col, k) if a[r][col] != 0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
        pivot = a[col][col]
        for r in range(col + 1, k):
            if a[r][col] == 0:
                continue
            factor = a[r][col] / pivot
            for c in range(col, k):
                a[r][c] -= factor * a[col][c]
            b[r] -= factor * b[col]
    x = [Fraction(0)] * k
    for r in range(k - 1, -1, -1):
        s = b[r] - sum(a[r][c] * x[c] for c in range(r + 1, k))
        x[r] = s / a[r][r]
    return x


def dense_envelope(cluster, delta) -> tuple[Fraction, ...]:
    """Nef envelope of the effective coefficients ``delta`` by dense solves."""
    m = dense_form(cluster)
    n = len(m)
    coeffs = list(delta)
    active: list[int] = []
    while True:
        if active:
            for i, value in zip(active, _gauss_solve_active(m, delta, active)):
                coeffs[i] = value
        pair = _dense_pairings(m, coeffs)
        violated = [i for i in range(n) if i not in active and pair[i] > 0]
        if not violated:
            return tuple(coeffs)
        active = sorted(active + violated)


def cold_unload(cluster, coeffs, select=None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(closure coefficients, degree coefficients) by raising from ``coeffs``."""
    m = dense_form(cluster)
    n = len(m)
    coeffs = list(coeffs)
    pair = _dense_pairings(m, coeffs)
    while True:
        violated = [i for i in range(n) if pair[i] > 0]
        if not violated:
            return tuple(coeffs), tuple(-s for s in pair)
        i = violated[0] if select is None else select(violated)
        step = -(-pair[i] // -m[i][i])
        coeffs[i] += step
        for j in range(n):
            if m[i][j]:
                pair[j] += step * m[i][j]


# -- divisor coefficients as Fractions ----------------------------------------


def fraction_coeffs(values) -> tuple[Fraction, ...]:
    """Each value as a reduced ``Fraction``; text such as ``"2/4"`` reads as 1/2."""
    return tuple(Fraction(v) for v in values)


def fraction_pairings(cluster, coeffs) -> list[Fraction]:
    """All (D . E_i) by the dense form."""
    return [sum((m * c for m, c in zip(row, coeffs)), Fraction(0)) for row in dense_form(cluster)]


def fraction_intersect(cluster, a, b) -> Fraction:
    return sum((x * s for x, s in zip(a, fraction_pairings(cluster, b))), Fraction(0))


def fraction_dominates(a, b) -> bool:
    return all(x >= y for x, y in zip(a, b))


def fraction_ceil(a) -> tuple[Fraction, ...]:
    return tuple(Fraction(math.ceil(x)) for x in a)


def fraction_floor(a) -> tuple[Fraction, ...]:
    return tuple(Fraction(math.floor(x)) for x in a)


def fraction_add(a, b) -> tuple[Fraction, ...]:
    return tuple(x + y for x, y in zip(a, b))


def fraction_sub(a, b) -> tuple[Fraction, ...]:
    return tuple(x - y for x, y in zip(a, b))


def fraction_scale(scalar, a) -> tuple[Fraction, ...]:
    return tuple(Fraction(scalar) * x for x in a)


# -- curves layer ---------------------------------------------------------------


def _trim(terms):
    return {k: c for k, c in terms.items() if c != 0}


def fraction_blow_finite(terms, t, m):
    """(x, y) -> (u, u(t + v)), then divide by u^m (exact by construction)."""
    out = {}
    for (a, b), c in terms.items():
        u_exp = a + b - m
        if t == 0:
            key = (u_exp, b)
            out[key] = out.get(key, Fraction(0)) + c
            continue
        # (t + v)^b expanded by the binomial theorem
        coef = c * t**b
        for k in range(b + 1):
            if k > 0:
                coef = coef * (b - k + 1) / (k * t)
            key = (u_exp, k)
            out[key] = out.get(key, Fraction(0)) + coef
    return _trim(out)


def fraction_blow_infinity(terms, m):
    """(x, y) -> (uv, v), then divide by v^m."""
    out = {}
    for (a, b), c in terms.items():
        key = (a, a + b - m)
        out[key] = out.get(key, Fraction(0)) + c
    return _trim(out)


def fraction_multiplicity_vector(cluster, f):
    """Multiplicities of the strict transforms of ``f``, on exact rationals."""
    m = [0] * len(cluster)
    stack = [(0, f.to_dict())]
    while stack:
        i, terms = stack.pop()
        mult = min(a + b for a, b in terms)
        if mult == 0:
            continue
        m[i] = mult
        for j in cluster.children(i):
            rec = cluster.point(j)
            if rec.kind == "free":
                if rec.param == INFINITY:
                    child = fraction_blow_infinity(terms, mult)
                else:
                    child = fraction_blow_finite(terms, rec.param, mult)
            elif rec.crossing_axis == "u":
                child = fraction_blow_infinity(terms, mult)
            else:
                child = fraction_blow_finite(terms, Fraction(0), mult)
            stack.append((j, child))
    return tuple(m)


def expanded_multiplicity_vector(cluster, f):
    """Multiplicities of the strict transforms of ``f``, walking its expansion
    through the ``Fraction`` charts by each point's recorded parameter."""
    n = len(cluster)
    m = [0] * n
    stack = [(0, f.to_dict())]
    while stack:
        i, terms = stack.pop()
        mult = min(a + b for a, b in terms)
        if mult == 0:
            continue  # unit: the strict transform misses this point and its subtree
        m[i] = mult
        for j in cluster.children(i):
            param = cluster.point(j).param
            if param is None:
                raise CoordinateError(
                    f"point {j} has no recorded parameter but the strict "
                    f"transform reaches its exceptional line"
                )
            if param == INFINITY:
                child = fraction_blow_infinity(terms, mult)
            else:
                child = fraction_blow_finite(terms, param, mult)
            stack.append((j, child))
    return tuple(m)


# -- squarefree ------------------------------------------------------------------
#
# Univariate polynomials over Q are Fraction lists, lowest degree first, with
# no trailing zeros.


def _poly_rem(a, b):
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for k, c in enumerate(b):
            a[shift + k] -= q * c
        while a and a[-1] == 0:
            a.pop()
    return a


def _poly_gcd(a, b):
    """The gcd of two nonzero polynomials by Euclid's algorithm over Q."""
    while b:
        a, b = b, _poly_rem(a, b)
    return a


def _univariate_squarefree(a) -> bool:
    if len(a) <= 2:
        return True
    return len(_poly_gcd(a, [k * c for k, c in enumerate(a)][1:])) == 1


def _value(a, x):
    return sum(c * x**k for k, c in enumerate(a))


def expanded_is_squarefree(f) -> bool:
    """Squarefreeness over Q of the expanded ``f``, as the package decided it
    before it read the factors: the content c(x) in y must be squarefree,
    and f(x0, y) is tested for a repeated factor at x0 = 1, 2, 3, ...,
    skipping roots of the leading y-coefficient; the first squarefree
    specialization proves f squarefree, (2d - 1) e + 1 repeated ones prove
    it is not, d and e the degrees in y and x.  On ``Fraction`` rows with
    Euclid's gcd, no sympy."""
    terms = f.to_dict()
    d = max(b for _, b in terms)
    e = max(a for a, _ in terms)
    rows = [[Fraction(0)] * (e + 1) for _ in range(d + 1)]
    for (a, b), c in terms.items():
        rows[b][a] = Fraction(c)
    for row in rows:
        while row and row[-1] == 0:
            row.pop()
    content = None
    for row in rows:
        if row:
            content = row if content is None else _poly_gcd(content, row)
    if not _univariate_squarefree(content):
        return False
    if d == 0:
        return True
    needed = (2 * d - 1) * e + 1
    x0 = 0
    while needed:
        x0 += 1
        if _value(rows[d], x0) == 0:
            continue
        if _univariate_squarefree([_value(row, x0) for row in rows]):
            return True
        needed -= 1
    return False


# -- random clusters --------------------------------------------------------------


def scan_satellite_pairs(cluster):
    """(parent, other) pairs whose curves still meet, scanning every point."""
    pairs = []
    for rec in cluster.points:
        for other in rec.prox:
            if not any(
                rec.index in r.prox and other in r.prox for r in cluster.points
            ):
                pairs.append((rec.index, other))
    return pairs


# -- point records ---------------------------------------------------------------


def replay_chart_fields(cluster) -> list[tuple]:
    """``(kind, axis_curves, crossing_axis)`` of every point, in creation order.

    A free point has its parent's curve on the u-axis, or on the v-axis at
    ``inf``.  A satellite takes its axes from the parent's chart: the other
    curve on the parent's u-axis gives chart (uv, v) and crossing axis "u",
    on its v-axis chart (u, uv) and "v".  A satellite's recorded position is
    not read.
    """
    fields = []
    for rec in cluster.points:
        parent = rec.parent
        if parent is None:
            fields.append(("origin", (None, None), None))
        elif rec.prox == (parent,):
            axes = (None, parent) if rec.param == INFINITY else (parent, None)
            fields.append(("free", axes, None))
        else:
            (other,) = set(rec.prox) - {parent}
            u_curve, v_curve = fields[parent][1]
            if other == u_curve:
                fields.append(("satellite", (other, parent), "u"))
            else:
                assert other == v_curve, f"curve {other} misses the chart of point {parent}"
                fields.append(("satellite", (parent, other), "v"))
    return fields


# -- definiteness ---------------------------------------------------------------


def fraction_leading_minors(rows):
    """Yield det_1, det_2, ... of the leading blocks, as the running product of the
    pivots of Gaussian elimination on Fractions; stop after the first zero."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = a[k][k]
        det *= pivot
        yield det
        if det == 0:
            return
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]


def fraction_negative_definite(rows) -> bool:
    """True iff (-1)^k det_k > 0 for every leading principal minor det_k."""
    return all(
        det != 0 and (det > 0) == (k % 2 == 0)
        for k, det in enumerate(fraction_leading_minors(rows), start=1)
    )


# -- the envelope's active-set solve ----------------------------------------------


def fraction_solve_active(form, delta, active) -> list:
    """Solve (D . E_i) = 0 for i in ``active`` with D = delta off the set.

    Returns all n coefficients of D.  The active curves induce a forest of
    the tree form; each component is solved by leaf elimination (Rose,
    1970).  Eliminating a leaf u with parent w replaces w's pivot p_w by
    p_w - 1/p_u and its right-hand side b_w by b_w - b_u/p_u; the root then
    solves directly and back substitution gives x_u = (b_u - x_w)/p_u.
    Each pivot is a Schur complement of a negative definite block, so it is
    negative: O(k) exact operations, no pivoting, no fill-in.  A cycle
    among the active curves would make the elimination wrong, so meeting
    one raises.
    """
    x = list(delta)
    pivot: dict[int, Fraction] = {}
    rhs: dict[int, Fraction] = {}
    parent: dict[int, Optional[int]] = {}
    for root in active:
        if root in parent:
            continue
        parent[root] = None
        order = [root]
        for u in order:  # breadth first; ``order`` grows while it is read
            pivot[u] = Fraction(form.diag[u])
            rhs[u] = -sum((delta[v] for v in form.nbrs[u] if v not in active), Fraction(0))
            for v in form.nbrs[u]:
                if v not in active or v == parent[u]:
                    continue
                if v in parent:
                    raise ClusterStructureError(
                        f"active curves {u} and {v} close a cycle; the form is not a tree"
                    )
                parent[v] = u
                order.append(v)
        for u in reversed(order[1:]):
            w = parent[u]
            pivot[w] -= 1 / pivot[u]
            rhs[w] -= rhs[u] / pivot[u]
        x[root] = rhs[root] / pivot[root]
        for u in order[1:]:
            x[u] = (rhs[u] - x[parent[u]]) / pivot[u]
    return x


# -- a family's limit report on Fraction values ------------------------------


def fraction_make_report(values, closed_form) -> dict:
    """The fields of a family's ``LimitReport`` from its values s(1..N)."""
    values = tuple(values)
    n = len(values)
    last = values[-1]
    richardson = None
    if n >= 2:
        richardson = n * values[-1] - (n - 1) * values[-2]
    rate = None
    base = n // 4
    if base >= 1:
        s1, s2, s3 = values[base - 1], values[2 * base - 1], values[4 * base - 1]
        d1, d2 = s2 - s1, s3 - s2
        if d1 != 0 and d2 != 0 and abs(d2) < abs(d1):
            rate = math.log(abs(float(d1 / d2)), 2.0)
    envelope = None
    monotone_from = None
    if closed_form is not None:
        devs = [abs(v - closed_form) for v in values]
        envelope = max((i + 1) * dev for i, dev in enumerate(devs))
        monotone_from = 1
        for i in range(n - 1, 0, -1):
            if devs[i] > devs[i - 1]:
                monotone_from = i + 2
                break
        if monotone_from > n:
            monotone_from = None
    return dict(
        values=values,
        closed_form=closed_form,
        last=last,
        richardson=richardson,
        rate_exponent=rate,
        envelope_constant=envelope,
        monotone_from=monotone_from,
    )


# -- a commutation report on Fraction values ---------------------------------


def fraction_commutation(spec, f, nmax) -> dict:
    """``sum_of_lims``, ``commute`` and ``sum_is_estimate`` of a family's
    commutation report, each limit added as a ``Fraction``."""
    from antinef import degree_limit, value_vector

    models = [spec.member(n) for n in range(1, nmax + 1)]
    big_cluster = models[-1].divisor.cluster
    vv = value_vector(big_cluster, f).values
    sums = [sum(a * c for a, c in zip(vv, model.degree_coeffs)) for model in models]

    sum_of_lims = Fraction(0)
    sum_is_estimate = False
    for v in range(big_cluster.n_curves):
        limit = spec.closed_degree(v)
        if limit is None:
            limit = degree_limit(spec, v, nmax).limit_estimate()
            sum_is_estimate = True
        sum_of_lims += vv[v] * limit
    closed = None if sum_is_estimate else spec.closed_sum_limit(vv, sum_of_lims)

    report = fraction_make_report([Fraction(s, n) for n, s in enumerate(sums, start=1)], closed)
    if closed is not None:
        commute = closed == sum_of_lims
    else:
        estimate = report["richardson"] if report["richardson"] is not None else report["last"]
        tol = Fraction(1, nmax)
        if report["richardson"] is not None:
            tol = max(tol, 2 * abs(report["last"] - report["richardson"]))
        commute = abs(estimate - sum_of_lims) <= tol
    return dict(sum_of_lims=sum_of_lims, commute=commute, sum_is_estimate=sum_is_estimate)


# -- independent oracles ----------------------------------------------------


def newton_multiplicity_oracle(region: Iterable[tuple]) -> int:
    """Multiplicity of a monomial complete ideal from its Newton region.

    ``region`` is a list of inequalities (a, b, c) meaning a*alpha + b*beta
    >= c; the region is their intersection inside the positive quadrant.
    The result is twice the exact area of the complement of the region in
    the quadrant (vertex enumeration plus the shoelace formula).  The
    complement must be bounded: every inequality with c > 0 needs a > 0
    and b > 0.
    """
    cuts = []
    for a, b, c in region:
        a, b, c = (Fraction(exact(t, "inequality coefficient")) for t in (a, b, c))
        if a < 0 or b < 0:
            raise ValueError(f"inequality ({a}, {b}, {c}) opens away from the quadrant")
        if c <= 0:
            continue  # whole quadrant satisfies it
        if a == 0 or b == 0:
            raise ValueError(
                f"inequality ({a}, {b}, {c}) cuts an unbounded strip: region is "
                "not co-finite"
            )
        cuts.append((a, b, c))
    if not cuts:
        return 0
    # Complement boundary = lower envelope of the constraint lines between
    # the axis intercepts; its vertices have x-coordinates at envelope
    # breakpoints.  Sample the envelope at all pairwise crossings.
    def height(x: Fraction) -> Fraction:
        # largest y demanded at abscissa x: max over cuts of (c - a x)/b
        return max((c - a * x) / b for a, b, c in cuts)

    xs = {Fraction(0)}
    xs.add(max(c / a for a, b, c in cuts))  # rightmost intercept
    for i in range(len(cuts)):
        a1, b1, c1 = cuts[i]
        for j in range(i + 1, len(cuts)):
            a2, b2, c2 = cuts[j]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x = (c1 * b2 - c2 * b1) / det
            if 0 <= x:
                xs.add(x)
    xmax = max(c / a for a, b, c in cuts)
    breaks = sorted(x for x in xs if 0 <= x <= xmax)
    # Shoelace over the polygon (0,0) -> (xmax,0) -> envelope right-to-left -> (0, h(0))
    verts = [(Fraction(0), Fraction(0)), (xmax, Fraction(0))]
    for x in reversed(breaks):
        y = height(x)
        if y > 0:
            verts.append((x, y))
    twice_area = Fraction(0)
    for k in range(len(verts)):
        x1, y1 = verts[k]
        x2, y2 = verts[(k + 1) % len(verts)]
        twice_area += x1 * y2 - x2 * y1
    twice_area = abs(twice_area)
    if twice_area.denominator != 1:
        raise ValueError("non-integral doubled area: malformed region")
    return int(twice_area)


def monomial_valuation_volume_oracle(p: int, q: int, nmax: int) -> list[Fraction]:
    """Scaled colengths of the valuation ideals of v(x)=p, v(y)=q.

    Term n is 2 * #{(alpha, beta) >= 0 : p alpha + q beta < n} / n^2,
    an exact rational; the sequence converges to 1/(p*q) at rate O(1/n).
    """
    if integer(p, "weight p") < 1 or integer(q, "weight q") < 1:
        raise ValueError("weights must be positive integers")
    out = []
    for n in range(1, integer(nmax, "nmax") + 1):
        count = 0
        beta = 0
        while q * beta < n:
            # alpha < (n - q beta)/p
            count += -(-(n - q * beta) // p)
            beta += 1
        out.append(Fraction(2 * count, n * n))
    return out


def intersection_multiplicity(f, g) -> int:
    """i_O(f, g) = ord_x Res_y(f, g) for term maps ``{(a, b): c}`` (sympy).

    The identity holds when each equation is monic in y, so that no root in
    y escapes as x -> 0, and f(0, y) and g(0, y) vanish only at y = 0, so
    that every root tends to the origin; for a monic equation that means
    f(0, y) = y^deg.  Both are checked first, and ``ValueError`` names the
    one that fails, or a zero resultant: a common component.
    """
    import sympy

    x, y = sympy.symbols("x y")
    polys = []
    for terms in (f, g):
        expr = sympy.Add(
            *(sympy.Rational(Fraction(c)) * x**a * y**b for (a, b), c in terms.items())
        )
        poly = sympy.Poly(expr, y)
        if poly.LC() != 1:
            raise ValueError(f"{expr} is not monic in y")
        if sympy.expand(expr.subs(x, 0)) != y ** poly.degree():
            raise ValueError(f"{expr} meets x = 0 away from the origin")
        polys.append(expr)
    res = sympy.Poly(sympy.resultant(*polys, y), x)
    if res.is_zero:
        raise ValueError("a zero resultant: the curves share a component")
    return min(a for (a,) in res.monoms())
