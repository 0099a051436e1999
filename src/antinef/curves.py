"""Plane elements, blowup valuations, degree functions, and oracles.

A plane element is a nonzero bivariate polynomial over Q, standing for an
element of the local ring at the origin.  Pushing it through the blowup
charts of a coordinatized cluster yields the multiplicity of its strict
transform at every infinitely near point, hence the vector of divisorial
values.  Two independent lattice-counting oracles cross-check multiplicity
computations that go through the intersection form.

Chart conventions match :mod:`antinef.cluster`: at a free point with finite
parameter t the previous coordinates are (u, u(t + v)) and the exceptional
curve of the blown-up point is u = 0; at parameter ``inf`` they are (uv, v)
with the exceptional curve v = 0.  Satellite points use the same two charts
with the position forced to the crossing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .cluster import Cluster
from .divisor import ExcDivisor, unload
from .errors import CoordinateError, PolynomialSyntaxError
from .rationals import INFINITY

__all__ = [
    "PlaneElement",
    "ValuationVector",
    "parse_poly",
    "multiplicity_vector",
    "value_vector",
    "degree_function",
    "newton_multiplicity_oracle",
    "monomial_valuation_volume_oracle",
]

Terms = dict[tuple[int, int], Fraction]


def _trim(terms: Terms) -> Terms:
    return {k: c for k, c in terms.items() if c != 0}


def _mul_terms(f: Terms, g: Terms) -> Terms:
    out: Terms = {}
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return _trim(out)


def _add_terms(f: Terms, g: Terms, sign: int = 1) -> Terms:
    out = dict(f)
    for k, c in g.items():
        out[k] = out.get(k, Fraction(0)) + sign * c
    return _trim(out)


@dataclass(frozen=True)
class PlaneElement:
    """Nonzero polynomial in x, y with exact rational coefficients."""

    terms: tuple[tuple[tuple[int, int], Fraction], ...]

    @staticmethod
    def from_terms(terms: Terms) -> "PlaneElement":
        terms = _trim(terms)
        if not terms:
            raise ValueError("zero is not a plane element (its values are infinite)")
        return PlaneElement(terms=tuple(sorted(terms.items())))

    def to_dict(self) -> Terms:
        return dict(self.terms)

    def order(self) -> int:
        """Multiplicity at the origin: least total degree of a term."""
        return min(a + b for (a, b), _ in self.terms)

    def __add__(self, other: "PlaneElement") -> "PlaneElement":
        return PlaneElement.from_terms(_add_terms(self.to_dict(), other.to_dict()))

    def __sub__(self, other: "PlaneElement") -> "PlaneElement":
        return PlaneElement.from_terms(_add_terms(self.to_dict(), other.to_dict(), -1))

    def __mul__(self, other: "PlaneElement") -> "PlaneElement":
        return PlaneElement.from_terms(_mul_terms(self.to_dict(), other.to_dict()))

    def __pow__(self, k: int) -> "PlaneElement":
        if k < 0:
            raise ValueError("negative powers are not plane elements")
        out: Terms = {(0, 0): Fraction(1)}
        base = self.to_dict()
        for _ in range(k):
            out = _mul_terms(out, base)
        return PlaneElement.from_terms(out)

    def __str__(self):
        parts = []
        for (a, b), c in self.terms:
            mon = "".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in (("x", a), ("y", b))
                if e > 0
            )
            if mon:
                mon = "*".join(m for m in [str(c) if c != 1 else "", mon] if m) if c != 1 else mon
            else:
                mon = str(c)
            parts.append(mon)
        return " + ".join(parts)


# -- parser ---------------------------------------------------------------
#
# expr   = term { ("+" | "-") term }
# term   = unary { "*" unary }
# unary  = ("+" | "-") unary | power
# power  = atom [ "^" natural ]
# atom   = rational | "x" | "y" | "(" expr ")"
# rational = natural [ "/" natural ]        (the "/" is part of the literal)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def error(self, message: str):
        raise PolynomialSyntaxError(message, self.pos)

    def parse(self) -> Terms:
        terms = self.expr()
        self._skip_ws()
        if self.pos < len(self.text):
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return terms

    def expr(self) -> Terms:
        terms = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.take()
                terms = _add_terms(terms, self.term())
            elif ch == "-":
                self.take()
                terms = _add_terms(terms, self.term(), -1)
            else:
                return terms

    def term(self) -> Terms:
        terms = self.unary()
        while self.peek() == "*":
            self.take()
            terms = _mul_terms(terms, self.unary())
        return terms

    def unary(self) -> Terms:
        ch = self.peek()
        if ch == "-":
            self.take()
            return {k: -c for k, c in self.unary().items()}
        if ch == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> Terms:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            exp = self.natural()
            out: Terms = {(0, 0): Fraction(1)}
            for _ in range(exp):
                out = _mul_terms(out, base)
            return out
        return base

    def natural(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an exponent")
        return int(self.text[start : self.pos])

    def atom(self) -> Terms:
        ch = self.peek()
        if ch == "x":
            self.take()
            return {(1, 0): Fraction(1)}
        if ch == "y":
            self.take()
            return {(0, 1): Fraction(1)}
        if ch == "(":
            self.take()
            terms = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.take()
            return terms
        if ch.isdigit():
            num = self.natural()
            self._skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == "/":
                self.pos += 1
                den = self.natural()
                if den == 0:
                    self.error("zero denominator")
                value = Fraction(num, den)
            else:
                value = Fraction(num)
            return {(0, 0): value} if value != 0 else {}
        if ch == "":
            self.error("unexpected end of input")
        self.error(f"unexpected character {ch!r}")


def parse_poly(text: str) -> PlaneElement:
    """Parse polynomial text into a canonical expanded :class:`PlaneElement`.

    Grammar: variables x and y, operators + - * ^, parentheses, integer and
    a/b rational literals (the slash is part of the literal, there is no
    division operator).  Whitespace is insignificant.  The zero polynomial
    is rejected: its value vector would be infinite.
    """
    terms = _Parser(text).parse()
    if not _trim(terms):
        raise ValueError("the zero polynomial is not a valid plane element")
    return PlaneElement.from_terms(terms)


# -- blowup substitutions ---------------------------------------------------


def _blow_finite(terms: Terms, t: Fraction, m: int) -> Terms:
    """(x, y) -> (u, u(t + v)), then divide by u^m (exact by construction)."""
    out: Terms = {}
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


def _blow_infinity(terms: Terms, m: int) -> Terms:
    """(x, y) -> (uv, v), then divide by v^m."""
    out: Terms = {}
    for (a, b), c in terms.items():
        key = (a, a + b - m)
        out[key] = out.get(key, Fraction(0)) + c
    return _trim(out)


def multiplicity_vector(cluster: Cluster, f: PlaneElement) -> tuple[int, ...]:
    """Multiplicity of the strict transform of ``f`` at every cluster point.

    Walks the constellation top-down, recentering the local equation by the
    fixed chart substitutions.  Points missed by the strict transform get
    multiplicity 0; a point the transform reaches whose position was never
    recorded raises :class:`CoordinateError` rather than guessing.
    """
    n = len(cluster)
    m = [0] * n
    stack: list[tuple[int, Terms]] = [(0, f.to_dict())]
    while stack:
        i, terms = stack.pop()
        mult = min(a + b for a, b in terms)
        if mult == 0:
            continue  # unit: the strict transform misses this point and its subtree
        m[i] = mult
        for j in cluster.children(i):
            rec = cluster.point(j)
            if rec.kind == "free":
                if rec.param is None:
                    raise CoordinateError(
                        f"point {j} has no recorded parameter but the strict "
                        f"transform reaches its exceptional line"
                    )
                if rec.param == INFINITY:
                    child = _blow_infinity(terms, mult)
                else:
                    child = _blow_finite(terms, rec.param, mult)
            else:  # satellite: position forced by the crossing
                if rec.crossing_axis == "u":
                    child = _blow_infinity(terms, mult)
                else:
                    child = _blow_finite(terms, Fraction(0), mult)
            stack.append((j, child))
    return tuple(m)


@dataclass(frozen=True)
class ValuationVector:
    """Divisorial values v_i(f) together with the multiplicities m_i."""

    cluster: Cluster
    values: tuple[int, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        expected = self.cluster.values_from_multiplicities(self.multiplicities)
        if expected != self.values:
            raise ValueError("values and multiplicities disagree")


def value_vector(cluster: Cluster, f: PlaneElement) -> ValuationVector:
    """Values of ``f`` along every exceptional curve of the cluster."""
    m = multiplicity_vector(cluster, f)
    return ValuationVector(
        cluster=cluster,
        values=cluster.values_from_multiplicities(m),
        multiplicities=m,
    )


def _is_squarefree(f: PlaneElement) -> bool:
    """Squarefreeness over Q via gcd with both partials (sympy).

    A nonzero element of total degree <= 1 is a unit or irreducible, hence
    squarefree; it is answered without importing sympy.
    """
    if f.terms and all(a + b <= 1 for (a, b), _ in f.terms):
        return True
    import sympy

    x, y = sympy.symbols("x y")
    expr = sympy.Add(
        *[sympy.Rational(c) * x**a * y**b for (a, b), c in f.terms]
    )
    poly = sympy.Poly(expr, x, y)
    if poly.total_degree() == 0:
        return True
    g = sympy.gcd(poly, poly.diff(x))
    g = sympy.gcd(g, poly.diff(y))
    return sympy.Poly(g, x, y).total_degree() == 0


def degree_function(d: ExcDivisor, f: PlaneElement, assume_reduced: bool = False) -> int:
    """Multiplicity of the image ideal on the curve cut out by ``f``.

    Equals sum_i v_i(f) * d_i over the degree coefficients d_i of the
    antinef closure of ``d``.  The quotient by ``f`` should be reduced;
    as a proxy ``f`` is required squarefree unless ``assume_reduced`` is
    set (the check is global over Q, so locally-reduced elements with a
    repeated factor away from the origin need the override).
    """
    if not assume_reduced and not _is_squarefree(f):
        raise ValueError(
            "element is not squarefree; pass assume_reduced=True to override"
        )
    model = unload(d)
    vv = value_vector(d.cluster, f)
    return sum(v * c for v, c in zip(vv.values, model.degree_coeffs))


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
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
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
    if p < 1 or q < 1:
        raise ValueError("weights must be positive integers")
    out = []
    for n in range(1, nmax + 1):
        count = 0
        beta = 0
        while q * beta < n:
            # alpha < (n - q beta)/p
            count += -(-(n - q * beta) // p)
            beta += 1
        out.append(Fraction(2 * count, n * n))
    return out
