"""Plane elements, blowup valuations and degree functions.

A plane element is a nonzero bivariate polynomial over Q, standing for an
element of the local ring at the origin.  Pushing it through the blowup
charts of a coordinatized cluster yields the multiplicity of its strict
transform at every infinitely near point, hence the vector of divisorial
values.

Chart conventions match :mod:`antinef.cluster`: at a free point with finite
parameter t the previous coordinates are (u, u(t + v)) and the exceptional
curve of the blown-up point is u = 0; at parameter ``inf`` they are (uv, v)
with the exceptional curve v = 0.  A satellite's recorded parameter is its
position on its parent's curve (``inf`` or 0), so it takes the same charts.
The parser keeps integer coefficients as ``int``; only an a/b literal brings
in ``Fraction`` arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .cluster import Cluster
from .divisor import ExcDivisor, unload
from .errors import CoordinateError, PolynomialSyntaxError
from .rationals import INFINITY, exact, integer

__all__ = [
    "PlaneElement",
    "ValuationVector",
    "parse_poly",
    "multiplicity_vector",
    "value_vector",
    "degree_function",
]

Terms = dict[tuple[int, int], int | Fraction]
IntTerms = dict[tuple[int, int], int]

#: Largest exponent, and total degree of a power or product, the parser
#: expands; without it one short line such as ``y^100000`` runs for minutes.
MAX_DEGREE = 1000


def _degree(terms: Terms) -> int:
    return max((a + b for a, b in terms), default=0)


def _trim(terms: Terms) -> Terms:
    return {k: c for k, c in terms.items() if c != 0}


def _mul_terms(f: Terms, g: Terms) -> Terms:
    """Product of two term dicts."""
    out = {}
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return _trim(out)


def _pow_terms(f: Terms, k: int) -> Terms:
    """f^k by square-and-multiply."""
    out: Terms = {(0, 0): 1}
    while k:
        if k & 1:
            out = _mul_terms(out, f)
        k >>= 1
        if k:
            f = _mul_terms(f, f)
    return out


def _add_terms(f: Terms, g: Terms, sign: int = 1) -> Terms:
    out = dict(f)
    for k, c in g.items():
        out[k] = out.get(k, 0) + sign * c
    return _trim(out)


@dataclass(frozen=True)
class PlaneElement:
    """Nonzero polynomial in x, y with exact rational coefficients."""

    terms: tuple[tuple[tuple[int, int], Fraction], ...]

    @staticmethod
    def from_terms(terms: Terms) -> "PlaneElement":
        """The element with these terms, each read by ``exact`` and made a ``Fraction``."""
        read = ((k, exact(c, "coefficient")) for k, c in terms.items())
        terms = {k: Fraction(c) for k, c in read if c != 0}
        if not terms:
            raise ValueError("zero is not a plane element (its values are infinite)")
        return PlaneElement(terms=tuple(sorted(terms.items())))

    def to_dict(self) -> dict[tuple[int, int], Fraction]:
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
        if integer(k, "exponent k") < 0:
            raise ValueError("negative powers are not plane elements")
        return PlaneElement.from_terms(_pow_terms(self.to_dict(), k))

    def __str__(self):
        """Text that :func:`parse_poly` reads back to an equal element."""
        parts = []
        for (a, b), c in self.terms:
            factors = [f"{v}^{e}" if e > 1 else v for v, e in (("x", a), ("y", b)) if e > 0]
            if c != 1 or not factors:
                factors.insert(0, str(c))
            parts.append("*".join(factors))
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

    def cap(self, what: str, value: int):
        if value > MAX_DEGREE:
            self.error(f"{what} {value} exceeds the degree cap {MAX_DEGREE}")

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
            factor = self.unary()
            self.cap("product degree", _degree(terms) + _degree(factor))
            terms = _mul_terms(terms, factor)
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
            k = self.natural("an exponent")
            self.cap("exponent", k)
            self.cap("power degree", k * _degree(base))
            return _pow_terms(base, k)
        return base

    def natural(self, what: str) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            self.error(f"expected {what}")
        return int(self.text[start : self.pos])

    def atom(self) -> Terms:
        ch = self.peek()
        if ch == "x":
            self.take()
            return {(1, 0): 1}
        if ch == "y":
            self.take()
            return {(0, 1): 1}
        if ch == "(":
            self.take()
            terms = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.take()
            return terms
        if "0" <= ch <= "9":
            value = self.natural("a numerator")
            self._skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == "/":
                self.pos += 1
                den = self.natural("a denominator")
                if den == 0:
                    self.error("zero denominator")
                value = Fraction(value, den)
            return {(0, 0): value} if value != 0 else {}
        if ch == "":
            self.error("unexpected end of input")
        self.error(f"unexpected character {ch!r}")


def parse_poly(text: str) -> PlaneElement:
    """Parse polynomial text into a canonical expanded :class:`PlaneElement`.

    Grammar: variables x and y, operators + - * ^, parentheses, integer and
    a/b rational literals (the slash is part of the literal, there is no
    division operator).  Whitespace is insignificant.  The zero polynomial
    is rejected by :meth:`PlaneElement.from_terms`: its value vector would
    be infinite.
    """
    return PlaneElement.from_terms(_Parser(text).parse())


# -- blowup substitutions ---------------------------------------------------
#
# Only the support of each strict transform matters (its least total degree
# is the multiplicity), so the charts work on integer polynomials known up to
# a nonzero constant factor: the root equation is cleared of denominators and
# every chart divides out its integer content.


def _primitive(terms: IntTerms) -> IntTerms:
    """``terms`` divided by the gcd of its coefficients."""
    g = gcd(*terms.values())
    return terms if g == 1 else {k: c // g for k, c in terms.items()}


def _integer_terms(f: PlaneElement) -> IntTerms:
    """A primitive integer multiple of ``f``."""
    den = lcm(*(c.denominator for _, c in f.terms))
    return _primitive({k: c.numerator * (den // c.denominator) for k, c in f.terms})


def _blow_finite(terms: IntTerms, t: Fraction, m: int) -> IntTerms:
    """(x, y) -> (u, u(t + v)), divided by u^m, up to a constant factor.

    With t = p/q the terms of total degree D form a univariate h_D(y), and
    u^D h_D(t + v) is its contribution.  Each group is replaced by
    q^B h_D((p + q v)/q) = sum_b c_b q^(B - b) (p + q v)^b, one integer
    Horner pass (a Taylor shift), where B is the largest y-exponent of all
    terms, so every group carries the same factor q^B.
    """
    p, q = t.numerator, t.denominator
    groups: dict[int, dict[int, int]] = {}
    for (a, b), c in terms.items():
        groups.setdefault(a + b, {})[b] = c
    top = max(b for _, b in terms)
    qpow = [1]
    for _ in range(top):
        qpow.append(qpow[-1] * q)
    out: IntTerms = {}
    for total, h in groups.items():
        deg = max(h)
        acc = [h[deg] * qpow[top - deg]]
        for b in range(deg - 1, -1, -1):
            # acc <- acc * (p + q v) + c_b q^(B - b)
            nxt = [p * c for c in acc]
            nxt.append(0)
            for k, c in enumerate(acc):
                nxt[k + 1] += q * c
            nxt[0] += h.get(b, 0) * qpow[top - b]
            acc = nxt
        u_exp = total - m
        for k, c in enumerate(acc):
            if c:
                out[(u_exp, k)] = c
    return _primitive(out)


def _blow_infinity(terms: IntTerms, m: int) -> IntTerms:
    """(x, y) -> (uv, v), then divide by v^m."""
    return {(a, a + b - m): c for (a, b), c in terms.items()}


def multiplicity_vector(cluster: Cluster, f: PlaneElement) -> tuple[int, ...]:
    """Multiplicity of the strict transform of ``f`` at every cluster point.

    Walks the constellation top-down, recentering the local equation by the
    fixed chart substitutions.  Points missed by the strict transform get
    multiplicity 0; a point the transform reaches whose position was never
    recorded raises :class:`CoordinateError` rather than guessing.
    """
    n = len(cluster)
    m = [0] * n
    stack: list[tuple[int, IntTerms]] = [(0, _integer_terms(f))]
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
                child = _blow_infinity(terms, mult)
            else:
                child = _blow_finite(terms, param, mult)
            stack.append((j, child))
    return tuple(m)


@dataclass(frozen=True)
class ValuationVector:
    """Multiplicities m_i of the strict transforms of f; the values v_i(f) are derived."""

    cluster: Cluster
    multiplicities: tuple[int, ...]

    @cached_property
    def values(self) -> tuple[int, ...]:
        """Divisorial values v_i(f), solved from the multiplicities by P v = m."""
        return self.cluster.values_from_multiplicities(self.multiplicities)


def value_vector(cluster: Cluster, f: PlaneElement) -> ValuationVector:
    """Values of ``f`` along every exceptional curve of the cluster."""
    return ValuationVector(cluster, multiplicity_vector(cluster, f))


# -- squarefree test ---------------------------------------------------------
#
# Univariate polynomials are integer coefficient lists, lowest degree first,
# with no trailing zeros.  Every gcd below is taken up to a nonzero constant.


def _primitive_list(a: list[int]) -> list[int]:
    g = gcd(*a)
    return a if g <= 1 else [c // g for c in a]


def _prs_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd of two nonzero polynomials by a primitive remainder sequence over Z.

    Each pseudo-division step scales by the least multiplier that cancels the
    leading term, and each remainder is divided by its content, so the
    coefficients stay as small as the gcd allows.
    """
    a, b = _primitive_list(a), _primitive_list(b)
    while b:
        db, lb = len(b) - 1, b[-1]
        r = list(a)
        while len(r) > db:
            g = gcd(r[-1], lb)
            ma, mb = lb // g, r[-1] // g
            shift = len(r) - 1 - db
            r = [ma * c for c in r]
            for k, c in enumerate(b):
                r[shift + k] -= mb * c
            while r and r[-1] == 0:
                r.pop()
        a, b = b, _primitive_list(r)
    return a


def _univariate_squarefree(a: list[int]) -> bool:
    """No repeated factor over Q: gcd(a, a') is a constant."""
    if len(a) <= 2:
        return True
    return len(_prs_gcd(a, [k * c for k, c in enumerate(a)][1:])) == 1


def _evaluate(a: list[int], x: int) -> int:
    value = 0
    for c in reversed(a):
        value = value * x + c
    return value


def _is_squarefree(f: PlaneElement) -> bool:
    """Squarefreeness over Q, decided exactly in integer arithmetic.

    Write f = c(x) pp(x, y) with c the content in y.  Then f is squarefree iff
    c is squarefree in Q[x] and, when d = deg_y f >= 1, disc_y(f) is not the
    zero polynomial.  The discriminant has degree at most (2d - 1) e in x,
    with e = deg_x f, and specializes to disc(f(x0, y)) wherever the leading
    y-coefficient lc_y(f)(x0) is nonzero, which fails at e points at most.
    So f(x0, y) is tested for a repeated factor at x0 = 1, 2, 3, ..., skipping
    roots of lc_y(f): the first squarefree specialization proves f squarefree,
    and (2d - 1) e + 1 repeated ones prove it is not.  That is at most
    2 d e + 1 points, usually one.  (x0 = 0 is left out: any two branches
    through the origin meet there, so it would rarely decide.)  The content
    and every specialization go through :func:`_prs_gcd`.
    """
    terms = _integer_terms(f)
    d = max(b for _, b in terms)
    e = max(a for a, _ in terms)
    rows = [[0] * (e + 1) for _ in range(d + 1)]
    for (a, b), c in terms.items():
        rows[b][a] = c
    for row in rows:
        while row and row[-1] == 0:
            row.pop()
    coeffs = [row for row in rows if row]
    if all(len(row) > 1 for row in coeffs):
        content = coeffs[0]
        for row in coeffs[1:]:
            if len(content) == 1:
                break
            content = _prs_gcd(content, row)
        if not _univariate_squarefree(content):
            return False
    if d == 0:
        return True
    lead = rows[d]
    needed = (2 * d - 1) * e + 1
    x0 = 0
    while needed:
        x0 += 1
        if _evaluate(lead, x0) == 0:
            continue
        if _univariate_squarefree([_evaluate(row, x0) for row in rows]):
            return True
        needed -= 1
    return False


def degree_function(d: ExcDivisor, f: PlaneElement, assume_reduced: bool = False) -> int:
    """Multiplicity of the image ideal on the curve cut out by ``f``.

    Equals sum_i v_i(f) * d_i over the degree coefficients d_i of the
    antinef closure of ``d``.  The quotient by ``f`` should be reduced;
    as a proxy ``f`` is required squarefree unless ``assume_reduced`` is
    set (the check is global over Q, so locally-reduced elements with a
    repeated factor away from the origin need the override).  The check is
    :func:`_is_squarefree`, exact integer arithmetic with no dependency.
    """
    if not assume_reduced and not _is_squarefree(f):
        raise ValueError(
            "element is not squarefree; pass assume_reduced=True to override"
        )
    model = unload(d)
    vv = value_vector(d.cluster, f)
    return sum(v * c for v, c in zip(vv.values, model.degree_coeffs))

