"""Plane elements, blowup valuations and degree functions.

A plane element is a nonzero bivariate polynomial over Q, standing for an
element of the local ring at the origin.  Pushing it through the blowup
charts of a coordinatized cluster yields the multiplicity of its strict
transform at every infinitely near point, hence the vector of divisorial
values.

An element keeps the factors it was built from, with their exponents, and
each factor's strict transform is walked on its own: multiplicities add
over a product, m_i(f^a g^b) = a m_i(f) + b m_i(g), and a factor that
misses a point drops out of that point's subtree.  A sum is one factor.
Each distinct factor is charted once per cluster, until the next insert:
the cluster keeps its multiplicities for every element it is a factor of.
The values are those of the expanded polynomial.

A product or power is expanded only under three caps, checked in this order
from its operands: ``MAX_DEGREE`` (``exponent 1001 exceeds the degree cap
1000``), ``MAX_POWER_BITS`` (``power coefficient bits 11000 exceeds the bit
cap 10000``) and ``MAX_BOX`` (``power box 20164 exceeds the box cap
20000``); then every multiplication of the expansion under ``MAX_WORK``
(``multiplication work 25411681 exceeds the work cap 1000000``).  The
parser raises :class:`PolynomialSyntaxError` with the position, ``*`` and
``**`` on elements raise ``ValueError``.

Chart conventions match :mod:`antinef.cluster`: at a free point with finite
parameter t the previous coordinates are (u, u(t + v)) and the exceptional
curve of the blown-up point is u = 0; at parameter ``inf`` they are (uv, v)
with the exceptional curve v = 0.  A finite chart is the substitution
itself, term by term.  A satellite's recorded parameter is its
position on its parent's curve (``inf`` or 0), so it takes the same charts.
The parser keeps integer coefficients as ``int``; a product with an a/b
literal is multiplied as integers over one common denominator.  An element
is refused if a coefficient has a numerator or denominator of more than
``MAX_DIGITS`` digits, which ``str`` could not write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm

from .cluster import Cluster
from .divisor import ExcDivisor, unload
from .errors import CoordinateError, PolynomialSyntaxError
from .rationals import INFINITY, MAX_DIGITS, check_digits, exact, integer

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
#: Each factor as its sorted primitive integer terms, with its exponent.
Factors = dict[tuple[tuple[tuple[int, int], int], ...], int]

#: Largest exponent, and total degree of a power or product, that is
#: expanded; without it one short line such as ``y^100000`` runs for minutes.
MAX_DEGREE = 1000
#: Largest k * b of a power f^k that is expanded, b the longest numerator or
#: denominator of f in bits: ``(2^999)^999`` would be a million-bit integer.
MAX_POWER_BITS = 10_000
#: Largest box of a product or power that is expanded (its spread in the two
#: narrowest of x-degree, y-degree and total degree, plus one, multiplied): a
#: dense product costs about the square of its box, and ``(1+x+y)^1000``
#: would run for hours.
MAX_BOX = 20_000
#: Most coefficient products, len(f) * len(g), that one multiplication of an
#: expansion may take, checked as it runs, after the three caps: the box
#: bounds a result's terms but not the work that builds them, and
#: ``((1+x)^70*(1+y)^70)^2`` would square 5,041 terms in about 16 s.
MAX_WORK = 1_000_000


def _degree(terms: Terms) -> int:
    return max((a + b for a, b in terms), default=0)


def _numerators(f: Terms) -> tuple[IntTerms, int]:
    """f as integer numerators over one common denominator."""
    if all(type(c) is int for c in f.values()):
        return f, 1
    den = lcm(*(c.denominator for c in f.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in f.items()}, den


def _mul_terms(f: Terms, g: Terms) -> Terms:
    """Product of two term dicts; ``ValueError`` above the work cap.

    The coefficients are multiplied as integers over one common
    denominator, divided out once per term of the result: a ``Fraction``
    product would pay a gcd per coefficient product.
    """
    if (work := len(f) * len(g)) > MAX_WORK:
        raise ValueError(f"multiplication work {work} exceeds the work cap {MAX_WORK}")
    (f, df), (g, dg) = _numerators(f), _numerators(g)
    out = {}
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    den = df * dg
    return {k: c if den == 1 else Fraction(c, den) for k, c in out.items() if c}


def _pow_terms(f: Terms, k: int) -> Terms:
    """f^k: a term's power at once, else by square-and-multiply."""
    if len(f) == 1:
        [((a, b), c)] = f.items()
        return {(k * a, k * b): c**k}
    out: Terms = {(0, 0): 1}
    while k:
        if k & 1:
            out = _mul_terms(out, f)
        k >>= 1
        if k:
            f = _mul_terms(f, f)
    return out


def _accumulate(total: Terms, g: Terms, sign: int = 1) -> Terms:
    """Add sign * g into ``total`` in place, so that a sum costs time linear
    in its terms, and return it; zero terms are kept."""
    for k, c in g.items():
        total[k] = total.get(k, 0) + sign * c
    return total


def _widths(f: Terms) -> tuple[int, int, int]:
    """How far the x-degree, y-degree and total degree of f's terms spread."""
    if not f:
        return 0, 0, 0
    xs, ys, ts = zip(*((a, b, a + b) for a, b in f))
    return max(xs) - min(xs), max(ys) - min(ys), max(ts) - min(ts)


def _box(widths) -> int:
    """Lattice points of the least box bounding a support with these widths.

    Any two of x-degree, y-degree and total degree place a term, so the box
    spans the two narrowest; it bounds the number of terms.
    """
    a, b, _ = sorted(widths)
    return (a + 1) * (b + 1)


def _refusal(f: Terms, g: Terms | None = None, k: int = 1) -> str | None:
    """Why f*g, or f^k when ``g`` is None, is not expanded; None if it is.

    The degree cap is checked first, then the coefficient size of a power,
    then the box of the result; every bound is read from the operands.
    """
    if g is None:
        if k > MAX_DEGREE:
            return f"exponent {k} exceeds the degree cap {MAX_DEGREE}"
        what, degree = "power", k * _degree(f)
    else:
        what, degree = "product", _degree(f) + _degree(g)
    if degree > MAX_DEGREE:
        return f"{what} degree {degree} exceeds the degree cap {MAX_DEGREE}"
    if g is None and f:
        bits = k * max(max(abs(c.numerator), c.denominator) for c in f.values()).bit_length()
        if bits > MAX_POWER_BITS:
            return f"power coefficient bits {bits} exceeds the bit cap {MAX_POWER_BITS}"
    if (degree + 1) ** 2 > MAX_BOX:  # else no box can exceed the cap
        if g is None:
            widths = [k * w for w in _widths(f)]
        else:
            widths = map(sum, zip(_widths(f), _widths(g)))
        if (box := _box(widths)) > MAX_BOX:
            return f"{what} box {box} exceeds the box cap {MAX_BOX}"
    return None


def _factor(terms: Terms) -> Factors:
    """``terms`` as one factor, sign-normalized; none for a constant or zero."""
    if _degree(terms) == 0:
        return {}
    key = tuple(sorted(_integer_terms(terms.items()).items()))
    sign = 1 if key[0][1] > 0 else -1
    return {tuple((m, sign * c) for m, c in key): 1}


def _merge(f: Factors, g: Factors, k: int = 1) -> Factors:
    """The factors of f * g^k."""
    if not g:
        return f
    out = dict(f)
    for key, e in g.items():
        out[key] = out.get(key, 0) + k * e
    return {key: e for key, e in out.items() if e}


#: Expanded terms and the factors they are the product of.
Parsed = tuple[Terms, Factors]


def _product(f: Parsed, g: Parsed) -> Parsed:
    """f * g: refused above a cap, else expanded, with the factors merged."""
    (f, ff), (g, gf) = f, g
    if refused := _refusal(f, g):
        raise ValueError(refused)
    return _mul_terms(f, g), _merge(ff, gf)


def _power(f: Parsed, k: int) -> Parsed:
    """f^k: refused above a cap, else expanded, with the factors scaled."""
    f, factors = f
    if refused := _refusal(f, k=k):
        raise ValueError(refused)
    return _pow_terms(f, k), _merge({}, factors, k)


@dataclass(frozen=True)
class PlaneElement:
    """Nonzero polynomial in x, y with exact rational coefficients, built by
    :meth:`from_terms` or :func:`parse_poly`, which set its required factors."""

    terms: tuple[tuple[tuple[int, int], Fraction], ...]
    #: The factors whose product it is, up to a constant; one, the element
    #: itself, unless it was built as a product.
    _factors: Factors = field(compare=False, repr=False)

    @staticmethod
    def from_terms(terms: Terms, _factors: Factors | None = None) -> "PlaneElement":
        """The element with these terms, each read by ``exact`` and made a ``Fraction``;
        ``_factors``, if given, are the factors it is the product of, else
        it is its own one factor.

        A numerator or denominator of more than ``MAX_DIGITS`` digits is
        refused: ``str`` could not write it.
        """
        read = ((k, exact(c, "coefficient")) for k, c in terms.items())
        terms = {k: Fraction(c) for k, c in read if c != 0}
        if not terms:
            raise ValueError("zero is not a plane element (its values are infinite)")
        check_digits(max(max(abs(c.numerator), c.denominator) for c in terms.values()), "coefficient")
        if _factors is None:
            _factors = _factor(terms)
        return PlaneElement(terms=tuple(sorted(terms.items())), _factors=_factors)

    def to_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.terms)

    def _parsed(self) -> Parsed:
        return self.to_dict(), self._factors

    def order(self) -> int:
        """Multiplicity at the origin: least total degree of a term."""
        return min(a + b for (a, b), _ in self.terms)

    def __add__(self, other: "PlaneElement") -> "PlaneElement":
        return PlaneElement.from_terms(_accumulate(self.to_dict(), other.to_dict()))

    def __sub__(self, other: "PlaneElement") -> "PlaneElement":
        return PlaneElement.from_terms(_accumulate(self.to_dict(), other.to_dict(), -1))

    def __mul__(self, other: "PlaneElement") -> "PlaneElement":
        return PlaneElement.from_terms(*_product(self._parsed(), other._parsed()))

    def __pow__(self, k: int) -> "PlaneElement":
        if integer(k, "exponent k") < 0:
            raise ValueError("negative powers are not plane elements")
        return PlaneElement.from_terms(*_power(self._parsed(), k))

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
#
# Each rule returns the expanded terms and the factors they are the product
# of: a product merges its operands' factors, a power scales them, and a sum
# of two or more terms is one factor.


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

    def expand(self, op, *operands) -> Parsed:
        """``op(*operands)``, a refusal by a cap raised at this position."""
        try:
            return op(*operands)
        except ValueError as exc:
            self.error(str(exc))

    def parse(self) -> Parsed:
        parsed = self.expr()
        self._skip_ws()
        if self.pos < len(self.text):
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return parsed

    def expr(self) -> Parsed:
        terms, factors = self.term()
        if self.peek() not in ("+", "-"):
            return terms, factors
        terms = dict(terms)
        while (ch := self.peek()) in ("+", "-"):
            self.take()
            _accumulate(terms, self.term()[0], 1 if ch == "+" else -1)
        terms = {k: c for k, c in terms.items() if c}
        return terms, _factor(terms)

    def term(self) -> Parsed:
        parsed = self.unary()
        while self.peek() == "*":
            self.take()
            parsed = self.expand(_product, parsed, self.unary())
        return parsed

    def unary(self) -> Parsed:
        ch = self.peek()
        if ch == "-":
            self.take()
            terms, factors = self.unary()
            return {k: -c for k, c in terms.items()}, factors
        if ch == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> Parsed:
        parsed = self.atom()
        if self.peek() == "^":
            self.take()
            return self.expand(_power, parsed, self.natural("an exponent"))
        return parsed

    def natural(self, what: str) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            self.error(f"expected {what}")
        if self.pos - start > MAX_DIGITS:
            digits, self.pos = self.pos - start, start
            self.error(f"{what} of {digits} digits exceeds the digit cap {MAX_DIGITS}")
        return int(self.text[start : self.pos])

    def atom(self) -> Parsed:
        ch = self.peek()
        if ch == "x":
            self.take()
            return {(1, 0): 1}, {(((1, 0), 1),): 1}
        if ch == "y":
            self.take()
            return {(0, 1): 1}, {(((0, 1), 1),): 1}
        if ch == "(":
            self.take()
            parsed = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.take()
            return parsed
        if "0" <= ch <= "9":
            value = self.natural("a numerator")
            self._skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == "/":
                self.pos += 1
                den = self.natural("a denominator")
                if den == 0:
                    self.error("zero denominator")
                value = Fraction(value, den)
            return ({(0, 0): value} if value != 0 else {}), {}
        if ch == "":
            self.error("unexpected end of input")
        self.error(f"unexpected character {ch!r}")


def parse_poly(text: str) -> PlaneElement:
    """Parse polynomial text into a canonical expanded :class:`PlaneElement`.

    Grammar: variables x and y, operators + - * ^, parentheses, integer and
    a/b rational literals (the slash is part of the literal, there is no
    division operator).  Whitespace is insignificant.  The zero polynomial
    is rejected by :meth:`PlaneElement.from_terms`: its value vector would
    be infinite.  A product or power above one of the caps (``MAX_DEGREE``,
    ``MAX_POWER_BITS``, ``MAX_BOX``) raises before it is expanded, and one
    above ``MAX_WORK`` when the expansion reaches that multiplication, as
    does a literal of more than ``MAX_DIGITS`` digits.  The element keeps
    the factors of a product, for :func:`multiplicity_vector`.
    """
    return PlaneElement.from_terms(*_Parser(text).parse())


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


def _integer_terms(items) -> IntTerms:
    """A primitive integer multiple of the polynomial with these (monomial, coefficient) items."""
    return _primitive(_numerators(dict(items))[0])


def _blow_finite(terms: IntTerms, t: Fraction, m: int) -> IntTerms:
    """(x, y) -> (u, u(t + v)), divided by u^m, up to a constant factor.

    With t = p/q and B the largest y-exponent, q^B times the substitution
    sends c x^a y^b to c q^(B - b) u^(a + b - m) (p + q v)^b, expanded by
    the binomial theorem; the coefficients of each power of u are summed in
    one list indexed by the exponent of v.
    """
    p, q = t.numerator, t.denominator
    top = max(b for _, b in terms)
    binomial = [[comb(b, k) * p ** (b - k) * q**k for k in range(b + 1)] for b in range(top + 1)]
    rows: dict[int, list[int]] = {}
    for (a, b), c in terms.items():
        row = rows.setdefault(a + b - m, [0] * (top + 1))
        c *= q ** (top - b)
        for k, e in enumerate(binomial[b]):
            row[k] += c * e
    return _primitive({(u, k): c for u, row in rows.items() for k, c in enumerate(row) if c})


def _blow_infinity(terms: IntTerms, m: int) -> IntTerms:
    """(x, y) -> (uv, v), then divide by v^m."""
    return {(a, a + b - m): c for (a, b), c in terms.items()}


def _walk(cluster: Cluster, terms: IntTerms) -> tuple[int, ...] | int:
    """Multiplicities of the strict transforms of one factor, or the first
    point it reaches whose position was never recorded.

    The walk is a preorder from a stack, last child first; a point where
    the transform has order 0 is missed, and so is its subtree.
    """
    m = [0] * len(cluster)
    stack = [(0, terms)]
    while stack:
        i, terms = stack.pop()
        m[i] = order = min(a + b for a, b in terms)
        if not order:
            continue  # unit: the strict transform misses this point and its subtree
        for j in cluster.children(i):
            param = cluster.point(j).param
            if param is None:
                return j
            stack.append((j, _blow_infinity(terms, order) if param == INFINITY
                          else _blow_finite(terms, param, order)))
    return tuple(m)


def _preorder(cluster: Cluster) -> dict[int, int]:
    """Each point's rank in the walk's order, over the whole cluster."""
    order, stack = [], [0]
    while stack:
        order.append(i := stack.pop())
        stack.extend(cluster.children(i))
    return {i: rank for rank, i in enumerate(order)}


def multiplicity_vector(cluster: Cluster, f: PlaneElement) -> tuple[int, ...]:
    """Multiplicity of the strict transform of ``f`` at every cluster point.

    Walks the constellation top-down for each factor of ``f``, recentering
    its local equation by the fixed chart substitutions; the multiplicity
    at a point is the sum over the factors of exponent times order.  Each
    distinct factor is walked once per cluster, until the next insert: the
    cluster keeps its result.  Points missed by the strict transform get
    multiplicity 0; a point the transform reaches whose position was never
    recorded raises :class:`CoordinateError` rather than guessing, naming
    the point the walk of the expanded ``f`` would meet first.
    """
    memo = cluster._walks
    walks = []
    for key, e in f._factors.items():
        if (walked := memo.get(key)) is None:
            walked = memo[key] = _walk(cluster, dict(key))
        walks.append((walked, e))
    if missed := [j for j, _ in walks if type(j) is int]:
        rank = _preorder(cluster)
        j = min(missed, key=lambda j: rank[cluster.point(j).parent])
        raise CoordinateError(
            f"point {j} has no recorded parameter but the strict "
            f"transform reaches its exceptional line"
        )
    return tuple(sum(e * m[i] for m, e in walks) for i in range(len(cluster)))


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
    terms = _integer_terms(f.terms)
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


def degree_function(d: ExcDivisor, f: PlaneElement) -> int:
    """Degree of ``f`` against the antinef closure of ``d``: sum_i v_i(f) * d_i.

    The d_i are the degree coefficients of the closure.  By Rees's theorem
    d_I(f) = sum_v d_v(I) v(f) over the Rees valuations v of I, for every
    nonzero f, reduced or not (Rees, "Degree functions in local rings",
    Proc. Cambridge Philos. Soc. 57, 1961); so it adds over products,
    d(f g) = d(f) + d(g).
    """
    model = unload(d)
    vv = value_vector(d.cluster, f)
    return sum(v * c for v, c in zip(vv.values, model.degree_coeffs))
