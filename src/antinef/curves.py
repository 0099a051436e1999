"""Plane elements, blowup valuations and degree functions.

A plane element is a nonzero bivariate polynomial over Q, standing for an
element of the local ring at the origin.  Pushing it through the blowup
charts of a coordinatized cluster yields the multiplicity of its strict
transform at every infinitely near point, hence the vector of divisorial
values.

An element is a rational constant times the factors it was built from,
with their exponents, and each factor's strict transform is walked on its
own: multiplicities add over a product, m_i(f^a g^b) = a m_i(f) + b m_i(g),
and a factor that misses a point drops out of that point's subtree.  A sum
is a constant times one factor.  Each distinct factor is charted once per
cluster, until the next insert: the cluster keeps its multiplicities for
every element it is a factor of.  The values are those of the expanded
polynomial.

A product or power is kept factored: ``*`` and ``^`` merge the factors
and scale their exponents, and build no terms.  The expanded terms are
built only where a sum reads a summand, and when ``terms`` is first read
(``==``, ``hash``, ``repr``, ``str``, ``to_dict``).  Each cap is checked
where its work runs.  ``MAX_DEGREE`` refuses an exponent, and a product or
power whose degree, read exactly from the factors, is above it (``exponent
1001 exceeds the degree cap 1000``).  ``MAX_POWER_BITS`` refuses a power of
numbers too long to take: the constant's, at ``^`` (``power coefficient
bits 11000 exceeds the bit cap 10000``), and a factor's coefficients', where
that power is built.  ``MAX_WORK`` is one budget per expansion: the
coefficient products len(f) * len(g) of all of its multiplications
(``expansion work 1119960 exceeds the work cap 1000000``).  ``MAX_NESTING``
refuses more than 200 open parentheses before any text is read.  The
parser raises :class:`PolynomialSyntaxError` with the position; ``*``,
``**``, ``+``, ``-`` and reading ``terms`` raise ``ValueError``.  So an element
whose expansion a cap refuses is still valued factor by factor.

A parse reads each distinct parenthesized group once: the parser keeps
each group's element by the exact text between its parentheses, whitespace
included, and a later copy of that text is not read again.  A scenario
keeps one such memo for all of its ``poly =`` lines; :func:`parse_poly`
keeps one for its own call.  Nothing carries over between two parses.  A
group's element depends only on its text, and a refusal inside a group
ends the parse before the group is kept, so every element, refusal and
position is that of parsing each copy.

Chart conventions match :mod:`antinef.cluster`: at a free point with finite
parameter t the previous coordinates are (u, u(t + v)) and the exceptional
curve of the blown-up point is u = 0; at parameter ``inf`` they are (uv, v)
with the exceptional curve v = 0.  A finite chart is the substitution
itself, term by term.  A satellite's recorded parameter is its
position on its parent's curve (``inf`` or 0), so it takes the same charts.
A child off the strict transform's tangent cone is not charted: its
multiplicity is 0, read from the initial form at its parent, and the walk
skips its subtree.  The parser keeps integer coefficients as ``int``; a
product with an a/b literal is multiplied as integers over one common
denominator.  An element is refused if its constant or a factor's
coefficient has a numerator or denominator of more than ``MAX_DIGITS``
digits, which ``str`` could not write, and so is reading ``terms`` where an
expanded coefficient has: a sum is checked as a product is.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm

from .cluster import Cluster, _Record
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

#: Largest exponent, and total degree of a power or product; without it one
#: short line such as ``y^100000`` runs for minutes.
MAX_DEGREE = 1000
#: Largest k * b of a power of numbers c^k, b the longest numerator or
#: denominator of the c in bits: ``(2^999)^999`` would be a million-bit integer.
MAX_POWER_BITS = 10_000
#: Most coefficient products, len(f) * len(g) summed over all the
#: multiplications of one expansion, checked before each of them:
#: ``(1+x+y)^1000`` would run for hours.
MAX_WORK = 1_000_000
#: Most parentheses open at once: the parser recurses four frames a level,
#: and the interpreter's recursion limit stops it near 240 levels.
MAX_NESTING = 200


def _numerators(f: Terms) -> tuple[IntTerms, int]:
    """f as integer numerators over one common denominator."""
    if all(type(c) is int for c in f.values()):
        return f, 1
    den = lcm(*(c.denominator for c in f.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in f.items()}, den


def _primitive(terms: IntTerms) -> IntTerms:
    """``terms`` divided by the gcd of its coefficients."""
    g = gcd(*terms.values())
    return terms if g == 1 else {k: c // g for k, c in terms.items()}


def _magnitude(numbers) -> int:
    """The largest numerator or denominator of these numbers."""
    return max((max(abs(c.numerator), c.denominator) for c in numbers), default=0)


def _check_bits(numbers, k: int) -> None:
    """Refuse raising these numbers to the k-th power above the bit cap."""
    if (bits := k * _magnitude(numbers).bit_length()) > MAX_POWER_BITS:
        raise ValueError(f"power coefficient bits {bits} exceeds the bit cap {MAX_POWER_BITS}")


def _mul_terms(f: Terms, g: Terms, spent: list[int]) -> Terms:
    """Product of two term dicts, its len(f) * len(g) coefficient products
    charged to ``spent[0]``, the work of the expansion so far; ``ValueError``
    where that passes the work cap.

    The coefficients are multiplied as integers over one common denominator,
    divided out once per term of the result: a ``Fraction`` product would
    pay a gcd per coefficient product.
    """
    spent[0] += len(f) * len(g)
    if spent[0] > MAX_WORK:
        raise ValueError(f"expansion work {spent[0]} exceeds the work cap {MAX_WORK}")
    if len(f) < len(g):
        f, g = g, f
    (f, df), (g, dg) = _numerators(f), _numerators(g)
    out = {}
    for (a2, b2), c2 in g.items():  # the shorter operand outside
        for (a1, b1), c1 in f.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    den = df * dg
    return {k: c if den == 1 else Fraction(c, den) for k, c in out.items() if c}


def _pow_terms(f: Terms, k: int, spent: list[int]) -> Terms:
    """f^k, refused above the bit cap for k >= 2: a term's power at once,
    else by square-and-multiply, each multiplication charged to ``spent``."""
    if k >= 2:
        _check_bits(f.values(), k)
    if len(f) == 1:
        [((a, b), c)] = f.items()
        return {(k * a, k * b): c**k}
    out = None
    while k:
        if k & 1:
            out = f if out is None else _mul_terms(out, f, spent)
        k >>= 1
        if k:
            f = _mul_terms(f, f, spent)
    return {(0, 0): 1} if out is None else out


def _accumulate(total: Terms, g: Terms, sign: int = 1) -> Terms:
    """Add sign * g into ``total`` in place, so that a sum costs time linear
    in its terms, and return it; zero terms are kept."""
    for k, c in g.items():
        total[k] = total.get(k, 0) + sign * c
    return total


def _sum(terms: Terms) -> "PlaneElement":
    """The element of a sum's accumulated terms, its zero terms dropped: a
    constant times one sign-normalized factor, or a constant.  The parser's
    sums, ``+``, ``-`` and :meth:`PlaneElement.from_terms` all end here."""
    terms = {k: c for k, c in terms.items() if c}
    degree = max((a + b for a, b in terms), default=0)
    if degree == 0:
        return PlaneElement(terms.get((0, 0), 0), {}, 0)
    key = tuple(sorted(_primitive(_numerators(terms)[0]).items()))
    if key[0][1] < 0:
        key = tuple((m, -c) for m, c in key)
    (m, c) = key[0]
    constant = Fraction(terms[m]) / c
    constant = constant.numerator if constant.denominator == 1 else constant
    return PlaneElement(constant, {key: 1}, degree)


def _merge(f: Factors, g: Factors, k: int = 1) -> Factors:
    """The factors of f * g^k, k >= 0: f or g itself where it is that
    product, since no factors are changed in place."""
    if not g or not k:
        return f
    if not f and k == 1:
        return g
    out = dict(f)
    for key, e in g.items():
        out[key] = out.get(key, 0) + k * e
    return out


def _product(f: "PlaneElement", g: "PlaneElement") -> "PlaneElement":
    """f * g: the factors merged and the constants multiplied, refused
    above the degree cap."""
    if (degree := f._degree + g._degree) > MAX_DEGREE:
        raise ValueError(f"product degree {degree} exceeds the degree cap {MAX_DEGREE}")
    constant = f._constant * g._constant
    if not constant:
        return _ZERO
    return PlaneElement(constant, _merge(f._factors, g._factors), degree)


def _power(f: "PlaneElement", k: int) -> "PlaneElement":
    """f^k: the exponents scaled and the constant's power taken, refused
    above the degree cap, then the bit cap on the constant."""
    if k > MAX_DEGREE:
        raise ValueError(f"exponent {k} exceeds the degree cap {MAX_DEGREE}")
    if (degree := k * f._degree) > MAX_DEGREE:
        raise ValueError(f"power degree {degree} exceeds the degree cap {MAX_DEGREE}")
    _check_bits((f._constant,), k)
    constant = f._constant**k
    if not constant:
        return _ZERO
    return PlaneElement(constant, _merge({}, f._factors, k), degree)


def _sorted(terms: Terms) -> tuple[tuple[tuple[int, int], Fraction], ...]:
    """The terms sorted by monomial, refused where a coefficient has a
    numerator or denominator of more than ``MAX_DIGITS`` digits."""
    check_digits(_magnitude(terms.values()), "coefficient")
    return tuple(sorted((k, Fraction(c)) for k, c in terms.items()))


def _element(f: "PlaneElement") -> "PlaneElement":
    """f, the one exit of the parser and of ``*``, ``**``, ``+`` and ``-``:
    refused if it is zero, or if its constant or a factor's coefficient has
    a numerator or denominator of more than ``MAX_DIGITS`` digits."""
    if not f._constant:
        raise ValueError("zero is not a plane element (its values are infinite)")
    coefficients = (c for key in f._factors for _, c in key)
    check_digits(_magnitude((f._constant, *coefficients)), "coefficient")
    return f


class PlaneElement:
    """Nonzero polynomial in x, y with exact rational coefficients: a
    rational constant times the factors it was built from, which the
    constructor requires.  :func:`parse_poly` and :meth:`from_terms` build
    it; ``*``, ``**``, ``+`` and ``-`` run the parser's rules, whose every
    step, zero included, is an element until :func:`_element` refuses zero
    and oversized digits.

    ``terms`` is the expansion, sorted by monomial, built from the constant
    and the factors when first read, and refused there by the work, bit and
    digit caps.  ``==``, ``hash``, ``repr``, ``str`` and ``to_dict`` read
    it; ``+`` and ``-`` add the expansions, as the parser's sum does;
    :meth:`order` and :func:`multiplicity_vector` read the factors.
    """

    def __init__(self, _constant, _factors: Factors, _degree: int):
        #: The constant c and the factors f_k^e_k, one for a sum; the element
        #: is c * prod f_k^e_k.
        self._constant = _constant
        self._factors = _factors
        #: The total degree, the factors' degrees times their exponents.
        self._degree = _degree

    @cached_property
    def terms(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        return _sorted(self._expansion())

    def _expansion(self) -> Terms:
        """The expanded terms, a new dict: the factors' powers multiplied in
        turn, under one work budget, times the constant.  A factor of
        exponent 1 is its terms as they are."""
        terms, spent = None, [0]
        for key, e in self._factors.items():
            power = dict(key) if e == 1 else _pow_terms(dict(key), e, spent)
            terms = power if terms is None else _mul_terms(terms, power, spent)
        c = self._constant
        c = c.numerator if c.denominator == 1 else c
        if terms is None:
            return {(0, 0): c} if c else {}
        return terms if c == 1 else {k: c * v for k, v in terms.items()}

    @staticmethod
    def from_terms(terms: Terms) -> "PlaneElement":
        """The element with these terms, each read by ``exact``: a constant
        times one factor, refused as the parser's sum is."""
        return _element(_sum({k: exact(c, "coefficient") for k, c in terms.items()}))

    def to_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.terms)

    def order(self) -> int:
        """Multiplicity at the origin: each factor's least total degree, times its exponent."""
        return sum(e * min(a + b for (a, b), _ in key) for key, e in self._factors.items())

    def __eq__(self, other):
        if not isinstance(other, PlaneElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.terms,))

    def __repr__(self):
        return f"PlaneElement(terms={self.terms!r})"

    def __add__(self, other: "PlaneElement") -> "PlaneElement":
        return _element(_sum(_accumulate(self._expansion(), other._expansion())))

    def __sub__(self, other: "PlaneElement") -> "PlaneElement":
        return _element(_sum(_accumulate(self._expansion(), other._expansion(), -1)))

    def __mul__(self, other: "PlaneElement") -> "PlaneElement":
        return _element(_product(self, other))

    def __pow__(self, k: int) -> "PlaneElement":
        if integer(k, "exponent k") < 0:
            raise ValueError("negative powers are not plane elements")
        return _element(_power(self, k))

    def __str__(self):
        """Text that :func:`parse_poly` reads back to an equal element."""
        parts = []
        for (a, b), c in self.terms:
            factors = [f"{v}^{e}" if e > 1 else v for v, e in (("x", a), ("y", b)) if e > 0]
            if c != 1 or not factors:
                factors.insert(0, str(c))
            parts.append("*".join(factors))
        return " + ".join(parts)


#: Zero and the variables.
_ZERO, _X, _Y = PlaneElement(0, {}, 0), _sum({(1, 0): 1}), _sum({(0, 1): 1})


# -- parser ---------------------------------------------------------------
#
# expr   = term { ("+" | "-") term }
# term   = factor { "*" factor }
# factor = { "+" | "-" } atom [ "^" natural ]
# atom   = rational | "x" | "y" | "(" expr ")"
# rational = natural [ "/" natural ]        (the "/" is part of the literal)
#
# Each rule returns a :class:`PlaneElement`, zero included, which
# :func:`_element` refuses at the end.  A factor's signs are counted in a
# loop, and an odd count negates the constant after the power: -x^2 is
# -(x^2).  A product merges its operands' factors and a power scales them,
# building no terms, by the rules ``*`` and ``**`` run; a sum of two or more
# terms expands its terms and is a constant times one factor.  An atom
# "(" expr ")" whose text between the parentheses was read before in this
# parse is the element kept for it.  Only "(" recurses, four frames a level.


def _closing(text: str) -> dict[int, int]:
    """The position of each "(" in ``text`` mapped to that of its matching
    ")", in one pass; an unmatched "(" has none.  A "(" that leaves more
    than ``MAX_NESTING`` open is refused at its position."""
    closing, open_at = {}, []
    for match in re.finditer(r"[()]", text):
        if match.group() == "(":
            open_at.append(match.start())
            if len(open_at) > MAX_NESTING:
                raise PolynomialSyntaxError(f"nesting depth {len(open_at)} exceeds "
                                            f"the depth cap {MAX_NESTING}", match.start())
        elif open_at:
            closing[open_at.pop()] = match.start()
    return closing


class _Parser:
    def __init__(self, text: str, groups: dict[str, PlaneElement]):
        self.text = text
        self.pos = 0
        #: The element of each parenthesized group parsed so far, by its
        #: exact text between the parentheses, whitespace included.
        self.groups = groups
        self.closing = _closing(text)

    def peek(self) -> str:
        """The next character after any whitespace, which is skipped; "" at the end."""
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        self.pos = pos
        return text[pos] if pos < len(text) else ""

    def take(self):
        """Step past the character :meth:`peek` returned."""
        self.pos += 1

    def error(self, message: str):
        raise PolynomialSyntaxError(message, self.pos)

    def expand(self, op, *operands) -> PlaneElement:
        """``op(*operands)``, a refusal by a cap raised at this position."""
        try:
            return op(*operands)
        except ValueError as exc:
            self.error(str(exc))

    def parse(self) -> PlaneElement:
        parsed = self.expr()
        self.peek()
        if self.pos < len(self.text):
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return parsed

    def expr(self) -> PlaneElement:
        first = self.term()
        if self.peek() not in ("+", "-"):
            return first
        # each summand is expanded, and refused, at the token after it, where term() stops
        terms = self.expand(first._expansion)
        while (ch := self.peek()) in ("+", "-"):
            self.take()
            _accumulate(terms, self.expand(self.term()._expansion), 1 if ch == "+" else -1)
        return _sum(terms)

    def term(self) -> PlaneElement:
        parsed = self.factor()
        while self.peek() == "*":
            self.take()
            parsed = self.expand(_product, parsed, self.factor())
        return parsed

    def factor(self) -> PlaneElement:
        negated = False
        while (ch := self.peek()) in ("+", "-"):
            self.take()
            negated ^= ch == "-"
        parsed = self.atom()
        if self.peek() == "^":
            self.take()
            parsed = self.expand(_power, parsed, self.natural("an exponent"))
        if negated:
            return PlaneElement(-parsed._constant, parsed._factors, parsed._degree)
        return parsed

    def natural(self, what: str) -> int:
        self.peek()
        text, start = self.text, self.pos
        while self.pos < len(text) and "0" <= text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            self.error(f"expected {what}")
        if self.pos - start > MAX_DIGITS:
            digits, self.pos = self.pos - start, start
            self.error(f"{what} of {digits} digits exceeds the digit cap {MAX_DIGITS}")
        return int(self.text[start : self.pos])

    def atom(self) -> PlaneElement:
        ch = self.peek()
        if ch in ("x", "y"):
            self.take()
            return _X if ch == "x" else _Y
        if ch == "(":
            end = self.closing.get(self.pos)
            key = None if end is None else self.text[self.pos + 1 : end]
            if (parsed := self.groups.get(key)) is not None:
                self.pos = end + 1
                return parsed
            self.take()
            parsed = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.take()
            self.groups[key] = parsed
            return parsed
        if "0" <= ch <= "9":
            value = self.natural("a numerator")
            self.peek()
            if self.pos < len(self.text) and self.text[self.pos] == "/":
                self.pos += 1
                den = self.natural("a denominator")
                if den == 0:
                    self.error("zero denominator")
                value = Fraction(value, den)
            return PlaneElement(value, {}, 0) if value else _ZERO
        if ch == "":
            self.error("unexpected end of input")
        self.error(f"unexpected character {ch!r}")


def parse_poly(text: str, *, _groups: dict[str, PlaneElement] | None = None) -> PlaneElement:
    """Parse polynomial text into a :class:`PlaneElement`, a constant times
    the factors of the product it was written as.

    Grammar: variables x and y, operators + - * ^, parentheses, integer and
    a/b rational literals (the slash is part of the literal, there is no
    division operator).  Whitespace is insignificant.  The zero polynomial
    is rejected: its value vector would be infinite.  A product or power is
    kept factored, and expanded only where a sum reads it as a summand, or
    when ``terms`` is first read.  An exponent, product or power above
    ``MAX_DEGREE`` raises, and so does a power of a constant above
    ``MAX_POWER_BITS``, at the end of its exponent; a summand whose
    expansion passes ``MAX_POWER_BITS`` or ``MAX_WORK`` raises at the token
    after it; and so does a literal, or the element's constant or a
    factor's coefficient, of more than ``MAX_DIGITS`` digits, a sum's as a
    product's.  A "(" past ``MAX_NESTING`` open raises before any parsing.

    Each distinct parenthesized group, keyed by its exact text between the
    parentheses, whitespace included, is parsed once; ``_groups`` is the
    memo of the scenario this line belongs to, else the call keeps its own.
    Nothing carries over between two calls, or two scenarios.
    """
    return _element(_Parser(text, {} if _groups is None else _groups).parse())


# -- blowup substitutions ---------------------------------------------------
#
# Only the support of each strict transform matters (its least total degree
# is the multiplicity), so the charts work on integer polynomials known up to
# a nonzero constant factor: the root equation is cleared of denominators and
# every chart divides out its integer content.


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
    the transform has order 0 is missed, and so is its subtree.  A child
    off the transform's tangent cone is not charted: at a point of order m
    with initial form sum_b c_b x^(m-b) y^b, the chart at t = p/q has order
    0 unless sum_b c_b p^b q^(m-b) = 0, and the chart at ``inf`` unless
    c_m = 0, so such a child keeps multiplicity 0 and its subtree is missed.
    """
    m = [0] * len(cluster)
    stack = [(0, terms)]
    while stack:
        i, terms = stack.pop()
        m[i] = order = min(a + b for a, b in terms)
        if not order:
            continue  # unit: the strict transform misses this point and its subtree
        cone = {b: c for (a, b), c in terms.items() if a + b == order}
        for j in cluster.children(i):
            param = cluster.point(j).param
            if param is None:
                return j
            if param is INFINITY:
                if order not in cone:
                    stack.append((j, _blow_infinity(terms, order)))
            elif not sum(c * param.numerator**b * param.denominator ** (order - b)
                         for b, c in cone.items()):
                stack.append((j, _blow_finite(terms, param, order)))
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


class ValuationVector(_Record):
    """Multiplicities m_i of the strict transforms of f; the values v_i(f) are derived."""

    _fields = ("cluster", "multiplicities")

    def __init__(self, cluster: Cluster, multiplicities: tuple[int, ...]):
        object.__setattr__(self, "cluster", cluster)
        object.__setattr__(self, "multiplicities", multiplicities)

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


def _rows(key) -> list[list[int]]:
    """A factor's coefficients of y^0, ..., y^d, each a list in x with no
    trailing zeros (empty for a zero coefficient)."""
    d = max(b for (_, b), _ in key)
    e = max(a for (a, _), _ in key)
    rows = [[0] * (e + 1) for _ in range(d + 1)]
    for (a, b), c in key:
        rows[b][a] = c
    for row in rows:
        while row and row[-1] == 0:
            row.pop()
    return rows


def _times(a: list[int], b: list[int]) -> list[int]:
    """The product of two univariate polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def _is_squarefree(f: PlaneElement) -> bool:
    """Squarefreeness over Q, decided exactly in integer arithmetic from the
    factors, without expanding f.

    A nonconstant factor of exponent 2 or more decides at once.  Otherwise
    write f = c(x) pp(x, y) with c the content in y, the product of the
    factors' contents (Gauss's lemma).  Then f is squarefree iff c is
    squarefree in Q[x] and, when d = deg_y f >= 1, disc_y(f) is not the
    zero polynomial.  The discriminant has degree at most (2d - 1) e in x,
    with e = deg_x f, and specializes to disc(f(x0, y)) wherever the leading
    y-coefficient lc_y(f)(x0) is nonzero, which fails at e points at most.
    So f(x0, y), the product of the factors' f_k(x0, y), is tested for a
    repeated factor at x0 = 1, 2, 3, ..., skipping roots of lc_y(f): the
    first squarefree specialization proves f squarefree, and (2d - 1) e + 1
    repeated ones prove it is not.  That is at most 2 d e + 1 points,
    usually one.  (x0 = 0 is left out: any two branches through the origin
    meet there, so it would rarely decide.)  The degrees d and e are the
    sums of the factors'.  The contents and every specialization go
    through :func:`_prs_gcd`.  Each specialization tried is charged d^2
    against ``MAX_WORK``, and past it the check raises ``ValueError``: a
    product with a repeated factor and a large d e, such as
    (y - x)(y^2 - x^2)(1 + x^60 y^60), would try thousands.
    """
    if any(e > 1 for e in f._factors.values()):
        return False
    factors = [_rows(key) for key in f._factors]
    content = [1]
    for rows in factors:
        coeffs = [row for row in rows if row]
        if all(len(row) > 1 for row in coeffs):
            part = coeffs[0]
            for row in coeffs[1:]:
                if len(part) == 1:
                    break
                part = _prs_gcd(part, row)
            content = _times(content, part)
    if not _univariate_squarefree(content):
        return False
    d = sum(len(rows) - 1 for rows in factors)
    if d == 0:
        return True
    e = sum(max(map(len, rows)) - 1 for rows in factors)
    needed = (2 * d - 1) * e + 1
    x0 = spent = 0
    while needed:
        x0 += 1
        if any(_evaluate(rows[-1], x0) == 0 for rows in factors):
            continue
        if (spent := spent + d * d) > MAX_WORK:
            raise ValueError(f"squarefree work {spent} exceeds the work cap {MAX_WORK}")
        special = [1]
        for rows in factors:
            special = _times(special, [_evaluate(row, x0) for row in rows])
        if _univariate_squarefree(special):
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
