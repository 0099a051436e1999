"""Exact arithmetic of exceptional Q-divisors on a cluster resolution.

Divisors live in the strict-transform basis E_0, ..., E_{n-1} with exact
rational coefficients, stored as integer numerators over one positive
common denominator (1 for an integral divisor).  Every operation runs on
those integers, so :func:`unload`, :class:`CompleteIdealModel` and
:func:`nef_envelope` build no ``Fraction``; ``ExcDivisor.coeffs`` is a
``Fraction`` view built on its first read.  The central operations are the
two antinef closures:

* :func:`unload` - the least *integer* antinef divisor dominating an
  integer divisor, computed by the classical fixpoint that keeps raising
  any coefficient whose curve still meets the divisor positively, warm
  started from the rounded-up nef envelope once the raising runs long.
  The result models the complete ideal of global sections.
* :func:`nef_envelope` - the least *rational* antinef divisor dominating
  an effective rational divisor, computed by an exact active-set solve.
  Its self-intersection gives the multiplicity of the associated graded
  family in closed form.

Everything runs on the cluster's :class:`~antinef.cluster.TreeForm`: the
form is a tree with unit edges, so all pairings (D . E_i) cost O(n) and a
linear solve on any set of curves is leaf elimination on the forest they
induce, O(k) exact operations with no fill-in and no pivoting.  The
elimination is fraction-free: each pivot is a ratio of integer subtree
determinants, back substitution does one exact integer division per
coordinate, and the solve returns integer numerators over one denominator,
the lcm of the determinants of the forest's components.

A divisor D is antinef when (D . E_i) <= 0 for every exceptional curve.
On the connected negative definite lattice of a cluster this forces
nonzero antinef divisors to have strictly positive coefficients
everywhere, which :class:`CompleteIdealModel` checks.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from functools import cached_property
from itertools import compress
from operator import mul, neg
from typing import Callable, Optional, Sequence

from .cluster import Cluster, TreeForm, _Record
from .errors import ClusterStructureError
from .rationals import exact, integer

#: Raise steps per curve that :func:`unload` spends before its warm start.
_WARM_START_STEPS = 16

__all__ = [
    "ExcDivisor",
    "CompleteIdealModel",
    "divisor",
    "intersect",
    "is_antinef",
    "unload",
    "nef_envelope",
]


class ExcDivisor(_Record):
    """Exceptional divisor with exact rational coefficients.

    The coefficients are stored as integer numerators ``_nums`` over one
    positive common denominator ``_den``, the lcm of their reduced
    denominators, so the form is canonical and equality and hashing go by
    value; an integral divisor has ``_den == 1``.  All arithmetic runs on
    the numerators.  ``coeffs``, the tuple of ``Fraction`` coefficients, is
    built on its first read and kept.
    """

    _fields = ("cluster", "_nums", "_den")

    def __init__(self, cluster: Cluster, coeffs):
        """Read each coefficient by ``exact``, one per curve."""
        values = [exact(c, "coefficient") for c in coeffs]
        if len(values) != cluster.n_curves:
            raise ValueError(
                f"divisor has {len(values)} coefficients but the cluster has "
                f"{cluster.n_curves} exceptional curves"
            )
        den = math.lcm(*(c.denominator for c in values))
        nums = tuple(c.numerator * (den // c.denominator) for c in values)
        object.__setattr__(self, "cluster", cluster)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _of(cls, cluster: Cluster, nums: tuple[int, ...], den: int = 1) -> "ExcDivisor":
        """The divisor ``nums / den`` for any ``den > 0``, brought to canonical form."""
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                nums, den = tuple(a // g for a in nums), den // g
        out = object.__new__(cls)
        object.__setattr__(out, "cluster", cluster)
        object.__setattr__(out, "_nums", nums)
        object.__setattr__(out, "_den", den)
        return out

    def __reduce__(self):
        return ExcDivisor._of, self._key()

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as ``Fraction``s, built on the first read."""
        return tuple(Fraction(a, self._den) for a in self._nums)

    @staticmethod
    def zero(cluster: Cluster) -> "ExcDivisor":
        return ExcDivisor(cluster, (0,) * cluster.n_curves)

    @staticmethod
    def basis(cluster: Cluster, i: int) -> "ExcDivisor":
        """The basis divisor E_i."""
        if not 0 <= integer(i, "curve index i") < cluster.n_curves:
            raise ValueError(f"no exceptional curve with index {i}")
        coeffs = [0] * cluster.n_curves
        coeffs[i] = 1
        return ExcDivisor(cluster, tuple(coeffs))

    def _check_same(self, other: "ExcDivisor"):
        if other.cluster is not self.cluster:
            raise ValueError("divisors live on different clusters")

    def _combine(self, other: "ExcDivisor", sign: int) -> "ExcDivisor":
        """self + sign * other, over the lcm of the two denominators."""
        self._check_same(other)
        da, db = self._den, other._den
        den = da * db // math.gcd(da, db)
        fa, fb = den // da, sign * (den // db)
        nums = tuple(a * fa + b * fb for a, b in zip(self._nums, other._nums))
        return ExcDivisor._of(self.cluster, nums, den)

    def __add__(self, other: "ExcDivisor") -> "ExcDivisor":
        if not isinstance(other, ExcDivisor):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "ExcDivisor") -> "ExcDivisor":
        if not isinstance(other, ExcDivisor):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "ExcDivisor":
        return ExcDivisor._of(self.cluster, tuple(-a for a in self._nums), self._den)

    def __rmul__(self, scalar) -> "ExcDivisor":
        s = exact(scalar, "scalar")
        p = s.numerator
        nums = tuple(p * a for a in self._nums)
        return ExcDivisor._of(self.cluster, nums, s.denominator * self._den)

    __mul__ = __rmul__

    def ceil(self) -> "ExcDivisor":
        """Componentwise ceiling to an integer divisor."""
        den = self._den
        if den == 1:
            return self
        return ExcDivisor._of(self.cluster, tuple(-(-a // den) for a in self._nums))

    def floor(self) -> "ExcDivisor":
        """Componentwise floor to an integer divisor."""
        den = self._den
        if den == 1:
            return self
        return ExcDivisor._of(self.cluster, tuple(a // den for a in self._nums))

    def is_integral(self) -> bool:
        return self._den == 1

    def is_effective(self) -> bool:
        return all(a >= 0 for a in self._nums)

    def is_zero(self) -> bool:
        return not any(self._nums)

    def dominates(self, other: "ExcDivisor") -> bool:
        """Componentwise >=, by cross-multiplying the positive denominators."""
        self._check_same(other)
        da, db = self._den, other._den
        return all(a * db >= b * da for a, b in zip(self._nums, other._nums))

    def as_integers(self) -> tuple[int, ...]:
        if self._den != 1:
            raise ValueError("divisor has non-integer coefficients")
        return self._nums

    def __repr__(self):
        return "ExcDivisor(" + ", ".join(str(c) for c in self.coeffs) + ")"


def divisor(cluster: Cluster, coeffs) -> ExcDivisor:
    """The :class:`ExcDivisor` with these coefficients: ints, Fractions or ``a/b`` strings."""
    return ExcDivisor(cluster, tuple(coeffs))


def intersect(d1: ExcDivisor, d2: ExcDivisor) -> Fraction:
    """Exact intersection product D1 . D2."""
    d1._check_same(d2)
    pair = _pairings(d1.cluster.tree_form(), d2._nums)
    return Fraction(sum(a * s for a, s in zip(d1._nums, pair) if a), d1._den * d2._den)


def _pairings(form: TreeForm, coeffs: Sequence) -> list:
    """All products (D . E_i), one pass over the form's edges: O(n).

    Starts from the self-intersections m_ii c_i, then adds c_j to curve i
    and c_i to curve j for each edge (i, j).
    """
    pair = list(map(mul, form.diag, coeffs))
    for i, j in form.edges:
        pair[i] += coeffs[j]
        pair[j] += coeffs[i]
    return pair


def is_antinef(d: ExcDivisor) -> bool:
    """True iff (D . E_i) <= 0 for every exceptional curve."""
    return all(s <= 0 for s in _pairings(d.cluster.tree_form(), d._nums))


class CompleteIdealModel(_Record):
    """An antinef integer divisor together with its numerical invariants.

    Models the complete ideal of sections vanishing along the divisor:
    ``degree_coeffs[i]`` is -(D . E_i) and ``multiplicity`` is -(D . D),
    the Hilbert-Samuel multiplicity of the ideal.  :func:`unload` builds
    it; the closure of D is ``unload(D).divisor``, and its fixed part
    ``unload(D).divisor - D``.
    """

    __slots__ = _fields = ("divisor", "degree_coeffs", "multiplicity")

    def __init__(self, divisor: ExcDivisor, degree_coeffs: tuple[int, ...], multiplicity: int):
        if min(degree_coeffs, default=0) < 0:
            raise ValueError("divisor is not antinef")
        nums = divisor._nums
        if any(nums):
            if min(nums) <= 0:
                raise ValueError("nonzero antinef divisor must have full positive support")
            if multiplicity <= 0:
                raise ValueError("nonzero antinef divisor must have positive self-pairing")
        elif multiplicity != 0:
            raise ValueError("zero divisor must have zero multiplicity")
        object.__setattr__(self, "divisor", divisor)
        object.__setattr__(self, "degree_coeffs", degree_coeffs)
        object.__setattr__(self, "multiplicity", multiplicity)

    @property
    def rees_valuations(self) -> frozenset[int]:
        """Curve indices with positive degree coefficient.

        Every degree coefficient is >= 0 (the constructor checks it), so the
        positive ones are the nonzero ones.
        """
        return frozenset(compress(range(len(self.degree_coeffs)), self.degree_coeffs))


def _model(cluster: Cluster, coeffs: Sequence[int], pair: Sequence[int]) -> CompleteIdealModel:
    """Model of the integer divisor ``coeffs`` with pairings ``pair``; e = -sum c_i (D . E_i)."""
    return CompleteIdealModel(
        divisor=ExcDivisor._of(cluster, tuple(coeffs)),
        degree_coeffs=tuple(map(neg, pair)),
        multiplicity=-sum(map(mul, coeffs, pair)),
    )


def _raise(
    form: TreeForm,
    coeffs: list[int],
    pair: list[int],
    select: Optional[Callable[[list[int]], int]],
    limit: Optional[int] = None,
) -> bool:
    """Run the raise loop of :func:`unload` in place, for at most ``limit`` steps.

    ``pair`` holds the pairings (D . E_i) of ``coeffs`` and is kept up to
    date.  Raising curve i changes only its own pairing, which drops to
    <= 0, and raises those of its neighbours, so a violated curve stays
    violated until it is raised.  The violated curves sit in a min-heap; a
    neighbour enters it when its pairing crosses from <= 0 to > 0, so a
    step costs O(degree * log k) for k violated curves.  Returns True once
    the divisor is antinef.  A ``select`` pick outside the violated set
    raises ``ValueError``: raising nothing, the loop would never end.
    """
    if max(pair) <= 0:
        return True  # already antinef: no heap to build
    violated = [i for i, s in enumerate(pair) if s > 0]  # ascending, so a heap
    steps = 0
    while violated:
        if steps == limit:
            return False
        steps += 1
        if select is None:
            i = heapq.heappop(violated)
        else:
            i = select(sorted(violated))
            if i not in violated:
                raise ValueError(f"select picked {i!r}, which is not a violated curve index")
            violated.remove(i)
            heapq.heapify(violated)
        step = -(-pair[i] // -form.diag[i])  # ceil(pair_i / -m_ii), both positive
        coeffs[i] += step
        pair[i] += step * form.diag[i]
        for j in form.nbrs[i]:
            if pair[j] <= 0 < pair[j] + step:
                heapq.heappush(violated, j)
            pair[j] += step
    return True


def unload(
    d: ExcDivisor,
    select: Optional[Callable[[list[int]], int]] = None,
) -> CompleteIdealModel:
    """Least integer antinef divisor dominating ``d``.

    Fixpoint loop: while some (D . E_i) > 0, raise coefficient i by
    ceil((D . E_i) / -(E_i . E_i)).  Negative definiteness guarantees
    termination and the result is independent of the order in which
    violated indices are processed; ``select`` picks among them (defaults
    to the smallest index) and exists so that order independence can be
    exercised directly.  A pick that is not violated raises ``ValueError``.

    ``d`` must be integral but need not be effective: the closure of any
    divisor with no positive part is the zero divisor.

    Warm start: the number of raise steps grows with the size of the
    coefficients.  After ``_WARM_START_STEPS * n`` (16 n) steps the loop
    jumps to the componentwise max of its current state and ceil(env(D+)),
    the rounded-up nef envelope of the positive part, and finishes from
    there; the remaining steps no longer depend on the coefficient size.
    The closure is unchanged: nonzero antinef divisors are positive, so
    closure(D) = closure(D+), which is an integral antinef divisor
    dominating D+ and hence dominates ceil(env(D+)) >= D; every raise state
    also lies between D and closure(D), and raising from any integral
    divisor in that interval ends at closure(D).  The budget keeps small
    inputs, which finish in a few steps, from paying for a rational
    envelope.
    """
    cluster = d.cluster
    form = cluster.tree_form()
    coeffs = list(d.as_integers())
    pair = _pairings(form, coeffs)
    if not _raise(form, coeffs, pair, select, _WARM_START_STEPS * len(coeffs)):
        positive = ExcDivisor._of(cluster, tuple(max(c, 0) for c in d._nums))
        ceiling = nef_envelope(positive).ceil().as_integers()
        coeffs = [max(c, e) for c, e in zip(coeffs, ceiling)]
        pair = _pairings(form, coeffs)
        _raise(form, coeffs, pair, select)
    return _model(cluster, coeffs, pair)


def _solve_active(
    form: TreeForm, delta: Sequence[int], active: set[int]
) -> tuple[list[int], int]:
    """Solve (D . E_i) = 0 for i in ``active`` with D = delta off the set.

    Returns ``(nums, den)``: all n coefficients of D as integer numerators
    over one positive denominator, the lcm of the determinants of the
    components solved (1 when ``active`` is empty).  ``delta`` is integral.

    The active curves induce a forest of the tree form; each component is
    rooted and solved by leaf elimination (Rose, 1970) kept fraction-free
    (Bareiss, 1968).  Let T_u be the determinant of the block of u's
    subtree, P_u the product of T_c over u's children c, and B_u u's
    eliminated right-hand side scaled by P_u; u's pivot is T_u / P_u.
    Folding in child c is three integer products:
    T_u <- T_u T_c - P_u P_c, B_u <- B_u T_c - P_u B_c, P_u <- P_u T_c,
    starting from (m_uu, b_u, 1).  The root gives x = B_root / T_root, so
    X_u = T_root x_u, an integer by Cramer's rule, is B_root at the root and
    X_u = (B_u T_root - X_parent P_u) // T_u below it: one exact division
    per coordinate.  Each T_u is the determinant of a negative definite
    block, so it is nonzero: no pivoting, no fill-in.  A cycle among the
    active curves would make the elimination wrong, so meeting one raises.
    """
    parent: dict[int, Optional[int]] = {}
    solved = []  # (X by curve, T_root) per component
    for root in active:
        if root in parent:
            continue
        parent[root] = None
        order = [root]
        for u in order:  # breadth first; ``order`` grows while it is read
            for v in form.nbrs[u]:
                if v not in active or v == parent[u]:
                    continue
                if v in parent:
                    raise ClusterStructureError(
                        f"active curves {u} and {v} close a cycle; the form is not a tree"
                    )
                parent[v] = u
                order.append(v)
        det: dict[int, int] = {}
        rhs: dict[int, int] = {}
        prod: dict[int, int] = {}
        for u in reversed(order):
            t, p = form.diag[u], 1
            b = -sum(delta[v] for v in form.nbrs[u] if v not in active)
            for v in form.nbrs[u]:
                if v in active and v != parent[u]:
                    tc = det[v]
                    t, b, p = t * tc - p * prod[v], b * tc - p * rhs[v], p * tc
            det[u], rhs[u], prod[u] = t, b, p
        top = det[root]
        xs = {root: rhs[root]}
        for u in order[1:]:
            xs[u] = (rhs[u] * top - xs[parent[u]] * prod[u]) // det[u]
        solved.append((xs, top))
    den = math.lcm(*(top for _, top in solved))  # positive, whatever the signs
    nums = [a * den for a in delta]
    for xs, top in solved:
        scale = den // top  # exact, and negative where top is
        for u, a in xs.items():
            nums[u] = a * scale
    return nums, den


def nef_envelope(delta: ExcDivisor) -> ExcDivisor:
    """Least rational antinef divisor dominating an effective ``delta``.

    Exact active-set iteration: keep the set S of raised coefficients,
    solve (D . E_i) = 0 for i in S with the remaining coefficients pinned
    at delta, and grow S while violations remain.  At the solution exact
    complementarity holds: for every i, either the coefficient was never
    raised or (D . E_i) = 0.  The result is homogeneous under positive
    rational scaling and equals the limit of unload(ceil(n delta))/n.

    S starts as the curves where delta is zero.  Any start whose solution
    lies between delta and the envelope is sound, since growing S only
    raises the solution and no solution exceeds the envelope; this one
    does, because the inverse of a negative definite block with
    nonnegative off-diagonal entries is entrywise <= 0.  Sparse inputs such
    as a multiple of one curve then finish in one or two rounds.  Each
    round is one O(n) pass of pairings plus one leaf-elimination solve
    (:func:`_solve_active`), so the cost is O(rounds * n) with at most n
    rounds.  :func:`unload` relies on the result lying above ``delta``, so
    that is checked on every call.
    """
    if not delta.is_effective():
        raise ValueError("nef envelope needs an effective divisor")
    cluster = delta.cluster
    form = cluster.tree_form()
    # Solved for the integer divisor den * delta, then scaled back by 1/den.
    nums = delta._nums
    active = {i for i, c in enumerate(nums) if c == 0}
    while True:
        coeffs, den = _solve_active(form, nums, active)
        pair = _pairings(form, coeffs)
        violated = [i for i, s in enumerate(pair) if s > 0 and i not in active]
        if not violated:
            break
        active.update(violated)
    out = ExcDivisor._of(cluster, tuple(coeffs), den * delta._den)
    if not out.dominates(delta):
        raise RuntimeError("active-set solve dipped below the input")
    return out
