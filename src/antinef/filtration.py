"""Graded families of complete ideals and their limit invariants.

The paper writes the limits of a graded family as intersection products on
a fixed cluster: e(I_n)/n^2 tends to -(env . env) and d_v(I_n)/n to
-(env . E_v), for a nef envelope env.  A family kind is a subclass of
:class:`FiltrationSpec`, the one place a new kind plugs in: it builds
member n and gives its closed forms, the default labels of a
``degree_limits`` task and the embedding of the graded-law spot check.
Where the theory gives no closed form a method returns ``None``; the family
functions then report an estimate (last iterate, Richardson value and an
empirical rate exponent), and never ask which kind they hold.  A report
carries its sequence as integer numerators a_n over n^k, from the members'
own integers to the printed cells; only its O(1) summary values are
``Fraction``s.

* ``QDivisorialSpec`` - the valuation-theoretic family on a fixed cluster
  cut out by an effective rational divisor: member n is the antinef
  closure of ceil(n * delta), unloaded from ceil(n * env), where env is
  the nef envelope of delta, or from its max with member n - 1 when the
  memo holds that one.
* ``Example42Spec`` - the built-in growing family: member n is the
  antinef divisor (2n+1, 2n+2, ..., 2n+2) on a star of n free points on
  the first exceptional curve, or its pull-back to any larger star.  Its
  limit of summed degree contributions is twice the order of the test
  element while the sum of the individual limits is the order itself, so
  the two operations do not commute.
* ``ExplicitSpec`` - a user-supplied table n -> integer divisor, on any
  cluster; no closed forms, estimates only.

A member is its :class:`CompleteIdealModel`: ``model.divisor.cluster`` is
the cluster it lives on.  One sweep per family: :meth:`FiltrationSpec.member`
memoizes, so member n is realized (through :func:`realize`) at most once per
spec and is shared by every task and label that reads the family; a
``QDivisorialSpec`` likewise computes its nef envelope and closed degrees
once.  A sweep first tells the spec how far it goes
(:meth:`FiltrationSpec.reserve`): an ``Example42Spec`` builds one star of N
points there and realizes every member of the sweep on it, so a sweep to N
inserts N points and builds one tree form.  The memo lives exactly as long
as the spec object, so nothing carries over between scenario parses or CLI
runs.  It assumes that a spec, its table and its clusters are not mutated
after the first sweep.  :func:`realize` itself is not cached: every call
returns a new member.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from fractions import Fraction
from operator import mul
from typing import Mapping, Optional, Sequence

from .cluster import Cluster, _Record, new_cluster
from .curves import PlaneElement, value_vector, _is_squarefree
from .divisor import (
    CompleteIdealModel,
    ExcDivisor,
    _pairings,
    nef_envelope,
    intersect,
    unload,
)
from .rationals import exact, integer, parse_integer

_LABEL = re.compile(r"v[0-9]+")
#: Example42Spec's closed values, made once: every call returns the same object.
_ZERO, _ONE, _FOUR = Fraction(0), Fraction(1), Fraction(4)

__all__ = [
    "QDivisorialSpec",
    "Example42Spec",
    "ExplicitSpec",
    "FiltrationSpec",
    "LimitReport",
    "CommutationReport",
    "ReesUnionReport",
    "realize",
    "multiplicity_sequence",
    "degree_limit",
    "commutation_report",
    "rees_union",
    "spot_check_graded_law",
    "parse_label",
]


class FiltrationSpec(_Record):
    """A graded family: the member memo, and the protocol each kind overrides."""

    __slots__ = ("_members",)

    def __init__(self):
        object.__setattr__(self, "_members", {})

    def build(self, n: int) -> CompleteIdealModel:
        """Member n as a new model; :func:`realize` is the one caller.

        A kind may start from a member already in the memo, but never asks
        :meth:`member` for one: that would recurse once per missing index.
        """
        raise NotImplementedError

    def reserve(self, nmax: int) -> None:
        """Told by a sweep, before its first member, that it goes to ``nmax``.

        Nothing to do here; a kind whose members can share one cluster
        builds it now.
        """

    def member(self, n: int) -> CompleteIdealModel:
        """Member n, realized on the first request only."""
        if n not in self._members:
            self._members[n] = realize(self, n)
        return self._members[n]

    def closed_multiplicity(self) -> Optional[Fraction]:
        """The limit of e(I_n)/n^2, or ``None`` without a closed form."""
        return None

    def closed_degree(self, v: int) -> Optional[Fraction]:
        """The limit of d_v(I_n)/n, or ``None``; a label with no curve raises."""
        return None

    def closed_sum_limit(self, vv: Sequence[int], sum_of_limits: Fraction) -> Fraction:
        """Asked only when every single limit is closed; by default they commute."""
        return sum_of_limits

    def default_labels(self) -> Optional[tuple[int, ...]]:
        """Labels for a ``degree_limits`` task naming none; ``None``: v0..v(nmax)."""
        return None

    def embed(self, k: int, cluster: Cluster) -> CompleteIdealModel:
        """Member k as a complete ideal on ``cluster``: here its own cluster."""
        model = self.member(k)
        if model.divisor.cluster is not cluster:
            raise ValueError("spot check needs a common cluster across indices")
        return model


class QDivisorialSpec(FiltrationSpec):
    """Valuation-theoretic family on a fixed cluster: closure of ceil(n delta)."""

    _fields = ("delta",)

    def __init__(self, delta: ExcDivisor):
        if not delta.is_effective():
            raise ValueError("the generating divisor must be effective")
        super().__init__()
        object.__setattr__(self, "delta", delta)

    @property
    def cluster(self) -> Cluster:
        return self.delta.cluster

    @cached_property
    def envelope(self) -> ExcDivisor:
        """The nef envelope of delta, computed once per spec object."""
        return nef_envelope(self.delta)

    @cached_property
    def closed_degrees(self) -> tuple[Fraction, ...]:
        """Every -(envelope . E_v), from one pass over the form."""
        env = self.envelope
        pair = _pairings(self.cluster.tree_form(), env._nums)
        return tuple(Fraction(-s, env._den) for s in pair)

    def build(self, n: int) -> CompleteIdealModel:
        """closure(ceil(n delta)), unloaded from ceil(n env) with env the envelope.

        The two closures agree.  Write D = ceil(n delta) and
        E = ceil(n env).  Since delta <= env, D <= E.  closure(D) is
        integral, antinef and >= n delta, so it is >= n env, the least
        antinef divisor above n delta, and being integral it is >= E.
        Raising from any integral divisor between D and closure(D) ends at
        closure(D) (see :func:`unload`), so closure(E) = closure(D).  From E
        the raise loop is short: with k the denominator of env and
        r = n mod k, closure(D) - n env <= closure(ceil(r delta)) - r env,
        since (n - r) env is integral and antinef, so the raising does not
        grow with n as it does from D.

        When member n - 1 is in the memo, the start is the componentwise
        max of E and D' = closure(ceil((n - 1) delta)), which lies in the
        same interval: delta is effective, so ceil((n - 1) delta) <= D, and
        the closure is monotone, so D' <= closure(D).  Thus
        D <= E <= max(E, D') <= closure(D), and raising from there ends at
        closure(D) too.
        """
        env = self.envelope
        start = [-(-n * a // env._den) for a in env._nums]  # E = ceil(n env)
        prev = self._members.get(n - 1)
        if prev is not None:
            start = map(max, start, prev.divisor._nums)
        return unload(ExcDivisor._of(self.cluster, tuple(start)))

    def closed_multiplicity(self) -> Fraction:
        return -intersect(self.envelope, self.envelope)

    def closed_degree(self, v: int) -> Fraction:
        if v >= self.cluster.n_curves:
            raise ValueError(f"unknown valuation label v{v} on a cluster with "
                             f"{self.cluster.n_curves} curves")
        return self.closed_degrees[v]

    def default_labels(self) -> tuple[int, ...]:
        return tuple(range(self.cluster.n_curves))


class Example42Spec(FiltrationSpec):
    """Growing star family: n free points on the first exceptional curve.

    ``params`` positions the points; omitted, point i sits at parameter
    i - 1 (any pairwise distinct choice works).  A finite tuple caps the
    realizable index.

    Members share one star: a sweep to N builds the star of N points once
    (:meth:`reserve`), and member n is its divisor pulled back to that star
    (:meth:`embed`).  A later sweep, or a :func:`realize`, that needs more
    points builds a new, larger star; members realized earlier stay on the
    star they were realized on.
    """

    __slots__ = ("params", "_star")
    _fields = ("params",)

    def __init__(self, params: Optional[tuple[Fraction, ...]] = None):
        if params is not None:
            params = tuple(Fraction(exact(p, "parameter")) for p in params)
            if len(set(params)) != len(params):
                raise ValueError("point parameters must be pairwise distinct")
        super().__init__()
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_star", new_cluster())

    def param(self, i: int) -> Fraction:
        """Parameter of the i-th added point, 1-indexed."""
        if self.params is None:
            return Fraction(i - 1)
        if i > len(self.params):
            raise ValueError(
                f"family index {i} exceeds the {len(self.params)} supplied parameters"
            )
        return self.params[i - 1]

    def reserve(self, nmax: int) -> None:
        """Build the star of ``nmax`` points, unless the kept one has as many."""
        if len(self._star) <= nmax:
            star = new_cluster()
            for i in range(1, nmax + 1):
                star.add_free_point(0, self.param(i))
            object.__setattr__(self, "_star", star)

    def build(self, n: int) -> CompleteIdealModel:
        self.reserve(n)
        return self.embed(n, self._star)

    def closed_multiplicity(self) -> Fraction:
        return _FOUR

    def closed_degree(self, v: int) -> Fraction:
        return _ONE if v == 0 else _ZERO

    def closed_sum_limit(self, vv: Sequence[int], sum_of_limits: Fraction) -> Fraction:
        return Fraction(2 * vv[0])

    def embed(self, k: int, cluster: Cluster) -> CompleteIdealModel:
        """I_k on a star of N >= k free points: its divisor pulled back there.

        On the star of k points I_k is (2k+1, 2k+2, ..., 2k+2), which is
        antinef.  Blowing up a point that is not a base point of an ideal
        leaves the ideal as it is (Lipman 1969), so on a star of N points
        I_k's divisor is the pull-back (2k+1, 2k+2 k times, 2k+1 on each of
        the N - k further points).  That is antinef, with pairings 0 on the
        further curves, so :func:`unload` makes no raise step; the closure
        of the zero-padded divisor is the same, after one raise step per
        further curve.
        """
        points = len(cluster)
        if not 0 <= k < points:
            raise ValueError(f"example42 member {k} needs a star of at least {k + 1} points, "
                             f"origin included; the cluster has {points}")
        if len(cluster.children(0)) != points - 1:
            raise ValueError(f"example42 member {k} needs a star, but not every point of "
                             f"the cluster is on curve 0")
        tail = (2 * k + 1,) * (points - 1 - k)
        return unload(ExcDivisor._of(cluster, (2 * k + 1,) + (2 * k + 2,) * k + tail))


class ExplicitSpec(FiltrationSpec):
    """Explicit table n -> integer divisor; authors own the growth law."""

    __slots__ = _fields = ("table",)

    def __init__(self, table: Mapping[int, ExcDivisor]):
        if not table:
            raise ValueError("explicit filtration needs at least one entry")
        for n, d in table.items():
            if not isinstance(d, ExcDivisor):
                raise ValueError(
                    f"explicit table entry {n}: expected an ExcDivisor, got {type(d).__name__}"
                )
            if not d.is_integral():
                raise ValueError(f"explicit table entry {n}: divisor has non-integer coefficients")
        super().__init__()
        object.__setattr__(self, "table", table)

    def build(self, n: int) -> CompleteIdealModel:
        if n not in self.table:
            raise ValueError(f"family index {n} missing from the explicit table")
        return unload(self.table[n])

    def default_labels(self) -> tuple[int, ...]:
        first = next(iter(self.table.values()))
        return tuple(range(first.cluster.n_curves))


def realize(spec: FiltrationSpec, n: int) -> CompleteIdealModel:
    """The n-th member of the family as a complete-ideal model.

    Every call returns a new model; the family functions share members
    through :meth:`FiltrationSpec.member` instead.  An ``Example42Spec``
    realizes it on the spec's star, which it first replaces by a star of n
    points if the kept one has fewer.
    """
    if integer(n, "family index n") < 1:
        raise ValueError("family index must be >= 1")
    if not isinstance(spec, FiltrationSpec):
        raise TypeError(f"not a filtration spec: {spec!r}")
    return spec.build(n)


def spot_check_graded_law(spec: FiltrationSpec, n: int, m: int) -> bool:
    """Check the ideal containment I_n I_m within I_{n+m} at the divisor level.

    This is closure(D_n) + closure(D_m) >= closure(D_{n+m}) componentwise,
    with members n and m embedded in the cluster of member n + m.
    """
    if integer(n, "family index n") < 1 or integer(m, "family index m") < 1:
        raise ValueError("family index must be >= 1")
    big = spec.member(n + m).divisor
    total = spec.embed(n, big.cluster).divisor + spec.embed(m, big.cluster).divisor
    return total.dominates(big)


class LimitReport(_Record):
    """An exact sequence s(n) = a_n / n^k, n = 1..N, with its extrapolated limit.

    It stores the integers a_n as ``numerators`` and k as ``power`` (2 for
    e(I_n)/n^2, 1 for degrees); ``values`` derives s(1..N) as Fractions.
    ``closed_form`` is set when the limit is known exactly; then
    ``envelope_constant`` C and ``monotone_from`` n0 are measured over 1..N,
    not certified beyond: |s(n) - L| <= C/n and is nonincreasing from n0 on.
    Without a closed form the limit is an estimate: ``last`` and
    ``richardson`` are exact rationals but only approximations of the
    limit, and ``rate_exponent`` is a floating diagnostic.
    """

    __slots__ = _fields = ("numerators", "power", "closed_form", "last", "richardson",
                           "rate_exponent", "envelope_constant", "monotone_from")

    def __init__(self, numerators: tuple[int, ...], power: int, closed_form: Optional[Fraction],
                 last: Fraction, richardson: Optional[Fraction], rate_exponent: Optional[float],
                 envelope_constant: Optional[Fraction] = None,
                 monotone_from: Optional[int] = None):
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "closed_form", closed_form)
        object.__setattr__(self, "last", last)
        object.__setattr__(self, "richardson", richardson)
        object.__setattr__(self, "rate_exponent", rate_exponent)
        object.__setattr__(self, "envelope_constant", envelope_constant)
        object.__setattr__(self, "monotone_from", monotone_from)

    @property
    def values(self) -> tuple[Fraction, ...]:
        """s(1..N) as exact rationals."""
        k = self.power
        return tuple(Fraction(a, n**k) for n, a in enumerate(self.numerators, start=1))

    def limit_estimate(self) -> Fraction:
        if self.closed_form is not None:
            return self.closed_form
        if self.richardson is not None:
            return self.richardson
        return self.last


def _make_report(nums: Sequence[int], power: int, closed_form: Optional[Fraction]) -> LimitReport:
    """The report of s(n) = nums[n-1] / n^power.  With L = p/q, |s(n) - L| is
    dev_n / (q n^power), dev_n = |a_n q - p n^power|: the envelope and the
    monotone tail compare integers, and only O(1) summary values are Fractions."""
    nums = tuple(nums)
    n = len(nums)

    def value(k: int) -> Fraction:
        return Fraction(nums[k - 1], k**power)

    last = value(n)
    richardson = None
    if n >= 2:
        richardson = n * last - (n - 1) * value(n - 1)
    rate = None
    base = n // 4
    if base >= 1:
        s1, s2, s3 = value(base), value(2 * base), value(4 * base)
        d1, d2 = s2 - s1, s3 - s2
        if d1 != 0 and d2 != 0 and abs(d2) < abs(d1):
            rate = math.log(abs(float(d1 / d2)), 2.0)
    envelope = None
    monotone_from = None
    if closed_form is not None:
        p, q = closed_form.numerator, closed_form.denominator
        devs = [0] + [abs(a * q - p * k**power) for k, a in enumerate(nums, start=1)]
        top, lower = 1, power - 1  # k |s(k) - L| = devs[k] / (q k^lower)
        for k in range(2, n + 1):
            if devs[k] * top**lower > devs[top] * k**lower:
                top = k
        envelope = Fraction(devs[top], q * top**lower)
        rises = (k for k in range(n, 1, -1) if devs[k] * (k - 1) ** power > devs[k - 1] * k**power)
        monotone_from = next(rises, 0) + 1
        if monotone_from > n:
            monotone_from = None
    return LimitReport(
        numerators=nums,
        power=power,
        closed_form=closed_form,
        last=last,
        richardson=richardson,
        rate_exponent=rate,
        envelope_constant=envelope,
        monotone_from=monotone_from,
    )


def _sweep(spec: FiltrationSpec, nmax: int) -> list[CompleteIdealModel]:
    """Models for n = 1..nmax, in index order, shared through the spec's memo."""
    if integer(nmax, "nmax") < 1:
        raise ValueError("nmax must be >= 1")
    spec.reserve(nmax)
    return [spec.member(n) for n in range(1, nmax + 1)]


def multiplicity_sequence(spec: FiltrationSpec, nmax: int) -> LimitReport:
    """The sequence e(I_n)/n^2 with its limit, closed where the spec has one."""
    models = _sweep(spec, nmax)
    return _make_report([model.multiplicity for model in models], 2, spec.closed_multiplicity())


def parse_label(label) -> int:
    """Accept a curve index or a label like ``v3``."""
    if isinstance(label, str) and _LABEL.fullmatch(label):
        return parse_integer(label[1:], "label")
    if isinstance(label, int) and label >= 0:
        return label
    raise ValueError(f"unknown valuation label {label!r}")


def degree_limit(spec: FiltrationSpec, label, nmax: int) -> LimitReport:
    """The sequence d_v(D_n)/n for one divisorial valuation v.

    Valuations absent from a realized cluster contribute 0 at that index.
    The limit is closed where the spec has a closed degree for v.
    """
    v = parse_label(label)
    closed = spec.closed_degree(v)
    models = _sweep(spec, nmax)
    coeffs = [model.degree_coeffs for model in models]
    return _make_report([d[v] if v < len(d) else 0 for d in coeffs], 1, closed)


class CommutationReport(_Record):
    """Limit of summed degree contributions versus sum of the limits."""

    __slots__ = _fields = ("lim_of_sums", "sum_of_lims", "commute", "sum_is_estimate")

    def __init__(self, lim_of_sums: LimitReport, sum_of_lims: Fraction, commute: bool,
                 sum_is_estimate: bool = False):
        object.__setattr__(self, "lim_of_sums", lim_of_sums)
        object.__setattr__(self, "sum_of_lims", sum_of_lims)
        object.__setattr__(self, "commute", commute)
        object.__setattr__(self, "sum_is_estimate", sum_is_estimate)


def commutation_report(spec: FiltrationSpec, f: PlaneElement, nmax: int) -> CommutationReport:
    """Compare lim_n sum_v v(f) d_v(D_n)/n against sum_v v(f) lim_n d_v(D_n)/n.

    The element must be squarefree (reducedness proxy) and every realized
    cluster must carry coordinates.  For the growing family the two closed
    forms are 2*ord(f) and ord(f): the operations commute only for units.
    """
    if not _is_squarefree(f):
        raise ValueError("element is not squarefree")
    models = _sweep(spec, nmax)
    big_cluster = models[-1].divisor.cluster
    # Without closed forms each single limit is estimated from the members'
    # own coefficients, so curve v must be one valuation in every member.
    if spec.closed_degree(0) is None and any(m.divisor.cluster is not big_cluster for m in models):
        raise ValueError("commutation needs a fixed cluster for explicit tables")

    # One valuation computation on the largest realized cluster covers all
    # indices: values are intrinsic to the valuations.
    vv = value_vector(big_cluster, f).values
    sums = [sum(map(mul, vv, model.degree_coeffs)) for model in models]

    limits = []
    sum_is_estimate = False
    for v in range(big_cluster.n_curves):
        limit = spec.closed_degree(v)
        if limit is None:
            limit = degree_limit(spec, v, nmax).limit_estimate()
            sum_is_estimate = True
        limits.append(limit)
    # One Fraction: integer numerators over the lcm of the limits' denominators.
    den = math.lcm(*(q.denominator for q in limits))
    sum_of_lims = Fraction(sum(a * q.numerator * (den // q.denominator)
                               for a, q in zip(vv, limits)), den)
    closed = None if sum_is_estimate else spec.closed_sum_limit(vv, sum_of_lims)

    report = _make_report(sums, 1, closed)
    if closed is not None:
        commute = closed == sum_of_lims
    else:
        # Estimate regime: agree within the observable resolution.
        tol = Fraction(1, nmax)
        if report.richardson is not None:
            tol = max(tol, 2 * abs(report.last - report.richardson))
        commute = abs(report.limit_estimate() - sum_of_lims) <= tol
    return CommutationReport(
        lim_of_sums=report,
        sum_of_lims=sum_of_lims,
        commute=commute,
        sum_is_estimate=sum_is_estimate,
    )


class ReesUnionReport(_Record):
    """Per-index Rees valuation supports, their union, and a stability flag.

    ``stabilized`` only says the running union did not grow over the last
    quarter of the sweep; it is a heuristic, not a verdict.
    """

    __slots__ = _fields = ("per_n", "union", "stabilized")

    def __init__(self, per_n: tuple[frozenset[int], ...], union: frozenset[int], stabilized: bool):
        object.__setattr__(self, "per_n", per_n)
        object.__setattr__(self, "union", union)
        object.__setattr__(self, "stabilized", stabilized)


def rees_union(spec: FiltrationSpec, nmax: int) -> ReesUnionReport:
    """Rees valuation supports of I_1..I_nmax and their union."""
    models = _sweep(spec, nmax)
    per_n = tuple(model.rees_valuations for model in models)
    union = frozenset().union(*per_n)
    window = -(-nmax // 4)  # ceil(nmax / 4)
    anchor = nmax - window
    stabilized = anchor >= 1 and frozenset().union(*per_n[:anchor]) == union
    return ReesUnionReport(per_n=per_n, union=union, stabilized=stabilized)
