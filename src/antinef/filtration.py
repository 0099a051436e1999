"""Graded families of complete ideals and their limit invariants.

Three family variants are supported:

* ``QDivisorialSpec`` - the valuation-theoretic family on a fixed cluster
  cut out by an effective rational divisor: member n is the antinef
  closure of ceil(n * delta).  Its multiplicity and degree limits have
  exact closed forms through the nef envelope.
* ``Example42Spec`` - the built-in growing family: member n lives on a
  cluster with n free points on the first exceptional curve and is the
  antinef divisor (2n+1, 2n+2, ..., 2n+2).  Its limit of summed degree
  contributions is twice the order of the test element while the sum of
  the individual limits is the order itself, so the two operations do
  not commute.
* ``ExplicitSpec`` - a user-supplied table of (cluster, divisor) pairs;
  no closed forms, estimates only.

Limit reports always carry the exact per-index sequence; the extrapolated
limit is exact when a closed form applies and is otherwise flagged as an
estimate (last iterate, Richardson value, and an empirical rate exponent).

One sweep per family: each spec object memoizes its members, so member n is
realized (through :func:`realize`) at most once per spec and is shared by
every task and label that reads the family; a ``QDivisorialSpec`` likewise
computes the nef envelope of its delta once.  The memo lives exactly as long
as the spec object, so nothing carries over between scenario parses or CLI
runs.  It assumes that a spec, its table and its clusters are not mutated
after the first sweep.  :func:`realize` itself is not cached.  The
``parallel`` keyword of the family functions is accepted and ignored: with
shared members a sweep is cheap, and threads running this pure-Python,
lock-bound code measured no faster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .cluster import Cluster, new_cluster
from .curves import PlaneElement, value_vector, _is_squarefree
from .divisor import (
    CompleteIdealModel,
    ExcDivisor,
    divisor,
    nef_envelope,
    intersect,
    unload,
)

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


@dataclass(frozen=True)
class QDivisorialSpec:
    """Valuation-theoretic family on a fixed cluster: closure of ceil(n delta)."""

    delta: ExcDivisor
    _members: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.delta.is_effective():
            raise ValueError("the generating divisor must be effective")

    @property
    def cluster(self) -> Cluster:
        return self.delta.cluster

    @cached_property
    def envelope(self) -> ExcDivisor:
        """The nef envelope of delta, computed once per spec object."""
        return nef_envelope(self.delta)

    def member(self, n: int) -> tuple[Cluster, CompleteIdealModel]:
        return self.cluster, unload((n * self.delta).ceil())


@dataclass(frozen=True)
class Example42Spec:
    """Growing star family: n free points on the first exceptional curve.

    ``params`` positions the points; omitted, point i sits at parameter
    i - 1 (any pairwise distinct choice works).  A finite tuple caps the
    realizable index.
    """

    params: Optional[tuple[Fraction, ...]] = None
    _members: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.params is not None:
            if any(isinstance(p, float) for p in self.params):
                raise ValueError("point parameters must be rational")
            object.__setattr__(self, "params", tuple(Fraction(p) for p in self.params))
            if len(set(self.params)) != len(self.params):
                raise ValueError("point parameters must be pairwise distinct")

    def param(self, i: int) -> Fraction:
        """Parameter of the i-th added point, 1-indexed."""
        if self.params is None:
            return Fraction(i - 1)
        if i > len(self.params):
            raise ValueError(
                f"family index {i} exceeds the {len(self.params)} supplied parameters"
            )
        return self.params[i - 1]

    def member(self, n: int) -> tuple[Cluster, CompleteIdealModel]:
        cluster = new_cluster()
        for i in range(1, n + 1):
            cluster.add_free_point(0, self.param(i))
        coeffs = [2 * n + 1] + [2 * n + 2] * n
        return cluster, unload(divisor(cluster, coeffs))


@dataclass(frozen=True)
class ExplicitSpec:
    """Explicit table n -> (cluster, integer divisor); authors own the growth law."""

    table: Mapping[int, tuple[Cluster, ExcDivisor]]
    _members: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def member(self, n: int) -> tuple[Cluster, CompleteIdealModel]:
        if n not in self.table:
            raise ValueError(f"family index {n} missing from the explicit table")
        cluster, d = self.table[n]
        return cluster, unload(d)


FiltrationSpec = Union[QDivisorialSpec, Example42Spec, ExplicitSpec]


def realize(spec: FiltrationSpec, n: int) -> tuple[Cluster, CompleteIdealModel]:
    """The n-th member of the family as a cluster plus complete-ideal model.

    Computed afresh on every call; the family functions share members
    through the spec's memo instead.
    """
    if n < 1:
        raise ValueError("family index must be >= 1")
    if not isinstance(spec, FiltrationSpec):
        raise TypeError(f"not a filtration spec: {spec!r}")
    return spec.member(n)


def _member(spec: FiltrationSpec, n: int) -> tuple[Cluster, CompleteIdealModel]:
    """Member n of ``spec``, realized on the first request only.

    A non-spec has no memo; :func:`realize` then raises its ``TypeError``.
    """
    members = getattr(spec, "_members", {})
    if n not in members:
        members[n] = realize(spec, n)
    return members[n]


def spot_check_graded_law(spec: FiltrationSpec, n: int, m: int) -> bool:
    """Check the ideal containment I_n I_m within I_{n+m} at the divisor level.

    On a fixed cluster this is closure(D_n) + closure(D_m) >= closure(D_{n+m})
    componentwise.  For the growing family, earlier members are transported
    to the larger cluster by zero-padding and re-closing, which realizes the
    same complete ideal there.
    """
    if isinstance(spec, Example42Spec):
        big, model_big = _member(spec, n + m)

        def embedded(k: int) -> ExcDivisor:
            coeffs = [2 * k + 1] + [2 * k + 2] * k + [0] * (n + m - k)
            return unload(divisor(big, coeffs)).divisor

        total = embedded(n) + embedded(m)
        return total.dominates(model_big.divisor)
    cluster_n, model_n = _member(spec, n)
    cluster_m, model_m = _member(spec, m)
    cluster_nm, model_nm = _member(spec, n + m)
    if cluster_n is not cluster_m or cluster_n is not cluster_nm:
        raise ValueError("spot check needs a common cluster across indices")
    return (model_n.divisor + model_m.divisor).dominates(model_nm.divisor)


@dataclass(frozen=True)
class LimitReport:
    """An exact sequence s(1..N) with its extrapolated limit.

    ``closed_form`` is set when the limit is known exactly; then
    ``envelope_constant`` C and ``monotone_from`` n0 certify that
    |s(n) - L| <= C/n everywhere and is nonincreasing from n0 on.
    Without a closed form the limit is an estimate: ``last`` and
    ``richardson`` are exact rationals but only approximations of the
    limit, and ``rate_exponent`` is a floating diagnostic.
    """

    values: tuple[Fraction, ...]
    closed_form: Optional[Fraction]
    last: Fraction
    richardson: Optional[Fraction]
    rate_exponent: Optional[float]
    envelope_constant: Optional[Fraction] = None
    monotone_from: Optional[int] = None

    @property
    def nmax(self) -> int:
        return len(self.values)

    def limit_estimate(self) -> Fraction:
        if self.closed_form is not None:
            return self.closed_form
        if self.richardson is not None:
            return self.richardson
        return self.last


def _make_report(values: Sequence[Fraction], closed_form: Optional[Fraction]) -> LimitReport:
    values = tuple(values)
    n = len(values)
    last = values[-1]
    richardson = None
    if n >= 2:
        richardson = n * values[-1] - (n - 1) * values[-2]
    rate = None
    base = n // 4
    if base >= 1 and 4 * base <= n:
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
    return LimitReport(
        values=values,
        closed_form=closed_form,
        last=last,
        richardson=richardson,
        rate_exponent=rate,
        envelope_constant=envelope,
        monotone_from=monotone_from,
    )


def _sweep(spec: FiltrationSpec, nmax: int) -> list[CompleteIdealModel]:
    """Models for n = 1..nmax, in index order, shared through the spec's memo."""
    return [_member(spec, n)[1] for n in range(1, nmax + 1)]


def multiplicity_sequence(
    spec: FiltrationSpec, nmax: int, parallel: bool = False
) -> LimitReport:
    """The sequence e(I_n)/n^2 with its limit.

    Closed forms: -(envelope(delta)^2) for the fixed-cluster family, and 4
    for the built-in growing family.  ``parallel`` is ignored.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    models = _sweep(spec, nmax)
    values = [Fraction(model.multiplicity, n * n) for n, model in enumerate(models, start=1)]
    closed = None
    if isinstance(spec, QDivisorialSpec):
        env = spec.envelope
        closed = -intersect(env, env)
    elif isinstance(spec, Example42Spec):
        closed = Fraction(4)
    return _make_report(values, closed)


def parse_label(label) -> int:
    """Accept a curve index or a label like ``v3``."""
    if isinstance(label, int):
        index = label
    elif isinstance(label, str) and label.startswith("v") and label[1:].isdigit():
        index = int(label[1:])
    else:
        raise ValueError(f"unknown valuation label {label!r}")
    if index < 0:
        raise ValueError(f"unknown valuation label {label!r}")
    return index


def degree_limit(
    spec: FiltrationSpec, label, nmax: int, parallel: bool = False
) -> LimitReport:
    """The sequence d_v(D_n)/n for one divisorial valuation v.

    Valuations absent from a realized cluster contribute 0 at that index.
    Closed forms: -(envelope . E_v) for the fixed-cluster family; 1 for the
    first curve of the growing family and 0 for every other one.
    ``parallel`` is ignored.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    v = parse_label(label)
    if isinstance(spec, QDivisorialSpec) and v >= spec.cluster.n_curves:
        raise ValueError(f"unknown valuation label v{v} on a cluster with "
                         f"{spec.cluster.n_curves} curves")
    models = _sweep(spec, nmax)
    values = []
    for n, model in enumerate(models, start=1):
        coeffs = model.degree_coeffs
        values.append(Fraction(coeffs[v], n) if v < len(coeffs) else Fraction(0))
    closed = None
    if isinstance(spec, QDivisorialSpec):
        closed = -intersect(spec.envelope, ExcDivisor.basis(spec.cluster, v))
    elif isinstance(spec, Example42Spec):
        closed = Fraction(1) if v == 0 else Fraction(0)
    return _make_report(values, closed)


@dataclass(frozen=True)
class CommutationReport:
    """Limit of summed degree contributions versus sum of the limits."""

    lim_of_sums: LimitReport
    sum_of_lims: Fraction
    commute: bool
    sum_is_estimate: bool = False


def commutation_report(
    spec: FiltrationSpec, f: PlaneElement, nmax: int, parallel: bool = False
) -> CommutationReport:
    """Compare lim_n sum_v v(f) d_v(D_n)/n against sum_v v(f) lim_n d_v(D_n)/n.

    The element must be squarefree (reducedness proxy) and every realized
    cluster must carry coordinates.  For the growing family the two closed
    forms are 2*ord(f) and ord(f): the operations commute only for units.
    ``parallel`` is ignored.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    if not _is_squarefree(f):
        raise ValueError("element is not squarefree")
    if isinstance(spec, ExplicitSpec):
        clusters = {id(_member(spec, n)[0]) for n in range(1, nmax + 1)}
        if len(clusters) > 1:
            raise ValueError("commutation needs a fixed cluster for explicit tables")

    # One valuation computation on the largest realized cluster covers all
    # indices: values are intrinsic to the valuations.
    big_cluster, _ = _member(spec, nmax)
    vv = value_vector(big_cluster, f).values

    models = _sweep(spec, nmax)
    values = []
    for n, model in enumerate(models, start=1):
        coeffs = model.degree_coeffs
        total = sum(vv[i] * c for i, c in enumerate(coeffs))
        values.append(Fraction(total, n))

    closed = None
    sum_is_estimate = False
    if isinstance(spec, Example42Spec):
        closed = Fraction(2 * vv[0])
        sum_of_lims = Fraction(vv[0])
    elif isinstance(spec, QDivisorialSpec):
        per_curve = [
            -intersect(spec.envelope, ExcDivisor.basis(spec.cluster, i))
            for i in range(spec.cluster.n_curves)
        ]
        closed = sum((vv[i] * c for i, c in enumerate(per_curve)), Fraction(0))
        sum_of_lims = closed
    else:
        sum_is_estimate = True
        per_curve = []
        for i in range(big_cluster.n_curves):
            rep = degree_limit(spec, i, nmax)
            per_curve.append(rep.limit_estimate())
        sum_of_lims = sum(
            (vv[i] * c for i, c in enumerate(per_curve)), Fraction(0)
        )

    report = _make_report(values, closed)
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


@dataclass(frozen=True)
class ReesUnionReport:
    """Per-index Rees valuation supports, their union, and a stability flag.

    ``stabilized`` only says the running union did not grow over the last
    quarter of the sweep; it is a heuristic, not a verdict.
    """

    per_n: tuple[frozenset[int], ...]
    union: frozenset[int]
    stabilized: bool


def rees_union(spec: FiltrationSpec, nmax: int, parallel: bool = False) -> ReesUnionReport:
    """Rees valuation supports of I_1..I_nmax and their union; ``parallel`` is ignored."""
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    models = _sweep(spec, nmax)
    per_n = tuple(model.rees_valuations for model in models)
    running: list[frozenset[int]] = []
    acc: frozenset[int] = frozenset()
    for s in per_n:
        acc = acc | s
        running.append(acc)
    window = -(-nmax // 4)  # ceil(nmax / 4)
    anchor = nmax - window
    stabilized = anchor >= 1 and running[anchor - 1] == running[-1]
    return ReesUnionReport(per_n=per_n, union=running[-1], stabilized=stabilized)
