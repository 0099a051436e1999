"""Clusters of infinitely near points and their lattice data.

A cluster records a finite constellation of points: the origin of the base
surface plus points lying on exceptional curves of earlier blowups.  Blowing
up every point of the cluster yields a resolution whose exceptional curves
E_0, ..., E_{n-1} (one per point, in creation order) carry a negative
definite intersection form.  Everything here is exact integer arithmetic.

Conventions
-----------
* Point order is creation order and is the only ordering; proximity refers
  to indices, never to coordinates.
* A point is *proximate* to the points whose exceptional curves pass through
  it: one curve for a free point (its parent), two for a satellite.
* The proximity matrix P is unitriangular with P[i][j] = -1 exactly when
  point i is proximate to point j.  The intersection form of the strict
  transforms is -(P^T P); this is the canonical divisor basis throughout.
* The form is a weighted tree with unit edges: E_i . E_j is 0 or 1 off the
  diagonal, and the pairs with 1 form a tree on the n curves (the dual
  graph of the resolution).  :meth:`Cluster.tree_form` stores it as its
  diagonal, neighbour lists and edge list, built in O(n); every divisor
  computation runs on that.  :meth:`Cluster.intersection_matrix` expands
  it to a dense matrix for output and tests only.
* Free points may carry a parameter t in Q or ``inf`` locating them on the
  parent's exceptional line.  The blowup charts are fixed: a finite t maps
  parent coordinates (U, V) to (u, u(t + v)), and t = inf maps them to
  (uv, v).  A satellite's position is forced by the structure and recorded
  as its parameter: ``inf`` on the parent's u-axis curve, 0 on its v-axis
  curve.  Free-point parameters are optional; clusters without them support
  every lattice operation but refuse curve evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import ClusterStructureError
from .rationals import INFINITY, exact, format_param, parse_param

__all__ = [
    "PointRecord",
    "Cluster",
    "IntersectionForm",
    "TreeForm",
    "new_cluster",
    "is_negative_definite",
]


class _Record:
    """A frozen record: a subclass lists its fields in ``_fields`` and sets them in
    ``__init__`` by ``object.__setattr__``.  Equality, hashing, ``repr``, copies
    and pickles go by the fields, and none can be assigned or deleted."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key()


class PointRecord(_Record):
    """One point of the constellation.

    Stored: ``index``; ``parent`` (None for the origin); ``prox``, the sorted
    indices of the points it is proximate to; ``param``, its position on the
    parent's curve.  Derived from those: ``kind`` ("origin", "free" or
    "satellite"); ``axis_curves``, the exceptional curves that are the two
    coordinate axes of the local chart centered at the point, as ``(curve on
    u-axis, curve on v-axis)``, either entry possibly absent; and, for
    satellites only, ``crossing_axis``, the parent-chart axis ("u" or "v")
    carrying the second proximity curve.
    """

    __slots__ = _fields = ("index", "parent", "prox", "param")

    def __init__(self, index: int, parent: Optional[int], prox: tuple[int, ...], param=None):
        if isinstance(param, float) and param == INFINITY:
            param = INFINITY  # the one object, as a pickle or a caller may pass another
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "prox", prox)
        object.__setattr__(self, "param", param)

    @property
    def kind(self) -> str:
        return "origin" if self.parent is None else "free" if len(self.prox) == 1 else "satellite"

    @property
    def axis_curves(self) -> tuple[Optional[int], Optional[int]]:
        if len(self.prox) == 2:
            other = self.prox[0]  # the parent is the more recent of the two
            if self.param is INFINITY:
                return (other, self.parent)  # chart (uv, v): E_other on u, E_parent on v
            return (self.parent, other)  # chart (u, uv): E_parent on u, E_other on v
        # a free point has its parent's curve on one axis; the origin has none
        return (None, self.parent) if self.param is INFINITY else (self.parent, None)

    @property
    def crossing_axis(self) -> Optional[str]:
        return ("u" if self.param is INFINITY else "v") if len(self.prox) == 2 else None


class IntersectionForm(_Record):
    """The symmetric form (E_i . E_j) in the strict-transform basis, as row tuples.

    Built afresh on each request.  The form is always -(P^T P), hence
    negative definite; :func:`is_negative_definite` certifies that on
    demand.  Iterating the form yields its rows.
    """

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __iter__(self):
        return iter(self.entries)

    def row(self, i) -> tuple[int, ...]:
        return self.entries[i]


class TreeForm(_Record):
    """The intersection form as a weighted tree.

    ``diag[i]`` is E_i . E_i; E_i . E_j is 1 when j is in ``nbrs[i]`` and 0
    for every other j != i.  ``edges``, derived from ``nbrs``, lists each
    such pair once, as (i, j) with i < j, in the order of ``nbrs``.
    """

    __slots__ = ("diag", "nbrs", "edges")
    _fields = ("diag", "nbrs")

    def __init__(self, diag: tuple[int, ...], nbrs: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "nbrs", nbrs)
        object.__setattr__(self, "edges", tuple(
            [(i, j) for i, ns in enumerate(nbrs) for j in ns if i < j]))


def _as_param(value):
    """Normalize a user-supplied parameter to Fraction | INFINITY | None;
    an infinite value becomes the ``INFINITY`` object itself."""
    if value is None or isinstance(value, Fraction):
        return value
    if value == INFINITY:
        return INFINITY
    if isinstance(value, str):
        return parse_param(value)
    return Fraction(exact(value, "parameter"))


class Cluster:
    """Mutable while being built, then treated as immutable by consumers.

    All derived computations (matrices, value/multiplicity conversions) are
    pure and may be called concurrently on a shared, fully built cluster.
    Two memos live on it until the next insert: the tree form, and
    ``_walks``, which :mod:`antinef.curves` fills with each factor's
    strict-transform multiplicities; its writes are idempotent, so
    concurrent reads stay safe.
    """

    def __init__(self):
        self._points: list[PointRecord] = [PointRecord(index=0, parent=None, prox=())]
        # Kept up to date on insert, so adding a point is O(1) amortized:
        # each point's children in creation order, and the positions taken
        # on its curve (parameter -> the point sitting there).
        self._children: list[list[int]] = [[]]
        self._taken: list[dict] = [{}]
        # The memoized tree form, and the factor walks of antinef.curves
        # (opaque here); every insert resets both.
        self._tree: Optional[TreeForm] = None
        self._walks: dict = {}

    # -- basic views ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> tuple[PointRecord, ...]:
        return tuple(self._points)

    def point(self, i: int) -> PointRecord:
        return self._points[i]

    @property
    def n_curves(self) -> int:
        """Number of exceptional curves: one per point of the cluster."""
        return len(self._points)

    def children(self, i: int) -> tuple[int, ...]:
        return tuple(self._children[i])

    # -- construction -----------------------------------------------------

    def _check_parent(self, parent: int):
        if not isinstance(parent, int) or not 0 <= parent < len(self._points):
            raise ClusterStructureError(f"no point with index {parent}")

    def add_free_point(self, parent: int, param=None) -> int:
        """Append a free point on the exceptional curve of ``parent``.

        The optional ``param`` locates the point on that curve.  Positions
        already taken by a sibling, or lying on the crossing with another
        exceptional curve (a satellite position), are rejected: accepting
        them would silently misrepresent the proximity structure.
        """
        self._check_parent(parent)
        param = _as_param(param)
        if param is not None:
            u_curve, v_curve = self._points[parent].axis_curves
            crossing = u_curve if param is INFINITY else v_curve if param == 0 else None
            if crossing is not None:
                raise ClusterStructureError(
                    f"parameter {format_param(param)} on curve {parent} is the crossing "
                    f"with curve {crossing}; add a satellite point instead"
                )
            j = self._taken[parent].setdefault(param, len(self._points))
            if j != len(self._points):
                raise ClusterStructureError(
                    f"coincident point: parameter {format_param(param)} on curve "
                    f"{parent} is already taken by point {j}"
                )
        return self._append(parent, (parent,), param)

    def add_satellite_point(self, parent: int, other: int) -> int:
        """Append the point where the curves of ``parent`` and ``other`` cross.

        ``parent`` must be the more recent of the two points (the crossing
        lies in its first neighborhood).  The two strict transforms must
        still meet: ``parent`` proximate to ``other`` and no earlier
        satellite already blown up at that crossing.
        """
        self._check_parent(parent)
        self._check_parent(other)
        if parent == other:
            raise ClusterStructureError("satellite needs two distinct curves")
        if parent < other:
            raise ClusterStructureError(
                f"parent must be the most recent of the two points, got parent="
                f"{parent} < other={other}"
            )
        prec = self._points[parent]
        if other not in prec.prox:
            raise ClusterStructureError(
                f"curves {parent} and {other} do not meet (point {parent} is not "
                f"proximate to {other})"
            )
        # Each proximity curve is a chart axis: E_other is on the u-axis (inf) or the v-axis (0).
        position = INFINITY if other == prec.axis_curves[0] else Fraction(0)
        # A free point never sits at a crossing, so only a satellite holds this slot.
        j = self._taken[parent].setdefault(position, len(self._points))
        if j != len(self._points):
            raise ClusterStructureError(
                f"curves {parent} and {other} were separated by blowing up point {j}"
            )
        return self._append(parent, (other, parent), position)

    def _append(self, parent: int, prox: tuple[int, ...], param) -> int:
        """Append a point on the curve of ``parent``; the caller has claimed its slot, if any."""
        index = len(self._points)
        self._points.append(PointRecord(index, parent, prox, param))
        self._children[parent].append(index)
        self._children.append([])
        self._taken.append({})
        self._tree = None
        self._walks = {}
        return index

    # -- lattice data -----------------------------------------------------

    def tree_form(self) -> TreeForm:
        """The form -(P^T P) as a weighted tree, in O(n), kept until the next insert.

        Column i of P holds 1 at row i and -1 at each row k proximate to i,
        so E_i . E_i = -(1 + #{k proximate to i}) and, for i < j,
        E_i . E_j = [j proximate to i] - #{k proximate to both i and j}.
        Only a satellite is proximate to two points, and it is the one point
        blown up where their curves cross: their edge drops to 0 and the
        satellite joins both curves instead.
        """
        if self._tree is None:
            diag = [-1] * len(self._points)
            nbrs: list[set[int]] = [set() for _ in self._points]
            for rec in self._points:
                for i in rec.prox:
                    diag[i] -= 1
                    nbrs[i].add(rec.index)
                    nbrs[rec.index].add(i)
                if len(rec.prox) == 2:
                    a, b = rec.prox
                    nbrs[a].discard(b)
                    nbrs[b].discard(a)
            self._tree = TreeForm(diag=tuple(diag), nbrs=tuple(tuple(sorted(s)) for s in nbrs))
        return self._tree

    def intersection_matrix(self) -> IntersectionForm:
        """The form -(P^T P) on E_0, ..., E_{n-1} as a dense matrix.

        Expanded from :meth:`tree_form` in O(n^2); the divisor layer never
        calls it.
        """
        form = self.tree_form()
        rows = []
        for i, (d, nbrs) in enumerate(zip(form.diag, form.nbrs)):
            row = [0] * len(form.diag)
            row[i] = d
            for j in nbrs:
                row[j] = 1
            rows.append(tuple(row))
        return IntersectionForm(entries=tuple(rows))

    def values_from_multiplicities(self, m: Sequence[int]) -> tuple[int, ...]:
        """Solve P v = m by forward substitution: v_i = m_i + sum of v_j over
        the points i is proximate to.  Exact integer arithmetic."""
        n = len(self._points)
        if len(m) != n:
            raise ValueError(f"expected {n} multiplicities, got {len(m)}")
        v = [0] * n
        for i, rec in enumerate(self._points):
            v[i] = m[i] + sum(v[j] for j in rec.prox)
        return tuple(v)

    def multiplicities_from_values(self, v: Sequence[int]) -> tuple[int, ...]:
        """Inverse of :meth:`values_from_multiplicities`: m = P v."""
        n = len(self._points)
        if len(v) != n:
            raise ValueError(f"expected {n} values, got {len(v)}")
        return tuple(v[i] - sum(v[j] for j in rec.prox) for i, rec in enumerate(self._points))

    def __repr__(self):
        return f"Cluster({len(self._points)} points)"


def new_cluster() -> Cluster:
    """A cluster holding only the origin of the base surface."""
    return Cluster()


def is_negative_definite(mat) -> bool:
    """Exact negative definiteness test by leading principal minors.

    Accepts an :class:`IntersectionForm` or any square symmetric matrix of
    integers, Fractions or ``a/b`` strings (each read by :func:`exact`)
    given as a sequence of rows, first scaled to integers by the lcm of its
    denominators (a positive factor keeps definiteness).  True iff
    (-1)^k det_k > 0 for every leading principal minor det_k, computed with
    one fraction-free (Bareiss) elimination on integers; no floating point
    is involved.
    """
    rows = [[exact(x, "matrix entry") for x in row] for row in mat]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i}, {j})")
    scale = lcm(*(x.denominator for row in rows for x in row))
    a = [[int(x * scale) for x in row] for row in rows]
    prev = 1
    for k in range(n):
        minor = a[k][k]  # after k rounds this is det of the (k+1)-leading block
        if minor == 0 or (minor > 0) == (k % 2 == 0):
            # wrong sign: need (-1)^(k+1) * minor > 0, i.e. minor sign = (-1)^(k+1)
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * minor - a[i][k] * a[k][j]) // prev
        prev = minor
    return True
