"""The value records: plain classes that keep the semantics of frozen records,
and an import of the package that loads no code-generation machinery."""

import copy
import os
import pickle
import random
import subprocess
import sys

import pytest

from antinef import (
    CommutationReport,
    IntersectionForm,
    LimitReport,
    PointRecord,
    QDivisorialSpec,
    ReesUnionReport,
    ValuationVector,
    commutation_report,
    multiplicity_sequence,
    new_cluster,
    rees_union,
    unload,
    value_vector,
)
from antinef.cluster import TreeForm
from antinef.curves import PlaneElement, _is_squarefree
from antinef.selfcheck import random_effective_divisor, random_integer_divisor
from helpers import random_branch, random_coordinatized_cluster

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
#: Modules a frozen-record decorator would pull in; none is needed to run.
UNWANTED = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_import_loads_no_code_generation_modules():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import antinef.cli, antinef\n"
        "print(antinef.__file__)\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out[0].startswith(SRC)
    loaded = set(out[1].split())
    assert "antinef.cli" in loaded
    assert loaded.isdisjoint(UNWANTED), sorted(loaded.intersection(UNWANTED))


def _replay(cluster):
    """A new cluster with the same points, inserted again."""
    out = new_cluster()
    for rec in cluster.points[1:]:
        if rec.kind == "free":
            out.add_free_point(rec.parent, rec.param)
        else:
            out.add_satellite_point(rec.parent, rec.prox[0])
    return out


def _assert_value(a, b, other=None):
    """a and b are distinct equal records; ``other`` differs from a."""
    assert a is not b and type(a) is type(b)
    assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.__eq__(a._key()) is NotImplemented and a != a._key()
    if other is not None:
        assert a != other and b != other
    fields = ", ".join(f"{name}={getattr(a, name)!r}" for name in a._fields)
    assert repr(a) == f"{type(a).__name__}({fields})"


def _assert_frozen(a):
    for name in a._fields + ("unknown",):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(a, name, None)
    for name in a._fields:
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(a, name)


def _round_trips(a):
    return copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))


def test_cluster_records_are_frozen_values():
    rng = random.Random(20261020)
    for _ in range(60):
        c = random_coordinatized_cluster(rng)
        again = _replay(c)
        for rec, twin in zip(c.points, again.points):
            _assert_value(rec, PointRecord(rec.index, rec.parent, rec.prox, rec.param))
            assert rec == twin
        _assert_value(c.point(1), again.point(1), c.point(0))
        _assert_value(c.tree_form(), again.tree_form())
        _assert_value(c.intersection_matrix(), c.intersection_matrix())
        bigger = _replay(c)
        bigger.add_free_point(0)
        assert c.tree_form() != bigger.tree_form()
        assert c.intersection_matrix() != bigger.intersection_matrix()
        for a in (c.point(len(c) - 1), c.tree_form(), c.intersection_matrix()):
            _assert_frozen(a)
            for same in _round_trips(a):
                assert same == a and type(same) is type(a)
    triangle = TreeForm(diag=(-3, -3, -3), nbrs=((1, 2), (0, 2), (0, 1)))
    assert triangle == TreeForm((-3, -3, -3), ((1, 2), (0, 2), (0, 1)))
    assert IntersectionForm(((-1,),)) == IntersectionForm(entries=((-1,),))


def test_models_and_valuation_vectors_are_frozen_values():
    rng = random.Random(7)
    for _ in range(60):
        c = random_coordinatized_cluster(rng)
        d = random_integer_divisor(rng, c, -2, 8)
        model = unload(d)
        _assert_value(model, unload(d), None if model.divisor.is_zero() else unload(d + d))
        f = PlaneElement.from_terms(random_branch(rng, c))
        vv = value_vector(c, f)
        _assert_value(vv, value_vector(c, f), ValuationVector(c, (0,) * len(c)))
        # equality needs the very same cluster, as for divisors
        assert value_vector(_replay(c), f) != vv
        _assert_frozen(model)
        _assert_frozen(vv)
        # a shallow copy shares the cluster; a deep copy or a pickle makes a new one
        shallow, *deep = _round_trips(model)
        assert shallow == model
        for same in deep:
            assert same.divisor.cluster is not c and same.divisor.coeffs == model.divisor.coeffs
            assert (same.degree_coeffs, same.multiplicity) == (model.degree_coeffs, model.multiplicity)
        shallow, *deep = _round_trips(vv)
        assert shallow == vv
        for same in deep:
            assert same.cluster is not c and same.multiplicities == vv.multiplicities
            assert same.values == vv.values


def test_reports_are_frozen_values():
    rng = random.Random(11)
    for _ in range(12):
        c = random_coordinatized_cluster(rng, max_points=8)
        delta = random_effective_divisor(rng, c)
        f = PlaneElement.from_terms(random_branch(rng, c))
        while not _is_squarefree(f):
            f = PlaneElement.from_terms(random_branch(rng, c))
        nmax = rng.randint(4, 8)

        def report(kind, n):
            return kind(QDivisorialSpec(delta), *([f] if kind is commutation_report else []), n)

        for kind, cls in (
            (multiplicity_sequence, LimitReport),
            (rees_union, ReesUnionReport),
            (commutation_report, CommutationReport),
        ):
            a = report(kind, nmax)
            assert type(a) is cls
            _assert_value(a, report(kind, nmax), report(kind, nmax + 1))
            _assert_frozen(a)
            for same in _round_trips(a):
                assert same == a and type(same) is type(a)
